//! Replica state is sized by live requests, not by trace length: a long
//! stream of requests with a bounded number live at once must never grow
//! the scheduler's request slots or the block manager's per-request tables
//! past the peak live count.

use vidur_core::rng::SimRng;
use vidur_core::time::SimTime;
use vidur_model::batch::BatchComposition;
use vidur_scheduler::{BatchPolicyKind, ReplicaScheduler, Request, SchedulerConfig};

const REQUESTS: u64 = 10_000;
/// Admission stops topping up the replica at this many outstanding
/// requests.
const MAX_LIVE: usize = 40;

/// Streams `REQUESTS` requests through one scheduler with up to two batches
/// in flight (pipeline-style overlap), topping the replica up to `MAX_LIVE`
/// outstanding requests. Returns the peak outstanding count observed.
fn stream(policy: BatchPolicyKind, blocks: u64, prefix_cache: bool) -> (ReplicaScheduler, usize) {
    let mut s = ReplicaScheduler::new(SchedulerConfig::new(policy, 16), blocks, 16);
    if prefix_cache {
        s.arm_prefix_cache();
    }
    let mut rng = SimRng::new(7);
    let mut next = 0u64;
    let mut peak = 0usize;
    let mut inflight: Vec<BatchComposition> = Vec::new();
    while next < REQUESTS || s.outstanding() > 0 {
        while next < REQUESTS && s.outstanding() < MAX_LIVE {
            let prefill = 16 + rng.next_u64() % 300;
            let decode = 1 + rng.next_u64() % 24;
            let mut req = Request::new(next, SimTime::ZERO, prefill, decode)
                .with_tenant((next % 3) as u32)
                .with_priority((next % 2) as u8);
            if prefix_cache && !next.is_multiple_of(4) {
                req = req.with_prefix(next % 3, prefill.min(64));
            }
            s.add_request(req);
            next += 1;
            peak = peak.max(s.outstanding());
        }
        if inflight.len() < 2 {
            if let Some(batch) = s.next_batch() {
                inflight.push(batch);
                continue;
            }
        }
        let batch = inflight.remove(0);
        s.complete_batch(&batch);
        s.recycle_batch(batch);
    }
    assert_eq!(s.completed(), REQUESTS);
    assert_eq!(s.blocks().num_holders(), 0);
    (s, peak)
}

#[test]
fn slots_stay_within_the_peak_live_count() {
    for policy in [
        BatchPolicyKind::Vllm,
        BatchPolicyKind::SarathiServe { chunk_size: 256 },
        BatchPolicyKind::LightLlm,
    ] {
        // Roomy memory, then tight memory (preemption churn re-admits
        // requests into recycled slots).
        for blocks in [10_000, 300] {
            let (s, peak) = stream(policy, blocks, false);
            assert!(peak <= MAX_LIVE);
            assert!(
                s.slot_capacity() <= peak,
                "{policy}/{blocks}: {} scheduler slots for a peak of {peak} live",
                s.slot_capacity()
            );
            assert!(
                s.blocks().slot_capacity() <= peak,
                "{policy}/{blocks}: {} block-manager slots for a peak of {peak} live",
                s.blocks().slot_capacity()
            );
        }
    }
}

#[test]
fn prefix_borrows_stay_within_the_peak_live_count() {
    let (s, peak) = stream(BatchPolicyKind::SarathiServe { chunk_size: 256 }, 400, true);
    assert!(
        s.prefix_hit_requests() > 0,
        "the stream exercises the prefix tier"
    );
    assert!(s.slot_capacity() <= peak);
    assert!(s.blocks().slot_capacity() <= peak);
}
