//! The parallel sharded event loop — bit-exact with the sequential engine.
//!
//! # Shard model
//!
//! Replicas in an aggregated cluster interact only through the routing tier
//! and the shared metrics collector; the per-replica simulation (batch
//! formation, pipeline occupancy, wakeups, completions) is self-contained.
//! Replicas are therefore dealt round-robin onto `k` shards, each with its
//! own [`ShardQueue`] and [`EngineCore`](crate::engine::EngineCore), and the
//! shards simulate independently. The serial work left on the merger thread
//! is routing and *committing* the shards' measured effects into the tier
//! and the collector.
//!
//! # Speculate and verify
//!
//! Routing is the one cross-shard input, and a stateful policy
//! (least-outstanding, priority-aware, fair-share, affinity, KV-aware) reads
//! the *live* load view at every arrival: an interleaved completion on
//! another shard can change its argmin. One windowed runner therefore treats
//! every placement as a *guess* and checks it against ground truth:
//!
//! 1. The arrival stream is chopped into windows. Each window's arrivals
//!    are routed against a throwaway clone of the tier as of the last
//!    exactly-committed point — speculation with a slightly stale view.
//! 2. Every active shard admits its share of the window and simulates
//!    independently up to the next window boundary, logging its effects.
//!    An attempt that can mispredict first checkpoints the shard's engine
//!    state (core, replicas, queue). A checkpoint costs O(live state), not
//!    O(trace): the replica schedulers and block managers keep live
//!    requests under recycled slots, and the core's runtime source is
//!    shared behind an `Arc` rather than copied.
//! 3. The merger walks the window logs in exact global `(time, seq)` order
//!    and *replays each routing decision on the real tier at its exact
//!    sequential position*, applying the tier effects (finished requests,
//!    free-KV updates) along the way. Match: the placement was right.
//!    Mismatch: the window rolls back — shards restore their checkpoints,
//!    the tier/stampers/seq counter restore theirs — and the window is cut
//!    back to end *at* the mispredicted arrival and re-run with that
//!    placement forced ([`RoutingTier::route_forced`]). The retry
//!    re-speculates the verified prefix identically, so it cannot
//!    mispredict: every window commits after at most one rollback.
//! 4. Only after a window verifies do its metric effects commit (see
//!    *Commit strategies*), so the collector never needs a snapshot.
//!
//! Stateless policies (round-robin, random) are the case that never
//! mispredicts: they are deterministic functions of their own router state
//! and never read the live view, so speculating against any copy of the
//! tier that has routed the same arrivals draws the identical decision (and
//! RNG) sequence the verify pass does. Their windows never checkpoint and
//! are *pipelined*: speculation runs ahead against a persistent tier copy,
//! each shard runs window after window without waiting for the others, and
//! the merger verifies and commits the oldest window every shard has
//! finished while the shards simulate later ones. Verify still replays each
//! route on the real tier, so an impossible mismatch trips an assertion
//! rather than diverging silently.
//!
//! # Determinism argument
//!
//! The sequential engine's event order is exactly `(time, seq)` with `seq`
//! the global insertion counter, and its report is a fold of metric effects
//! in that order. The sharded run reproduces that order bit-for-bit:
//!
//! * Each arrival's global `seq` is its trace index. Within a shard, events
//!   are ordered by `(time, arrival-seq | local push counter)`, which
//!   equals the sequential order restricted to the shard (see
//!   [`vidur_core::shard`]). The verify pass re-derives true global seqs
//!   with one [`ShardStamper`] per shard: a committed handler's children
//!   claim the next counter values in push order.
//! * A window boundary is the next window's first arrival; a local event at
//!   the boundary time always orders after it, so "pop before the
//!   boundary" on a shard equals "globally before the boundary".
//! * The stop conditions fold in too: shards truncate at the deadline (the
//!   sequential run processes every event at `time <= deadline` and drops
//!   exactly one later event without effects), and events after global
//!   completion are provably effect-free wakeups (no batch can be in flight
//!   once every request finished), so draining them is a no-op.
//!
//! # Commit strategies
//!
//! The runner commits a verified window's metric effects in one of two
//! ways, chosen from the input:
//!
//! * **Replay** (the default): shards log every metric effect, and the
//!   merger replays them through the *same* collector methods the
//!   sequential engine calls, in the verified global order — f64
//!   accumulation order, quantile-digest streams, and per-tenant
//!   bookkeeping included. The collector sees the byte-identical call
//!   sequence of a sequential run. A stateless window cannot mispredict, so
//!   its replay runs inside the verify pass; a stateful window's waits
//!   until the whole window has verified.
//! * **Fold** (stateless policy under [`QuantileMode::Mergeable`]): replay
//!   re-executes every metric effect serially, so the merger is the scaling
//!   ceiling. Under mergeable metrics the collector's state is a pure fold
//!   over per-replica single-writer slots, so each shard instead owns a
//!   full [`MetricsCollector`], applies its metric effects to it as its
//!   replicas produce them, and logs only what verify needs: the finished
//!   requests of each retire and the free-KV updates. The merger skips the
//!   metric commit and folds the shard collectors together in shard order
//!   at drain ([`MetricsCollector::merge`]). Because every slot is written
//!   by exactly one replica — whose event stream is identical for any shard
//!   count — the merged report is byte-identical across shard counts
//!   (though not bit-comparable with the other quantile modes).
//!
//! Stateful runs replay in every quantile mode: a fold shard's collector
//! would have to be checkpointed and rolled back with the rest of the
//! shard.
//!
//! # Windows and workers
//!
//! Stateful window sizes come from a rollback-aware [`WindowGovernor`].
//! Windows start at one arrival; a mispredicted window halves the next one,
//! and a clean window doubles it only while the events rolled back over the
//! last few windows stay a small fraction of the events committed over
//! them. All inputs are event counts, so the window sequence — and
//! [`RunStats`] — is reproducible on any host. The floor is exact and
//! cheap: speculation over a single arrival against the committed tier *is*
//! the sequential decision, so a one-arrival window (like a cut-back retry)
//! cannot mispredict and takes no checkpoint at all. A misprediction storm
//! therefore degrades to checkpoint-free one-arrival windows that still run
//! sharded, never to thrashing. Stateless windows simply double from one
//! arrival up to `PIPELINE_WINDOW`. [`ClusterConfig::spec_window`] pins
//! the size for tests that want to force misprediction pressure.
//!
//! Shards run on persistent workers spawned once per run ([`ShardPool`]),
//! at most one thread per core, and an attempt hands a shard over a channel
//! to its worker; per-window cost is a hand-off, not an OS thread spawn.
//! A stateful run's merger runs its share of the shards inline, since it
//! has nothing else to do until the attempt is back. A stateless run's
//! merger runs no shard: it verifies and commits while every worker
//! simulates.
//!
//! Deferred binds are the one thing speculation cannot honor: a deferral
//! parks the request centrally and binds it on a *later* event, possibly on
//! another shard. If any route call defers — during speculation or during
//! verify — the sharded attempt aborts and the caller rebuilds and re-runs
//! sequentially, reporting why in
//! [`RunStats::fallback_reason`](crate::cluster::RunStats).
//!
//! # Fast path and fallback
//!
//! `shards > 1` opts in; the sharded engine runs when the configuration is
//! on its fast path — see [`block_reason`]: jittered runtimes need
//! [`ClusterConfig::rng_version`] 2 (v1 draws CPU-overhead noise from one
//! engine-wide RNG in launch order, which is inherently serial; v2 forks a
//! stream per replica), late-abort must be off (its stop condition depends
//! on the merged metrics mid-run), the fleet must be fixed (elastic events
//! are globally ordered), the prefix cache must be off (hit publication is
//! cross-replica), and the policy must not be the deferred one.
//! Everything else silently uses the sequential engine, which stays the
//! differential oracle: `tests/engine_regression.rs` pins that every
//! scenario reports identically with shards on and off, and that
//! mergeable-mode reports are invariant across shard counts.

use crate::cluster::{batch_bytes, ClusterSimulator, RunStats, SimEvent};
use crate::config::ClusterConfig;
use crate::engine::{EngineCore, EngineReplica, EngineSink, MAX_EVENTS};
use crate::metrics::MetricsCollector;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use vidur_core::metrics::QuantileMode;
use vidur_core::shard::{ShardKey, ShardQueue, ShardStamper};
use vidur_core::time::SimTime;
use vidur_model::batch::BatchComposition;
use vidur_model::shape::PlanTiming;
use vidur_scheduler::replica::CompletionEvent;
use vidur_scheduler::{GlobalPolicyKind, Request, RouteRequest, RoutingTier};
use vidur_workload::Trace;

/// Adaptive windows never grow beyond this (arrivals): past a few thousand
/// arrivals the per-window overheads are fully amortized, while a rollback
/// still only discards bounded work.
const MAX_WINDOW: usize = 4096;
/// Windows a stateless run's shards may run ahead of the oldest window
/// still unverified (see [`WindowRun::run_pipelined`]).
const PIPELINE_DEPTH: usize = 3;
/// Stateless windows grow to this many arrivals, not [`MAX_WINDOW`]: up to
/// [`PIPELINE_DEPTH`] windows of logs are held per shard. On a 2-vCPU host
/// 4096-arrival windows ran no faster than 512 and raised
/// `fleet_mergeable`'s peak RSS by about 20%.
const PIPELINE_WINDOW: usize = 512;
/// Windows the [`WindowGovernor`] looks back over.
const GOVERNOR_SAMPLES: usize = 16;
/// Rolled-back events per committed event, over the governor's look-back,
/// below which a clean window may grow the next one.
const ROLLBACK_BUDGET: f64 = 0.125;
/// Polls of a shard hand-off channel before the receiver parks (see
/// [`recv_polling`]).
const HANDOFF_POLLS: usize = 256;
/// Abort reason when a stateful policy defers: deferred binds happen on
/// later events and may cross shards, which no shard-local replay can honor.
const DEFER_ABORT: &str = "stateful policy deferred a request mid-run";

/// One measured effect, mirroring a [`MetricsCollector`] (or tier) call the
/// sequential engine would have made. Replayed at commit time in exact
/// sequential order.
enum Effect {
    /// `metrics.on_arrival` for a trace request.
    Arrival {
        id: u64,
        decode_tokens: u64,
        tenant: u32,
    },
    /// `metrics.on_op_secs` from a batch's cached plan timing.
    OpSecs {
        replica: u32,
        timing: Arc<PlanTiming>,
    },
    /// `metrics.on_gpu_busy`.
    GpuBusy { replica: u32, gpu_secs: f64 },
    /// `metrics.on_batch_work` + `mark_first_scheduled` for the next
    /// `first_n` ids in the chunk's id stream.
    BatchWork {
        replica: u32,
        tokens: u64,
        requests: u64,
        flops: f64,
        bytes: f64,
        first_n: u32,
    },
    /// `metrics.on_kv_sample` for a replica.
    KvSample { replica: u32, utilization: f64 },
    /// `tier.on_finished` per finished event + `metrics.on_batch_complete`
    /// over the next `n_events` events in the chunk's event stream. Under
    /// the fold commit the events are the finished ones only, and a retire
    /// that finishes nothing is not logged.
    Retire { replica: u32, n_events: u32 },
    /// `tier.set_free_kv_blocks` after a retire.
    FreeKv { replica: u32, free_blocks: u64 },
}

/// One handled event in a shard's stream: when it fired, its shard key (for
/// global-seq reconstruction), how many follow-up events its handler pushed,
/// and how many effects it logged.
#[derive(Clone, Copy)]
struct EntryRec {
    time: SimTime,
    key: ShardKey,
    n_children: u32,
    n_effects: u32,
}

/// One window attempt's log: the handled entries with their flattened
/// effect/event/id streams. Reset, not reallocated, per attempt.
#[derive(Default)]
struct LogChunk {
    entries: Vec<EntryRec>,
    effects: Vec<Effect>,
    events: Vec<CompletionEvent>,
    ids: Vec<u64>,
}

impl LogChunk {
    fn reset(&mut self) {
        self.entries.clear();
        self.effects.clear();
        self.events.clear();
        self.ids.clear();
    }
}

/// [`EngineSink`] that appends effects to the window log. Under the fold
/// commit it owns the shard's collector (`fold`): metric calls apply to it
/// directly, and the log keeps only the tier effects verify needs.
struct LogSink {
    chunk: LogChunk,
    fold: Option<MetricsCollector>,
}

impl LogSink {
    /// A trace request arrived on this shard.
    fn on_arrival(&mut self, now: SimTime, id: u64, decode_tokens: u64, tenant: u32) {
        match &mut self.fold {
            Some(metrics) => metrics.on_arrival(id, now, decode_tokens, tenant),
            None => self.chunk.effects.push(Effect::Arrival {
                id,
                decode_tokens,
                tenant,
            }),
        }
    }
}

impl EngineSink for LogSink {
    fn on_batch_timed(&mut self, replica: usize, timing: &Arc<PlanTiming>) {
        match &mut self.fold {
            Some(metrics) => metrics.on_batch_timed(replica, timing),
            None => self.chunk.effects.push(Effect::OpSecs {
                replica: replica as u32,
                timing: Arc::clone(timing),
            }),
        }
    }
    fn on_gpu_busy(&mut self, replica: usize, gpu_secs: f64) {
        match &mut self.fold {
            Some(metrics) => metrics.on_gpu_busy(replica, gpu_secs),
            None => self.chunk.effects.push(Effect::GpuBusy {
                replica: replica as u32,
                gpu_secs,
            }),
        }
    }
    fn on_batch_scheduled(
        &mut self,
        replica: usize,
        now: SimTime,
        batch: &BatchComposition,
        flops: f64,
        bytes: f64,
    ) {
        if let Some(metrics) = &mut self.fold {
            metrics.on_batch_scheduled(replica, now, batch, flops, bytes);
            return;
        }
        let mut first_n = 0u32;
        for slice in batch.slices() {
            // Same fast-path filter as `MetricsCollector::on_batch_scheduled`;
            // the record-based single authority still decides at replay time.
            if slice.is_prefill && slice.cached_tokens == 0 {
                self.chunk.ids.push(slice.request_id);
                first_n += 1;
            }
        }
        self.chunk.effects.push(Effect::BatchWork {
            replica: replica as u32,
            tokens: batch.total_query_tokens(),
            requests: batch.num_requests() as u64,
            flops,
            bytes,
            first_n,
        });
    }
    fn on_kv_sample(&mut self, replica: usize, now: SimTime, utilization: f64) {
        match &mut self.fold {
            Some(metrics) => metrics.on_kv_sample(replica, now, utilization),
            None => self.chunk.effects.push(Effect::KvSample {
                replica: replica as u32,
                utilization,
            }),
        }
    }
    fn on_batch_complete(&mut self, replica: usize, now: SimTime, events: &[CompletionEvent]) {
        let before = self.chunk.events.len();
        match &mut self.fold {
            Some(metrics) => {
                metrics.on_batch_complete(replica, now, events);
                let finished = events.iter().filter(|ev| ev.finished);
                self.chunk.events.extend(finished);
                if self.chunk.events.len() == before {
                    return;
                }
            }
            None => self.chunk.events.extend_from_slice(events),
        }
        self.chunk.effects.push(Effect::Retire {
            replica: replica as u32,
            n_events: (self.chunk.events.len() - before) as u32,
        });
    }
}

/// Why `config` cannot run sharded, or `None` when it is on the fast path.
/// (Assumes the caller already clamped and checked `shards > 1`.) The
/// reason surfaces verbatim in
/// [`RunStats::fallback_reason`](crate::cluster::RunStats).
pub(crate) fn block_reason(config: &ClusterConfig, jitters: bool) -> Option<&'static str> {
    if jitters && config.rng_version < 2 {
        // v1 draws CPU-overhead noise from one engine-wide RNG in launch
        // order; v2 forks a stream per replica and is shard-invariant.
        return Some("jittered runtimes need per-replica rng streams (rng_version 2)");
    }
    if config.late_abort.is_some() {
        return Some("late-abort guardrail is armed");
    }
    if config.elastic() {
        return Some("elastic fleet (faults or autoscaler) is armed");
    }
    if config.prefix_cache.is_some() {
        return Some("prefix cache is armed");
    }
    if matches!(config.global_policy, GlobalPolicyKind::Deferred { .. }) {
        return Some("deferred policy holds requests centrally");
    }
    None
}

/// Reusable sharded-run scratch hoisted onto the simulator: the `(arrival
/// time, trace idx)`-sorted order, the per-arrival placements, and the
/// per-shard log cursors. The runner re-speculates into `targets` and
/// re-walks the window logs every attempt, so keeping the buffers avoids
/// per-attempt allocations.
#[derive(Debug, Default)]
pub(crate) struct ShardedScratch {
    order: Vec<u32>,
    /// Placement per trace index. Atomic so shard workers can read the
    /// merger's latest speculation through a shared borrow; the channel
    /// hand-off that starts each attempt orders the merger's (relaxed)
    /// writes before the workers' reads.
    targets: Vec<AtomicU32>,
    cursors: Vec<LogCursor>,
}

/// Routes `arrivals` (already in `(arrival time, trace idx)` = sequential
/// pop order) through `tier`, writing each placement into `targets`.
/// The arrival named in `forced` skips the policy and commits to the given
/// replica — the retry path for a window whose earlier speculation
/// misplaced it. Errs when the policy defers (see [`DEFER_ABORT`]).
fn speculate(
    tier: &mut RoutingTier,
    trace: &Trace,
    arrivals: &[u32],
    forced: Option<(u32, u32)>,
    targets: &[AtomicU32],
) -> Result<(), &'static str> {
    for &idx in arrivals {
        let tr = trace.requests[idx as usize];
        let req = RouteRequest {
            key: idx as u64,
            tenant: tr.tenant,
            priority: tr.priority,
            tokens: tr.prefill_tokens + tr.decode_tokens,
        };
        let target = match forced {
            Some((f, t)) if f == idx => {
                tier.route_forced(req, t as usize);
                t as usize
            }
            _ => tier.route(req).ok_or(DEFER_ABORT)?,
        };
        targets[idx as usize].store(target as u32, Relaxed);
    }
    Ok(())
}

/// Runs `sim`'s event loop sharded `num_shards` ways through the windowed
/// runner. On `Ok` the metrics collector, tier, and replicas are in the
/// exact state a sequential `engine::drive` run would have left them in
/// (replay commit) or the canonical merged-fold state (fold commit), with
/// the run's [`RunStats`]. On `Err` a stateful policy deferred a request
/// mid-run: the simulator is torn (the caller rebuilds from its
/// construction seed and re-runs sequentially) and the reason belongs in
/// [`RunStats::fallback_reason`].
pub(crate) fn run_sharded(
    sim: &mut ClusterSimulator,
    num_shards: usize,
) -> Result<RunStats, &'static str> {
    let ClusterSimulator {
        ref config,
        ref trace,
        ref mut engine,
        ref mut replicas,
        ref mut tier,
        // Elastic runs never reach the sharded path (`block_reason` rejects
        // them), so the elastic state stays untouched here.
        elastic: _,
        seed,
        ref mut sharded_scratch,
    } = *sim;

    // Sequential pop order for the pre-pushed arrival set: (arrival time,
    // trace index) — the stable sort keeps equal-time arrivals in trace
    // (= seq) order, matching the global queue.
    let scratch = sharded_scratch;
    scratch.order.clear();
    scratch.order.extend(0..trace.requests.len() as u32);
    scratch
        .order
        .sort_by_key(|&i| trace.requests[i as usize].arrival);
    scratch.targets.clear();
    scratch
        .targets
        .resize_with(trace.requests.len(), AtomicU32::default);

    let stateful = !matches!(
        config.global_policy,
        GlobalPolicyKind::RoundRobin | GlobalPolicyKind::Random
    );
    let fold = !stateful && engine.metrics.mode() == QuantileMode::Mergeable;
    let timer = engine.timer().clone();
    let mut shards: Vec<SpecShard> = (0..num_shards)
        .map(|shard| SpecShard {
            shard,
            num_shards,
            core: EngineCore::with_timer(config, timer.clone(), seed),
            replicas: Vec::new(),
            queue: ShardQueue::new(),
            processed: 0,
            sink: LogSink {
                chunk: LogChunk::default(),
                fold: fold.then(|| fold_collector(config, trace)),
            },
            snapshot: None,
            active: false,
        })
        .collect();
    // Deal replicas round-robin onto shards: global replica r lives on shard
    // r % k at local index r / k.
    for (r, replica) in std::mem::take(replicas).into_iter().enumerate() {
        shards[r % num_shards].replicas.push(replica);
    }
    let stats = run_windowed(
        config,
        trace,
        stateful,
        &mut engine.metrics,
        tier,
        &mut shards,
        scratch,
    )?;
    // Fold commit: merge the shard collectors into the engine's (empty)
    // one, in shard order.
    let mut per_shard = Vec::with_capacity(num_shards);
    for shard in shards {
        if let Some(collector) = shard.sink.fold {
            engine.metrics.merge(collector);
        }
        per_shard.push(shard.replicas);
    }
    *replicas = reassemble(per_shard, num_shards, config.num_replicas);
    Ok(stats)
}

/// A fold-commit shard's collector, armed exactly like the engine's
/// (tenants, SLO, time-series windows): the merged fold is only
/// shard-count-invariant when all partials share one shape.
fn fold_collector(config: &ClusterConfig, trace: &Trace) -> MetricsCollector {
    let mut collector = MetricsCollector::with_mode(config.num_replicas, QuantileMode::Mergeable);
    if !trace.tenants.is_empty() {
        collector.set_tenants(&trace.tenants, config.tenant_slo);
    }
    if let Some(ts) = config.timeseries {
        collector.set_timeseries(ts);
    }
    collector
}

/// Puts shard-dealt replicas back in global order (global replica `r` was
/// dealt to shard `r % k` at local index `r / k`).
fn reassemble(
    per_shard: Vec<Vec<EngineReplica>>,
    num_shards: usize,
    num_replicas: usize,
) -> Vec<EngineReplica> {
    let mut slots: Vec<Option<EngineReplica>> = (0..num_replicas).map(|_| None).collect();
    for (shard, set) in per_shard.into_iter().enumerate() {
        for (local, replica) in set.into_iter().enumerate() {
            slots[shard + local * num_shards] = Some(replica);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every replica returned"))
        .collect()
}

/// Handles one shard-local event, logging its effects into `sink`.
#[allow(clippy::too_many_arguments)]
fn shard_handle(
    core: &mut EngineCore,
    replicas: &mut [EngineReplica],
    num_shards: usize,
    config: &ClusterConfig,
    trace: &Trace,
    targets: &[AtomicU32],
    now: SimTime,
    event: SimEvent,
    queue: &mut ShardQueue<SimEvent>,
    sink: &mut LogSink,
) {
    match event {
        SimEvent::Arrival(idx) => {
            let tr = trace.requests[idx as usize];
            sink.on_arrival(now, tr.id, tr.decode_tokens, tr.tenant);
            let target = targets[idx as usize].load(Relaxed);
            let local = target as usize / num_shards;
            replicas[local].scheduler.add_request(
                Request::new(tr.id, tr.arrival, tr.prefill_tokens, tr.decode_tokens)
                    .with_tenant(tr.tenant)
                    .with_priority(tr.priority),
            );
            shard_try_schedule(core, replicas, num_shards, config, target, now, queue, sink);
        }
        SimEvent::Wakeup(replica) => {
            let local = replica as usize / num_shards;
            replicas[local].clear_wakeup();
            shard_try_schedule(
                core, replicas, num_shards, config, replica, now, queue, sink,
            );
        }
        SimEvent::BatchComplete(replica, id) => {
            let local = replica as usize / num_shards;
            // The tier's `on_finished` is deferred to commit time (the
            // tier is shared); the translate hook is therefore empty.
            core.retire_batch(
                &mut replicas[local],
                replica as usize,
                id,
                now,
                queue,
                sink,
                |_ev, _queue| {},
            );
            sink.chunk.effects.push(Effect::FreeKv {
                replica,
                free_blocks: replicas[local].scheduler.blocks().free_blocks(),
            });
            shard_try_schedule(
                core, replicas, num_shards, config, replica, now, queue, sink,
            );
        }
        SimEvent::Fault(_) | SimEvent::AutoscaleTick | SimEvent::WarmupDone(_) => {
            unreachable!("elastic runs are rejected by the fast-path eligibility check")
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn shard_try_schedule(
    core: &mut EngineCore,
    replicas: &mut [EngineReplica],
    num_shards: usize,
    config: &ClusterConfig,
    replica: u32,
    now: SimTime,
    queue: &mut ShardQueue<SimEvent>,
    sink: &mut LogSink,
) {
    let local = replica as usize / num_shards;
    core.try_schedule(
        &mut replicas[local],
        replica as usize,
        now,
        queue,
        sink,
        |batch| batch_bytes(config, batch),
        || SimEvent::Wakeup(replica),
        |id| SimEvent::BatchComplete(replica, id),
    );
}

/// One shard of the windowed speculate-and-verify runner. It lives across
/// windows: between attempts the merger owns it (rollback, re-admit);
/// during an attempt it is moved to its persistent worker thread (or run
/// inline on the merger thread) and logs into its in-memory window chunk —
/// the whole window log comes back with the shard, and the merger swaps it
/// out for verification.
struct SpecShard {
    shard: usize,
    num_shards: usize,
    core: EngineCore,
    replicas: Vec<EngineReplica>,
    queue: ShardQueue<SimEvent>,
    /// Events handled so far (persists across windows; the [`MAX_EVENTS`]
    /// backstop is per shard).
    processed: u64,
    /// The current window's effect log (the chunk is reset per attempt) and,
    /// under the fold commit, the shard's collector.
    sink: LogSink,
    /// Pre-attempt checkpoint, taken only by attempts that can mispredict;
    /// restored on rollback.
    snapshot: Option<SpecSnapshot>,
    /// Does this shard run the current attempt? Inactive shards (no window
    /// arrivals, no backlog before the boundary) skip the hand-off, the
    /// snapshot, and the rollback.
    active: bool,
}

/// Everything a window can change on a shard (a fold-commit collector
/// aside: fold runs are stateless and never checkpoint). The replica and
/// queue state is sized by live requests and pending events (the runtime
/// source behind the core's timer is shared, not copied), and the queue
/// snapshot pops the exact same sequence as the original.
struct SpecSnapshot {
    core: EngineCore,
    replicas: Vec<EngineReplica>,
    queue: ShardQueue<SimEvent>,
    processed: u64,
}

/// Run-wide, read-only context every window attempt shares.
#[derive(Clone, Copy)]
struct WindowCtx<'a> {
    config: &'a ClusterConfig,
    trace: &'a Trace,
    targets: &'a [AtomicU32],
    deadline: Option<SimTime>,
}

/// One attempt at a window: its arrivals, where it ends, and whether it
/// can mispredict (and so must checkpoint).
#[derive(Clone, Copy)]
struct Attempt<'a> {
    window: &'a [u32],
    boundary: Option<(SimTime, ShardKey)>,
    checkpoint: bool,
}

impl SpecShard {
    /// Checkpoints (when the attempt can mispredict), admits this attempt's
    /// share of the window (arrivals whose speculated target lives here),
    /// and simulates up to — exclusive — the next window's first arrival.
    /// The boundary cut is exact: a local event at the boundary time always
    /// orders *after* the boundary arrival ([`ShardKey::Local`] sorts after
    /// [`ShardKey::Arrival`], and dynamic global seqs all exceed arrival
    /// seqs), so "peek before boundary" equals "globally before the
    /// boundary".
    fn run_window(&mut self, ctx: WindowCtx<'_>, attempt: Attempt<'_>) {
        self.snapshot = attempt.checkpoint.then(|| SpecSnapshot {
            core: self.core.clone(),
            replicas: self.replicas.clone(),
            queue: self.queue.clone(),
            processed: self.processed,
        });
        self.sink.chunk.reset();
        for &idx in attempt.window {
            if ctx.targets[idx as usize].load(Relaxed) as usize % self.num_shards == self.shard {
                self.queue.push_arrival(
                    ctx.trace.requests[idx as usize].arrival,
                    idx as u64,
                    SimEvent::Arrival(idx),
                );
            }
        }
        while let Some(head) = self.queue.peek() {
            if attempt.boundary.is_some_and(|b| head >= b) {
                break;
            }
            // Pops are time-nondecreasing, so a past-deadline head means
            // everything left is past it too; it stays queued, unpopped —
            // the same effect-free drop the sequential engine performs.
            if ctx.deadline.is_some_and(|d| head.0 > d) || self.processed >= MAX_EVENTS {
                break;
            }
            let (time, key, event) = self.queue.pop().expect("peeked head");
            let effects_before = self.sink.chunk.effects.len();
            let pushes_before = self.queue.local_pushes();
            shard_handle(
                &mut self.core,
                &mut self.replicas,
                self.num_shards,
                ctx.config,
                ctx.trace,
                ctx.targets,
                time,
                event,
                &mut self.queue,
                &mut self.sink,
            );
            self.sink.chunk.entries.push(EntryRec {
                time,
                key,
                n_children: (self.queue.local_pushes() - pushes_before) as u32,
                n_effects: (self.sink.chunk.effects.len() - effects_before) as u32,
            });
            self.processed += 1;
        }
    }

    /// Does this shard take part in `attempt` — an arrival of the window
    /// was speculated onto it, or it has backlog before the boundary (and
    /// the deadline)? Records the answer in [`SpecShard::active`].
    fn takes_part(&mut self, ctx: WindowCtx<'_>, attempt: Attempt<'_>) -> bool {
        let has_arrival = attempt.window.iter().any(|&idx| {
            ctx.targets[idx as usize].load(Relaxed) as usize % self.num_shards == self.shard
        });
        let has_backlog = self.queue.peek().is_some_and(|head| {
            attempt.boundary.is_none_or(|b| head < b) && ctx.deadline.is_none_or(|d| head.0 <= d)
        });
        self.active = has_arrival || has_backlog;
        self.active
    }

    /// Discards the current attempt: restores the pre-window checkpoint (the
    /// window log was already taken by the merger).
    fn rollback(&mut self) {
        let snap = self
            .snapshot
            .take()
            .expect("only checkpointed attempts roll back");
        self.core = snap.core;
        self.replicas = snap.replicas;
        self.queue = snap.queue;
        self.processed = snap.processed;
    }
}

/// What a shard worker hands back: the shard, or the panic that killed the
/// attempt (re-raised on the merger thread so a bug cannot deadlock the
/// hand-off).
type Returned = std::thread::Result<SpecShard>;

/// The runner's persistent shard workers: spawned once per run, waiting on
/// their job channel between attempts. With `t` threads, shard `s` always
/// runs on thread `s % t`. Each shard's state stays warm in one thread's
/// cache, more shards than cores never add threads, and an attempt costs a
/// channel hand-off per active shard instead of an OS thread spawn per
/// shard.
///
/// With `inline` set, thread 0 is the merger itself, which runs its shards
/// during [`ShardPool::dispatch`]; the stateful loop uses this, since its
/// merger has nothing to do until the attempt is back. The pipelined loop
/// leaves every shard to the workers and verifies the previous window
/// meanwhile.
struct ShardPool<'a> {
    jobs: Vec<Sender<(SpecShard, Attempt<'a>)>>,
    done: Receiver<Returned>,
    inline: bool,
    /// Shards handed to workers and not yet collected.
    sent: usize,
    /// Shards that stayed on the merger thread during the attempt; between
    /// attempts, the previous shard list kept for its allocation.
    kept: Vec<SpecShard>,
}

impl<'a> ShardPool<'a> {
    /// Spawns `workers` shard workers on `scope`.
    fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        workers: usize,
        inline: bool,
        ctx: WindowCtx<'a>,
    ) -> Self
    where
        'a: 'scope,
    {
        let (done_tx, done) = channel::<Returned>();
        let jobs = (0..workers)
            .map(|_| {
                let (job_tx, job_rx) = channel::<(SpecShard, Attempt<'a>)>();
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    while let Some((mut shard, attempt)) = recv_polling(&job_rx) {
                        let ran = catch_unwind(AssertUnwindSafe(move || {
                            shard.run_window(ctx, attempt);
                            shard
                        }));
                        let failed = ran.is_err();
                        if done_tx.send(ran).is_err() || failed {
                            break;
                        }
                    }
                });
                job_tx
            })
            .collect();
        ShardPool {
            jobs,
            done,
            inline,
            sent: 0,
            kept: Vec::new(),
        }
    }

    /// Hands `shard` to its worker to run `attempt`.
    fn send(&mut self, shard: SpecShard, attempt: Attempt<'a>) {
        let inline = self.inline as usize;
        let thread = shard.shard % (self.jobs.len() + inline);
        self.jobs[thread - inline]
            .send((shard, attempt))
            .expect("shard workers outlive the run");
        self.sent += 1;
    }

    /// Takes the next shard a worker hands back, re-raising its panic.
    fn recv(&mut self) -> SpecShard {
        // A merger that runs no shard shares the cores with every worker;
        // polling would steal cycles from the shards it waits for, so it
        // parks at once.
        let returned = if self.inline {
            recv_polling(&self.done)
        } else {
            self.done.recv().ok()
        };
        self.sent -= 1;
        match returned.expect("shard workers outlive the run") {
            Ok(shard) => shard,
            Err(panic) => resume_unwind(panic),
        }
    }

    /// Starts `attempt` on every active shard, moving `shards` out: the
    /// workers' shards run in the background, the merger's run before this
    /// returns. [`ShardPool::collect`] brings them back.
    fn dispatch(&mut self, shards: &mut Vec<SpecShard>, ctx: WindowCtx<'a>, attempt: Attempt<'a>) {
        let inline = self.inline as usize;
        let threads = self.jobs.len() + inline;
        for shard in shards.drain(..) {
            if shard.active && shard.shard % threads >= inline {
                self.send(shard, attempt);
            } else {
                self.kept.push(shard);
            }
        }
        for shard in self.kept.iter_mut().filter(|s| s.active) {
            shard.run_window(ctx, attempt);
        }
    }

    /// Waits for the dispatched attempt and puts every shard back in
    /// `shards`, in shard order.
    fn collect(&mut self, shards: &mut Vec<SpecShard>) {
        while self.sent > 0 {
            let shard = self.recv();
            self.kept.push(shard);
        }
        self.kept.sort_unstable_by_key(|s| s.shard);
        std::mem::swap(shards, &mut self.kept);
    }
}

/// Receives from `rx`, polling up to [`HANDOFF_POLLS`] times before
/// parking; `None` once every sender is gone. Windows are short — a few
/// dozen events — so the other side usually answers within the polls and
/// neither thread pays a futex wake-up. Each failed poll yields the CPU
/// rather than spinning: on a host where a neighbour occupies a core, a
/// busy-spinning worker steals time from the merger it waits for. On a
/// 2-vCPU host, `stateful_sharded` replays ran about 10% faster with the
/// polls, and within noise of parking at once while another process
/// pinned one core (where a pure busy-spin ran 1.7× slower). A stateful run
/// on one core has no workers and never gets here.
fn recv_polling<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..HANDOFF_POLLS {
        match rx.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    rx.recv().ok()
}

/// Per-shard read cursor over a window log, for the verify and commit
/// passes.
#[derive(Debug, Default, Clone)]
struct LogCursor {
    entry: usize,
    effect: usize,
    event: usize,
    id: usize,
    /// Resolved `(time, global_seq)` of the next uncommitted entry.
    head: Option<(SimTime, u64)>,
}

/// Resets `cursors` to one fresh cursor per shard.
fn reset_cursors(cursors: &mut Vec<LogCursor>, shards: usize) {
    cursors.clear();
    cursors.resize_with(shards, LogCursor::default);
}

/// Sizes speculation windows from the recent rollback record: a
/// deterministic, count-based governor in the windowed-sample idiom (a
/// bounded ring of per-window samples, summarized by running sums). A
/// mispredicted window halves the next one; a clean window doubles it only
/// while the events rolled back over the last [`GOVERNOR_SAMPLES`] windows
/// stay within [`ROLLBACK_BUDGET`] of the events committed over them, and
/// holds it otherwise. Counts — not wall time — keep [`RunStats`] and the
/// window sequence reproducible on any host.
struct WindowGovernor {
    window: usize,
    /// [`ClusterConfig::spec_window`]: a pinned size never adapts.
    pinned: bool,
    /// `(rolled back, committed)` events of the most recent windows.
    samples: std::collections::VecDeque<(u64, u64)>,
    rolled_back: u64,
    committed: u64,
}

impl WindowGovernor {
    fn new(pinned: Option<usize>) -> Self {
        WindowGovernor {
            window: pinned.unwrap_or(1).max(1),
            pinned: pinned.is_some(),
            samples: std::collections::VecDeque::with_capacity(GOVERNOR_SAMPLES),
            rolled_back: 0,
            committed: 0,
        }
    }

    /// Arrivals the next window should span.
    fn window(&self) -> usize {
        self.window
    }

    /// Records a finished window: the events its rolled-back attempt
    /// discarded (0 when it verified first time) and the events it
    /// committed.
    fn record(&mut self, rolled_back: u64, committed: u64) {
        if self.samples.len() == GOVERNOR_SAMPLES {
            let (r, c) = self.samples.pop_front().expect("full ring");
            self.rolled_back -= r;
            self.committed -= c;
        }
        self.samples.push_back((rolled_back, committed));
        self.rolled_back += rolled_back;
        self.committed += committed;
        if self.pinned {
            return;
        }
        self.window = if rolled_back > 0 {
            (self.window / 2).max(1)
        } else if self.rolled_back as f64 <= ROLLBACK_BUDGET * self.committed as f64 {
            (self.window * 2).min(MAX_WINDOW)
        } else {
            self.window
        };
    }
}

/// Drives the windowed speculate-and-verify loop to completion. On `Ok` the
/// tier holds the exact sequential-run state, and so does `metrics` under
/// the replay commit (under the fold commit the shard collectors hold the
/// metrics instead); on `Err` a policy deferred and the caller falls back
/// (the simulator is torn).
///
/// A stateless policy's windows cannot mispredict, so they are pipelined
/// ([`WindowRun::run_pipelined`]); a stateful policy's are verified one at a
/// time ([`WindowRun::run_stateful`]).
fn run_windowed(
    config: &ClusterConfig,
    trace: &Trace,
    stateful: bool,
    metrics: &mut MetricsCollector,
    tier: &mut RoutingTier,
    shards: &mut Vec<SpecShard>,
    scratch: &mut ShardedScratch,
) -> Result<RunStats, &'static str> {
    let num_shards = shards.len();
    let ShardedScratch {
        order,
        targets,
        cursors,
    } = scratch;
    let ctx = WindowCtx {
        config,
        trace,
        targets,
        deadline: config.max_sim_time,
    };
    let mut run = WindowRun {
        ctx,
        order,
        fold: shards.iter().any(|s| s.sink.fold.is_some()),
        metrics,
        tier,
        stampers: (0..num_shards).map(|_| ShardStamper::new()).collect(),
        counter: trace.requests.len() as u64,
        cursors,
        commit_order: Vec::new(),
        stats: RunStats {
            shards: num_shards,
            ..RunStats::default()
        },
    };
    std::thread::scope(|scope| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = num_shards.min(cores);
        if stateful {
            let mut pool = ShardPool::spawn(scope, threads - 1, true, ctx);
            run.run_stateful(shards, &mut pool)?;
        } else {
            let mut pool = ShardPool::spawn(scope, threads, false, ctx);
            run.run_pipelined(shards, &mut pool)?;
        }
        Ok(run.stats)
    })
}

/// The merger's side of one windowed run: the verified tier, stampers and
/// seq counter, the commit target, and the verify/commit cursors.
struct WindowRun<'a> {
    ctx: WindowCtx<'a>,
    order: &'a [u32],
    fold: bool,
    metrics: &'a mut MetricsCollector,
    tier: &'a mut RoutingTier,
    stampers: Vec<ShardStamper>,
    counter: u64,
    cursors: &'a mut Vec<LogCursor>,
    commit_order: Vec<u32>,
    stats: RunStats,
}

impl<'a> WindowRun<'a> {
    /// The attempt over `order[cursor..end]`: it ends (exclusive) at the
    /// next window's first arrival.
    fn attempt(&self, cursor: usize, end: usize) -> Attempt<'a> {
        let order = self.order;
        Attempt {
            window: &order[cursor..end],
            boundary: order.get(end).map(|&b| {
                (
                    self.ctx.trace.requests[b as usize].arrival,
                    ShardKey::Arrival(b as u64),
                )
            }),
            checkpoint: false,
        }
    }

    /// The verify pass: walks the window `logs` (one per shard, empty for a
    /// shard that sat the attempt out) in exact global `(time, seq)` order,
    /// replaying every routing decision on the live tier at its exact
    /// sequential position and applying the tier effects (`on_finished`,
    /// `set_free_kv_blocks`) along the way.
    ///
    /// With `commit_now` (the replay commit of a window that cannot
    /// mispredict), each verified entry's metric effects commit at once.
    /// Otherwise they are untouched and `commit_order` records the shard
    /// sequence for [`WindowRun::commit_metrics`] — the replay commit of a
    /// window that may mispredict waits until the whole window verifies, so
    /// a mid-window mismatch needs no collector snapshot.
    ///
    /// Returns `Ok(None)` when every placement matched, `Ok(Some((idx,
    /// actual)))` at the first mismatch, or `Err` if the policy deferred.
    fn verify(
        &mut self,
        logs: &[LogChunk],
        commit_now: bool,
    ) -> Result<Option<(u32, u32)>, &'static str> {
        let commit_now = commit_now && !self.fold;
        let trace = self.ctx.trace;
        self.commit_order.clear();
        reset_cursors(self.cursors, logs.len());
        loop {
            // Linear min-scan over resolved heads: shard counts are small
            // (<= replicas), so a heap of heads would cost more than it saves.
            let mut best: Option<(usize, (SimTime, u64))> = None;
            for (s, chunk) in logs.iter().enumerate() {
                let cur = &mut self.cursors[s];
                if cur.head.is_none() && cur.entry < chunk.entries.len() {
                    let e = chunk.entries[cur.entry];
                    cur.head = Some((e.time, self.stampers[s].resolve(e.key)));
                }
                if let Some(head) = cur.head {
                    if best.is_none_or(|(_, b)| head < b) {
                        best = Some((s, head));
                    }
                }
            }
            let Some((s, _)) = best else {
                return Ok(None);
            };
            let cur = &mut self.cursors[s];
            cur.head = None;
            let chunk = &logs[s];
            let entry = chunk.entries[cur.entry];
            cur.entry += 1;
            self.stampers[s].claim_children(entry.n_children as u64, &mut self.counter);
            // An arrival entry is where the sequential engine would have
            // routed: replay the decision on the exact live view and compare.
            if let ShardKey::Arrival(seq) = entry.key {
                let idx = seq as u32;
                let tr = trace.requests[idx as usize];
                let actual = self
                    .tier
                    .route(RouteRequest {
                        key: seq,
                        tenant: tr.tenant,
                        priority: tr.priority,
                        tokens: tr.prefill_tokens + tr.decode_tokens,
                    })
                    .ok_or(DEFER_ABORT)?;
                if actual as u32 != self.ctx.targets[idx as usize].load(Relaxed) {
                    return Ok(Some((idx, actual as u32)));
                }
            }
            let mut event = cur.event;
            for effect in &chunk.effects[cur.effect..cur.effect + entry.n_effects as usize] {
                match effect {
                    Effect::Retire { replica, n_events } => {
                        for ev in &chunk.events[event..event + *n_events as usize] {
                            if ev.finished {
                                let tr = trace.requests[ev.id as usize];
                                self.tier.on_finished(
                                    *replica as usize,
                                    tr.tenant,
                                    tr.prefill_tokens + tr.decode_tokens,
                                );
                            }
                        }
                        event += *n_events as usize;
                    }
                    Effect::FreeKv {
                        replica,
                        free_blocks,
                    } => self
                        .tier
                        .set_free_kv_blocks(*replica as usize, *free_blocks),
                    _ => {}
                }
            }
            if commit_now {
                replay_entry(chunk, cur, entry, self.metrics);
            } else {
                cur.effect += entry.n_effects as usize;
                cur.event = event;
                self.commit_order.push(s as u32);
            }
        }
    }

    /// The deferred replay commit: replays a verified window's *metric*
    /// effects into the collector, following the shard sequence the verify
    /// pass recorded — the collector receives the byte-identical call
    /// sequence of a sequential run.
    fn commit_metrics(&mut self, logs: &[LogChunk]) {
        reset_cursors(self.cursors, logs.len());
        for &s in &self.commit_order {
            let chunk = &logs[s as usize];
            let cur = &mut self.cursors[s as usize];
            let entry = chunk.entries[cur.entry];
            cur.entry += 1;
            replay_entry(chunk, cur, entry, self.metrics);
        }
    }

    /// Counts a committed window's logs in [`RunStats::streamed_effects`]:
    /// every effect the merger consumed — metric and tier effects under the
    /// replay commit, only the tier effects under the fold commit.
    fn count_streamed(&mut self, logs: &[LogChunk]) {
        let logged: u64 = logs.iter().map(|l| l.effects.len() as u64).sum();
        self.stats.streamed_effects += logged;
    }

    /// The stateless loop. Placements are a function of the policy's own
    /// state, so windows are speculated in order against a persistent copy
    /// of the tier, ahead of verification, and the shards do not wait for
    /// each other: each runs window after window on its worker while the
    /// merger verifies and commits the oldest window every shard has
    /// finished. A ring of [`PIPELINE_DEPTH`] logs per shard bounds how far
    /// a shard runs ahead. Window sizes double from one arrival up to
    /// [`PIPELINE_WINDOW`] (or stay at a pinned
    /// [`ClusterConfig::spec_window`]).
    /// Verify still replays every route on the real tier, so an impossible
    /// mismatch trips an assertion rather than diverging silently. Nothing
    /// checkpoints.
    fn run_pipelined(
        &mut self,
        shards: &mut Vec<SpecShard>,
        pool: &mut ShardPool<'a>,
    ) -> Result<(), &'static str> {
        let (order, ctx) = (self.order, self.ctx);
        let k = shards.len();
        let mut spec_tier = self.tier.clone();
        let mut size = ctx.config.spec_window.unwrap_or(1).max(1);
        // Speculated windows as `order` ranges, and the arrivals they cover.
        let mut windows: Vec<(usize, usize)> = Vec::new();
        let mut speculated = 0;
        let mut verified = 0;
        // Window `w`'s log for shard `s` lives in `ring[w % PIPELINE_DEPTH][s]`.
        let mut ring: Vec<Vec<LogChunk>> = (0..PIPELINE_DEPTH)
            .map(|_| (0..k).map(|_| LogChunk::default()).collect())
            .collect();
        // Per shard: the window it runs next, and how many windows' logs it
        // has delivered into the ring. A shard is away on its worker while
        // `delivered < next`.
        let mut next = vec![0usize; k];
        let mut delivered = vec![0usize; k];
        let mut home: Vec<Option<SpecShard>> = shards.drain(..).map(Some).collect();
        loop {
            // Start every shard at home on its next window while its ring
            // has room; a shard with nothing to do delivers an empty log.
            for s in 0..k {
                while home[s].is_some() && next[s] < verified + PIPELINE_DEPTH {
                    let w = next[s];
                    if w == windows.len() {
                        if speculated == order.len() {
                            break;
                        }
                        let end = (speculated + size).min(order.len());
                        let window = &order[speculated..end];
                        speculate(&mut spec_tier, ctx.trace, window, None, ctx.targets)?;
                        windows.push((speculated, end));
                        speculated = end;
                        if ctx.config.spec_window.is_none() {
                            size = (size * 2).min(PIPELINE_WINDOW);
                        }
                        self.stats.spec_windows += 1;
                    }
                    let attempt = self.attempt(windows[w].0, windows[w].1);
                    ring[w % PIPELINE_DEPTH][s].reset();
                    next[s] += 1;
                    let shard = home[s].as_mut().expect("shard at home");
                    if shard.takes_part(ctx, attempt) {
                        pool.send(home[s].take().expect("shard at home"), attempt);
                    } else {
                        delivered[s] += 1;
                    }
                }
            }
            // Verify and commit the oldest window once every shard has
            // delivered its log.
            if verified < windows.len() && delivered.iter().all(|&d| d > verified) {
                let logs = &ring[verified % PIPELINE_DEPTH];
                let mismatch = self.verify(logs, true)?;
                assert!(mismatch.is_none(), "a stateless policy mispredicted");
                self.count_streamed(logs);
                verified += 1;
                continue;
            }
            if verified == windows.len() && speculated == order.len() {
                break;
            }
            // Wait for a shard to come back with its log.
            let mut shard = pool.recv();
            let s = shard.shard;
            std::mem::swap(
                &mut shard.sink.chunk,
                &mut ring[(next[s] - 1) % PIPELINE_DEPTH][s],
            );
            delivered[s] += 1;
            home[s] = Some(shard);
        }
        shards.extend(home.into_iter().map(|s| s.expect("every shard home")));
        Ok(())
    }

    /// The stateful loop: each window is speculated against a throwaway
    /// copy of the tier as of the last exactly-committed point, simulated,
    /// and verified before the next one starts.
    ///
    /// Each window is attempted at most twice. The first attempt speculates
    /// every placement; if the verify pass finds a mismatch, the window is
    /// cut back to end *at* the mispredicted arrival and retried with that
    /// arrival forced to its verified target. The retry re-speculates the
    /// verified prefix identically, so it cannot mispredict — like a
    /// one-arrival window, whose only placement is made against the
    /// exactly-committed tier — and neither takes a checkpoint.
    fn run_stateful(
        &mut self,
        shards: &mut Vec<SpecShard>,
        pool: &mut ShardPool<'a>,
    ) -> Result<(), &'static str> {
        let (order, ctx) = (self.order, self.ctx);
        let mut governor = WindowGovernor::new(ctx.config.spec_window);
        // The attempt's logs, swapped out of the shards when they come back.
        let mut logs: Vec<LogChunk> = (0..shards.len()).map(|_| LogChunk::default()).collect();
        let mut cursor = 0usize;
        while cursor < order.len() {
            let mut end = (cursor + governor.window()).min(order.len());
            // Corrected placement for the retry of a mispredicted window.
            let mut forced: Option<(u32, u32)> = None;
            let mut rolled_back = 0u64;
            loop {
                let window = &order[cursor..end];
                // Re-speculation after a rollback reproduces the identical
                // unforced prefix (same tier state, same deterministic
                // policy).
                speculate(
                    &mut self.tier.clone(),
                    ctx.trace,
                    window,
                    forced,
                    ctx.targets,
                )?;
                let mut attempt = self.attempt(cursor, end);
                attempt.checkpoint = window.len() > 1 && forced.is_none();
                for shard in shards.iter_mut() {
                    shard.takes_part(ctx, attempt);
                }
                self.stats.spec_windows += 1;
                pool.dispatch(shards, ctx, attempt);
                pool.collect(shards);
                let mut events = 0;
                for (shard, log) in shards.iter_mut().zip(&mut logs) {
                    log.reset();
                    if shard.active {
                        std::mem::swap(&mut shard.sink.chunk, log);
                        events += log.entries.len() as u64;
                    }
                }
                let restore = attempt
                    .checkpoint
                    .then(|| (self.tier.clone(), self.stampers.clone(), self.counter));
                match self.verify(&logs, false)? {
                    None => {
                        // Stateful runs always use the replay commit.
                        self.commit_metrics(&logs);
                        self.count_streamed(&logs);
                        governor.record(rolled_back, events);
                        break;
                    }
                    Some((idx, actual)) => {
                        let (tier_at, stampers_at, counter_at) =
                            restore.expect("an attempt without a checkpoint cannot mispredict");
                        self.stats.mispredictions += 1;
                        rolled_back += events;
                        for shard in shards.iter_mut().filter(|s| s.active) {
                            shard.rollback();
                        }
                        *self.tier = tier_at;
                        self.stampers = stampers_at;
                        self.counter = counter_at;
                        forced = Some((idx, actual));
                        let at = window
                            .iter()
                            .position(|&i| i == idx)
                            .expect("the mismatch lies in the window");
                        end = cursor + at + 1;
                    }
                }
            }
            self.stats.rollback_events += rolled_back;
            cursor = end;
        }
        Ok(())
    }
}

/// Replays one log entry's metric effects into the collector, reading the
/// effect, event and id streams at `cur` and advancing past them. Tier
/// effects were already applied during verification and are skipped.
fn replay_entry(
    chunk: &LogChunk,
    cur: &mut LogCursor,
    entry: EntryRec,
    metrics: &mut MetricsCollector,
) {
    let time = entry.time;
    for effect in &chunk.effects[cur.effect..cur.effect + entry.n_effects as usize] {
        match effect {
            Effect::Arrival {
                id,
                decode_tokens,
                tenant,
            } => metrics.on_arrival(*id, time, *decode_tokens, *tenant),
            Effect::OpSecs { replica, timing } => {
                metrics.on_op_secs(*replica as usize, timing.op_secs())
            }
            Effect::GpuBusy { replica, gpu_secs } => {
                metrics.on_gpu_busy(*replica as usize, *gpu_secs)
            }
            Effect::BatchWork {
                replica,
                tokens,
                requests,
                flops,
                bytes,
                first_n,
            } => {
                metrics.on_batch_work(*replica as usize, *tokens, *requests, *flops, *bytes);
                for &id in &chunk.ids[cur.id..cur.id + *first_n as usize] {
                    metrics.mark_first_scheduled(id, time);
                }
                cur.id += *first_n as usize;
            }
            Effect::KvSample {
                replica,
                utilization,
            } => metrics.on_kv_sample(*replica as usize, time, *utilization),
            Effect::Retire { replica, n_events } => {
                metrics.on_batch_complete(
                    *replica as usize,
                    time,
                    &chunk.events[cur.event..cur.event + *n_events as usize],
                );
                cur.event += *n_events as usize;
            }
            Effect::FreeKv { .. } => {}
        }
    }
    cur.effect += entry.n_effects as usize;
}
