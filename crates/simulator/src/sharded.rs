//! The parallel sharded event loop — bit-exact with the sequential engine.
//!
//! # Shard model
//!
//! Replicas in an aggregated cluster interact only through the routing tier
//! and the shared metrics collector; the per-replica simulation (batch
//! formation, pipeline occupancy, wakeups, completions) is self-contained.
//! When the routing decisions can be computed up front, the event loop
//! therefore factors into fully independent pieces: replicas are dealt
//! round-robin onto `k` shards, every shard runs its entire sub-simulation
//! on its own thread with its own [`ShardQueue`] and
//! [`EngineCore`](crate::engine::EngineCore), and the only serial work left
//! is *committing* the measured effects into the metrics collector and the
//! tier — which the main thread does by streaming the shards' effect logs
//! and always committing the globally-earliest entry next.
//!
//! # Determinism argument
//!
//! The sequential engine's event order is exactly `(time, seq)` with `seq`
//! the global insertion counter, and its report is a fold of metric effects
//! in that order. The sharded run reproduces that fold bit-for-bit:
//!
//! * Arrivals are pre-routed by replaying `RoutingTier::route` in arrival
//!   order before the run — legal precisely because the fast-path policies
//!   (round-robin, random) are deterministic functions of their own state
//!   and never read the live load view, so interleaved completions cannot
//!   change their decisions. Each arrival's global `seq` is its trace index.
//! * Within a shard, events are ordered by `(time, arrival-seq | local
//!   push counter)`, which equals the sequential order restricted to the
//!   shard (see [`vidur_core::shard`]). At commit time a
//!   [`ShardStamper`] re-derives true global seqs: a committed handler's
//!   children claim the next counter values in push order.
//! * The merge then commits the lowest `(time, seq)` stream head, replaying
//!   each entry's logged effects through the *same* collector methods the
//!   sequential engine calls, in the same order — f64 accumulation order,
//!   quantile-digest streams, and per-tenant bookkeeping included.
//!
//! The stop conditions fold in too: shards truncate at the deadline (the
//! sequential run processes every event at `time <= deadline` and drops
//! exactly one later event without effects), and events after global
//! completion are provably effect-free wakeups (no batch can be in flight
//! once every request finished), so draining them is a no-op.
//!
//! # Mergeable mode: fold in the shards, stream only the tier
//!
//! The full-replay commit above re-executes *every* metric effect serially,
//! so the merger thread is the scaling ceiling. Under
//! [`QuantileMode::Mergeable`] the collector's state is a pure fold over
//! per-replica single-writer slots, which makes the replay unnecessary:
//! each shard owns a full [`MetricsCollector`] and commits request, batch,
//! and KV effects *locally* as its replicas produce them; the main thread
//! folds the per-shard collectors together at drain
//! ([`MetricsCollector::merge`]). Because every slot is written by exactly
//! one replica — whose event stream is identical for any shard count — the
//! merged report is byte-identical across shard counts (though not
//! bit-comparable with the other two modes).
//!
//! Only the *tier-relevant* effects still stream to the merger, as light
//! [`TierEffect`] records: request-finished notifications (per-tenant
//! counters and the live view) and free-KV updates (per-replica last-write).
//! Both are commutative across replicas on the fast path — `on_finished` is
//! integer bookkeeping and `set_free_kv_blocks` is single-writer per
//! replica, with routing already fixed at pre-route time — so the merger
//! applies them in `(time, shard)` order without reconstructing global
//! sequence numbers. This shrinks the serial commit from every metric
//! effect to a few effects per batch completion.
//!
//! # Speculate and verify: stateful policies on the fast path
//!
//! Stateful policies (least-outstanding, priority-aware, fair-share,
//! affinity, KV-aware) read the *live* load view at every arrival, so their
//! decisions cannot be pre-routed: an interleaved completion on another
//! shard can change the argmin. The windowed runner puts them on the
//! parallel path anyway by treating the pre-route as a *guess* and checking
//! it against ground truth:
//!
//! 1. The arrival stream is chopped into windows. Each window's arrivals
//!    are routed against a throwaway clone of the tier as of the last
//!    exactly-committed point — speculation with a slightly stale view.
//! 2. Every active shard checkpoints its engine state (core, replicas,
//!    queue), admits its share of the window, and simulates independently
//!    up to the next window boundary, logging effects exactly like the
//!    streaming path. A checkpoint costs O(live state), not O(trace): the
//!    replica schedulers and block managers keep live requests under
//!    recycled slots, and the core's runtime source is shared behind an
//!    `Arc` rather than copied.
//! 3. The merger walks the window logs in exact global `(time, seq)` order
//!    (the same [`ShardStamper`] reconstruction) and *replays each routing
//!    decision on the real tier at its exact sequential position*. Match:
//!    the placement was right. Mismatch: the window rolls back — shards
//!    restore their checkpoints, the tier/stampers/seq counter restore
//!    theirs — and the window is cut back to end *at* the mispredicted
//!    arrival and re-run with that placement forced
//!    ([`RoutingTier::route_forced`]). The retry re-speculates the verified
//!    prefix identically, so it cannot mispredict: every window commits
//!    after at most one rollback.
//! 4. Only after a window verifies does the merger replay its metric
//!    effects, in the recorded commit order — so the collector sees the
//!    byte-identical call sequence of a sequential run and never needs a
//!    snapshot. (This holds for every quantile mode; stateful runs use the
//!    full-replay commit even in mergeable mode, where the tier stream is
//!    the narrow seam being verified.)
//!
//! Window sizes come from a rollback-aware [`WindowGovernor`]. Windows start
//! at one arrival; a mispredicted window halves the next one, and a clean
//! window doubles it only while the events rolled back over the last few
//! windows stay a small fraction of the events committed over them. All
//! inputs are event counts, so the window sequence — and [`RunStats`] — is
//! reproducible on any host. The floor is exact and cheap: speculation over
//! a single arrival against the committed tier *is* the sequential
//! decision, so a one-arrival window (like a cut-back retry) cannot
//! mispredict and takes no checkpoint at all. A misprediction storm
//! therefore degrades to checkpoint-free one-arrival windows that still run
//! sharded, never to thrashing. [`ClusterConfig::spec_window`] pins the
//! size for tests that want to force misprediction pressure.
//!
//! Shards run on persistent workers spawned once per run ([`ShardPool`]),
//! at most one thread per core with the merger thread running its share
//! of shards inline; an attempt hands every other active shard over a
//! channel to a worker that polls briefly before parking. Per-window cost
//! is therefore a hand-off, not an OS thread spawn.
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
//! cross-replica), and the policy must not be the deferred one. Round-robin
//! and random take the streaming path (one pre-route, no verification);
//! every other policy takes the windowed speculate-and-verify path.
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
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use vidur_core::metrics::QuantileMode;
use vidur_core::shard::{ShardKey, ShardQueue, ShardStamper};
use vidur_core::time::SimTime;
use vidur_model::batch::BatchComposition;
use vidur_model::shape::PlanTiming;
use vidur_scheduler::replica::CompletionEvent;
use vidur_scheduler::{GlobalPolicyKind, Request, RouteRequest, RoutingTier};
use vidur_workload::Trace;

/// Entries per [`LogChunk`] before it ships to the merger.
const CHUNK_ENTRIES: usize = 4096;
/// In-flight chunks per shard channel: bounds memory (shards block when the
/// merger falls behind) while keeping the pipeline full.
const CHANNEL_DEPTH: usize = 4;
/// Adaptive windows never grow beyond this (arrivals): past a few thousand
/// arrivals the per-window overheads are fully amortized, while a rollback
/// still only discards bounded work.
const MAX_WINDOW: usize = 4096;
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
    /// over the next `n_events` events in the chunk's event stream.
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

/// A batch of logged entries with their flattened effect/event/id streams.
/// Chunks recycle through a return channel, so steady-state logging does not
/// allocate.
#[derive(Default)]
struct LogChunk {
    entries: Vec<EntryRec>,
    effects: Vec<Effect>,
    events: Vec<CompletionEvent>,
    ids: Vec<u64>,
    /// Marks the shard's final chunk.
    done: bool,
}

impl LogChunk {
    fn reset(&mut self) {
        self.entries.clear();
        self.effects.clear();
        self.events.clear();
        self.ids.clear();
        self.done = false;
    }
}

/// [`EngineSink`] that appends effects to the chunk under construction
/// instead of touching the collector.
struct LogSink {
    chunk: LogChunk,
}

impl EngineSink for LogSink {
    fn on_batch_timed(&mut self, replica: usize, timing: &Arc<PlanTiming>) {
        self.chunk.effects.push(Effect::OpSecs {
            replica: replica as u32,
            timing: Arc::clone(timing),
        });
    }
    fn on_gpu_busy(&mut self, replica: usize, gpu_secs: f64) {
        self.chunk.effects.push(Effect::GpuBusy {
            replica: replica as u32,
            gpu_secs,
        });
    }
    fn on_batch_scheduled(
        &mut self,
        replica: usize,
        _now: SimTime,
        batch: &BatchComposition,
        flops: f64,
        bytes: f64,
    ) {
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
    fn on_kv_sample(&mut self, replica: usize, _now: SimTime, utilization: f64) {
        self.chunk.effects.push(Effect::KvSample {
            replica: replica as u32,
            utilization,
        });
    }
    fn on_batch_complete(&mut self, replica: usize, _now: SimTime, events: &[CompletionEvent]) {
        self.chunk.events.extend_from_slice(events);
        self.chunk.effects.push(Effect::Retire {
            replica: replica as u32,
            n_events: events.len() as u32,
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
/// windowed runner's per-shard log cursors. The windowed runner
/// re-speculates into `targets` and re-walks the window logs every attempt,
/// so keeping the buffers avoids per-attempt allocations.
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
///
/// This is the single pre-route used by both sharded paths: the streaming
/// path calls it once on the *real* tier over the whole trace (stateless
/// policies never read the view, so the guess is the truth), the windowed
/// path calls it per window on a throwaway clone.
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

/// Runs `sim`'s event loop sharded `num_shards` ways. On `Ok` the metrics
/// collector, tier, and replicas are in the exact state a sequential
/// `engine::drive` run would have left them in (exact/sketch modes, and
/// stateful-policy runs in every mode) or the canonical merged-fold state
/// (stateless mergeable mode), with the run's [`RunStats`]. On `Err` a
/// stateful policy deferred a request mid-run: the simulator is torn (the
/// caller rebuilds from its construction seed and re-runs sequentially) and
/// the reason belongs in [`RunStats::fallback_reason`].
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

    let deadline = config.max_sim_time;
    let timer = engine.timer().clone();

    if !matches!(
        config.global_policy,
        GlobalPolicyKind::RoundRobin | GlobalPolicyKind::Random
    ) {
        // Stateful policy: windowed speculate-and-verify.
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
                },
                snapshot: None,
                active: false,
            })
            .collect();
        for (r, replica) in std::mem::take(replicas).into_iter().enumerate() {
            shards[r % num_shards].replicas.push(replica);
        }
        let stats = run_windowed(
            config,
            trace,
            &mut engine.metrics,
            tier,
            &mut shards,
            scratch,
            deadline,
        )?;
        *replicas = reassemble(
            shards.into_iter().map(|s| s.replicas).collect(),
            num_shards,
            config.num_replicas,
        );
        return Ok(stats);
    }

    // Stateless policy: pre-route everything on the real tier up front —
    // round-robin/random placements depend only on router state, so
    // replaying the calls draws the identical decision (and RNG) sequence
    // the interleaved run would — then stream effects with no verification.
    speculate(tier, trace, &scratch.order, None, &scratch.targets)?;

    // Deal replicas round-robin onto shards (global replica r lives on
    // shard r % k at local index r / k) and split the arrival list.
    let mut shard_replicas: Vec<Vec<EngineReplica>> = (0..num_shards).map(|_| Vec::new()).collect();
    for (r, replica) in std::mem::take(replicas).into_iter().enumerate() {
        shard_replicas[r % num_shards].push(replica);
    }
    let mut shard_arrivals: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    for &idx in &scratch.order {
        shard_arrivals[scratch.targets[idx as usize].load(Relaxed) as usize % num_shards].push(idx);
    }

    let metrics = &mut engine.metrics;
    let targets_ref: &[AtomicU32] = &scratch.targets;

    let streamed = if metrics.mode() == QuantileMode::Mergeable {
        // Fold-in-the-shards path: each shard owns a full-size collector
        // and commits everything but the tier effects locally.
        let (result_tx, result_rx) =
            std::sync::mpsc::channel::<(usize, Vec<EngineReplica>, MetricsCollector)>();
        let mut streams = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        for (shard, (replica_set, arrivals)) in
            shard_replicas.into_iter().zip(shard_arrivals).enumerate()
        {
            let (log_tx, log_rx) = sync_channel::<TierChunk>(CHANNEL_DEPTH);
            streams.push(TierStream::new(log_rx));
            let core = EngineCore::with_timer(config, timer.clone(), seed);
            // Every shard collector must be armed exactly like the engine's
            // (tenants, SLO, time-series windows): the merged fold is only
            // shard-count-invariant when all partials share one shape.
            let mut collector =
                MetricsCollector::with_mode(config.num_replicas, QuantileMode::Mergeable);
            if !trace.tenants.is_empty() {
                collector.set_tenants(&trace.tenants, config.tenant_slo);
            }
            if let Some(ts) = config.timeseries {
                collector.set_timeseries(ts);
            }
            workers.push(MergeWorker {
                shard,
                num_shards,
                config,
                trace,
                targets: targets_ref,
                core,
                replicas: replica_set,
                arrivals,
                deadline,
                collector,
                chunk: Vec::new(),
                log_tx,
                result_tx: result_tx.clone(),
            });
        }
        drop(result_tx);

        let streamed = rayon::scope(|scope| {
            for worker in workers {
                scope.spawn(move || worker.run());
            }
            // The tier merger runs on this thread, concurrently with the
            // shards.
            merge_tier(streams, tier, trace)
        });

        // Fold the per-shard collectors into the engine's (empty) collector
        // in shard order, and put the replicas back in global order.
        let mut collected: Vec<Option<(Vec<EngineReplica>, MetricsCollector)>> =
            (0..num_shards).map(|_| None).collect();
        for (shard, set, collector) in result_rx.iter() {
            collected[shard] = Some((set, collector));
        }
        let mut per_shard = Vec::with_capacity(num_shards);
        for entry in collected {
            let (set, collector) = entry.expect("every shard returns its state");
            metrics.merge(collector);
            per_shard.push(set);
        }
        *replicas = reassemble(per_shard, num_shards, config.num_replicas);
        streamed
    } else {
        // Full-replay path (exact/sketch modes): every metric effect streams
        // to the merger and is replayed in exact sequential order.
        let (result_tx, result_rx) = std::sync::mpsc::channel::<(usize, Vec<EngineReplica>)>();
        let mut streams = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        for (shard, (replica_set, arrivals)) in
            shard_replicas.into_iter().zip(shard_arrivals).enumerate()
        {
            let (log_tx, log_rx) = sync_channel::<LogChunk>(CHANNEL_DEPTH);
            let (recycle_tx, recycle_rx) = sync_channel::<LogChunk>(CHANNEL_DEPTH);
            streams.push(ShardStream::new(log_rx, recycle_tx));
            let core = EngineCore::with_timer(config, timer.clone(), seed);
            workers.push(ShardWorker {
                shard,
                num_shards,
                config,
                trace,
                targets: targets_ref,
                core,
                replicas: replica_set,
                arrivals,
                deadline,
                log_tx,
                recycle_rx,
                result_tx: result_tx.clone(),
            });
        }
        drop(result_tx);

        let streamed = rayon::scope(|scope| {
            for worker in workers {
                scope.spawn(move || worker.run());
            }
            // The merger runs on this thread, concurrently with the shards.
            merge(streams, metrics, tier, trace)
        });

        // Put the replicas back in global order for preemption/quota
        // reporting.
        let mut collected: Vec<Option<Vec<EngineReplica>>> =
            (0..num_shards).map(|_| None).collect();
        for (shard, set) in result_rx.iter() {
            collected[shard] = Some(set);
        }
        let per_shard = collected
            .into_iter()
            .map(|set| set.expect("every shard returns its replicas"))
            .collect();
        *replicas = reassemble(per_shard, num_shards, config.num_replicas);
        streamed
    };
    Ok(RunStats {
        shards: num_shards,
        streamed_effects: streamed,
        ..RunStats::default()
    })
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

/// One shard's independent simulation: a subset of replicas, a shard-local
/// queue, an [`EngineCore`], and the effect log.
struct ShardWorker<'a> {
    shard: usize,
    num_shards: usize,
    config: &'a ClusterConfig,
    trace: &'a Trace,
    targets: &'a [AtomicU32],
    core: EngineCore,
    replicas: Vec<EngineReplica>,
    arrivals: Vec<u32>,
    deadline: Option<SimTime>,
    log_tx: SyncSender<LogChunk>,
    recycle_rx: Receiver<LogChunk>,
    result_tx: std::sync::mpsc::Sender<(usize, Vec<EngineReplica>)>,
}

impl ShardWorker<'_> {
    fn run(mut self) {
        let mut queue: ShardQueue<SimEvent> = ShardQueue::new();
        for &idx in &self.arrivals {
            queue.push_arrival(
                self.trace.requests[idx as usize].arrival,
                idx as u64,
                SimEvent::Arrival(idx),
            );
        }
        let mut sink = LogSink {
            chunk: LogChunk::default(),
        };
        let mut processed = 0u64;
        while let Some((time, key, event)) = queue.pop() {
            // Pops are time-nondecreasing, so the first event past the
            // deadline means everything left is past it too. The sequential
            // engine pops exactly one such event and drops it effect-free.
            if self.deadline.is_some_and(|d| time > d) || processed >= MAX_EVENTS {
                break;
            }
            let effects_before = sink.chunk.effects.len();
            let pushes_before = queue.local_pushes();
            shard_handle(
                &mut self.core,
                &mut self.replicas,
                self.num_shards,
                self.config,
                self.trace,
                self.targets,
                time,
                event,
                &mut queue,
                &mut sink,
            );
            sink.chunk.entries.push(EntryRec {
                time,
                key,
                n_children: (queue.local_pushes() - pushes_before) as u32,
                n_effects: (sink.chunk.effects.len() - effects_before) as u32,
            });
            processed += 1;
            if sink.chunk.entries.len() >= CHUNK_ENTRIES {
                let mut fresh = self.recycle_rx.try_recv().unwrap_or_default();
                fresh.reset();
                let full = std::mem::replace(&mut sink.chunk, fresh);
                if self.log_tx.send(full).is_err() {
                    break; // merger gone; nothing left to report into
                }
            }
        }
        let mut last = std::mem::take(&mut sink.chunk);
        last.done = true;
        let _ = self.log_tx.send(last);
        let _ = self.result_tx.send((self.shard, self.replicas));
    }
}

/// Handles one shard-local event, logging its effects into `sink`. Shared
/// by the streaming [`ShardWorker`] and the windowed [`SpecShard`]; the
/// mergeable-mode [`MergeWorker`] keeps its own copy (it sinks metric
/// effects straight into a collector).
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
            sink.chunk.effects.push(Effect::Arrival {
                id: tr.id,
                decode_tokens: tr.decode_tokens,
                tenant: tr.tenant,
            });
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

/// A tier-relevant effect streamed in mergeable mode: the only state shards
/// cannot commit locally. `Finished` drives the tier's per-tenant counters
/// and live view; `FreeKv` is the per-replica free-block last-write.
struct TierEffect {
    time: SimTime,
    kind: TierKind,
}

/// What a [`TierEffect`] applies to the tier.
enum TierKind {
    /// `tier.on_finished` for trace request `id` on `replica`.
    Finished { replica: u32, id: u64 },
    /// `tier.set_free_kv_blocks` after a retire.
    FreeKv { replica: u32, free_blocks: u64 },
}

/// A batch of tier effects from one shard; `done` marks the final chunk.
struct TierChunk {
    effects: Vec<TierEffect>,
    done: bool,
}

/// One shard's simulation in mergeable mode: same event loop as
/// [`ShardWorker`], but effects sink straight into the shard's own
/// [`MetricsCollector`]; only [`TierEffect`]s ship to the merger.
struct MergeWorker<'a> {
    shard: usize,
    num_shards: usize,
    config: &'a ClusterConfig,
    trace: &'a Trace,
    targets: &'a [AtomicU32],
    core: EngineCore,
    replicas: Vec<EngineReplica>,
    arrivals: Vec<u32>,
    deadline: Option<SimTime>,
    collector: MetricsCollector,
    chunk: Vec<TierEffect>,
    log_tx: SyncSender<TierChunk>,
    result_tx: std::sync::mpsc::Sender<(usize, Vec<EngineReplica>, MetricsCollector)>,
}

impl MergeWorker<'_> {
    fn run(mut self) {
        let mut queue: ShardQueue<SimEvent> = ShardQueue::new();
        for &idx in &self.arrivals {
            queue.push_arrival(
                self.trace.requests[idx as usize].arrival,
                idx as u64,
                SimEvent::Arrival(idx),
            );
        }
        let mut processed = 0u64;
        while let Some((time, _key, event)) = queue.pop() {
            if self.deadline.is_some_and(|d| time > d) || processed >= MAX_EVENTS {
                break;
            }
            self.handle(time, event, &mut queue);
            processed += 1;
            if self.chunk.len() >= CHUNK_ENTRIES {
                let full = std::mem::take(&mut self.chunk);
                if self
                    .log_tx
                    .send(TierChunk {
                        effects: full,
                        done: false,
                    })
                    .is_err()
                {
                    break; // merger gone; nothing left to report into
                }
            }
        }
        let _ = self.log_tx.send(TierChunk {
            effects: std::mem::take(&mut self.chunk),
            done: true,
        });
        let _ = self
            .result_tx
            .send((self.shard, self.replicas, self.collector));
    }

    fn handle(&mut self, now: SimTime, event: SimEvent, queue: &mut ShardQueue<SimEvent>) {
        match event {
            SimEvent::Arrival(idx) => {
                let tr = self.trace.requests[idx as usize];
                self.collector
                    .on_arrival(tr.id, now, tr.decode_tokens, tr.tenant);
                let target = self.targets[idx as usize].load(Relaxed);
                let local = target as usize / self.num_shards;
                self.replicas[local].scheduler.add_request(
                    Request::new(tr.id, tr.arrival, tr.prefill_tokens, tr.decode_tokens)
                        .with_tenant(tr.tenant)
                        .with_priority(tr.priority),
                );
                self.try_schedule(target, now, queue);
            }
            SimEvent::Wakeup(replica) => {
                let local = replica as usize / self.num_shards;
                self.replicas[local].clear_wakeup();
                self.try_schedule(replica, now, queue);
            }
            SimEvent::BatchComplete(replica, id) => {
                let local = replica as usize / self.num_shards;
                let chunk = &mut self.chunk;
                self.core.retire_batch(
                    &mut self.replicas[local],
                    replica as usize,
                    id,
                    now,
                    queue,
                    &mut self.collector,
                    |ev, _queue| {
                        if ev.finished {
                            chunk.push(TierEffect {
                                time: now,
                                kind: TierKind::Finished { replica, id: ev.id },
                            });
                        }
                    },
                );
                self.chunk.push(TierEffect {
                    time: now,
                    kind: TierKind::FreeKv {
                        replica,
                        free_blocks: self.replicas[local].scheduler.blocks().free_blocks(),
                    },
                });
                self.try_schedule(replica, now, queue);
            }
            SimEvent::Fault(_) | SimEvent::AutoscaleTick | SimEvent::WarmupDone(_) => {
                unreachable!("elastic runs are rejected by the fast-path eligibility check")
            }
        }
    }

    fn try_schedule(&mut self, replica: u32, now: SimTime, queue: &mut ShardQueue<SimEvent>) {
        let local = replica as usize / self.num_shards;
        let config = self.config;
        self.core.try_schedule(
            &mut self.replicas[local],
            replica as usize,
            now,
            queue,
            &mut self.collector,
            |batch| batch_bytes(config, batch),
            || SimEvent::Wakeup(replica),
            |id| SimEvent::BatchComplete(replica, id),
        );
    }
}

/// Merger-side view of one shard's tier-effect stream.
struct TierStream {
    rx: Receiver<TierChunk>,
    chunk: Option<TierChunk>,
    idx: usize,
    finished: bool,
}

impl TierStream {
    fn new(rx: Receiver<TierChunk>) -> Self {
        TierStream {
            rx,
            chunk: None,
            idx: 0,
            finished: false,
        }
    }

    /// Time of the stream's next uncommitted effect, receiving chunks as
    /// needed. Blocks only while the shard is still producing.
    fn ensure_head(&mut self) -> Option<SimTime> {
        loop {
            if self.finished {
                return None;
            }
            if let Some(chunk) = &self.chunk {
                if self.idx < chunk.effects.len() {
                    return Some(chunk.effects[self.idx].time);
                }
                if chunk.done {
                    self.finished = true;
                    self.chunk = None;
                    return None;
                }
                self.chunk = None;
            }
            match self.rx.recv() {
                Ok(chunk) => {
                    self.chunk = Some(chunk);
                    self.idx = 0;
                }
                Err(_) => {
                    self.finished = true;
                    return None;
                }
            }
        }
    }
}

/// Applies all shard tier effects to the tier in `(time, shard)` order and
/// returns how many were streamed. Exact global sequence numbers are
/// unnecessary here: `on_finished` is commutative integer bookkeeping and
/// `set_free_kv_blocks` is single-writer per replica (each replica's stream
/// order is preserved within its shard), so this coarser deterministic
/// order reaches the same final tier state.
fn merge_tier(mut streams: Vec<TierStream>, tier: &mut RoutingTier, trace: &Trace) -> u64 {
    let mut committed = 0u64;
    loop {
        let mut best: Option<(usize, SimTime)> = None;
        for (s, stream) in streams.iter_mut().enumerate() {
            if let Some(t) = stream.ensure_head() {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((s, t));
                }
            }
        }
        let Some((s, _)) = best else {
            break;
        };
        let stream = &mut streams[s];
        let chunk = stream.chunk.as_ref().expect("head implies a chunk");
        match chunk.effects[stream.idx].kind {
            TierKind::Finished { replica, id } => {
                let tr = trace.requests[id as usize];
                tier.on_finished(
                    replica as usize,
                    tr.tenant,
                    tr.prefill_tokens + tr.decode_tokens,
                );
            }
            TierKind::FreeKv {
                replica,
                free_blocks,
            } => tier.set_free_kv_blocks(replica as usize, free_blocks),
        }
        stream.idx += 1;
        committed += 1;
    }
    committed
}

/// Merger-side view of one shard's chunk stream.
struct ShardStream {
    rx: Receiver<LogChunk>,
    recycle: SyncSender<LogChunk>,
    chunk: Option<LogChunk>,
    entry: usize,
    effect: usize,
    event: usize,
    id: usize,
    /// Resolved `(time, global_seq)` of the next uncommitted entry.
    head: Option<(SimTime, u64)>,
    finished: bool,
    stamper: ShardStamper,
}

impl ShardStream {
    fn new(rx: Receiver<LogChunk>, recycle: SyncSender<LogChunk>) -> Self {
        ShardStream {
            rx,
            recycle,
            chunk: None,
            entry: 0,
            effect: 0,
            event: 0,
            id: 0,
            head: None,
            finished: false,
            stamper: ShardStamper::new(),
        }
    }

    /// Resolves the stream's next head, receiving chunks as needed. Blocks
    /// only when the shard is still producing.
    fn ensure_head(&mut self) {
        if self.finished || self.head.is_some() {
            return;
        }
        loop {
            if let Some(chunk) = &self.chunk {
                if self.entry < chunk.entries.len() {
                    let e = chunk.entries[self.entry];
                    self.head = Some((e.time, self.stamper.resolve(e.key)));
                    return;
                }
                if chunk.done {
                    self.finished = true;
                    self.chunk = None;
                    return;
                }
                let mut spent = self.chunk.take().expect("checked above");
                spent.reset();
                let _ = self.recycle.try_send(spent);
            }
            match self.rx.recv() {
                Ok(chunk) => {
                    self.chunk = Some(chunk);
                    self.entry = 0;
                    self.effect = 0;
                    self.event = 0;
                    self.id = 0;
                }
                Err(_) => {
                    self.finished = true;
                    return;
                }
            }
        }
    }
}

/// Streams all shard logs into the collector and tier in exact global
/// `(time, seq)` order. Returns the number of effects replayed — the serial
/// commit volume the mergeable mode shrinks.
fn merge(
    mut streams: Vec<ShardStream>,
    metrics: &mut MetricsCollector,
    tier: &mut RoutingTier,
    trace: &Trace,
) -> u64 {
    let mut counter = trace.requests.len() as u64;
    let mut committed = 0u64;
    loop {
        // Linear min-scan: shard counts are small (<= replicas), so a heap
        // of heads would cost more than it saves.
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (s, stream) in streams.iter_mut().enumerate() {
            stream.ensure_head();
            if let Some(head) = stream.head {
                if best.is_none_or(|(_, b)| head < b) {
                    best = Some((s, head));
                }
            }
        }
        let Some((best, _)) = best else {
            break;
        };
        committed += commit(&mut streams[best], metrics, tier, trace, &mut counter);
    }
    // Leftover stamps are normal on truncated runs (deadline / event
    // budget): committed entries claim seqs for children past the cutoff
    // that their shard never pops. A run that drains fully consumes all of
    // them, but the merge cannot tell the cases apart, so no assertion.
    committed
}

/// Commits one entry: claims its children's global seqs and replays its
/// effects into the collector/tier, in logged (= sequential call) order.
/// Returns the number of effects replayed.
fn commit(
    stream: &mut ShardStream,
    metrics: &mut MetricsCollector,
    tier: &mut RoutingTier,
    trace: &Trace,
    counter: &mut u64,
) -> u64 {
    let (time, _seq) = stream.head.take().expect("commit needs a head");
    let chunk = stream.chunk.as_ref().expect("head implies a chunk");
    let entry = chunk.entries[stream.entry];
    stream.entry += 1;
    stream
        .stamper
        .claim_children(entry.n_children as u64, counter);
    for effect in &chunk.effects[stream.effect..stream.effect + entry.n_effects as usize] {
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
                for &id in &chunk.ids[stream.id..stream.id + *first_n as usize] {
                    metrics.mark_first_scheduled(id, time);
                }
                stream.id += *first_n as usize;
            }
            Effect::KvSample {
                replica,
                utilization,
            } => metrics.on_kv_sample(*replica as usize, time, *utilization),
            Effect::Retire { replica, n_events } => {
                let events = &chunk.events[stream.event..stream.event + *n_events as usize];
                for ev in events {
                    if ev.finished {
                        let tr = trace.requests[ev.id as usize];
                        tier.on_finished(
                            *replica as usize,
                            tr.tenant,
                            tr.prefill_tokens + tr.decode_tokens,
                        );
                    }
                }
                metrics.on_batch_complete(*replica as usize, time, events);
                stream.event += *n_events as usize;
            }
            Effect::FreeKv {
                replica,
                free_blocks,
            } => tier.set_free_kv_blocks(*replica as usize, *free_blocks),
        }
    }
    stream.effect += entry.n_effects as usize;
    entry.n_effects as u64
}

/// One shard of the windowed speculate-and-verify runner. Unlike
/// [`ShardWorker`] it lives across windows: between attempts the merger
/// owns it (verify, rollback, re-admit); during an attempt it is moved to
/// its persistent worker thread (or run inline on the merger thread) and
/// logs into its in-memory window chunk — the whole window log comes back
/// with the shard.
struct SpecShard {
    shard: usize,
    num_shards: usize,
    core: EngineCore,
    replicas: Vec<EngineReplica>,
    queue: ShardQueue<SimEvent>,
    /// Events handled so far (persists across windows; the [`MAX_EVENTS`]
    /// backstop is per shard, as on the streaming path).
    processed: u64,
    /// The current window's effect log (the chunk is reset per attempt).
    sink: LogSink,
    /// Pre-attempt checkpoint, taken only by attempts that can mispredict;
    /// restored on rollback.
    snapshot: Option<SpecSnapshot>,
    /// Does this shard run the current attempt? Inactive shards (no window
    /// arrivals, no backlog before the boundary) skip the hand-off, the
    /// snapshot, and the rollback.
    active: bool,
}

/// Everything a window can change on a shard. The replica and queue state
/// is sized by live requests and pending events (the runtime source behind
/// the core's timer is shared, not copied), and the queue snapshot pops
/// the exact same sequence as the original.
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

    /// Discards the current attempt: restores the pre-window checkpoint and
    /// clears the window log.
    fn rollback(&mut self) {
        let snap = self
            .snapshot
            .take()
            .expect("only checkpointed attempts roll back");
        self.core = snap.core;
        self.replicas = snap.replicas;
        self.queue = snap.queue;
        self.processed = snap.processed;
        self.sink.chunk.reset();
    }
}

/// What a shard worker hands back: the shard, or the panic that killed the
/// attempt (re-raised on the merger thread so a bug cannot deadlock the
/// hand-off).
type Returned = std::thread::Result<SpecShard>;

/// The windowed runner's persistent shard workers: spawned once per run,
/// waiting on their job channel between attempts. With `t` threads — the
/// merger plus `t - 1` workers, at most one per core — shard `s` always
/// runs on thread `s % t`, thread 0 being the merger itself. Each shard's
/// state stays warm in one thread's cache, more shards than cores never
/// oversubscribe the host, and an attempt costs a channel hand-off per
/// active shard off the merger thread instead of an OS thread spawn per
/// shard.
struct ShardPool<'a> {
    jobs: Vec<Sender<(SpecShard, Attempt<'a>)>>,
    done: Receiver<Returned>,
    /// The shard list from the previous attempt, kept for its allocation.
    spare: Vec<SpecShard>,
}

impl<'a> ShardPool<'a> {
    /// Spawns `workers` shard workers on `scope`.
    fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        workers: usize,
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
            spare: Vec::new(),
        }
    }

    /// Runs `attempt` on every active shard and returns once all are back
    /// in `shards`, in shard order.
    fn run(&mut self, shards: &mut Vec<SpecShard>, ctx: WindowCtx<'a>, attempt: Attempt<'a>) {
        let threads = self.jobs.len() + 1;
        let mut back = std::mem::take(&mut self.spare);
        let mut sent = 0;
        for shard in shards.drain(..) {
            let thread = shard.shard % threads;
            if shard.active && thread > 0 {
                self.jobs[thread - 1]
                    .send((shard, attempt))
                    .expect("shard workers outlive the run");
                sent += 1;
            } else {
                back.push(shard);
            }
        }
        for shard in back.iter_mut().filter(|s| s.active) {
            shard.run_window(ctx, attempt);
        }
        for _ in 0..sent {
            match recv_polling(&self.done).expect("shard workers outlive the run") {
                Ok(shard) => back.push(shard),
                Err(panic) => resume_unwind(panic),
            }
        }
        back.sort_unstable_by_key(|s| s.shard);
        std::mem::swap(shards, &mut back);
        self.spare = back;
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
/// pinned one core (where a pure busy-spin ran 1.7× slower). A run on one
/// core has no workers and never gets here.
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
/// collector and tier hold the exact sequential-run state; on `Err` a
/// policy deferred and the caller falls back (the simulator is torn).
///
/// Each window is attempted at most twice. The first attempt speculates
/// every placement; if the verify pass finds a mismatch, the window is cut
/// back to end *at* the mispredicted arrival and retried with that arrival
/// forced to its verified target. The retry re-speculates the verified
/// prefix identically, so it cannot mispredict — like a one-arrival window,
/// whose only placement is made against the exactly-committed tier — and
/// neither takes a checkpoint.
fn run_windowed(
    config: &ClusterConfig,
    trace: &Trace,
    metrics: &mut MetricsCollector,
    tier: &mut RoutingTier,
    shards: &mut Vec<SpecShard>,
    scratch: &mut ShardedScratch,
    deadline: Option<SimTime>,
) -> Result<RunStats, &'static str> {
    let num_shards = shards.len();
    let ShardedScratch {
        order,
        targets,
        cursors,
    } = scratch;
    let (order, targets): (&[u32], &[AtomicU32]) = (order, targets);
    let ctx = WindowCtx {
        config,
        trace,
        targets,
        deadline,
    };
    let mut stats = RunStats {
        shards: num_shards,
        ..RunStats::default()
    };
    let mut stampers: Vec<ShardStamper> = (0..num_shards).map(|_| ShardStamper::new()).collect();
    let mut counter = trace.requests.len() as u64;
    let mut commit_order: Vec<u32> = Vec::new();
    let mut governor = WindowGovernor::new(config.spec_window);

    std::thread::scope(|scope| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut pool = ShardPool::spawn(scope, num_shards.min(cores) - 1, ctx);
        let n = order.len();
        let mut cursor = 0usize;
        while cursor < n {
            let mut end = (cursor + governor.window()).min(n);
            // Corrected placement for the retry of a mispredicted window.
            let mut forced: Option<(u32, u32)> = None;
            let mut rolled_back = 0u64;
            loop {
                let window = &order[cursor..end];
                let boundary = order.get(end).map(|&b| {
                    (
                        trace.requests[b as usize].arrival,
                        ShardKey::Arrival(b as u64),
                    )
                });
                // Speculate against a throwaway copy of the tier as of the
                // last exactly-committed point. Re-speculation after a
                // rollback reproduces the identical unforced prefix (same
                // tier state, same deterministic policy).
                speculate(&mut tier.clone(), trace, window, forced, targets)?;
                let checkpoint = window.len() > 1 && forced.is_none();
                for shard in shards.iter_mut() {
                    let has_arrival = window.iter().any(|&idx| {
                        targets[idx as usize].load(Relaxed) as usize % num_shards == shard.shard
                    });
                    let has_backlog = shard.queue.peek().is_some_and(|head| {
                        boundary.is_none_or(|b| head < b) && deadline.is_none_or(|d| head.0 <= d)
                    });
                    shard.active = has_arrival || has_backlog;
                }
                stats.spec_windows += 1;
                pool.run(
                    shards,
                    ctx,
                    Attempt {
                        window,
                        boundary,
                        checkpoint,
                    },
                );
                let restore = checkpoint.then(|| (tier.clone(), stampers.clone(), counter));
                commit_order.clear();
                match verify_window(
                    shards,
                    &mut stampers,
                    &mut counter,
                    tier,
                    trace,
                    targets,
                    cursors,
                    &mut commit_order,
                )? {
                    None => {
                        // The window is exact; replay its metric effects in
                        // the verified global order.
                        stats.streamed_effects +=
                            commit_metrics(shards, metrics, cursors, &commit_order);
                        break;
                    }
                    Some((idx, actual)) => {
                        let (tier_at, stampers_at, counter_at) =
                            restore.expect("an attempt without a checkpoint cannot mispredict");
                        stats.mispredictions += 1;
                        for shard in shards.iter_mut() {
                            if shard.active {
                                rolled_back += shard.sink.chunk.entries.len() as u64;
                                shard.rollback();
                            }
                        }
                        *tier = tier_at;
                        stampers = stampers_at;
                        counter = counter_at;
                        forced = Some((idx, actual));
                        let at = window
                            .iter()
                            .position(|&i| i == idx)
                            .expect("the mismatch lies in the window");
                        end = cursor + at + 1;
                    }
                }
            }
            stats.rollback_events += rolled_back;
            governor.record(rolled_back, commit_order.len() as u64);
            cursor = end;
        }
        Ok(stats)
    })
}

/// The verify pass: walks the active shards' window logs in exact global
/// `(time, seq)` order, replaying every routing decision on the live tier
/// at its exact sequential position and applying the tier effects
/// (`on_finished`, `set_free_kv_blocks`) along the way. Metric effects are
/// untouched — they commit only after the whole window verifies, so a
/// mid-window mismatch needs no collector snapshot.
///
/// Returns `Ok(None)` when every placement matched (with `commit_order`
/// holding the shard sequence for the commit pass), `Ok(Some((idx,
/// actual)))` at the first mismatch, or `Err` if the policy deferred.
#[allow(clippy::too_many_arguments)]
fn verify_window(
    shards: &[SpecShard],
    stampers: &mut [ShardStamper],
    counter: &mut u64,
    tier: &mut RoutingTier,
    trace: &Trace,
    targets: &[AtomicU32],
    cursors: &mut Vec<LogCursor>,
    commit_order: &mut Vec<u32>,
) -> Result<Option<(u32, u32)>, &'static str> {
    reset_cursors(cursors, shards.len());
    loop {
        // Linear min-scan over resolved heads, as in `merge`.
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (s, shard) in shards.iter().enumerate() {
            if !shard.active {
                continue;
            }
            let cur = &mut cursors[s];
            if cur.head.is_none() {
                let chunk = &shard.sink.chunk;
                if cur.entry < chunk.entries.len() {
                    let e = chunk.entries[cur.entry];
                    cur.head = Some((e.time, stampers[s].resolve(e.key)));
                }
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
        let cur = &mut cursors[s];
        cur.head = None;
        let chunk = &shards[s].sink.chunk;
        let entry = chunk.entries[cur.entry];
        cur.entry += 1;
        stampers[s].claim_children(entry.n_children as u64, counter);
        // An arrival entry is where the sequential engine would have routed:
        // replay the decision on the exact live view and compare.
        if let ShardKey::Arrival(seq) = entry.key {
            let idx = seq as u32;
            let tr = trace.requests[idx as usize];
            let actual = tier
                .route(RouteRequest {
                    key: seq,
                    tenant: tr.tenant,
                    priority: tr.priority,
                    tokens: tr.prefill_tokens + tr.decode_tokens,
                })
                .ok_or(DEFER_ABORT)?;
            if actual as u32 != targets[idx as usize].load(Relaxed) {
                return Ok(Some((idx, actual as u32)));
            }
        }
        for effect in &chunk.effects[cur.effect..cur.effect + entry.n_effects as usize] {
            match effect {
                Effect::Retire { replica, n_events } => {
                    for ev in &chunk.events[cur.event..cur.event + *n_events as usize] {
                        if ev.finished {
                            let tr = trace.requests[ev.id as usize];
                            tier.on_finished(
                                *replica as usize,
                                tr.tenant,
                                tr.prefill_tokens + tr.decode_tokens,
                            );
                        }
                    }
                    cur.event += *n_events as usize;
                }
                Effect::FreeKv {
                    replica,
                    free_blocks,
                } => tier.set_free_kv_blocks(*replica as usize, *free_blocks),
                _ => {}
            }
        }
        cur.effect += entry.n_effects as usize;
        commit_order.push(s as u32);
    }
}

/// The commit pass: replays a verified window's *metric* effects into the
/// collector, following the shard sequence the verify pass recorded — the
/// collector receives the byte-identical call sequence of a sequential run.
/// Tier effects were already applied during verification and are skipped.
/// Returns the number of effects committed.
fn commit_metrics(
    shards: &[SpecShard],
    metrics: &mut MetricsCollector,
    cursors: &mut Vec<LogCursor>,
    commit_order: &[u32],
) -> u64 {
    reset_cursors(cursors, shards.len());
    let mut committed = 0u64;
    for &s in commit_order {
        let chunk = &shards[s as usize].sink.chunk;
        let cur = &mut cursors[s as usize];
        let entry = chunk.entries[cur.entry];
        cur.entry += 1;
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
        committed += entry.n_effects as u64;
    }
    committed
}
