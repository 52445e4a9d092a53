//! The three replay workloads: end-to-end measurement, the traced per-layer
//! split, and the output checks.

use crate::stats::{
    count_allocs, fnv1a, median, median_difference, peak_rss, Repetitions, Samples,
};
use crate::trace::{traced_drive, LoopStats, SpanLog, NO_PARENT};
use crate::workloads::{input_seed, replay_config, replay_trace, InputProps, Workload, INPUTS};
use crate::{Args, Outcome, DEFAULT_SEED};
use std::hint::black_box;
use std::time::Instant;
use vidur_estimator::EstimatorKind;
use vidur_simulator::cluster::SimEvent;
use vidur_simulator::{engine, onboarding, ClusterConfig, ClusterSimulator, RunStats};
use vidur_simulator::{SimulationReport, StageTimer};
use vidur_workload::Trace;

/// Fingerprint of `prefix_mix`'s serialized report for input 0 of
/// [`DEFAULT_SEED`].
const PREFIX_MIX_FINGERPRINT: u64 = 0xb651_c6d0_5e4d_e7ac;

/// Repetitions of each phase in the traced mode (per-layer figures are
/// medians over them).
const TRACE_REPS: usize = 3;

/// Runs a replay workload in the mode `args` asks for.
pub fn run(args: &Args, nproc: usize) -> Outcome {
    let config = replay_config(args.workload, nproc);
    for input in 0..INPUTS {
        let trace = replay_trace(args.workload, input_seed(args.seed, input));
        println!("input[{input}]: {}", InputProps::of(&trace).describe());
    }
    if args.trace {
        traced(args, &config)
    } else {
        untraced(args, &config)
    }
}

/// A simulator built from cold caches, with the set-up cost split.
struct ColdBuild {
    sim: ClusterSimulator,
    /// A handle sharing the simulator's shape map and hit/miss counters.
    timer: StageTimer,
    onboard_s: f64,
    construct_s: f64,
}

/// Clears the process-wide estimator and shape caches (every CLI
/// invocation starts from them empty), onboards the estimator, and
/// constructs the simulator, timing the two steps apart. Dropping the
/// previous run's caches is left out of both.
fn cold_build(config: &ClusterConfig, trace: Trace, seed: u64) -> ColdBuild {
    onboarding::clear_cache();
    let t = Instant::now();
    let timer = onboarding::onboard_timer(config, EstimatorKind::default());
    let onboard_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sim = ClusterSimulator::with_timer(config.clone(), trace, timer.clone(), seed);
    let construct_s = t.elapsed().as_secs_f64();
    ColdBuild {
        sim,
        timer,
        onboard_s,
        construct_s,
    }
}

/// Times `run_with_stats`, the call every replay answers through.
fn timed_run(sim: ClusterSimulator) -> (SimulationReport, RunStats, f64) {
    let t = Instant::now();
    let (report, stats) = black_box(black_box(sim).run_with_stats());
    (report, stats, t.elapsed().as_secs_f64())
}

/// Times `engine::trace_arrivals` plus `engine::drive`: the part of
/// `run_with_stats` before report assembly. Returns the event count too.
fn timed_drive(sim: &mut ClusterSimulator, trace: &Trace) -> (u64, f64) {
    let t = Instant::now();
    let arrivals = engine::trace_arrivals(trace, SimEvent::Arrival);
    let (_, events) = engine::drive(black_box(sim), arrivals);
    (events, t.elapsed().as_secs_f64())
}

fn report_json(report: &SimulationReport) -> String {
    serde_json::to_string(report).expect("a simulation report serializes")
}

fn sequential(config: &ClusterConfig) -> ClusterConfig {
    ClusterConfig {
        shards: 1,
        ..config.clone()
    }
}

/// The report of an untimed sequential run on the same inputs.
fn sequential_report(config: &ClusterConfig, trace: Trace, seed: u64) -> SimulationReport {
    let build = cold_build(&sequential(config), trace, seed);
    build.sim.run()
}

fn untraced(args: &Args, config: &ClusterConfig) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut walls, mut answers, mut rates) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut fingerprints: [Option<u64>; INPUTS] = [None; INPUTS];
    let mut last = None;
    let mut reps = Repetitions::new(args.seconds, INPUTS);
    let mut peaks: [Samples; INPUTS] = Default::default();
    while reps.more() {
        let input = reps.made % INPUTS;
        let seed = input_seed(args.seed, input);
        // Release the previous repetition's caches before its peak is reset.
        onboarding::clear_cache();
        reps.begin();
        let t = Instant::now();
        let trace = replay_trace(args.workload, seed);
        let trace_s = t.elapsed().as_secs_f64();
        let sent = trace.len() as u64;
        let build = cold_build(config, trace, seed);
        let setup_s = trace_s + build.onboard_s + build.construct_s;
        let (report, stats, wall) = timed_run(build.sim);
        let rep = reps.end();
        setup.push(setup_s, rep.keep);
        walls.push(wall, rep.keep);
        answers.push(setup_s + wall, rep.keep);
        rates.push(report.completed as f64 / wall, rep.keep);
        if let Some(peak) = rep.peak_rss_mb {
            peaks[input].push(peak, rep.keep);
        }
        out.attempted += sent;
        out.failed += sent.saturating_sub(report.completed as u64);
        let fingerprint = fnv1a(report_json(&report).as_bytes());
        out.check(
            *fingerprints[input].get_or_insert(fingerprint) == fingerprint,
            || format!("input {input}: reports differ between repetitions"),
        );
        last = Some((report, stats, seed));
    }
    let peak = peak_rss(&peaks);
    out.check(peak.is_some(), || "VmHWM unavailable".into());
    out.set("req_per_s", rates.median());
    out.set("search_s", answers.median());
    out.set("setup_s", setup.median());
    out.set("peak_rss_mb", peak.unwrap_or(0.0));
    println!(
        "timed: reps={} set_aside_for_steal={} replay_wall_s(median)={:.4} \
         setup_s(median)={:.4} kept_walls={:.3?} kept_peak_rss_mb_by_input={:.1?}",
        reps.made,
        reps.set_aside,
        walls.median(),
        setup.median(),
        walls.kept(),
        peaks.iter().map(Samples::kept).collect::<Vec<_>>()
    );
    check_pinned(&mut out, args, fingerprints[0].expect("input 0 ran"));
    let (report, stats, seed) = last.expect("at least one repetition");
    check_replay(&mut out, args.workload, config, seed, &report, &stats, None);
    out
}

/// Checks `prefix_mix`'s input-0 report fingerprint against the pin when
/// the run uses [`DEFAULT_SEED`].
fn check_pinned(out: &mut Outcome, args: &Args, fingerprint: u64) {
    if args.seed == DEFAULT_SEED && args.workload == Workload::PrefixMix {
        out.check(fingerprint == PREFIX_MIX_FINGERPRINT, || {
            format!(
                "input 0 report fingerprint {fingerprint:#018x} != pinned \
                 {PREFIX_MIX_FINGERPRINT:#018x}"
            )
        });
    }
}

/// The workload's output checks on `report`, from the workload's own
/// configuration on the input generated from `seed`. `seq_report` is a
/// sequential run of the same input, if one was already made.
fn check_replay(
    out: &mut Outcome,
    workload: Workload,
    config: &ClusterConfig,
    seed: u64,
    report: &SimulationReport,
    stats: &RunStats,
    seq_report: Option<&SimulationReport>,
) {
    out.check(report.completed == report.num_requests, || {
        format!(
            "{} of {} requests completed",
            report.completed, report.num_requests
        )
    });
    let json = report_json(report);
    println!(
        "report: fingerprint={:#018x} completed={} batches={} ttft_p99_s={:.4}",
        fnv1a(json.as_bytes()),
        report.completed,
        report.total_batches,
        report.ttft.p99
    );
    match workload {
        Workload::PrefixMix => {
            let hits: u64 = report.per_tenant.iter().map(|t| t.prefix_hits).sum();
            let saved: u64 = report
                .per_tenant
                .iter()
                .map(|t| t.prefix_tokens_saved)
                .sum();
            out.check(hits == report.prefix_hits && report.prefix_hits > 0, || {
                format!(
                    "tenant prefix hits sum to {hits}, total {}",
                    report.prefix_hits
                )
            });
            out.check(saved == report.prefix_tokens_saved, || {
                format!(
                    "tenant prefix tokens saved sum to {saved}, total {}",
                    report.prefix_tokens_saved
                )
            });
            out.check(stats.shards == 1, || {
                format!("prefix_mix ran on {} shards", stats.shards)
            });
        }
        Workload::StatefulSharded | Workload::FleetMergeable => {
            out.check(stats.shards >= 2, || {
                format!("ran on {} shard(s)", stats.shards)
            });
            out.check(stats.fallback_reason.is_none(), || {
                format!("fell back to sequential: {:?}", stats.fallback_reason)
            });
            let seq_json = match seq_report {
                Some(seq) => report_json(seq),
                None => report_json(&sequential_report(
                    config,
                    replay_trace(workload, seed),
                    seed,
                )),
            };
            out.check(seq_json == json, || {
                "sharded report differs from the one-shard report".into()
            });
        }
        Workload::Search70b => unreachable!("search_70b is not a replay"),
    }
}

/// Per-repetition figures of the traced mode.
#[derive(Default)]
struct TracedReps {
    onboard_s: Vec<f64>,
    construct_s: Vec<f64>,
    run_wall: Vec<f64>,
    seq_wall: Vec<f64>,
    drive_wall: Vec<f64>,
    warm_drive_wall: Vec<f64>,
    loops: Vec<LoopStats>,
}

/// The traced mode, on input 0 (whose seed is `--seed` itself).
fn traced(args: &Args, config: &ClusterConfig) -> Outcome {
    let mut out = Outcome::default();
    let seq_config = sequential(config);
    let sharded = config.shards > 1;
    let mut log = SpanLog::default();
    let mut reps = TracedReps::default();
    let mut last = None;
    let (mut drive_events, mut drive_cache) = (0, Default::default());
    let mut shapes = 0;
    for _ in 0..TRACE_REPS {
        // Only the last repetition's spans are kept.
        log.clear();
        let root = log.open("replay", NO_PARENT);
        let span = log.open("setup.trace", root);
        let trace = replay_trace(args.workload, args.seed);
        log.close(span);
        out.attempted += trace.len() as u64;

        // The workload's own run, untraced.
        let span = log.open("run_with_stats", root);
        let build = cold_build(config, trace.clone(), args.seed);
        reps.onboard_s.push(build.onboard_s);
        reps.construct_s.push(build.construct_s);
        let (report, stats, wall) = timed_run(build.sim);
        reps.run_wall.push(wall);
        out.failed += (report.num_requests - report.completed) as u64;
        log.close(span);

        // Its sequential pair on the same inputs.
        let seq_report = if sharded {
            let span = log.open("run_with_stats.sequential", root);
            let build = cold_build(&seq_config, trace.clone(), args.seed);
            let (seq_report, _, seq_wall) = timed_run(build.sim);
            reps.seq_wall.push(seq_wall);
            log.close(span);
            Some(seq_report)
        } else {
            reps.seq_wall.push(wall);
            None
        };

        // Untraced drive on cold, then warm, shape caches.
        let span = log.open("drive.untraced", root);
        let mut build = cold_build(&seq_config, trace.clone(), args.seed);
        let (events, drive_wall) = timed_drive(&mut build.sim, &trace);
        reps.drive_wall.push(drive_wall);
        drive_events = events;
        drive_cache = build.timer.stats();
        shapes = build.timer.cached_shapes();
        log.close(span);
        let span = log.open("drive.warm", root);
        let mut warm = ClusterSimulator::with_timer(
            seq_config.clone(),
            trace.clone(),
            build.timer.with_fresh_stats(),
            args.seed,
        );
        reps.warm_drive_wall.push(timed_drive(&mut warm, &trace).1);
        log.close(span);
        drop((build, warm));

        // The traced drive, on cold caches again.
        let mut build = cold_build(&seq_config, trace.clone(), args.seed);
        count_allocs(true);
        let stats_loop = traced_drive(&mut build.sim, &trace, &mut log, root);
        count_allocs(false);
        out.check(stats_loop.ended_done, || {
            "traced loop ended before is_done()".into()
        });
        out.check(stats_loop.processed == drive_events, || {
            format!(
                "traced loop handled {} events, engine::drive {drive_events}",
                stats_loop.processed
            )
        });
        let traced_cache = build.timer.stats();
        out.check(traced_cache == drive_cache, || {
            format!("traced loop timer stats {traced_cache:?} != drive's {drive_cache:?}")
        });
        reps.loops.push(stats_loop);
        log.close(root);
        last = Some((report, stats, seq_report));
    }
    let (report, stats, seq_report) = last.expect("at least one repetition");
    check_replay(
        &mut out,
        args.workload,
        config,
        args.seed,
        &report,
        &stats,
        seq_report.as_ref(),
    );
    check_pinned(&mut out, args, fnv1a(report_json(&report).as_bytes()));

    let loops = &reps.loops;
    let med = |f: &dyn Fn(&LoopStats) -> f64| median(&loops.iter().map(f).collect::<Vec<_>>());
    let last_loop = loops.last().expect("at least one repetition");
    out.set("event.processed", last_loop.processed as f64);
    out.set("event.scheduled", last_loop.scheduled as f64);
    out.set("event.pop_s", med(&|l| l.pop_s));
    out.set("event.peak_len", last_loop.peak_len as f64);
    out.set("cluster.arrival.count", last_loop.arrival.count() as f64);
    out.set("cluster.arrival.s", med(&|l| l.arrival.secs()));
    out.set("cluster.arrival.p50_ns", med(&|l| l.arrival.p50_p99_ns().0));
    out.set("cluster.arrival.p99_ns", med(&|l| l.arrival.p50_p99_ns().1));
    out.set("cluster.arrival.allocs", med(&|l| l.arrival.allocs as f64));
    out.set(
        "cluster.batch_complete.count",
        last_loop.batch_complete.count() as f64,
    );
    out.set(
        "cluster.batch_complete.s",
        med(&|l| l.batch_complete.secs()),
    );
    out.set(
        "cluster.batch_complete.p50_ns",
        med(&|l| l.batch_complete.p50_p99_ns().0),
    );
    out.set(
        "cluster.batch_complete.p99_ns",
        med(&|l| l.batch_complete.p50_p99_ns().1),
    );
    out.set(
        "cluster.batch_complete.allocs",
        med(&|l| l.batch_complete.allocs as f64),
    );
    out.set("cluster.wakeup.count", last_loop.wakeup.count() as f64);
    out.set("cluster.wakeup.s", med(&|l| l.wakeup.secs()));
    out.check(last_loop.other.count() == 0, || {
        format!("{} events of unexpected variants", last_loop.other.count())
    });

    let construct_s = median(&reps.construct_s);
    let seq_wall = median(&reps.seq_wall);
    let drive_wall = median(&reps.drive_wall);
    let finish_s = median_difference(&reps.seq_wall, &reps.drive_wall);
    out.set("cluster.construct_s", construct_s);
    out.set("cluster.finish_s", finish_s);
    out.set("timing.hits", drive_cache.hits as f64);
    out.set("timing.misses", drive_cache.misses as f64);
    out.set("timing.hit_rate", drive_cache.hit_rate());
    out.set("timing.shapes", shapes as f64);
    out.set(
        "timing.miss_cost_s",
        median_difference(&reps.drive_wall, &reps.warm_drive_wall),
    );

    out.set("replica.batches", report.total_batches as f64);
    out.set("replica.mean_batch_size", report.mean_batch_size);
    out.set("replica.mean_batch_tokens", report.mean_batch_tokens);
    out.set("replica.preemptions", report.preemptions as f64);
    out.set("memory.kv_utilization", report.kv_utilization);
    out.set("memory.prefix_hit_rate", report.prefix_hit_rate);
    out.set(
        "memory.prefix_tokens_saved",
        report.prefix_tokens_saved as f64,
    );
    out.set(
        "router.deferred",
        report.per_tenant.iter().map(|t| t.deferred).sum::<u64>() as f64,
    );
    out.set(
        "router.quota_denied",
        report
            .per_tenant
            .iter()
            .map(|t| t.quota_denied)
            .sum::<u64>() as f64,
    );

    let run_wall = median(&reps.run_wall);
    out.set("sharded.shards", stats.shards as f64);
    out.set(
        "sharded.fallback",
        f64::from(u8::from(stats.fallback_reason.is_some())),
    );
    out.set("sharded.streamed_effects", stats.streamed_effects as f64);
    out.set("sharded.spec_windows", stats.spec_windows as f64);
    out.set("sharded.mispredictions", stats.mispredictions as f64);
    out.set("sharded.rollback_events", stats.rollback_events as f64);
    out.set(
        "sharded.useful_ratio",
        drive_events as f64 / (drive_events + stats.rollback_events).max(1) as f64,
    );
    out.set("sharded.seq_wall_s", seq_wall);
    out.set("sharded.speedup", seq_wall / run_wall);

    out.set("onboarding.s", median(&reps.onboard_s));
    out.set("onboarding.estimators", 1.0);

    let traced_wall = med(&|l| l.wall_s);
    let traced_walls: Vec<f64> = loops.iter().map(|l| l.wall_s).collect();
    let overhead = median_difference(&traced_walls, &reps.drive_wall);
    let accounted = med(&|l| l.pop_s)
        + med(&|l| l.arrival.secs())
        + med(&|l| l.batch_complete.secs())
        + finish_s
        + construct_s;
    let untraced_wall = construct_s + seq_wall;
    out.set("trace.overhead_s", overhead);
    out.set("trace.unaccounted_s", untraced_wall - accounted);
    println!(
        "accounting: untraced_wall_s={untraced_wall:.4} accounted_s={accounted:.4} \
         trace_overhead_s={overhead:.4} run_wall_s={run_wall:.4} seq_wall_s={seq_wall:.4} \
         drive_wall_s={drive_wall:.4} traced_drive_wall_s={traced_wall:.4}"
    );
    log.write_at_exit(args);
    out
}
