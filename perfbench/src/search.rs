//! The `search_70b` workload: Vidur-Search for LLaMA2-70B over the reduced
//! configuration space, from cold caches as every `vidur search` run pays.

use crate::stats::{
    fnv1a, median, median_difference, peak_rss, percentile_sorted, Repetitions, Samples,
};
use crate::trace::{clock_ns, SpanLog, NO_PARENT};
use crate::workloads::{input_seed, search_trace, InputProps, INPUTS};
use crate::{Args, Outcome, DEFAULT_SEED};
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vidur_estimator::EstimatorKind;
use vidur_model::ModelSpec;
use vidur_search::runner::evaluate_config;
use vidur_search::{run_search, CapacityParams, SearchOutcome, SearchSpace};
use vidur_simulator::{onboard, onboarding, ClusterConfig};
use vidur_workload::Trace;

/// Fingerprint of the serialized evaluations for input 0 of
/// [`DEFAULT_SEED`].
const EVALUATIONS_FINGERPRINT: u64 = 0x52f5_f55c_6c4f_caf7;
/// Best unconstrained configuration for input 0 of [`DEFAULT_SEED`].
const BEST_LABEL: &str = "llama2-70b/a100-80g/TP2-PP1/sarathi-serve(chunk=512)/bs64/r8";

/// Set-up is microseconds long, so it is repeated for this long (or
/// [`SETUP_MAX_REPS`] times) and the median reported.
const SETUP_BUDGET: Duration = Duration::from_millis(250);
const SETUP_MAX_REPS: usize = 1000;

/// Repetitions of each phase in the traced mode.
const TRACE_REPS: usize = 3;

/// The search's inputs: the base trace and the enumerated configurations.
fn setup(seed: u64) -> (Trace, Vec<ClusterConfig>) {
    let base = search_trace(seed);
    let configs = SearchSpace::reduced().enumerate(&ModelSpec::llama2_70b());
    (base, configs)
}

/// Median set-up seconds over repeated set-ups cycling through the run's
/// inputs.
fn measured_setup(seed: u64) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < INPUTS
        || (started.elapsed() < SETUP_BUDGET && samples.len() < SETUP_MAX_REPS)
    {
        let input_seed = input_seed(seed, samples.len() % INPUTS);
        let t = Instant::now();
        black_box(setup(black_box(input_seed)));
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn params() -> CapacityParams {
    CapacityParams::default()
}

/// Runs the search workload in the mode `args` asks for.
pub fn run(args: &Args) -> Outcome {
    let setup_s = measured_setup(args.seed);
    let inputs: Vec<(Trace, Vec<ClusterConfig>)> = (0..INPUTS)
        .map(|i| setup(input_seed(args.seed, i)))
        .collect();
    for (i, (base, configs)) in inputs.iter().enumerate() {
        println!(
            "input[{i}]: {} configs={}",
            InputProps::of(base).describe(),
            configs.len()
        );
    }
    if args.trace {
        let (base, configs) = &inputs[0];
        traced(args, setup_s, base, configs)
    } else {
        untraced(args, setup_s, &inputs)
    }
}

/// Times one `run_search`; callers clear the process-wide caches first so
/// onboarding is included, as every `vidur search` invocation pays it.
fn timed_search(base: &Trace, configs: &[ClusterConfig]) -> (SearchOutcome, f64) {
    let t = Instant::now();
    let outcome = black_box(run_search(
        black_box(configs),
        base,
        &params(),
        EstimatorKind::default(),
    ));
    (outcome, t.elapsed().as_secs_f64())
}

fn untraced(args: &Args, setup_s: f64, inputs: &[(Trace, Vec<ClusterConfig>)]) -> Outcome {
    let mut out = Outcome::default();
    let (mut walls, mut rates) = (Samples::default(), Samples::default());
    let mut fingerprints: [Option<u64>; INPUTS] = [None; INPUTS];
    let mut failed = 0;
    let mut reps = Repetitions::new(args.seconds, INPUTS);
    let mut peaks: [Samples; INPUTS] = Default::default();
    while reps.more() {
        let input = reps.made % INPUTS;
        let (base, configs) = &inputs[input];
        onboarding::clear_cache();
        reps.begin();
        let (outcome, wall) = timed_search(base, configs);
        let rep = reps.end();
        walls.push(wall, rep.keep);
        rates.push(
            outcome.ledger.runs() as f64 * base.len() as f64 / wall,
            rep.keep,
        );
        if let Some(peak) = rep.peak_rss_mb {
            peaks[input].push(peak, rep.keep);
        }
        out.attempted += configs.len() as u64;
        failed += check_search(&mut out, configs, &outcome) as u64;
        let fingerprint = evaluations_fingerprint(&outcome);
        out.check(
            *fingerprints[input].get_or_insert(fingerprint) == fingerprint,
            || format!("input {input}: evaluations differ between repetitions"),
        );
        if reps.made == 1 {
            check_pinned(&mut out, args, &outcome);
        }
    }
    out.failed = failed;
    let peak = peak_rss(&peaks);
    out.check(peak.is_some(), || "VmHWM unavailable".into());
    out.set("req_per_s", rates.median());
    out.set("search_s", walls.median());
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak.unwrap_or(0.0));
    println!(
        "timed: reps={} set_aside_for_steal={} search_s(median)={:.4} setup_s(median)={:.6} \
         kept_walls={:.3?} kept_peak_rss_mb_by_input={:.1?}",
        reps.made,
        reps.set_aside,
        walls.median(),
        setup_s,
        walls.kept(),
        peaks.iter().map(Samples::kept).collect::<Vec<_>>()
    );
    out
}

fn evaluations_fingerprint(outcome: &SearchOutcome) -> u64 {
    let json = serde_json::to_string(&outcome.evaluations).expect("evaluations serialize");
    fnv1a(json.as_bytes())
}

/// Checks one search outcome; returns how many configurations are missing
/// or fail their check.
fn check_search(out: &mut Outcome, configs: &[ClusterConfig], outcome: &SearchOutcome) -> usize {
    let mut failed = configs.len().saturating_sub(outcome.evaluations.len());
    let mut labels: BTreeSet<String> = configs.iter().map(|c| c.label()).collect();
    for e in &outcome.evaluations {
        let sane = labels.remove(&e.label)
            && e.capacity_qps.is_finite()
            && e.capacity_qps > 0.0
            && e.qps_per_dollar.is_finite()
            && e.qps_per_dollar > 0.0
            && [
                e.ttft_p90,
                e.tbt_p99,
                e.sched_delay_p99,
                e.mfu,
                e.kv_utilization,
            ]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0);
        if !sane {
            failed += 1;
        }
    }
    out.check(failed == 0, || {
        format!(
            "{failed} of {} configurations missing or failing",
            configs.len()
        )
    });
    failed
}

/// Prints the search's result and, on input 0 of [`DEFAULT_SEED`], checks
/// it against the pins.
fn check_pinned(out: &mut Outcome, args: &Args, outcome: &SearchOutcome) {
    let fingerprint = evaluations_fingerprint(outcome);
    let best = outcome
        .best_unconstrained()
        .map_or(String::new(), |e| e.label.clone());
    println!(
        "search: evaluated={} runs={} shape_misses={} fingerprint={fingerprint:#018x} \
         best_unconstrained={best}",
        outcome.evaluations.len(),
        outcome.ledger.runs(),
        outcome.ledger.cache_misses()
    );
    if args.seed == DEFAULT_SEED {
        out.check(fingerprint == EVALUATIONS_FINGERPRINT, || {
            format!(
                "evaluations fingerprint {fingerprint:#018x} != pinned \
                 {EVALUATIONS_FINGERPRINT:#018x}"
            )
        });
        out.check(best == BEST_LABEL, || {
            format!("best unconstrained '{best}' != pinned '{BEST_LABEL}'")
        });
    }
}

/// Onboards every (model, TP, SKU) the configurations need, from cold
/// caches; returns the seconds taken and the number of estimators.
fn onboard_all(configs: &[ClusterConfig]) -> (f64, usize) {
    onboarding::clear_cache();
    let t = Instant::now();
    let mut seen = BTreeSet::new();
    for c in configs {
        if seen.insert((c.parallelism.tensor_parallel, c.sku.name.clone())) {
            onboard(&c.model, &c.parallelism, &c.sku, EstimatorKind::default());
        }
    }
    (t.elapsed().as_secs_f64(), seen.len())
}

/// Distinct shapes memoized across the search's shared stage timers.
fn cached_shapes(configs: &[ClusterConfig]) -> usize {
    let mut seen = BTreeSet::new();
    configs
        .iter()
        .filter(|c| {
            seen.insert((
                c.parallelism.tensor_parallel,
                c.parallelism.pipeline_parallel,
                c.sku.name.clone(),
            ))
        })
        .map(|c| onboarding::onboard_timer(c, EstimatorKind::default()).cached_shapes())
        .sum()
}

/// The traced mode, on input 0 (whose seed is `--seed` itself).
fn traced(args: &Args, setup_s: f64, base: &Trace, configs: &[ClusterConfig]) -> Outcome {
    let mut out = Outcome::default();
    let mut log = SpanLog::default();
    let (mut onboard_s, mut cold, mut warm, mut traced_walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut eval_ms = Vec::new();
    let (mut estimators, mut shapes, mut last) = (0, 0, None);
    for _ in 0..TRACE_REPS {
        log.clear();
        let root = log.open("search", NO_PARENT);
        // Onboarding alone, then the search on warm estimators but cold
        // shape caches, then again with the shape caches warm.
        let span = log.open("onboard", root);
        let (secs, n) = onboard_all(configs);
        onboard_s.push(secs);
        estimators = n;
        log.close(span);
        let span = log.open("run_search.cold_timers", root);
        let t = Instant::now();
        let outcome = run_search(configs, base, &params(), EstimatorKind::default());
        cold.push(t.elapsed().as_secs_f64());
        log.close(span);
        shapes = cached_shapes(configs);
        let span = log.open("run_search.warm_timers", root);
        let t = Instant::now();
        black_box(run_search(
            configs,
            base,
            &params(),
            EstimatorKind::default(),
        ));
        warm.push(t.elapsed().as_secs_f64());
        log.close(span);

        // The traced search: `evaluate_config` per configuration, fanned
        // out exactly as `run_search` does, each call timed.
        onboard_all(configs);
        let span = log.open("run_search.traced", root);
        let t = Instant::now();
        let timed: Vec<(u64, u64)> = configs
            .par_iter()
            .map(|c| {
                let start = clock_ns();
                black_box(evaluate_config(
                    c,
                    base,
                    &params(),
                    EstimatorKind::default(),
                ));
                (start, clock_ns())
            })
            .collect();
        traced_walls.push(t.elapsed().as_secs_f64());
        log.close(span);
        eval_ms.clear();
        for (i, &(start, end)) in timed.iter().enumerate() {
            log.push_request("evaluate_config", start, end, span, i as u32);
            eval_ms.push((end - start) as f64 * 1e-6);
        }
        log.close(root);
        last = Some(outcome);
    }
    let outcome = last.expect("at least one repetition");
    out.attempted = configs.len() as u64;
    out.failed = check_search(&mut out, configs, &outcome) as u64;
    check_pinned(&mut out, args, &outcome);

    let ledger = &outcome.ledger;
    let cold_s = median(&cold);
    out.set("timing.hits", ledger.cache_hits() as f64);
    out.set("timing.misses", ledger.cache_misses() as f64);
    out.set("timing.hit_rate", ledger.cache_hit_rate());
    out.set("timing.shapes", shapes as f64);
    out.set("timing.miss_cost_s", median_difference(&cold, &warm));
    out.set("sharded.shards", 1.0);
    out.set("sharded.useful_ratio", 1.0);
    out.set("sharded.seq_wall_s", cold_s);
    out.set("sharded.speedup", 1.0);
    out.set("onboarding.s", median(&onboard_s));
    out.set("onboarding.estimators", estimators as f64);
    out.set("search.configs", configs.len() as f64);
    out.set("search.evaluated", outcome.evaluations.len() as f64);
    out.set("search.runs", ledger.runs() as f64);
    out.set("search.cache_hits", ledger.cache_hits() as f64);
    out.set("search.cache_misses", ledger.cache_misses() as f64);
    out.set("search.onboard_s", median(&onboard_s));
    eval_ms.sort_by(f64::total_cmp);
    out.set("search.eval.p50_ms", percentile_sorted(&eval_ms, 50.0));
    out.set("search.eval.p83_ms", percentile_sorted(&eval_ms, 83.0));
    out.set("search.eval.max_ms", percentile_sorted(&eval_ms, 100.0));
    let traced_s = median(&traced_walls);
    out.set("trace.overhead_s", median_difference(&traced_walls, &cold));
    println!(
        "accounting: setup_s={setup_s:.6} onboard_s={:.4} search_cold_timers_s={cold_s:.4} \
         search_warm_timers_s={:.4} traced_search_s={traced_s:.4}",
        median(&onboard_s),
        median(&warm)
    );
    log.write_at_exit(args);
    out
}
