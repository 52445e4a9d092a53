//! The simulator's benchmark: one named workload per invocation.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload prefix_mix --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the traced mode and reports the per-layer metrics. Human-readable
//! lines (environment, input properties, checks) come first; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md` for every metric and
//! the layer map.

mod replay;
mod search;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Workload;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// Seed whose report fingerprints and search results are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced mode.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("req_per_s", "1/s"),
    ("search_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`. A metric
/// of a layer the workload never runs reads 0 (see `README.md`).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("event.processed", "count"),
    ("event.scheduled", "count"),
    ("event.pop_s", "s"),
    ("event.peak_len", "count"),
    ("cluster.arrival.count", "count"),
    ("cluster.arrival.s", "s"),
    ("cluster.arrival.p50_ns", "ns"),
    ("cluster.arrival.p99_ns", "ns"),
    ("cluster.arrival.allocs", "count"),
    ("cluster.batch_complete.count", "count"),
    ("cluster.batch_complete.s", "s"),
    ("cluster.batch_complete.p50_ns", "ns"),
    ("cluster.batch_complete.p99_ns", "ns"),
    ("cluster.batch_complete.allocs", "count"),
    ("cluster.wakeup.count", "count"),
    ("cluster.wakeup.s", "s"),
    ("cluster.construct_s", "s"),
    ("cluster.finish_s", "s"),
    ("timing.hits", "count"),
    ("timing.misses", "count"),
    ("timing.hit_rate", "ratio"),
    ("timing.shapes", "count"),
    ("timing.miss_cost_s", "s"),
    ("replica.batches", "count"),
    ("replica.mean_batch_size", "requests"),
    ("replica.mean_batch_tokens", "tokens"),
    ("replica.preemptions", "count"),
    ("memory.kv_utilization", "ratio"),
    ("memory.prefix_hit_rate", "ratio"),
    ("memory.prefix_tokens_saved", "tokens"),
    ("router.deferred", "count"),
    ("router.quota_denied", "count"),
    ("sharded.shards", "count"),
    ("sharded.fallback", "flag"),
    ("sharded.streamed_effects", "count"),
    ("sharded.spec_windows", "count"),
    ("sharded.mispredictions", "count"),
    ("sharded.rollback_events", "count"),
    ("sharded.useful_ratio", "ratio"),
    ("sharded.seq_wall_s", "s"),
    ("sharded.speedup", "x"),
    ("onboarding.s", "s"),
    ("onboarding.estimators", "count"),
    ("search.configs", "count"),
    ("search.evaluated", "count"),
    ("search.runs", "count"),
    ("search.cache_hits", "count"),
    ("search.cache_misses", "count"),
    ("search.onboard_s", "s"),
    ("search.eval.p50_ms", "ms"),
    ("search.eval.p83_ms", "ms"),
    ("search.eval.max_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
];

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks, one line each (empty = correct).
    pub failures: Vec<String>,
    /// Operations attempted: requests sent, or configurations enumerated.
    pub attempted: u64,
    /// Operations that failed: requests not completed, or configurations
    /// missing or failing their check. A failed output check fails all.
    pub failed: u64,
    /// Measured values by metric name.
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The final JSON line. End-to-end metrics must all have been measured;
    /// per-layer metrics of layers the workload never runs read 0.
    fn into_json(mut self, traced: bool) -> String {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in declared {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.failures.push(format!("metric {name} is {v}"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failures.is_empty();
        for f in &self.failures {
            println!("check FAILED: {f}");
        }
        let failed = if correct { self.failed } else { self.attempted };
        println!(
            "checks: {} (failed_frac={})",
            if correct { "all passed" } else { "FAILED" },
            failed as f64 / self.attempted.max(1) as f64
        );
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.attempted,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "env: workload={} seed={} trace={} nproc={} shards={} threads={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        nproc,
        args.workload.shards(nproc),
        // Sharded runs use one thread per shard; the search fans out over
        // the rayon shim, which sizes itself to `available_parallelism`.
        if args.workload == Workload::Search70b {
            nproc
        } else {
            args.workload.shards(nproc)
        },
    );
    let outcome = match args.workload {
        Workload::Search70b => search::run(&args),
        _ => replay::run(&args, nproc),
    };
    println!("{}", outcome.into_json(args.trace));
    ExitCode::SUCCESS
}
