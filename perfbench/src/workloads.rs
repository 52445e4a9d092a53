//! The benchmark's inputs: the multi-tenant traffic mix, the cluster
//! configurations of the three replay workloads, and the search workload's
//! base trace. Everything is derived from the `--seed` argument; the
//! simulator receives only the generated traces.

use vidur_core::rng::SimRng;
use vidur_core::time::SimTime;
use vidur_hardware::GpuSku;
use vidur_model::{ModelSpec, ParallelismConfig};
use vidur_scheduler::{BatchPolicyKind, GlobalPolicyKind, SchedulerConfig};
use vidur_simulator::{ClusterConfig, PrefixCacheConfig, QuantileMode};
use vidur_workload::{
    ArrivalProcess, MultiTenantWorkload, TenantPrefixConfig, TenantStream, Trace, TraceRequest,
    TraceWorkload,
};

/// Requests in the `prefix_mix` replay.
pub const PREFIX_MIX_REQUESTS: usize = 20_000;
/// Requests in the `stateful_sharded` replay.
pub const STATEFUL_REQUESTS: usize = 5_000;
/// Requests in the seed trace `fleet_mergeable` amplifies.
pub const FLEET_SEED_REQUESTS: usize = 1_000;
/// Requests in the amplified `fleet_mergeable` replay.
pub const FLEET_REQUESTS: usize = 50_000;
/// Requests in each capacity probe of `search_70b`.
pub const SEARCH_PROBE_REQUESTS: usize = 200;
/// Replicas serving every replay.
pub const REPLICAS: usize = 8;
/// Inputs each run cycles through, all derived from `--seed`. A run's
/// medians then average over several draws of the workload instead of
/// resting on one, so they move less between seeds.
pub const INPUTS: usize = 4;

/// Seed of input `input` (0-based, below [`INPUTS`]) of a run with seed
/// `seed`; input 0 uses `seed` itself.
pub fn input_seed(seed: u64, input: usize) -> u64 {
    if input == 0 {
        seed
    } else {
        SimRng::new(seed).fork(input as u64).next_u64()
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Shared prompts, sequential engine, prefix tier, `KvAware` routing.
    PrefixMix,
    /// Unshared prompts, least-outstanding routing, sharded speculation.
    StatefulSharded,
    /// Amplified unshared trace, round-robin, mergeable metrics, sharded.
    FleetMergeable,
    /// `run_search` for LLaMA2-70B over the reduced search space.
    Search70b,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PrefixMix,
        Workload::StatefulSharded,
        Workload::FleetMergeable,
        Workload::Search70b,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PrefixMix => "prefix_mix",
            Workload::StatefulSharded => "stateful_sharded",
            Workload::FleetMergeable => "fleet_mergeable",
            Workload::Search70b => "search_70b",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shard count the workload asks for: `min(nproc, replicas)` on the
    /// sharded workloads (at least two, so a single-core host still runs
    /// the sharded path), 1 elsewhere.
    pub fn shards(self, nproc: usize) -> usize {
        match self {
            Workload::StatefulSharded | Workload::FleetMergeable => nproc.clamp(2, REPLICAS),
            Workload::PrefixMix | Workload::Search70b => 1,
        }
    }
}

/// The tenant mix every replay serves: chat, RAG and bursty batch traffic.
/// `shared` arms the shared-prompt shapes of `prefix_mix`.
fn tenant_mix(shared: bool) -> MultiTenantWorkload {
    let prefix = |share_ratio, prefix_tokens, num_prefixes| {
        shared.then_some(TenantPrefixConfig {
            share_ratio,
            prefix_tokens,
            num_prefixes,
        })
    };
    MultiTenantWorkload::new(
        if shared {
            "bench-mix-shared"
        } else {
            "bench-mix"
        },
        vec![
            TenantStream {
                tenant: "chat".into(),
                priority: 0,
                workload: TraceWorkload::chat_1m(),
                arrivals: ArrivalProcess::Poisson { qps: 14.0 },
                prefix: prefix(0.9, 256, 4),
            },
            TenantStream {
                tenant: "rag".into(),
                priority: 1,
                workload: TraceWorkload::bwb_4k(),
                arrivals: ArrivalProcess::Poisson { qps: 2.0 },
                prefix: prefix(1.0, 512, 2),
            },
            TenantStream {
                tenant: "batch".into(),
                priority: 2,
                workload: TraceWorkload::arxiv_4k(),
                arrivals: ArrivalProcess::Mmpp {
                    qps_base: 0.3,
                    qps_burst: 4.0,
                    mean_base_secs: 60.0,
                    mean_burst_secs: 10.0,
                },
                prefix: None,
            },
        ],
    )
}

/// The generated trace of a replay workload for `seed`.
pub fn replay_trace(workload: Workload, seed: u64) -> Trace {
    let mut rng = SimRng::new(seed);
    match workload {
        Workload::PrefixMix => tenant_mix(true).generate(PREFIX_MIX_REQUESTS, &mut rng),
        Workload::StatefulSharded => tenant_mix(false).generate(STATEFUL_REQUESTS, &mut rng),
        Workload::FleetMergeable => fleet_seed_trace(&mut rng).amplify(FLEET_REQUESTS, &mut rng),
        Workload::Search70b => unreachable!("search_70b has no replay trace"),
    }
}

/// The cluster configuration of a replay workload: LLaMA2-7B at TP1 on
/// A100 replicas, Sarathi-Serve with a 512-token chunk and batch 64.
pub fn replay_config(workload: Workload, nproc: usize) -> ClusterConfig {
    let mut config = ClusterConfig::new(
        ModelSpec::llama2_7b(),
        GpuSku::a100_80g(),
        ParallelismConfig::serial(),
        REPLICAS,
        SchedulerConfig::new(BatchPolicyKind::SarathiServe { chunk_size: 512 }, 64),
    );
    config.shards = workload.shards(nproc);
    match workload {
        Workload::PrefixMix => {
            config.global_policy = GlobalPolicyKind::KvAware;
            config.prefix_cache = Some(PrefixCacheConfig::default());
        }
        Workload::StatefulSharded => config.global_policy = GlobalPolicyKind::LeastOutstanding,
        Workload::FleetMergeable => config.quantile_mode = QuantileMode::Mergeable,
        Workload::Search70b => unreachable!("search_70b has no replay config"),
    }
    config
}

/// The 1k-request seed trace `fleet_mergeable` amplifies, cut from one
/// draw of `SEED_STRIDE` x 1k requests of the unshared mix: its request
/// shapes (lengths, tenant, priority) are every `SEED_STRIDE`-th request
/// of the draw, and its arrival gaps are those of the draw's first 1k
/// requests, rescaled to the whole draw's mean rate. A plain 1k-request
/// window spans about one minute, shorter than one MMPP base sojourn, so
/// its batch share and rate (which the amplified trace inherits) would
/// swing with the seed; the cut carries the mix's long-run composition
/// and rate instead.
fn fleet_seed_trace(rng: &mut SimRng) -> Trace {
    const SEED_STRIDE: usize = 20;
    let draw = tenant_mix(false).generate(FLEET_SEED_REQUESTS * SEED_STRIDE, rng);
    let span = |n: usize| draw.requests[n - 1].arrival.as_secs_f64();
    let scale = span(FLEET_SEED_REQUESTS) * SEED_STRIDE as f64 / span(draw.len());
    let requests = (0..FLEET_SEED_REQUESTS)
        .map(|i| TraceRequest {
            id: i as u64,
            arrival: SimTime::from_secs_f64(draw.requests[i].arrival.as_secs_f64() / scale),
            ..draw.requests[i * SEED_STRIDE]
        })
        .collect();
    Trace { requests, ..draw }
}

/// The static chat-1m base trace every `search_70b` capacity probe
/// re-times: a quantile sample of a larger draw. Decode and prompt lengths
/// are each taken at the middles of `SEARCH_PROBE_REQUESTS` equal slices
/// of the draw's sorted lengths and paired at random (chat-1m draws them
/// independently; the 4k context cap is re-applied by truncating the
/// prompt, as the generator does). Every seed thus offers nearly the same
/// length distribution, including the longest decode, which bounds the
/// offline run that brackets each capacity search; a plain 200-request
/// sample moves the search's work by about a fifth between seeds. The seed
/// picks the draw, the pairing and the order.
pub fn search_trace(seed: u64) -> Trace {
    const POOL: usize = SEARCH_PROBE_REQUESTS * 50;
    const SLICE: usize = POOL / SEARCH_PROBE_REQUESTS;
    let mut rng = SimRng::new(seed);
    let workload = TraceWorkload::chat_1m();
    let pool = workload
        .generate(POOL, &ArrivalProcess::Static, &mut rng)
        .requests;
    let quantiles = |length: fn(&TraceRequest) -> u64| -> Vec<u64> {
        let mut sorted: Vec<u64> = pool.iter().map(length).collect();
        sorted.sort_unstable();
        sorted.into_iter().skip(SLICE / 2).step_by(SLICE).collect()
    };
    let decodes = quantiles(|r| r.decode_tokens);
    let mut prompts = quantiles(|r| r.prefill_tokens);
    rng.shuffle(&mut prompts);
    let cap = workload.max_total_tokens;
    let mut requests: Vec<TraceRequest> = decodes
        .iter()
        .zip(&prompts)
        .map(|(&decode, &prompt)| TraceRequest {
            decode_tokens: decode,
            prefill_tokens: prompt.min(cap - decode).max(1),
            ..pool[0]
        })
        .collect();
    rng.shuffle(&mut requests);
    for (i, r) in requests.iter_mut().enumerate() {
        r.id = i as u64;
    }
    Trace {
        workload_name: "chat-1m-quantiles".into(),
        tenants: Vec::new(),
        prefixes: Vec::new(),
        requests,
    }
}

/// Measured properties of a generated trace.
#[derive(Debug, Clone, Copy)]
pub struct InputProps {
    /// Requests in the trace.
    pub requests: usize,
    /// Requests over the span from the first to the last arrival (0 for a
    /// static trace).
    pub offered_qps: f64,
    /// Mean prompt tokens.
    pub mean_prompt: f64,
    /// Mean decode tokens.
    pub mean_decode: f64,
    /// Share of requests carrying a shared prefix.
    pub shared_prefix_share: f64,
}

impl InputProps {
    /// Measures `trace`.
    pub fn of(trace: &Trace) -> InputProps {
        let n = trace.len().max(1) as f64;
        let first = trace.requests.first().map_or(SimTime::ZERO, |r| r.arrival);
        let last = trace.requests.last().map_or(SimTime::ZERO, |r| r.arrival);
        let span = last.saturating_duration_since(first).as_secs_f64();
        InputProps {
            requests: trace.len(),
            offered_qps: if span > 0.0 {
                trace.len() as f64 / span
            } else {
                0.0
            },
            mean_prompt: trace
                .requests
                .iter()
                .map(|r| r.prefill_tokens as f64)
                .sum::<f64>()
                / n,
            mean_decode: trace
                .requests
                .iter()
                .map(|r| r.decode_tokens as f64)
                .sum::<f64>()
                / n,
            shared_prefix_share: trace.requests.iter().filter(|r| r.prefix_len > 0).count() as f64
                / n,
        }
    }

    /// One human-readable line.
    pub fn describe(&self) -> String {
        format!(
            "requests={} offered_qps={:.3} mean_prompt_tokens={:.1} \
             mean_decode_tokens={:.1} shared_prefix_share={:.4}",
            self.requests,
            self.offered_qps,
            self.mean_prompt,
            self.mean_decode,
            self.shared_prefix_share
        )
    }
}
