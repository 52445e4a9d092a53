//! The memoized stage-time pipeline: runtime source → execution plan →
//! per-stage prediction, with a batch-shape cache in the middle.
//!
//! Batch compositions recur massively in serving simulations — decode-heavy
//! iterations differ only in request ids, and a capacity bisection replays
//! the same trace at many load levels — so [`StageTimer`] memoizes the
//! expensive middle of the prediction path (plan construction plus
//! per-operator predictor invocation) under a canonical
//! [`BatchShapeKey`]. The stochastic CPU-overhead jitter of the oracle
//! source is applied by the engine *after* cache lookup, and per-operator
//! metrics attribution is replayed from the cached [`PlanTiming`] stream,
//! so a simulation's [`SimulationReport`](crate::metrics::SimulationReport)
//! is byte-identical with the cache on or off.
//!
//! Cloning a `StageTimer` shares its cache and its runtime source: the
//! capacity search clones one timer into every bisection probe of a
//! configuration so later probes reuse the shapes earlier probes (and the
//! offline bounding run) already priced, and the sharded engine clones it
//! into every shard checkpoint at the cost of a few refcounts.

use crate::config::ClusterConfig;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use vidur_estimator::RuntimeEstimator;
use vidur_hardware::KernelOracle;
use vidur_model::batch::BatchComposition;
use vidur_model::runtime::RuntimePredictor;
use vidur_model::shape::{BatchShapeKey, PlanTiming};
use vidur_model::{ModelSpec, ParallelismConfig};

/// Cap on memoized shapes. Long simulations of high-entropy workloads could
/// otherwise grow the table without bound; once full, new shapes are priced
/// directly (still correct, just uncached).
pub const MAX_CACHED_SHAPES: usize = 1 << 20;

/// Where batch runtimes come from.
///
/// `Oracle` is this repo's stand-in for the real testbed: ground-truth
/// analytical kernel times **plus stochastic CPU-overhead jitter** (real
/// serving systems exhibit framework hiccups; the paper attributes the 7B
/// model's elevated error to exactly this). `Estimator` is Vidur proper:
/// trained runtime models and a constant nominal CPU overhead.
#[derive(Debug, Clone)]
pub enum RuntimeSource {
    /// Ground truth with jittered CPU overhead (the paper's "Real").
    Oracle(KernelOracle),
    /// Trained estimator with nominal CPU overhead (the paper's
    /// "Predicted").
    Estimator(RuntimeEstimator),
}

impl RuntimeSource {
    pub(crate) fn op_source(&self) -> &dyn RuntimePredictor {
        match self {
            RuntimeSource::Oracle(o) => o,
            RuntimeSource::Estimator(e) => e,
        }
    }

    pub(crate) fn jitters(&self) -> bool {
        matches!(self, RuntimeSource::Oracle(_))
    }
}

/// Hit/miss counters of a shape cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to price the shape.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type ShapeMap = HashMap<BatchShapeKey, Arc<PlanTiming>>;

/// Prices batches for one (model, parallelism, runtime source) context,
/// memoizing per-stage times by batch shape.
///
/// Timings are always computed from the batch's [`BatchShapeKey`] — the
/// execution plan is a function of the shape alone, so the cached value is
/// independent of request ids and slice ordering, and cache-on and
/// cache-off runs are bit-identical.
#[derive(Clone)]
pub struct StageTimer {
    model: ModelSpec,
    parallelism: ParallelismConfig,
    async_pipeline_comm: bool,
    /// Shared, never mutated after onboarding: a clone (every shard
    /// checkpoint clones its engine core, and with it this timer) bumps a
    /// refcount instead of deep-copying a trained estimator's per-operator
    /// regressors.
    source: Arc<RuntimeSource>,
    /// `None` disables memoization (every batch priced directly).
    cache: Option<Arc<Mutex<ShapeMap>>>,
    /// Hit/miss counters, shared by plain clones but *detachable* from the
    /// shape map via [`StageTimer::with_fresh_stats`], so a caller holding
    /// a globally shared map still gets exact counters for its own runs.
    stats: Arc<Mutex<CacheStats>>,
}

impl fmt::Debug for StageTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("StageTimer")
            .field("model", &self.model.name)
            .field("cached", &self.cache.is_some())
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl StageTimer {
    /// Builds a timer; `cached` toggles shape memoization.
    pub fn new(
        model: ModelSpec,
        parallelism: ParallelismConfig,
        async_pipeline_comm: bool,
        source: RuntimeSource,
        cached: bool,
    ) -> Self {
        StageTimer {
            model,
            parallelism,
            async_pipeline_comm,
            source: Arc::new(source),
            cache: cached.then(|| Arc::new(Mutex::new(ShapeMap::default()))),
            stats: Arc::new(Mutex::new(CacheStats::default())),
        }
    }

    /// A handle onto the same shape map with *fresh* hit/miss counters.
    ///
    /// Plain `clone()`s share both; `onboard_timer` hands each caller a
    /// fresh-stats handle so per-configuration ledger counts stay exact
    /// even when rayon workers share one process-wide map concurrently.
    pub fn with_fresh_stats(&self) -> StageTimer {
        StageTimer {
            stats: Arc::new(Mutex::new(CacheStats::default())),
            ..self.clone()
        }
    }

    /// Builds the timer for a cluster configuration (the usual entry point;
    /// respects [`ClusterConfig::plan_cache`]).
    pub fn for_config(config: &ClusterConfig, source: RuntimeSource) -> Self {
        StageTimer::new(
            config.model.clone(),
            config.parallelism,
            config.async_pipeline_comm,
            source,
            config.plan_cache,
        )
    }

    /// Prices one batch: cache hit replays the stored timing, miss builds
    /// the plan from the shape and sweeps the predictor over it.
    ///
    /// CPU-overhead jitter is *not* included — the engine adds it after the
    /// lookup so the oracle's stochastic overhead stays bit-exact regardless
    /// of cache state.
    pub fn time_batch(&self, batch: &BatchComposition) -> Arc<PlanTiming> {
        let key = BatchShapeKey::from_batch(batch);
        let Some(cache) = &self.cache else {
            return Arc::new(self.price(&key));
        };
        if let Some(hit) = cache.lock().get(&key).map(Arc::clone) {
            self.stats.lock().hits += 1;
            return hit;
        }
        self.stats.lock().misses += 1;
        // Price outside the lock: concurrent misses on the same shape do
        // duplicate (deterministic) work instead of serializing every probe.
        let timing = Arc::new(self.price(&key));
        let mut guard = cache.lock();
        if guard.len() < MAX_CACHED_SHAPES {
            Arc::clone(guard.entry(key).or_insert_with(|| Arc::clone(&timing)))
        } else {
            timing
        }
    }

    /// Uncached pricing straight from the shape (plan build + predictor
    /// sweep). Both cache states run exactly this computation, so a hit
    /// replays bit-identical values.
    fn price(&self, key: &BatchShapeKey) -> PlanTiming {
        PlanTiming::for_shape(
            &self.model,
            &self.parallelism,
            key,
            self.source.op_source(),
            self.async_pipeline_comm,
        )
    }

    /// Whether the underlying source adds stochastic CPU-overhead jitter.
    pub fn jitters(&self) -> bool {
        self.source.jitters()
    }

    /// The runtime source backing this timer.
    pub fn source(&self) -> &RuntimeSource {
        &self.source
    }

    /// This handle-family's hit/miss counters (zeros when memoization is
    /// disabled; see [`StageTimer::with_fresh_stats`] for the sharing
    /// granularity).
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// Distinct shapes currently memoized.
    pub fn cached_shapes(&self) -> usize {
        self.cache.as_ref().map(|c| c.lock().len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onboarding::onboard;
    use proptest::prelude::*;
    use vidur_estimator::EstimatorKind;
    use vidur_hardware::GpuSku;
    use vidur_model::RequestSlice;

    fn oracle() -> RuntimeSource {
        RuntimeSource::Oracle(KernelOracle::new(GpuSku::a100_80g()))
    }

    fn estimator(model: &ModelSpec, par: &ParallelismConfig) -> RuntimeSource {
        let est = onboard(model, par, &GpuSku::a100_80g(), EstimatorKind::default());
        RuntimeSource::Estimator((*est).clone())
    }

    fn timer_pair(par: ParallelismConfig, source: RuntimeSource) -> (StageTimer, StageTimer) {
        let model = ModelSpec::llama2_7b();
        let cached = StageTimer::new(model.clone(), par, false, source.clone(), true);
        let uncached = StageTimer::new(model, par, false, source, false);
        (cached, uncached)
    }

    #[test]
    fn cache_hits_replay_identical_timing() {
        let (cached, _) = timer_pair(ParallelismConfig::serial(), oracle());
        let a = BatchComposition::new(vec![
            RequestSlice::prefill(1, 512, 0),
            RequestSlice::decode(2, 300),
        ]);
        // Same shape, different ids and slice order.
        let b = BatchComposition::new(vec![
            RequestSlice::decode(7, 300),
            RequestSlice::prefill(8, 512, 0),
        ]);
        let ta = cached.time_batch(&a);
        let tb = cached.time_batch(&b);
        assert!(Arc::ptr_eq(&ta, &tb), "same shape must share one timing");
        assert_eq!(cached.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cached.cached_shapes(), 1);
    }

    #[test]
    fn uncached_timer_reports_no_stats() {
        let (_, uncached) = timer_pair(ParallelismConfig::serial(), oracle());
        let b = BatchComposition::new(vec![RequestSlice::decode(1, 64)]);
        uncached.time_batch(&b);
        assert_eq!(uncached.stats(), CacheStats::default());
        assert_eq!(uncached.cached_shapes(), 0);
    }

    #[test]
    fn clones_share_the_cache() {
        let (cached, _) = timer_pair(ParallelismConfig::serial(), oracle());
        let clone = cached.clone();
        let b = BatchComposition::new(vec![RequestSlice::decode(1, 64)]);
        cached.time_batch(&b);
        clone.time_batch(&b);
        assert_eq!(clone.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn clones_share_the_runtime_source() {
        let model = ModelSpec::llama2_7b();
        let par = ParallelismConfig::serial();
        let timer = StageTimer::new(model.clone(), par, false, estimator(&model, &par), true);
        let clone = timer.clone();
        assert!(Arc::ptr_eq(&timer.source, &clone.source));
        assert!(Arc::ptr_eq(&timer.source, &timer.with_fresh_stats().source));
    }

    proptest! {
        /// Cached and uncached stage times agree to 1e-12 across randomized
        /// batch compositions, TP/PP configurations, and both runtime
        /// sources — including the hit path (each batch priced twice).
        #[test]
        fn cached_matches_uncached(
            prefills in proptest::collection::vec((1u64..768, 0u64..768), 0..5),
            decodes in proptest::collection::vec(0u64..4096, 0..24),
            par_idx in 0usize..4,
            use_estimator in proptest::bool::ANY,
        ) {
            prop_assume!(!prefills.is_empty() || !decodes.is_empty());
            let par = [
                ParallelismConfig::new(1, 1),
                ParallelismConfig::new(2, 1),
                ParallelismConfig::new(1, 2),
                ParallelismConfig::new(2, 4),
            ][par_idx];
            let model = ModelSpec::llama2_7b();
            let source = if use_estimator {
                estimator(&model, &par)
            } else {
                oracle()
            };
            let (cached, uncached) = timer_pair(par, source);
            let mut slices = Vec::new();
            for (i, (p, h)) in prefills.iter().enumerate() {
                slices.push(RequestSlice::prefill(i as u64, *p, *h));
            }
            for (i, h) in decodes.iter().enumerate() {
                slices.push(RequestSlice::decode(1000 + i as u64, *h));
            }
            let batch = BatchComposition::new(slices);
            let direct = uncached.time_batch(&batch);
            for pass in 0..2 {
                let memo = cached.time_batch(&batch);
                prop_assert_eq!(memo.stage_secs().len(), direct.stage_secs().len());
                for (a, b) in memo.stage_secs().iter().zip(direct.stage_secs()) {
                    prop_assert!((a - b).abs() < 1e-12, "pass {}: {} vs {}", pass, a, b);
                }
                prop_assert!((memo.model_flops() - direct.model_flops()).abs()
                    <= 1e-12 * direct.model_flops());
                for (a, b) in memo.op_secs().iter().zip(direct.op_secs()) {
                    prop_assert!((a - b).abs() < 1e-12, "op secs {} vs {}", a, b);
                }
            }
            prop_assert_eq!(cached.stats(), CacheStats { hits: 1, misses: 1 });
        }
    }
}
