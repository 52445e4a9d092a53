//! Minimal stand-in for `rayon` (the build has no network access). Supports
//! the `slice.par_iter().map(f).collect::<Vec<_>>()` pipeline the workspace
//! uses, executing the map on scoped `std::thread`s — contiguous chunks, one
//! per available core — and reassembling results in input order, so output is
//! deterministic regardless of scheduling. Also provides rayon's [`scope`]
//! API (over `std::thread::scope`) for long-lived workers, which the sharded
//! event loop's streaming paths use to run one simulation shard per thread
//! for a whole run.

use std::num::NonZeroUsize;

/// Runs `f` with a [`Scope`] that can spawn borrowed worker closures; blocks
/// until every spawned closure has finished, like `rayon::scope`.
///
/// Backed by `std::thread::scope`, so each `spawn` is a real OS thread —
/// appropriate for the small number of long-lived workers the simulator
/// shards spawn, not for fine-grained tasks. Work that repeats many short
/// parallel steps (the sharded engine's speculation windows) keeps its
/// workers alive across steps and hands work over channels instead of
/// calling this per step.
///
/// # Panics
///
/// Propagates a panic from any spawned worker.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

/// Scope handle passed to the [`scope`] closure; mirrors `rayon::Scope`.
#[derive(Debug)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a worker that may borrow from the enclosing scope. Unlike
    /// rayon's signature the closure takes no re-entrant scope argument —
    /// none of the workspace's call sites nest spawns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.inner.spawn(f);
    }
}

/// `rayon::prelude` — brings `par_iter` into scope.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// Types whose references can be iterated in parallel.
pub trait IntoParallelRefIterator<'data> {
    /// Element type.
    type Item: 'data;
    /// Returns a parallel iterator over `&self`'s elements.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { slice: self }
    }
}

/// Parallel iterator over a slice.
#[derive(Debug)]
pub struct ParIter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Maps each element through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'data, T, F>
    where
        F: Fn(&'data T) -> R + Sync,
        R: Send,
    {
        ParMap {
            slice: self.slice,
            f,
        }
    }
}

/// A mapped parallel iterator; consumed by [`ParMap::collect`].
#[derive(Debug)]
pub struct ParMap<'data, T, F> {
    slice: &'data [T],
    f: F,
}

impl<'data, T, R, F> ParMap<'data, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'data T) -> R + Sync,
{
    /// Runs the map across threads and collects results in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let n = self.slice.len();
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .min(n.max(1));
        if threads <= 1 || n <= 1 {
            return self.slice.iter().map(&self.f).collect::<Vec<R>>().into();
        }
        let chunk = n.div_ceil(threads);
        let f = &self.f;
        let mut results: Vec<Vec<R>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .slice
                .chunks(chunk)
                .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<R>>()))
                .collect();
            for h in handles {
                results.push(h.join().expect("rayon shim worker panicked"));
            }
        });
        results.into_iter().flatten().collect::<Vec<R>>().into()
    }
}
