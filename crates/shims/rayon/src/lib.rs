//! Minimal stand-in for `rayon` (the build has no network access). Supports
//! the `slice.par_iter().map(f).collect::<Vec<_>>()` pipeline the workspace
//! uses, executing the map on scoped `std::thread`s — contiguous chunks, one
//! per available core — and reassembling results in input order, so output is
//! deterministic regardless of scheduling.

use std::num::NonZeroUsize;

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
