//! Small measurement helpers: medians and percentiles of samples, the
//! process's peak resident set, a stable report fingerprint, and the
//! counting allocator behind the traced mode's `allocs` metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator plus an allocation counter that only counts while
/// [`count_allocs`] has switched it on. Counting is off in the untraced
/// mode, where every allocation pays one uncontended relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc_zeroed`
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; forwarded under the
        // caller's `GlobalAlloc::realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (a statistic only: the counter
/// publishes no other data, so relaxed ordering suffices).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median of the element-wise differences `a[i] - b[i]`. Each pair was
/// measured back to back in one repetition, under the same host load.
pub fn median_difference(a: &[f64], b: &[f64]) -> f64 {
    median(&a.iter().zip(b).map(|(x, y)| x - y).collect::<Vec<_>>())
}

/// Nearest-rank percentile `p` (0..=100) of already sorted `sorted`; 0 when
/// empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Share of a repetition's CPU time (wall × CPUs) the hypervisor may take
/// (`steal` in `/proc/stat`) before the repetition is set aside: stolen
/// time is the host's, not the program's, and on a shared VM it comes in
/// bursts that can double a two-thread run.
const STEAL_LIMIT: f64 = 0.02;

/// The timed-repetition loop every workload shares: repeat until the
/// budget has passed and `min` repetitions were made; past the budget
/// (up to half of it again) keep going while fewer than `min` were kept.
/// Each repetition also measures its own peak resident set.
#[derive(Debug)]
pub struct Repetitions {
    started: Instant,
    budget: Duration,
    min: usize,
    cpus: f64,
    rep_started: Instant,
    steal_at_begin: f64,
    peak_reset: bool,
    /// Repetitions made.
    pub made: usize,
    /// Repetitions set aside for host steal.
    pub set_aside: usize,
}

/// How one repetition ended.
#[derive(Debug, Clone, Copy)]
pub struct RepEnd {
    /// Whether the repetition's samples count.
    pub keep: bool,
    /// Its peak resident set in MB (`VmHWM` since [`Repetitions::begin`]),
    /// if the platform lets the high-water mark be reset.
    pub peak_rss_mb: Option<f64>,
}

impl Repetitions {
    /// A loop of at least `min` repetitions over `budget`.
    pub fn new(budget: Duration, min: usize) -> Self {
        Repetitions {
            started: Instant::now(),
            budget,
            min,
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
            rep_started: Instant::now(),
            steal_at_begin: 0.0,
            peak_reset: false,
            made: 0,
            set_aside: 0,
        }
    }

    /// Whether to make another repetition.
    pub fn more(&self) -> bool {
        let elapsed = self.started.elapsed();
        let kept = self.made - self.set_aside;
        self.made < self.min
            || elapsed < self.budget
            || (kept < self.min && elapsed < self.budget.mul_f64(1.5))
    }

    /// Starts a repetition. Call it after the previous repetition's memory
    /// is released: it resets the resident-set high-water mark.
    pub fn begin(&mut self) {
        self.peak_reset = reset_peak_rss();
        self.steal_at_begin = steal_s().unwrap_or(0.0);
        self.rep_started = Instant::now();
    }

    /// Ends the repetition started by [`Repetitions::begin`].
    pub fn end(&mut self) -> RepEnd {
        let wall = self.rep_started.elapsed().as_secs_f64();
        let stolen = steal_s().unwrap_or(0.0) - self.steal_at_begin;
        self.made += 1;
        let keep = stolen <= STEAL_LIMIT * wall * self.cpus;
        if !keep {
            self.set_aside += 1;
        }
        RepEnd {
            keep,
            peak_rss_mb: if self.peak_reset { peak_rss_mb() } else { None },
        }
    }
}

/// Resets this process's `VmHWM` to its current resident set (Linux
/// `clear_refs` value 5); false where that is not possible.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Samples of one quantity over a run's repetitions, split by whether the
/// repetition counts.
#[derive(Debug, Default)]
pub struct Samples {
    kept: Vec<f64>,
    set_aside: Vec<f64>,
}

impl Samples {
    /// Records one repetition's value.
    pub fn push(&mut self, value: f64, keep: bool) {
        if keep {
            self.kept.push(value);
        } else {
            self.set_aside.push(value);
        }
    }

    /// Median of the kept samples (of all, when none was kept).
    pub fn median(&self) -> f64 {
        if self.kept.is_empty() {
            median(&self.set_aside)
        } else {
            median(&self.kept)
        }
    }

    /// The kept samples.
    pub fn kept(&self) -> &[f64] {
        &self.kept
    }
}

/// The run's `peak_rss_mb`: each input's median peak over its
/// repetitions, then the largest over inputs (the workload's peak, without
/// one repetition's scheduling noise); the process's `VmHWM` where
/// repetitions could not be measured apart.
pub fn peak_rss(per_input: &[Samples]) -> Option<f64> {
    let medians = per_input
        .iter()
        .filter(|s| !(s.kept.is_empty() && s.set_aside.is_empty()))
        .map(Samples::median);
    medians.reduce(f64::max).or_else(peak_rss_mb)
}

/// Seconds the hypervisor has taken from this machine's CPUs (the `steal`
/// column of `/proc/stat`, summed over CPUs), if the platform reports it.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // USER_HZ is 100 on every Linux target this runs on.
    Some(ticks / 100.0)
}

/// FNV-1a of `bytes`: a stable fingerprint of a serialized report.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 30.0);
        assert_eq!(percentile_sorted(&sorted, 83.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 60.0);
    }
}
