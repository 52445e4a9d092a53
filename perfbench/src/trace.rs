//! The traced mode's instruments, all outside the program: an in-memory
//! span log written out when the benchmark ends, and a pop/handle event
//! loop that times `EventQueue::pop` and `Simulation::handle` per
//! `SimEvent` variant around the same public calls `engine::drive` makes.

use crate::stats::{allocs, percentile_sorted};
use crate::Args;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;
use vidur_core::event::{EventQueue, Simulation};
use vidur_core::time::SimTime;
use vidur_simulator::cluster::SimEvent;
use vidur_simulator::engine::{self, MAX_EVENTS};
use vidur_simulator::ClusterSimulator;
use vidur_workload::Trace;

/// Marks a span that belongs to no request.
pub const NO_REQUEST: u32 = u32::MAX;
/// Marks a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Nanoseconds since the first call in this process (the spans' clock).
pub fn clock_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, ns on [`clock_ns`].
    pub start_ns: u64,
    /// End, ns on [`clock_ns`].
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Trace request index for `Arrival` handling, or [`NO_REQUEST`].
    pub request: u32,
}

/// Spans kept in memory until the benchmark ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span and returns its index.
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> u32 {
        self.push_request(name, start_ns, end_ns, parent, NO_REQUEST)
    }

    /// Records a finished span tied to trace request `request`.
    pub fn push_request(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u32,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        id
    }

    /// Opens a span whose end is filled in later by [`SpanLog::close`];
    /// children recorded meanwhile can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = clock_ns();
        self.push(name, now, now, parent)
    }

    /// Closes span `id` at the current time.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = clock_ns();
    }

    /// Drops every recorded span (the log keeps only the last repetition).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Writes the spans as CSV (`id,parent,name,start_ns,end_ns,request`,
    /// empty fields for no parent / no request).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns,request")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let request = if s.request == NO_REQUEST {
                String::new()
            } else {
                s.request.to_string()
            };
            writeln!(
                out,
                "{id},{parent},{},{},{},{request}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Writes the spans to `.bench_spans/<workload>-seed<n>.csv` in the
    /// working directory; a failed write is reported, not fatal.
    pub fn write_at_exit(&self, args: &Args) {
        let path = PathBuf::from(".bench_spans").join(format!(
            "{}-seed{}.csv",
            args.workload.name(),
            args.seed
        ));
        match self.write_csv(&path) {
            Ok(()) => println!("spans: {} written to {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
}

/// Busy time and allocations of one `SimEvent` variant's handler.
#[derive(Debug, Default, Clone)]
pub struct HandlerStats {
    /// Wall nanoseconds of each call.
    pub durations_ns: Vec<u64>,
    /// Allocations made inside the handler.
    pub allocs: u64,
}

impl HandlerStats {
    /// Calls made.
    pub fn count(&self) -> u64 {
        self.durations_ns.len() as u64
    }

    /// Total busy seconds.
    pub fn secs(&self) -> f64 {
        self.durations_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// `(p50, p99)` of the per-call nanoseconds.
    pub fn p50_p99_ns(&self) -> (f64, f64) {
        let mut sorted: Vec<f64> = self.durations_ns.iter().map(|&n| n as f64).collect();
        sorted.sort_by(f64::total_cmp);
        (
            percentile_sorted(&sorted, 50.0),
            percentile_sorted(&sorted, 99.0),
        )
    }
}

/// What one traced drive measured.
#[derive(Debug, Default, Clone)]
pub struct LoopStats {
    /// Events handled.
    pub processed: u64,
    /// Events ever pushed onto the queue (arrivals included).
    pub scheduled: u64,
    /// Seconds inside `EventQueue::pop` (and the `is_done` check before it).
    pub pop_s: f64,
    /// Largest queue length seen before a pop.
    pub peak_len: usize,
    /// `handle(Arrival)`: route, dispatch and admission.
    pub arrival: HandlerStats,
    /// `handle(BatchComplete)`: retire, metric record, next formation,
    /// pricing.
    pub batch_complete: HandlerStats,
    /// `handle(Wakeup)`: deferred batch formation.
    pub wakeup: HandlerStats,
    /// Every other variant (elastic runs only; zero here).
    pub other: HandlerStats,
    /// Whether the loop stopped because `is_done()` reported completion.
    pub ended_done: bool,
    /// Wall seconds of the whole traced drive, arrival seeding included.
    pub wall_s: f64,
}

/// Drives `sim` over `trace`'s arrivals with the same pop/handle sequence
/// as `engine::drive`, timing each pop and each handler call and recording
/// one span per pop and per handler under a `drive` span.
pub fn traced_drive(
    sim: &mut ClusterSimulator,
    trace: &Trace,
    log: &mut SpanLog,
    parent: u32,
) -> LoopStats {
    let started = Instant::now();
    let drive_span = log.open("drive", parent);
    let mut queue = EventQueue::new();
    for (time, event) in engine::trace_arrivals(trace, SimEvent::Arrival) {
        queue.push(time, event);
    }
    let mut stats = LoopStats::default();
    let mut pop_ns = 0u64;
    let mut now = SimTime::ZERO;
    let mut t = clock_ns();
    while stats.processed < MAX_EVENTS {
        if sim.is_done() {
            stats.ended_done = true;
            break;
        }
        stats.peak_len = stats.peak_len.max(queue.len());
        let Some((time, event)) = queue.pop() else {
            break;
        };
        let popped = clock_ns();
        assert!(time >= now, "event queue went back in time");
        now = time;
        let before = allocs();
        sim.handle(now, event, &mut queue);
        let handled = clock_ns();
        let made = allocs() - before;
        stats.processed += 1;
        pop_ns += popped - t;
        log.push("pop", t, popped, drive_span);
        let (handler, name, request) = match event {
            SimEvent::Arrival(idx) => (&mut stats.arrival, "handle.arrival", idx),
            SimEvent::BatchComplete(..) => (
                &mut stats.batch_complete,
                "handle.batch_complete",
                NO_REQUEST,
            ),
            SimEvent::Wakeup(_) => (&mut stats.wakeup, "handle.wakeup", NO_REQUEST),
            _ => (&mut stats.other, "handle.other", NO_REQUEST),
        };
        handler.durations_ns.push(handled - popped);
        handler.allocs += made;
        log.push_request(name, popped, handled, drive_span, request);
        // Bookkeeping above is tracing overhead: restart the pop clock
        // after it so it lands in no layer.
        t = clock_ns();
    }
    stats.scheduled = queue.scheduled_count();
    stats.pop_s = pop_ns as f64 * 1e-9;
    log.close(drive_span);
    stats.wall_s = started.elapsed().as_secs_f64();
    stats
}
