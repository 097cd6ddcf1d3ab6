//! Layer clocks: wall time and counts recorded at one layer boundary by
//! the timing wrappers in [`crate::adapter`]. Nothing here knows about
//! the crates under test.
//!
//! Trait methods that take `&self` are timed too, so every counter sits
//! behind a `Cell`.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Calls through one boundary and the wall time they took.
#[derive(Debug, Default)]
pub struct Span {
    calls: Cell<u64>,
    total_ns: Cell<u64>,
    /// Per-call durations, kept only for spans whose latency
    /// distribution is reported.
    samples_ns: Option<RefCell<Vec<u64>>>,
}

impl Span {
    /// A span that also keeps every call's duration.
    pub fn sampled() -> Span {
        Span {
            samples_ns: Some(RefCell::new(Vec::new())),
            ..Span::default()
        }
    }

    /// Records one call that began at `start`.
    pub fn end(&self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.set(self.calls.get() + 1);
        self.total_ns.set(self.total_ns.get().saturating_add(ns));
        if let Some(s) = &self.samples_ns {
            s.borrow_mut().push(ns);
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn secs(&self) -> f64 {
        self.total_ns.get() as f64 * 1e-9
    }

    /// Nearest-rank percentile of the per-call durations, in µs (0 when
    /// nothing was sampled).
    pub fn us_percentile(&self, p: f64) -> f64 {
        let Some(s) = &self.samples_ns else {
            return 0.0;
        };
        let mut v: Vec<f64> = s.borrow().iter().map(|&ns| ns as f64 * 1e-3).collect();
        v.sort_by(f64::total_cmp);
        crate::stats::percentile(&v, p)
    }
}

/// What the job-feed wrapper records.
#[derive(Debug)]
pub struct FeedClock {
    /// `admit` calls (sampled).
    pub admit: Span,
    /// Every other feed method.
    pub other: Span,
    /// `admit` calls that admitted at least one job.
    pub useful_admits: Cell<u64>,
    /// `on_job_retired` calls.
    pub retire_calls: Cell<u64>,
    backlog: RefCell<BacklogArea>,
}

impl Default for FeedClock {
    fn default() -> FeedClock {
        FeedClock {
            admit: Span::sampled(),
            other: Span::default(),
            useful_admits: Cell::new(0),
            retire_calls: Cell::new(0),
            backlog: RefCell::new(BacklogArea::default()),
        }
    }
}

/// Time-weighted backlog: the queue only changes inside `admit`, so the
/// length read after each call holds until the next one.
#[derive(Debug, Default)]
struct BacklogArea {
    first: Option<f64>,
    last: (f64, usize),
    area: f64,
    max: usize,
}

impl FeedClock {
    /// Notes the backlog left by an `admit` call at simulated time `now`.
    pub fn observe_backlog(&self, now: f64, backlog: usize) {
        let mut b = self.backlog.borrow_mut();
        let (t, len) = b.last;
        if b.first.is_some() {
            b.area += len as f64 * (now - t);
        } else {
            b.first = Some(now);
        }
        b.last = (now, backlog);
        b.max = b.max.max(backlog);
    }

    /// Mean backlog over the simulated span between the first and last
    /// `admit` call.
    pub fn backlog_mean(&self) -> f64 {
        let b = self.backlog.borrow();
        match b.first {
            Some(first) if b.last.0 > first => b.area / (b.last.0 - first),
            _ => 0.0,
        }
    }

    pub fn backlog_max(&self) -> usize {
        self.backlog.borrow().max
    }

    pub fn secs(&self) -> f64 {
        self.admit.secs() + self.other.secs()
    }
}

/// What the rate-policy wrapper records.
#[derive(Debug)]
pub struct PolicyClock {
    /// Every `allocate*` entry point (sampled).
    pub allocate: Span,
    /// Every other policy method.
    pub other: Span,
    /// Active flows handed to `allocate*`, summed over calls.
    pub active_flows: Cell<u64>,
    /// Wall time spent building the policy before the run starts.
    pub build_s: f64,
}

impl Default for PolicyClock {
    fn default() -> PolicyClock {
        PolicyClock {
            allocate: Span::sampled(),
            other: Span::default(),
            active_flows: Cell::new(0),
            build_s: 0.0,
        }
    }
}

impl PolicyClock {
    /// Notes the flow slice of one `allocate*` call.
    pub fn observe_flows(&self, n: usize) {
        self.active_flows.set(self.active_flows.get() + n as u64);
    }

    pub fn secs(&self) -> f64 {
        self.build_s + self.allocate.secs() + self.other.secs()
    }
}
