//! Time-series recording for figure regeneration.
//!
//! The paper's Fig. 2 shows, for each scheduling policy, the piecewise
//! constant rate each flow receives over time. [`FlowTrace`] records
//! exactly that: release, every rate change, and completion per flow, so
//! the experiment harness can print the same series the figure plots.

use crate::ids::FlowId;
use crate::time::{SimTime, EPS};
use std::collections::BTreeMap;

/// What happened to a flow at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// The flow entered the network.
    Released,
    /// The flow's allocated rate changed to the given value.
    RateSet(f64),
    /// The flow delivered its last byte.
    Finished,
}

/// One timestamped event in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// Which flow it happened to.
    pub flow: FlowId,
    /// What happened.
    pub kind: TraceEventKind,
}

/// An append-only log of flow events, in chronological order.
#[derive(Debug, Default, Clone)]
pub struct FlowTrace {
    events: Vec<TraceEvent>,
    // Last rate recorded per unfinished flow, so the no-op dedup in
    // `record_rate` is O(log live flows) instead of a reverse scan over
    // the whole event log (which made long runs accidentally quadratic).
    // A flow's entry is dropped when it finishes: it is never rated again.
    last_rate: BTreeMap<FlowId, f64>,
}

impl FlowTrace {
    /// Creates an empty trace.
    pub fn new() -> FlowTrace {
        FlowTrace::default()
    }

    /// Appends an event. Events must be recorded in non-decreasing time
    /// order (the simulator guarantees this).
    pub fn record(&mut self, time: SimTime, flow: FlowId, kind: TraceEventKind) {
        if let Some(last) = self.events.last() {
            debug_assert!(last.time.at_or_before(time), "trace time went backwards");
        }
        if kind == TraceEventKind::Finished {
            self.last_rate.remove(&flow);
        }
        self.events.push(TraceEvent { time, flow, kind });
    }

    /// Records a rate change, skipping no-op updates (same rate as the
    /// flow's previous rate event) to keep traces readable.
    pub fn record_rate(&mut self, time: SimTime, flow: FlowId, rate: f64) {
        if let Some(prev) = self.last_rate.get(&flow) {
            if (prev - rate).abs() < EPS {
                return;
            }
        } else if rate.abs() < EPS {
            return; // initial zero rate is implicit
        }
        self.last_rate.insert(flow, rate);
        self.record(time, flow, TraceEventKind::RateSet(rate));
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events touching one flow, in order.
    pub fn for_flow(&self, flow: FlowId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.flow == flow)
            .collect()
    }

    /// Reconstructs the piecewise-constant rate function of a flow as
    /// `(start_time, rate)` breakpoints, ending at its finish event.
    pub fn rate_series(&self, flow: FlowId) -> Vec<(SimTime, f64)> {
        let mut series = Vec::new();
        for e in self.for_flow(flow) {
            match e.kind {
                TraceEventKind::Released => series.push((e.time, 0.0)),
                TraceEventKind::RateSet(r) => series.push((e.time, r)),
                TraceEventKind::Finished => series.push((e.time, 0.0)),
            }
        }
        series
    }

    /// Integral of a flow's recorded rate over time: the bytes the trace
    /// claims were delivered. Used by conservation tests.
    pub fn delivered_bytes(&self, flow: FlowId) -> f64 {
        let series = self.rate_series(flow);
        let mut total = 0.0;
        for pair in series.windows(2) {
            let (t0, r0) = pair[0];
            let (t1, _) = pair[1];
            total += r0 * (t1 - t0);
        }
        total
    }

    /// The set of flows that appear in the trace.
    pub fn flows(&self) -> Vec<FlowId> {
        let mut set: BTreeMap<FlowId, ()> = BTreeMap::new();
        for e in &self.events {
            set.insert(e.flow, ());
        }
        set.into_keys().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut tr = FlowTrace::new();
        tr.record(SimTime::new(0.0), FlowId(0), TraceEventKind::Released);
        tr.record(SimTime::new(1.0), FlowId(0), TraceEventKind::Finished);
        assert_eq!(tr.events().len(), 2);
    }

    #[test]
    fn rate_dedup_skips_noop() {
        let mut tr = FlowTrace::new();
        tr.record(SimTime::new(0.0), FlowId(0), TraceEventKind::Released);
        tr.record_rate(SimTime::new(0.0), FlowId(0), 0.5);
        tr.record_rate(SimTime::new(1.0), FlowId(0), 0.5); // no-op
        tr.record_rate(SimTime::new(2.0), FlowId(0), 1.0);
        let rates: Vec<_> = tr
            .for_flow(FlowId(0))
            .into_iter()
            .filter(|e| matches!(e.kind, TraceEventKind::RateSet(_)))
            .collect();
        assert_eq!(rates.len(), 2);
    }

    #[test]
    fn initial_zero_rate_implicit() {
        let mut tr = FlowTrace::new();
        tr.record(SimTime::new(0.0), FlowId(0), TraceEventKind::Released);
        tr.record_rate(SimTime::new(0.0), FlowId(0), 0.0);
        assert_eq!(tr.for_flow(FlowId(0)).len(), 1);
    }

    #[test]
    fn delivered_bytes_integrates_rate() {
        let mut tr = FlowTrace::new();
        tr.record(SimTime::new(0.0), FlowId(0), TraceEventKind::Released);
        tr.record_rate(SimTime::new(0.0), FlowId(0), 0.5);
        tr.record_rate(SimTime::new(2.0), FlowId(0), 1.0);
        tr.record(SimTime::new(3.0), FlowId(0), TraceEventKind::Finished);
        // 0.5 * 2 + 1.0 * 1 = 2.0
        assert!((tr.delivered_bytes(FlowId(0)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rate_memory_holds_only_unfinished_flows() {
        let mut tr = FlowTrace::new();
        for i in 0..64 {
            let (f, t) = (FlowId(i), SimTime::new(i as f64));
            tr.record(t, f, TraceEventKind::Released);
            tr.record_rate(t, f, 1.0);
            assert!(tr.last_rate.len() <= 1);
            tr.record(t + 0.5, f, TraceEventKind::Finished);
            assert!(tr.last_rate.is_empty());
        }
        assert_eq!(tr.events().len(), 3 * 64);
    }

    #[test]
    fn flows_lists_unique_ids() {
        let mut tr = FlowTrace::new();
        tr.record(SimTime::new(0.0), FlowId(3), TraceEventKind::Released);
        tr.record(SimTime::new(0.0), FlowId(1), TraceEventKind::Released);
        tr.record(SimTime::new(1.0), FlowId(3), TraceEventKind::Finished);
        assert_eq!(tr.flows(), vec![FlowId(1), FlowId(3)]);
    }
}
