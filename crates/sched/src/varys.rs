//! Varys-style Coflow scheduling: inter-coflow ordering + intra-coflow
//! MADD (the paper's Fig. 2b contender).
//!
//! MADD (Minimum Allocation for Desired Duration, Varys SIGCOMM '14) gives
//! every flow of a coflow exactly the rate that makes it finish at the
//! coflow's bottleneck completion time Γ, so all flows finish
//! *simultaneously* — the behaviour the paper shows is harmful for
//! pipeline-shaped DDLT traffic. Inter-coflow, coflows are served
//! by SEBF (smallest effective bottleneck first), BSSI (Sincronia's
//! ordering), or arrival order; unused bandwidth is backfilled for work
//! conservation.
//!
//! Rates are recomputed at every flow arrival/departure with *remaining*
//! bytes, which on the paper's Fig. 2 instance reproduces the published
//! schedule exactly: the three staggered 2B flows converge to rates
//! (B/6, B/3, B/2) and all finish at t = 7.
//!
//! Two paths compute the same schedule. The naive
//! [`RatePolicy::allocate_dense`] is the independent CCT reference: it
//! regroups the active flows and ranks coflows by their bottleneck Γ
//! directly. The incremental entry points run the one MADD engine,
//! [`EchelonMadd`], over the Coflow embeddings: a Coflow is an
//! EchelonFlow whose arrangement is `d_j = r` (Property 2), so each
//! coflow is a single deadline stage, and the Coflow orderings carry over
//! by swapping the ranking metric (Property 4) — SEBF is
//! [`InterOrder::LeastWork`], BSSI is [`InterOrder::Bssi`], and arrival
//! order is [`InterOrder::EarliestDeadline`] (every member's ideal finish
//! is the coflow's first release). The engine also owns the coflow
//! registry, so `register`/`evict` and the occupancy counters go through
//! its [`crate::book::EchelonBook`].

use crate::echelon::{EchelonMadd, InterOrder};
use crate::sincronia::{bssi_order, GroupLoad};
use echelon_core::coflow::Coflow;
use echelon_core::EchelonId;
use echelon_simnet::alloc::{dense_to_alloc, waterfill_dense, AllocScratch, RateAlloc};
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::ids::FlowId;
use echelon_simnet::runner::RatePolicy;
use echelon_simnet::time::{SimTime, EPS};
use echelon_simnet::topology::Topology;
use std::collections::BTreeMap;

/// Inter-coflow ordering discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoflowOrder {
    /// Smallest effective bottleneck (isolation Γ) first — Varys' SEBF.
    Sebf,
    /// Sincronia's BSSI primal-dual ordering.
    Bssi,
    /// Coflow arrival order (first member flow seen first).
    Arrival,
}

/// The EchelonFlow ordering that ranks Coflow embeddings exactly as
/// `order` ranks the coflows themselves (Property 4).
fn inter_of(order: CoflowOrder) -> InterOrder {
    match order {
        CoflowOrder::Sebf => InterOrder::LeastWork,
        CoflowOrder::Bssi => InterOrder::Bssi,
        CoflowOrder::Arrival => InterOrder::EarliestDeadline,
    }
}

/// Grouping key: declared coflow or an implicit singleton for a flow that
/// belongs to no coflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Co(EchelonId),
    Solo(FlowId),
}

/// The Varys-style coflow scheduler.
#[derive(Debug, Clone)]
pub struct VarysMadd {
    // The EchelonFlow engine over the Coflow embeddings: owns the coflow
    // registry and serves the incremental entry points.
    engine: EchelonMadd,
    order: CoflowOrder,
    backfill: bool,
    // First-seen time per group, read by the naive path's arrival order.
    arrivals: BTreeMap<GroupKey, SimTime>,
}

impl VarysMadd {
    /// Creates a scheduler over the declared coflows with SEBF ordering
    /// and backfill (Varys defaults).
    ///
    /// # Panics
    ///
    /// Panics if coflows share ids or flows.
    pub fn new(coflows: Vec<Coflow>) -> VarysMadd {
        let order = CoflowOrder::Sebf;
        let echelons = coflows.into_iter().map(Coflow::into_echelon).collect();
        VarysMadd {
            engine: EchelonMadd::new(echelons).with_inter(inter_of(order)),
            order,
            backfill: true,
            arrivals: BTreeMap::new(),
        }
    }

    /// Registers one more coflow into the live scheduler (open-loop
    /// admission). Allocation-neutral any time before the coflow's first
    /// flow is released: a group with no active flows is never served.
    ///
    /// # Panics
    ///
    /// Panics if the id or any member flow is already claimed.
    pub fn register(&mut self, coflow: Coflow) {
        self.engine.register(coflow.into_echelon());
    }

    /// Evicts a completed coflow, refusing (returning `false`) while any
    /// member flow is still in `active`. Evicting after the last member
    /// completion changes no later allocation: departed flows are never
    /// consulted again. Unknown ids are a no-op returning `false`.
    pub fn evict(&mut self, id: EchelonId, active: &[ActiveFlowView]) -> bool {
        let evicted = self.engine.evict(id, active);
        if evicted {
            self.arrivals.remove(&GroupKey::Co(id));
        }
        evicted
    }

    /// Number of coflows currently registered.
    pub fn occupancy(&self) -> usize {
        self.engine.book().occupancy()
    }

    /// High-water mark of registered coflows over the scheduler's life.
    pub fn peak_occupancy(&self) -> usize {
        self.engine.book().peak_occupancy()
    }

    /// Selects the inter-coflow ordering.
    pub fn with_order(mut self, order: CoflowOrder) -> VarysMadd {
        self.order = order;
        self.engine = self.engine.with_inter(inter_of(order));
        self
    }

    /// Enables/disables work-conserving backfill.
    pub fn with_backfill(mut self, backfill: bool) -> VarysMadd {
        self.backfill = backfill;
        self.engine = self.engine.with_backfill(backfill);
        self
    }

    fn group_of(&self, flow: FlowId) -> GroupKey {
        match self.engine.book().echelon_of(flow) {
            Some(h) => GroupKey::Co(h.id()),
            None => GroupKey::Solo(flow),
        }
    }

    fn weight_of(&self, key: GroupKey) -> f64 {
        match key {
            GroupKey::Co(id) => self
                .engine
                .book()
                .get(id)
                .expect("registered coflow")
                .weight(),
            GroupKey::Solo(_) => 1.0,
        }
    }

    /// Isolation bottleneck Γ of a group: max over resources of the
    /// group's remaining seconds of occupancy.
    fn gamma(members: &[&ActiveFlowView], topo: &Topology) -> f64 {
        let mut per_resource: BTreeMap<u32, f64> = BTreeMap::new();
        for v in members {
            for r in &v.route {
                *per_resource.entry(r.0).or_insert(0.0) += v.remaining / topo.capacity(*r);
            }
        }
        per_resource.values().fold(0.0f64, |a, &b| a.max(b))
    }

    /// Computes the serve order over the currently active groups.
    fn serve_order(
        &self,
        now: SimTime,
        groups: &BTreeMap<GroupKey, Vec<&ActiveFlowView>>,
        topo: &Topology,
    ) -> Vec<GroupKey> {
        let mut keys: Vec<GroupKey> = groups.keys().copied().collect();
        match self.order {
            CoflowOrder::Sebf => {
                keys.sort_by(|a, b| {
                    let ga = Self::gamma(&groups[a], topo);
                    let gb = Self::gamma(&groups[b], topo);
                    ga.total_cmp(&gb).then(a.cmp(b))
                });
            }
            CoflowOrder::Arrival => {
                keys.sort_by(|a, b| {
                    let ta = self.arrivals.get(a).copied().unwrap_or(now);
                    let tb = self.arrivals.get(b).copied().unwrap_or(now);
                    ta.cmp(&tb).then(a.cmp(b))
                });
            }
            CoflowOrder::Bssi => {
                // Map group keys into the BSSI id space deterministically.
                let mut key_for_id = BTreeMap::new();
                let loads: Vec<GroupLoad> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| {
                        let id = EchelonId(i as u64);
                        key_for_id.insert(id, k);
                        let mut load = BTreeMap::new();
                        for v in &groups[&k] {
                            for r in &v.route {
                                *load.entry(r.0).or_insert(0.0) += v.remaining / topo.capacity(*r);
                            }
                        }
                        GroupLoad {
                            id,
                            weight: self.weight_of(k),
                            load,
                        }
                    })
                    .collect();
                keys = bssi_order(&loads)
                    .into_iter()
                    .map(|id| key_for_id[&id])
                    .collect();
            }
        }
        keys
    }

    /// Serves pre-ordered groups: MADD against residual capacity, then
    /// optional backfill. The dense allocation (indexed like the
    /// id-sorted `flows`) lands in `rates`. Tail of the naive path;
    /// member lists must be in ascending id order.
    fn serve(
        &self,
        order: &[GroupKey],
        groups: &BTreeMap<GroupKey, Vec<&ActiveFlowView>>,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        rates: &mut Vec<f64>,
    ) {
        debug_assert!(flows.windows(2).all(|w| w[0].id < w[1].id));
        let mut residual: Vec<f64> = (0..topo.num_resources())
            .map(|r| topo.capacity(echelon_simnet::ids::ResourceId(r as u32)))
            .collect();
        rates.clear();
        rates.resize(flows.len(), 0.0);
        let idx_of = |id: FlowId| {
            flows
                .binary_search_by(|v| v.id.cmp(&id))
                .expect("served flow is active")
        };
        for key in order {
            let members = &groups[key];
            // Γ against residual capacity.
            let mut per_resource: BTreeMap<u32, f64> = BTreeMap::new();
            for v in members {
                for r in &v.route {
                    *per_resource.entry(r.0).or_insert(0.0) += v.remaining;
                }
            }
            let mut gamma: f64 = 0.0;
            for (&r, &bytes) in &per_resource {
                let res = residual[r as usize];
                if res <= EPS {
                    gamma = f64::INFINITY;
                    break;
                }
                gamma = gamma.max(bytes / res);
            }
            if !gamma.is_finite() || gamma <= EPS {
                continue; // dense rates are already zero
            }
            for v in members {
                let rate = v.remaining / gamma;
                rates[idx_of(v.id)] = rate;
                for r in &v.route {
                    residual[r.0 as usize] = (residual[r.0 as usize] - rate).max(0.0);
                }
            }
        }

        if self.backfill {
            // Work conservation: flows may exceed their MADD rate using
            // leftover capacity, shared max-min — the MADD rates become
            // the waterfill floor in place.
            waterfill_dense(topo, flows, None, None, rates, ws);
        }
    }
}

impl RatePolicy for VarysMadd {
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        let mut ws = AllocScratch::new();
        let mut out = Vec::new();
        self.allocate_dense(now, flows, topo, &mut ws, &mut out);
        dense_to_alloc(flows, &out)
    }

    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        // Group active flows; record first-seen arrival per group.
        let mut groups: BTreeMap<GroupKey, Vec<&ActiveFlowView>> = BTreeMap::new();
        for v in flows {
            let key = self.group_of(v.id);
            self.arrivals.entry(key).or_insert(now);
            groups.entry(key).or_default().push(v);
        }

        let order = self.serve_order(now, &groups, topo);
        self.serve(&order, &groups, flows, topo, ws, out);
    }

    fn allocate_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
    ) -> RateAlloc {
        self.engine.allocate_incremental(now, flows, delta, topo)
    }

    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.engine
            .allocate_dense_incremental(now, flows, delta, topo, ws, out);
    }

    fn name(&self) -> &'static str {
        match self.order {
            CoflowOrder::Sebf => "varys-madd(sebf)",
            CoflowOrder::Bssi => "varys-madd(bssi)",
            CoflowOrder::Arrival => "varys-madd(arrival)",
        }
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        self.engine.book_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_core::echelon::FlowRef;
    use echelon_core::JobId;
    use echelon_simnet::flow::FlowDemand;
    use echelon_simnet::ids::NodeId;
    use echelon_simnet::runner::run_flows;

    fn fr(id: u64, src: u32, dst: u32, size: f64) -> FlowRef {
        FlowRef::new(FlowId(id), NodeId(src), NodeId(dst), size)
    }

    fn demand(id: u64, src: u32, dst: u32, size: f64, release: f64) -> FlowDemand {
        FlowDemand::new(
            FlowId(id),
            NodeId(src),
            NodeId(dst),
            size,
            SimTime::new(release),
        )
    }

    /// The coflow half of the paper's Fig. 2: three 2B flows released at
    /// t = 1, 2, 3 on a B = 1 link, formulated as one coflow. MADD with
    /// remaining bytes makes them all finish simultaneously at t = 7.
    #[test]
    fn fig2b_all_flows_finish_at_7() {
        let topo = Topology::chain(2, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]);
        let out = run_flows(
            &topo,
            vec![
                demand(0, 0, 1, 2.0, 1.0),
                demand(1, 0, 1, 2.0, 2.0),
                demand(2, 0, 1, 2.0, 3.0),
            ],
            &mut policy,
        );
        for id in [FlowId(0), FlowId(1), FlowId(2)] {
            assert!(
                out.finish(id).unwrap().approx_eq(SimTime::new(7.0)),
                "flow {id} finished at {:?}",
                out.finish(id)
            );
        }
    }

    /// The published rate sequence of Fig. 2b: after the third arrival the
    /// flows proceed at B/6, B/3, B/2.
    #[test]
    fn fig2b_final_rates_match_figure() {
        let topo = Topology::chain(2, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]);
        let out = run_flows(
            &topo,
            vec![
                demand(0, 0, 1, 2.0, 1.0),
                demand(1, 0, 1, 2.0, 2.0),
                demand(2, 0, 1, 2.0, 3.0),
            ],
            &mut policy,
        );
        // Last RateSet before completion for each flow.
        let last_rate = |id: FlowId| -> f64 {
            out.trace()
                .rate_series(id)
                .iter()
                .rev()
                .find(|(_, r)| *r > 0.0)
                .map(|(_, r)| *r)
                .unwrap()
        };
        assert!((last_rate(FlowId(0)) - 1.0 / 6.0).abs() < 1e-9);
        assert!((last_rate(FlowId(1)) - 1.0 / 3.0).abs() < 1e-9);
        assert!((last_rate(FlowId(2)) - 1.0 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sebf_serves_small_coflow_first() {
        let topo = Topology::chain(2, 1.0);
        let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
        let mut policy = VarysMadd::new(vec![big, small]);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 4.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn arrival_order_serves_first_come_first() {
        let topo = Topology::chain(2, 1.0);
        let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
        let mut policy = VarysMadd::new(vec![big, small]).with_order(CoflowOrder::Arrival);
        let out = run_flows(
            &topo,
            vec![demand(1, 0, 1, 4.0, 0.0), demand(0, 0, 1, 1.0, 0.5)],
            &mut policy,
        );
        // Big arrived first and is not preempted by the small one.
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(4.0)));
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn bssi_order_also_finishes_small_first() {
        let topo = Topology::chain(2, 1.0);
        let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
        let mut policy = VarysMadd::new(vec![big, small]).with_order(CoflowOrder::Bssi);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 4.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn coflow_flows_on_disjoint_ports_finish_together() {
        // MADD shapes the whole coflow to its bottleneck: a coflow with a
        // 2B flow and a 1B flow on disjoint ports finishes both at Γ = 2
        // ... unless backfill accelerates the small one. With backfill off
        // they finish together.
        let topo = Topology::big_switch_uniform(4, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 2, 3, 1.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]).with_backfill(false);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 2, 3, 1.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(2.0)));
    }

    #[test]
    fn backfill_accelerates_non_bottleneck_flow() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 2, 3, 1.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]); // backfill on
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 2, 3, 1.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
    }

    #[test]
    fn unaffiliated_flows_become_singletons() {
        let topo = Topology::chain(2, 1.0);
        let mut policy = VarysMadd::new(vec![]);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 2.0, 0.0)],
            &mut policy,
        );
        // SEBF over singletons = SRPT-ish: short one first.
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(3.0)));
    }

    /// The incremental path (the EchelonFlow engine over the Coflow
    /// embeddings) must be bit-identical to the naive CCT reference for
    /// every coflow ordering, with and without backfill.
    #[test]
    fn incremental_path_matches_naive() {
        use echelon_simnet::runner::{run_flows_with, RecomputeMode};
        let topo = Topology::big_switch_uniform(4, 1.0);
        let make = |order, backfill| {
            let c0 = Coflow::new(
                EchelonId(0),
                JobId(0),
                vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 2, 1, 1.0)],
            );
            let c1 = Coflow::new(EchelonId(1), JobId(1), vec![fr(10, 1, 3, 4.0)]);
            VarysMadd::new(vec![c0, c1])
                .with_order(order)
                .with_backfill(backfill)
        };
        let demands = vec![
            demand(0, 0, 1, 2.0, 1.0),
            demand(1, 0, 1, 2.0, 2.0),
            demand(2, 2, 1, 1.0, 0.0),
            demand(10, 1, 3, 4.0, 0.5),
            demand(20, 3, 0, 0.7, 0.2), // solo flow
        ];
        for order in [CoflowOrder::Sebf, CoflowOrder::Bssi, CoflowOrder::Arrival] {
            for backfill in [true, false] {
                let a = run_flows(&topo, demands.clone(), &mut make(order, backfill));
                let b = run_flows_with(
                    &topo,
                    demands.clone(),
                    &mut make(order, backfill),
                    RecomputeMode::Incremental,
                );
                assert_eq!(
                    a.trace().events(),
                    b.trace().events(),
                    "trace mismatch for {order:?}, backfill={backfill}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "claimed by two")]
    fn overlapping_coflows_rejected() {
        let a = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let b = Coflow::new(EchelonId(1), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let _ = VarysMadd::new(vec![a, b]);
    }
}
