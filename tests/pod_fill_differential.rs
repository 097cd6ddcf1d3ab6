//! Integration differential suite for the sparse pod refill:
//! `PodMaxMinPolicy`'s caching incremental path — clean pods replayed
//! from the rate cache, dirty pods refilled by the rank-space
//! `waterfill_pod` engine — exercised through the full driver, must be
//! **bit-identical** to the dense per-pod refill — same trace, same
//! completions — and must actually have replayed clean pods
//! (`pod_recompute_fraction() < 1.0`, the same non-vacuity pattern as
//! `threaded_pods`).
//!
//! Three runs per seed are compared pairwise:
//!
//! - caching policy, `RecomputeMode::Incremental` — the sparse path
//!   (refills only dirty pods, every pod after a fault);
//! - `without_caching`, `Incremental` — every batch refilled dense via
//!   `waterfill_subset_dense`, the reference the cache must reproduce;
//! - caching policy, `RecomputeMode::Full` — the from-scratch oracle.

use echelon_detrand::DetRng;
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::fault::{FaultKind, FaultPlan};
use echelonflow::simnet::flow::FlowDemand;
use echelonflow::simnet::ids::{FlowId, NodeId, ResourceId};
use echelonflow::simnet::runner::{
    run_flows_faulted, FlowOutcomes, PodMaxMinPolicy, RecomputeMode,
};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;

/// Pod-local demands with staggered releases: mostly single-arrival
/// batches (one dirty pod each), long enough to straddle the fault
/// instants.
fn staggered_pod_demands(seed: u64, pods: usize, hosts_per_pod: usize) -> Vec<FlowDemand> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut demands = Vec::new();
    let per_pod = 20usize;
    for p in 0..pods {
        let base = p * hosts_per_pod;
        for f in 0..per_pod {
            let src = base + rng.usize_range_inclusive(0, hosts_per_pod - 1);
            let mut dst = base + rng.usize_range_inclusive(0, hosts_per_pod - 2);
            if dst >= src {
                dst += 1;
            }
            demands.push(FlowDemand {
                id: FlowId((p * per_pod + f) as u64),
                src: NodeId(src as u32),
                dst: NodeId(dst as u32),
                size: rng.f64_range(2.0, 6.0),
                release: SimTime::new(rng.f64_range(0.0, 2.0)),
            });
        }
    }
    demands
}

/// Churn that invalidates every pod's rate cache four times (any fault
/// drops every pod's cached rates and capacity snapshot), with every
/// degrade restored so no route is left starved.
fn churn_plan() -> FaultPlan {
    FaultPlan::empty()
        .with(
            SimTime::new(1.0),
            FaultKind::LinkDegrade(ResourceId(0), 0.5),
        )
        .with(SimTime::new(2.5), FaultKind::LinkRestore(ResourceId(0)))
        .with(
            SimTime::new(3.5),
            FaultKind::LinkDegrade(ResourceId(1), 0.25),
        )
        .with(SimTime::new(4.5), FaultKind::LinkRestore(ResourceId(1)))
}

/// The three runs every differential compares, checked pairwise bit for
/// bit. Returns the caching incremental run.
fn assert_three_way(
    fabric: &Topology,
    demands: &[FlowDemand],
    plan: &FaultPlan,
    what: &str,
) -> FlowOutcomes {
    let mut cached = PodMaxMinPolicy::new();
    let a = run_flows_faulted(
        fabric,
        demands.to_vec(),
        &mut cached,
        RecomputeMode::Incremental,
        plan,
    );
    let mut dense = PodMaxMinPolicy::without_caching();
    let b = run_flows_faulted(
        fabric,
        demands.to_vec(),
        &mut dense,
        RecomputeMode::Incremental,
        plan,
    );
    let mut full = PodMaxMinPolicy::new();
    let c = run_flows_faulted(
        fabric,
        demands.to_vec(),
        &mut full,
        RecomputeMode::Full,
        plan,
    );
    assert_eq!(
        a.trace().events(),
        b.trace().events(),
        "cached trace diverged from dense refill, {what}"
    );
    assert_eq!(
        a.trace().events(),
        c.trace().events(),
        "cached trace diverged from full recompute, {what}"
    );
    assert_eq!(
        a.completions(),
        b.completions(),
        "cached completions diverged from dense refill, {what}"
    );
    assert_eq!(
        a.completions(),
        c.completions(),
        "cached completions diverged from full recompute, {what}"
    );
    // The dense reference recomputes every pod of every allocation.
    assert_eq!(b.drive_stats().pod_recompute_fraction(), 1.0, "{what}");
    a
}

#[test]
fn pod_fill_matches_dense_and_full_bit_for_bit_under_churn() {
    let fabric = FatTree::new(4).build_fabric();
    let plan = churn_plan();
    for seed in 0..5u64 {
        let demands = staggered_pod_demands(seed, 4, 4);
        let what = format!("seed {seed}");
        let churned = assert_three_way(&fabric, &demands, &plan, &what);
        let stats = churned.drive_stats();
        // Non-vacuity: the comparison is meaningless if every allocation
        // refilled every pod, and the fault churn must have forced
        // refills a calm run of the same demands does not need.
        assert!(
            stats.pod_recompute_fraction() < 1.0,
            "no clean pod was ever replayed, {what}"
        );
        let mut calm = PodMaxMinPolicy::new();
        let calm = run_flows_faulted(
            &fabric,
            demands,
            &mut calm,
            RecomputeMode::Incremental,
            &FaultPlan::empty(),
        );
        assert!(
            stats.pods_recomputed > calm.drive_stats().pods_recomputed,
            "fault churn never forced a refill, {what}"
        );
    }
}

/// Single-delta stress without faults: a contended clique plus
/// uncontended strays. A clique of long flows pins pod 0's fill at
/// `cap/m`, and each staggered short flow on a disjoint host pair of the
/// same pod arrives and departs as a lone single-flow delta. Every such
/// delta refills pod 0 while the other three pods replay, and the result
/// must still match the dense reference and the full recompute bit for
/// bit.
#[test]
fn clique_plus_strays_matches_dense_and_full_bit_for_bit() {
    let fabric = FatTree::new(4).build_fabric();
    let plan = FaultPlan::empty();
    for seed in 100..103u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut demands = Vec::new();
        // Clique: 8 long flows on one host pair of pod 0, released
        // together.
        for f in 0..8usize {
            demands.push(FlowDemand {
                id: FlowId(f as u64),
                src: NodeId(0),
                dst: NodeId(1),
                size: 200.0,
                release: SimTime::ZERO,
            });
        }
        // Strays: short flows on the pod's other host pair, staggered
        // wider than their solo duration so each arrival and departure
        // is a lone single-flow delta.
        for f in 0..30usize {
            demands.push(FlowDemand {
                id: FlowId((8 + f) as u64),
                src: NodeId(2),
                dst: NodeId(3),
                size: rng.f64_range(0.2, 0.4),
                release: SimTime::new(1.0 + f as f64 * 0.6 + rng.f64_range(0.0, 0.1)),
            });
        }
        let what = format!("seed {seed}");
        let a = assert_three_way(&fabric, &demands, &plan, &what);
        // Only pod 0 ever changes, so three of four pods replay on every
        // incremental allocation.
        let frac = a.drive_stats().pod_recompute_fraction();
        assert!(
            frac < 0.5,
            "single-pod deltas should replay the other pods, {what}: fraction {frac}"
        );
    }
}
