//! Steady-state allocation calls perform no heap allocation.
//!
//! The coordinator's dense entry points fill through the caller's
//! `AllocScratch` and rate buffer and keep every other buffer they need
//! (decision order, group set, between-decisions cache) inside the
//! policy, so once warm, a call with an unchanged flow set — decision or
//! not — allocates nothing; neither does the write-back feasibility check
//! on a warm residual buffer. A counting global allocator pins this.
//!
//! Debug builds run allocating consistency audits inside the engine
//! (`EchelonBook::observe_delta` re-derives the binding from a cloned
//! book), so the assertion only holds in release builds:
//! `cargo test --release --test zero_alloc`.

use echelonflow::agent::api::requests_from_dag;
use echelonflow::agent::coordinator::{Coordinator, CoordinatorConfig, Trigger};
use echelonflow::core::JobId;
use echelonflow::paradigms::config::PpConfig;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::simnet::alloc::{check_feasible_dense, AllocScratch};
use echelonflow::simnet::flow::ActiveFlowView;
use echelonflow::simnet::fluid::FlowDelta;
use echelonflow::simnet::ids::NodeId;
use echelonflow::simnet::runner::RatePolicy;
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Four two-stage pipelines on disjoint host pairs of a big switch, with
/// every declared flow active at once.
fn workload() -> (
    Topology,
    Vec<echelonflow::paradigms::dag::JobDag>,
    Vec<ActiveFlowView>,
) {
    let topo = Topology::big_switch_uniform(16, 1.0);
    let mut ids = IdAlloc::new();
    let dags: Vec<_> = (0..4u32)
        .map(|j| {
            let cfg = PpConfig {
                placement: vec![NodeId(2 * j), NodeId(2 * j + 1)],
                ..PpConfig::fig2()
            };
            build_pp_gpipe(JobId(j), &cfg, &mut ids)
        })
        .collect();
    let mut views: Vec<ActiveFlowView> = dags
        .iter()
        .flat_map(|d| d.echelons.iter().flat_map(|e| e.flows()))
        .map(|f| ActiveFlowView {
            id: f.id,
            src: f.src,
            dst: f.dst,
            size: f.size,
            remaining: f.size,
            release: SimTime::ZERO,
            route: topo.route(f.src, f.dst),
            slot: f.id.0 as u32,
        })
        .collect();
    views.sort_by_key(|v| v.id);
    (topo, dags, views)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run allocating consistency audits; run with --release"
)]
fn warm_coordinator_calls_do_not_allocate() {
    let (topo, dags, views) = workload();
    for trigger in [
        Trigger::PerEvent,
        Trigger::PerGroupChange,
        Trigger::Interval(5.0),
    ] {
        let mut coordinator = Coordinator::new(CoordinatorConfig {
            trigger,
            ..CoordinatorConfig::default()
        });
        for dag in &dags {
            coordinator.submit_all(requests_from_dag(dag));
        }
        let mut policy = coordinator.into_policy();
        let mut ws = AllocScratch::new();
        let mut out = Vec::new();
        let mut residual = Vec::new();
        let arrivals = FlowDelta {
            arrived: views.iter().map(|v| v.id).collect(),
            departed: Vec::new(),
        };
        let quiet = FlowDelta::default();
        // Warm-up: the arrivals, then a decision and a between-decisions
        // call so every buffer has grown to its working size.
        policy.allocate_dense_incremental(
            SimTime::ZERO,
            &views,
            &arrivals,
            &topo,
            &mut ws,
            &mut out,
        );
        for t in [0.5, 6.0, 6.5] {
            policy.allocate_dense_incremental(
                SimTime::new(t),
                &views,
                &quiet,
                &topo,
                &mut ws,
                &mut out,
            );
            check_feasible_dense(&topo, &views, &out, &mut residual).unwrap();
        }
        let decisions = policy.decisions_computed();

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for step in 0..20 {
            let now = SimTime::new(7.0 + 0.75 * step as f64);
            policy.allocate_dense_incremental(now, &views, &quiet, &topo, &mut ws, &mut out);
            check_feasible_dense(&topo, &views, &out, &mut residual).unwrap();
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocations, 0,
            "{trigger:?}: {allocations} heap allocations"
        );
        assert_eq!(out.len(), views.len());
        // Non-vacuity: the measured calls include decisions for the
        // per-event and interval triggers.
        if trigger != Trigger::PerGroupChange {
            assert!(policy.decisions_computed() > decisions, "{trigger:?}");
        }
    }
}
