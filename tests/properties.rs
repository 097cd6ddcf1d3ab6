//! Experiments E6-E8 — the paper's formal properties, validated
//! empirically (§3.3).
//!
//! - **Property 1**: EchelonFlow scheduling minimizes completion times of
//!   popular DDLT paradigms — checked against the brute-force optimal
//!   permutation schedule on small instances.
//! - **Property 2**: EchelonFlow ⊇ Coflow — scheduling a Coflow as a
//!   degenerate EchelonFlow yields the same completion times as Varys.
//! - **Property 4**: Coflow algorithms adapt at the same complexity —
//!   the adapted scheduler produces the same group-level metrics on
//!   Coflow-compliant inputs.

use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::coflow::Coflow;
use echelonflow::core::echelon::{EchelonFlow, FlowRef};
use echelonflow::core::{EchelonId, JobId};
use echelonflow::sched::echelon::EchelonMadd;
use echelonflow::sched::optimal::{optimal_schedule, Objective};
use echelonflow::sched::varys::VarysMadd;
use echelonflow::simnet::flow::FlowDemand;
use echelonflow::simnet::ids::{FlowId, NodeId};
use echelonflow::simnet::runner::run_flows;
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;
use std::collections::BTreeMap;

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

/// Property 1 on the Fig. 2 (pipeline) instance: EchelonMadd achieves the
/// optimal maximum tardiness (= 4) found by exhaustive search.
#[test]
fn property1_pipeline_matches_optimal_max_tardiness() {
    let topo = Topology::chain(2, 1.0);
    let demands = vec![
        demand(0, 0, 1, 2.0, 1.0),
        demand(1, 0, 1, 2.0, 2.0),
        demand(2, 0, 1, 2.0, 3.0),
    ];
    let deadlines: BTreeMap<FlowId, SimTime> = [(0u64, 1.0), (1, 2.0), (2, 3.0)]
        .into_iter()
        .map(|(id, t)| (FlowId(id), SimTime::new(t)))
        .collect();
    let objective = Objective::MaxTardiness(deadlines.clone());
    let best = optimal_schedule(&topo, &demands, &objective);

    let h = EchelonFlow::from_flows(
        EchelonId(0),
        JobId(0),
        vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
        ArrangementFn::Staggered { gap: 1.0 },
    );
    let mut policy = EchelonMadd::new(vec![h]);
    let out = run_flows(&topo, demands, &mut policy);
    let achieved = deadlines
        .iter()
        .map(|(id, d)| out.finish(*id).unwrap() - *d)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        (achieved - best.best_value).abs() < 1e-9,
        "echelon {achieved} vs optimal {}",
        best.best_value
    );
}

/// Property 1 on a Coflow-shaped (DP-like) instance: EchelonMadd achieves
/// the optimal makespan for a single gradient-sync group.
#[test]
fn property1_coflow_instance_matches_optimal_makespan() {
    let topo = Topology::big_switch_uniform(4, 1.0);
    // A 4-worker star of gradient pushes (PS-like), all released at 0.
    let demands = vec![
        demand(0, 0, 3, 1.5, 0.0),
        demand(1, 1, 3, 1.0, 0.0),
        demand(2, 2, 3, 0.5, 0.0),
    ];
    let best = optimal_schedule(&topo, &demands, &Objective::Makespan);

    let h = EchelonFlow::new(
        EchelonId(0),
        JobId(0),
        vec![vec![fr(0, 0, 3, 1.5), fr(1, 1, 3, 1.0), fr(2, 2, 3, 0.5)]],
        ArrangementFn::Coflow,
    );
    let mut policy = EchelonMadd::new(vec![h]);
    let out = run_flows(&topo, demands, &mut policy);
    assert!(
        (out.makespan().secs() - best.best_value).abs() < 1e-9,
        "echelon {} vs optimal {}",
        out.makespan().secs(),
        best.best_value
    );
}

/// Property 2: a Coflow scheduled as its degenerate EchelonFlow finishes
/// every flow at the same time as Varys/MADD does.
#[test]
fn property2_coflow_embedding_matches_varys() {
    let topo = Topology::big_switch_uniform(4, 1.0);
    let flows = vec![fr(0, 0, 3, 2.0), fr(1, 1, 3, 1.0), fr(2, 2, 0, 1.5)];
    let demands = vec![
        demand(0, 0, 3, 2.0, 0.0),
        demand(1, 1, 3, 1.0, 0.5),
        demand(2, 2, 0, 1.5, 1.0),
    ];

    let coflow = Coflow::new(EchelonId(0), JobId(0), flows.clone());
    let mut varys = VarysMadd::new(vec![coflow.clone()]).with_backfill(false);
    let via_varys = run_flows(&topo, demands.clone(), &mut varys);

    let mut echelon = EchelonMadd::new(vec![coflow.into_echelon()]).with_backfill(false);
    let via_echelon = run_flows(&topo, demands, &mut echelon);

    for f in &flows {
        assert!(
            via_varys
                .finish(f.id)
                .unwrap()
                .approx_eq(via_echelon.finish(f.id).unwrap()),
            "flow {} differs: varys {:?} echelon {:?}",
            f.id,
            via_varys.finish(f.id),
            via_echelon.finish(f.id)
        );
    }
}

/// Property 4: on a workload of several Coflow-compliant groups, the
/// adapted algorithm (EchelonMadd with least-work ordering — the SEBF
/// analog) reproduces Varys' per-group completion times.
#[test]
fn property4_metric_swap_preserves_group_completions() {
    use echelonflow::sched::echelon::InterOrder;
    let topo = Topology::big_switch_uniform(4, 1.0);
    let groups = vec![
        (EchelonId(0), vec![fr(0, 0, 3, 1.0), fr(1, 1, 3, 1.0)]),
        (EchelonId(1), vec![fr(10, 0, 2, 3.0), fr(11, 1, 2, 2.0)]),
    ];
    let demands = vec![
        demand(0, 0, 3, 1.0, 0.0),
        demand(1, 1, 3, 1.0, 0.0),
        demand(10, 0, 2, 3.0, 0.0),
        demand(11, 1, 2, 2.0, 0.0),
    ];

    let coflows: Vec<Coflow> = groups
        .iter()
        .map(|(id, flows)| Coflow::new(*id, JobId(0), flows.clone()))
        .collect();
    let mut varys = VarysMadd::new(coflows.clone()).with_backfill(false);
    let via_varys = run_flows(&topo, demands.clone(), &mut varys);

    let echelons: Vec<EchelonFlow> = coflows.into_iter().map(|c| c.into_echelon()).collect();
    let mut echelon = EchelonMadd::new(echelons)
        .with_inter(InterOrder::LeastWork)
        .with_backfill(false);
    let via_echelon = run_flows(&topo, demands, &mut echelon);

    // Group-level metric: the completion time of each group (its last
    // flow) must match.
    for (id, flows) in &groups {
        let cct = |out: &echelonflow::simnet::runner::FlowOutcomes| {
            flows
                .iter()
                .map(|f| out.finish(f.id).unwrap())
                .fold(SimTime::ZERO, SimTime::max)
        };
        assert!(
            cct(&via_varys).approx_eq(cct(&via_echelon)),
            "group {id} differs: varys {:?} echelon {:?}",
            cct(&via_varys),
            cct(&via_echelon)
        );
    }
}

/// Property 3 is theoretical (NP-hardness); its practical face is that
/// the exhaustive search space grows factorially while the heuristic
/// stays polynomial — sanity-check the search size here.
#[test]
fn property3_search_space_grows_factorially() {
    let topo = Topology::chain(2, 1.0);
    for n in 2..=5u64 {
        let demands: Vec<FlowDemand> = (0..n).map(|i| demand(i, 0, 1, 1.0, 0.0)).collect();
        let res = optimal_schedule(&topo, &demands, &Objective::Makespan);
        let expected: usize = (1..=n as usize).product();
        assert_eq!(res.evaluated, expected);
    }
}

mod dense_allocation {
    //! The dense allocation core: `Vec<f64>` rates indexed like the
    //! id-sorted flow table must agree **bit-for-bit** with the map-based
    //! adapters at the public API edge, across random topologies and
    //! demand sets, with the scratch workspace reused between rounds
    //! (the reuse is the point — a stale buffer would corrupt later
    //! rounds silently).

    use echelon_detrand::DetRng;
    use echelonflow::simnet::alloc::{
        alloc_to_dense, check_feasible, check_feasible_dense, dense_to_alloc, priority_fill,
        priority_fill_dense, waterfill, waterfill_dense, AllocScratch, RateAlloc,
    };
    use echelonflow::simnet::flow::ActiveFlowView;
    use echelonflow::simnet::ids::{FlowId, NodeId};
    use echelonflow::simnet::time::SimTime;
    use echelonflow::simnet::topology::Topology;
    use std::collections::BTreeMap;

    fn random_topology(rng: &mut DetRng) -> Topology {
        let hosts = rng.usize_range_inclusive(3, 8);
        let cap = rng.f64_range(0.5, 3.0);
        if rng.next_f64() < 0.5 {
            Topology::chain(hosts, cap)
        } else {
            Topology::big_switch_uniform(hosts, cap)
        }
    }

    /// Random id-sorted active set over the topology's hosts.
    fn random_views(rng: &mut DetRng, topo: &Topology, hosts: usize) -> Vec<ActiveFlowView> {
        let n = rng.usize_range_inclusive(1, 12);
        (0..n)
            .map(|i| {
                let src = rng.usize_range_inclusive(0, hosts - 1);
                let mut dst = rng.usize_range_inclusive(0, hosts - 2);
                if dst >= src {
                    dst += 1;
                }
                let size = rng.f64_range(0.5, 4.0);
                ActiveFlowView {
                    id: FlowId(i as u64),
                    src: NodeId(src as u32),
                    dst: NodeId(dst as u32),
                    size,
                    remaining: size * rng.f64_range(0.1, 1.0),
                    release: SimTime::new(rng.f64_range(0.0, 2.0)),
                    route: topo.route(NodeId(src as u32), NodeId(dst as u32)),
                    slot: i as u32,
                }
            })
            .collect()
    }

    fn hosts_of(topo: &Topology) -> usize {
        // Both generators above use `hosts` nodes numbered from 0; recover
        // the count from the number of host-level resources (chain and big
        // switch both expose 2 per host: ingress + egress).
        topo.num_resources() / 2
    }

    #[test]
    fn dense_waterfill_agrees_with_map_adapter_bitwise() {
        let mut ws = AllocScratch::new(); // reused across every round
        let mut dense: Vec<f64> = Vec::new();
        for seed in 0..40u64 {
            let mut rng = DetRng::seed_from_u64(0xDE45E + seed);
            let topo = random_topology(&mut rng);
            let views = random_views(&mut rng, &topo, hosts_of(&topo));

            // Random weights/caps on a subset of flows, as a caller would
            // pass them at the map edge.
            let mut weights: BTreeMap<FlowId, f64> = BTreeMap::new();
            let mut caps: BTreeMap<FlowId, f64> = BTreeMap::new();
            for v in &views {
                if rng.next_f64() < 0.4 {
                    weights.insert(v.id, rng.f64_range(0.5, 3.0));
                }
                if rng.next_f64() < 0.3 {
                    caps.insert(v.id, rng.f64_range(0.1, 1.5));
                }
            }
            let via_map = waterfill(&topo, &views, &weights, &caps, None);

            let w: Vec<f64> = views
                .iter()
                .map(|v| weights.get(&v.id).copied().unwrap_or(1.0))
                .collect();
            let c: Vec<f64> = views
                .iter()
                .map(|v| caps.get(&v.id).copied().unwrap_or(f64::INFINITY))
                .collect();
            dense.clear();
            dense.resize(views.len(), 0.0);
            waterfill_dense(&topo, &views, Some(&w), Some(&c), &mut dense, &mut ws);

            for (v, &rate) in views.iter().zip(&dense) {
                assert_eq!(
                    rate.to_bits(),
                    via_map[&v.id].to_bits(),
                    "seed {seed}: flow {} dense {rate} vs map {}",
                    v.id,
                    via_map[&v.id]
                );
            }
            assert!(check_feasible(&topo, &views, &via_map).is_ok());
            let mut residual = Vec::new();
            assert!(check_feasible_dense(&topo, &views, &dense, &mut residual).is_ok());
        }
    }

    #[test]
    fn dense_priority_fill_agrees_with_map_adapter_bitwise() {
        let mut ws = AllocScratch::new();
        let mut dense: Vec<f64> = Vec::new();
        for seed in 0..40u64 {
            let mut rng = DetRng::seed_from_u64(0xF111 + seed);
            let topo = random_topology(&mut rng);
            let views = random_views(&mut rng, &topo, hosts_of(&topo));

            // A random priority permutation of the flow ids.
            let mut order: Vec<FlowId> = views.iter().map(|v| v.id).collect();
            for i in (1..order.len()).rev() {
                let j = rng.usize_range_inclusive(0, i);
                order.swap(i, j);
            }
            let mut caps: BTreeMap<FlowId, f64> = BTreeMap::new();
            for v in &views {
                if rng.next_f64() < 0.3 {
                    caps.insert(v.id, rng.f64_range(0.1, 1.5));
                }
            }
            let via_map = priority_fill(&topo, &views, &order, &caps);

            let c: Vec<f64> = views
                .iter()
                .map(|v| caps.get(&v.id).copied().unwrap_or(f64::INFINITY))
                .collect();
            dense.clear();
            dense.resize(views.len(), 0.0);
            priority_fill_dense(&topo, &views, &order, Some(&c), &mut dense, &mut ws);

            for (v, &rate) in views.iter().zip(&dense) {
                assert_eq!(
                    rate.to_bits(),
                    via_map[&v.id].to_bits(),
                    "seed {seed}: flow {} dense {rate} vs map {}",
                    v.id,
                    via_map[&v.id]
                );
            }
        }
    }

    #[test]
    fn dense_map_round_trip_is_lossless() {
        for seed in 0..20u64 {
            let mut rng = DetRng::seed_from_u64(0x2071 + seed);
            let topo = random_topology(&mut rng);
            let views = random_views(&mut rng, &topo, hosts_of(&topo));
            let alloc: RateAlloc = views
                .iter()
                .map(|v| (v.id, rng.f64_range(0.0, 2.0)))
                .collect();
            let mut dense = Vec::new();
            alloc_to_dense(&views, &alloc, &mut dense);
            let back = dense_to_alloc(&views, &dense);
            assert_eq!(alloc, back, "seed {seed}: round trip lost information");
        }
    }
}

mod link_occupancy {
    //! The fluid network's link-recompute counters (`link_stats`), kept
    //! from per-resource resident-flow counts, must equal a brute-force
    //! recount from the active routes after every rate application:
    //! `occupied` sums the distinct links on active routes per
    //! application, `dirty` the distinct route links of flows whose rate
    //! bits changed.

    use echelon_detrand::DetRng;
    use echelonflow::simnet::alloc::{waterfill_dense, AllocScratch};
    use echelonflow::simnet::fattree::FatTree;
    use echelonflow::simnet::flow::FlowDemand;
    use echelonflow::simnet::fluid::FluidNetwork;
    use echelonflow::simnet::ids::{FlowId, NodeId};
    use echelonflow::simnet::topology::Topology;
    use std::collections::{BTreeMap, BTreeSet};

    /// Distinct links over the routes of the flows at positions `which`.
    fn distinct_links(net: &FluidNetwork, which: impl Iterator<Item = usize>) -> usize {
        which
            .flat_map(|i| net.views()[i].route.iter().copied())
            .collect::<BTreeSet<_>>()
            .len()
    }

    #[test]
    fn link_stats_match_brute_force_recount() {
        let mut dirty_seen = 0usize;
        for seed in 0..16u64 {
            let mut rng = DetRng::seed_from_u64(0x0CC0 + seed);
            let (topo, hosts) = if seed % 2 == 0 {
                let hosts = rng.usize_range_inclusive(3, 10);
                (Topology::big_switch_uniform(hosts, 1.0), hosts)
            } else {
                let ft = FatTree::new(4);
                (ft.build_fabric(), ft.hosts())
            };
            let mut net = FluidNetwork::new(topo);
            // Sparse applications may mix fresh and stale rates; the
            // counters, not feasibility, are under test here.
            net.set_feasibility_checks(false);
            let (mut dirty, mut occupied) = (0usize, 0usize);
            let mut ws = AllocScratch::new();
            let mut rates = Vec::new();
            let mut next_id = 0u64;
            for step in 0..80 {
                for _ in 0..rng.usize_range_inclusive(0, 3) {
                    let src = rng.usize_range_inclusive(0, hosts - 1);
                    let mut dst = rng.usize_range_inclusive(0, hosts - 2);
                    if dst >= src {
                        dst += 1;
                    }
                    net.release(&FlowDemand::new(
                        FlowId(next_id),
                        NodeId(src as u32),
                        NodeId(dst as u32),
                        rng.f64_range(0.2, 3.0),
                        net.now(),
                    ));
                    next_id += 1;
                }
                let n = net.active_count();
                rates.clear();
                rates.resize(n, 0.0);
                waterfill_dense(net.topology(), net.views(), None, None, &mut rates, &mut ws);
                // Scale some rates down so successive applications differ
                // flow by flow, and keep others so some bits stay equal.
                for r in rates.iter_mut() {
                    if rng.next_f64() < 0.3 {
                        *r *= 0.5;
                    }
                }
                let before: BTreeMap<FlowId, u64> = net
                    .views()
                    .iter()
                    .zip(net.rates())
                    .map(|(v, r)| (v.id, r.to_bits()))
                    .collect();
                match rng.usize_range_inclusive(0, 2) {
                    0 => net.set_rates_dense(&rates),
                    1 => {
                        let changed: Vec<usize> = (0..n).filter(|_| rng.next_f64() < 0.5).collect();
                        net.set_rates_sparse(&rates, &changed);
                    }
                    _ => {
                        // Re-apply the rates in force: nothing is dirty.
                        let current = net.rates().to_vec();
                        net.set_rates_dense(&current);
                    }
                }
                occupied += distinct_links(&net, 0..n);
                let flipped = distinct_links(
                    &net,
                    (0..n).filter(|&i| net.rates()[i].to_bits() != before[&net.views()[i].id]),
                );
                dirty += flipped;
                dirty_seen += flipped;
                assert_eq!(
                    net.link_stats(),
                    (dirty, occupied),
                    "seed {seed} step {step}: counters drifted from the recount"
                );
                if let Some(dt) = net.next_completion_in() {
                    let dt = if rng.next_f64() < 0.5 { dt } else { dt * 0.5 };
                    net.advance(dt);
                } else if n > 0 {
                    net.advance(0.1);
                }
                let _ = net.take_delta();
            }
            assert!(
                !net.completions().is_empty(),
                "seed {seed}: no flow ever completed"
            );
        }
        assert!(dirty_seen > 0, "no application changed a rate");
    }
}
