//! The benchmark's one door into the EchelonFlow crates.
//!
//! Every call into the crates under test lives here: workload
//! generation, the three run shapes and their entry points, the timing
//! wrappers, and the read-out of counters the program already exposes
//! (`DriveStats`, `book_stats`, `decisions_computed`). The rest of the
//! benchmark sees only plain numbers, so renaming or merging an entry
//! point means editing this file alone.

use crate::probe::{FeedClock, PolicyClock};
use crate::stats::Fnv;
use crate::Workload;
use echelon_agent::api::requests_from_dag;
use echelon_agent::coordinator::{Coordinator, CoordinatorConfig};
use echelon_cluster::metrics::{echelon_tardiness_from_run, placement_spread};
use echelon_cluster::placement::PlacementPolicy;
use echelon_cluster::scenario::{Scenario, SchedulerKind};
use echelon_cluster::service::{LifecycleBus, ServiceConfig, ServiceFeed, ServicePolicy};
use echelon_cluster::workload::{ArrivalProcess, OpenLoopConfig, ServicePlacement, WorkloadConfig};
use echelon_core::echelon::EchelonFlow;
use echelon_core::JobId;
use echelon_detrand::DetRng;
use echelon_paradigms::dag::JobDag;
use echelon_paradigms::runtime::{run_jobs_streamed, run_jobs_with, JobFeed, RunResult};
use echelon_simnet::alloc::{AllocScratch, RateAlloc};
use echelon_simnet::driver::{DriveConfig, DriveStats};
use echelon_simnet::fattree::FatTree;
use echelon_simnet::fault::{FaultKind, FaultPlan};
use echelon_simnet::flow::{ActiveFlowView, FlowDemand};
use echelon_simnet::fluid::{FlowDelta, NextCompletionMode};
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::runner::{
    run_flows_configured, AllocHorizon, PodMaxMinPolicy, RatePolicy, RecomputeMode,
};
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Instant;

/// `service-burst`: jobs arrive in bursts of this many.
const BURST: usize = 64;
/// `service-burst`: simulated seconds between bursts; long enough for
/// the 16-host cluster to drain a burst before the next one lands.
const BURST_GAP_S: f64 = 448.0;
/// `service-burst`: fat-tree radix (k=4: 16 hosts in 4 pods).
const SERVICE_K: usize = 4;
/// `coord-closed`: hosts per job on the big switch, enough for disjoint
/// packed placement of every job.
const HOSTS_PER_JOB: usize = 8;
/// `fabric-flows`: fat-tree radix (k=16: 1024 hosts in 16 pods).
const FABRIC_K: usize = 16;
/// `fabric-flows`: mean simulated gap between flow releases.
const FABRIC_MEAN_GAP_S: f64 = 0.002;

/// Generated inputs of one workload at one length.
pub struct Inputs {
    units: usize,
    kind: InputsKind,
}

enum InputsKind {
    Service {
        topo: Topology,
        cfg: OpenLoopConfig,
    },
    Coord {
        scenario: Scenario,
    },
    Fabric {
        topo: Topology,
        demands: Vec<FlowDemand>,
        host_capacity: f64,
        threads: usize,
    },
}

impl Inputs {
    /// Jobs (DAG workloads) or flows (`fabric-flows`) offered.
    pub fn units(&self) -> usize {
        self.units
    }
}

/// Builds the inputs of `workload` from `seed`: `units` jobs or flows.
/// Every draw comes from `seed`; `threads` pins the one thread knob the
/// run shapes have (pod sharding in the fabric allocator).
pub fn generate(workload: Workload, seed: u64, units: usize, threads: usize) -> Inputs {
    let kind = match workload {
        Workload::ServiceBurst => {
            let topo = FatTree::new(SERVICE_K).build_fabric();
            let hosts = FatTree::new(SERVICE_K).hosts();
            let arrivals = (0..units)
                .map(|i| (i / BURST) as f64 * BURST_GAP_S)
                .collect();
            let cfg = OpenLoopConfig {
                arrivals: ArrivalProcess::Trace { arrivals },
                placement: ServicePlacement::AtAdmission(PlacementPolicy::PodPacked),
                ..OpenLoopConfig::default_tiers(seed, units, hosts, BURST_GAP_S)
            };
            InputsKind::Service { topo, cfg }
        }
        Workload::CoordClosed => {
            let cfg = WorkloadConfig::default_mix(seed, units, HOSTS_PER_JOB * units);
            InputsKind::Coord {
                scenario: Scenario::generate(&cfg),
            }
        }
        Workload::FabricFlows => {
            let tree = FatTree::new(FABRIC_K);
            InputsKind::Fabric {
                topo: tree.build_fabric(),
                demands: pod_local_demands(seed, units),
                host_capacity: tree.host_capacity,
                threads,
            }
        }
    };
    Inputs { units, kind }
}

/// Pod-local flows with Poisson-staggered releases: each flow picks a
/// pod, then two distinct hosts in it.
fn pod_local_demands(seed: u64, flows: usize) -> Vec<FlowDemand> {
    let half = FABRIC_K / 2;
    let hosts_per_pod = half * half;
    let mut rng = DetRng::seed_from_u64(seed ^ 0x57A6_6E4D);
    let mut t = 0.0f64;
    (0..flows)
        .map(|i| {
            t += -FABRIC_MEAN_GAP_S * (1.0 - rng.f64_range(0.0, 1.0)).ln();
            let base = rng.usize_range_inclusive(0, FABRIC_K - 1) * hosts_per_pod;
            let src = rng.usize_range_inclusive(0, hosts_per_pod - 1);
            let dst = rng.usize_range_inclusive(0, hosts_per_pod - 2);
            let dst = if dst >= src { dst + 1 } else { dst };
            FlowDemand {
                id: FlowId(i as u64),
                src: host(base + src),
                dst: host(base + dst),
                size: rng.f64_range(0.5, 1.5),
                release: SimTime::new(t),
            }
        })
        .collect()
}

fn host(i: usize) -> NodeId {
    NodeId(u32::try_from(i).expect("host index fits the id type"))
}

/// How a run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No wrappers, no driver profiling: the end-to-end timing.
    Plain,
    /// Feed and policy wrapped in the timing wrappers.
    Traced,
    /// The driver's own phase profiling (`fabric-flows` only; the other
    /// run shapes do not expose it).
    Profiled,
}

/// Driver counters of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct DriverCounters {
    pub alloc_batches: usize,
    pub batched_events: usize,
    pub horizon_skips: usize,
    pub peak_active: usize,
    pub pod_recompute_frac: f64,
    pub delta_fill_hits: u64,
    pub delta_fill_fallbacks: u64,
    /// Driver phase seconds (queue, allocate, write-back, bookkeeping);
    /// zero unless the run was [`Mode::Profiled`].
    pub phase_s: [f64; 4],
}

impl DriverCounters {
    fn from_stats(s: &DriveStats) -> DriverCounters {
        let ns = |x: u64| x as f64 * 1e-9;
        DriverCounters {
            alloc_batches: s.alloc_batches,
            batched_events: s.batched_events,
            horizon_skips: s.horizon_skips,
            peak_active: s.peak_active,
            pod_recompute_frac: s.pod_recompute_fraction(),
            delta_fill_hits: s.delta_fill_hits,
            delta_fill_fallbacks: s.delta_fill_fallbacks,
            phase_s: [
                ns(s.phase.queue_ns),
                ns(s.phase.allocate_ns),
                ns(s.phase.write_back_ns),
                ns(s.phase.bookkeeping_ns),
            ],
        }
    }
}

/// Everything one run produced, as plain numbers.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of the run itself: building the feed and policy and
    /// driving the simulation, not generating inputs or reading results.
    pub host_s: f64,
    /// FNV-1a over every flow's finish and every job's completion.
    pub digest: u64,
    /// Jobs or flows offered, completed, and rejected at admission.
    pub offered: usize,
    pub completed: usize,
    pub rejected: usize,
    pub flows_released: usize,
    pub flows_finished: usize,
    /// Per-flow completion times (finish − release).
    pub fct_s: Vec<f64>,
    /// Per completed job, arrival → finish. On `fabric-flows` every flow
    /// is its own single-flow job.
    pub jct_s: Vec<f64>,
    /// `(arrival, admitted)` per admitted job of a service run.
    pub queue: Vec<(f64, f64)>,
    /// Summed EchelonFlow tardiness (clamped at 0 per group). On
    /// `fabric-flows`: per flow, FCT minus its isolated FCT.
    pub tardiness_sum_s: f64,
    pub driver: DriverCounters,
    /// Scheduler book high-water mark.
    pub book_peak: usize,
    /// Coordinator decisions computed (`coord-closed` only).
    pub decisions: usize,
    /// Mean and max pods spanned by the jobs' hosts (`service-burst`).
    pub pods_spanned: (f64, usize),
    /// Wrapper clocks of a [`Mode::Traced`] run.
    pub feed: Option<FeedClock>,
    pub policy: Option<PolicyClock>,
}

/// Runs `inputs` once in `mode`.
pub fn run(inputs: &Inputs, mode: Mode) -> Outcome {
    match &inputs.kind {
        InputsKind::Service { topo, cfg } => run_service(topo, cfg, mode),
        InputsKind::Coord { scenario } => run_coordinated(scenario, mode),
        InputsKind::Fabric {
            topo,
            demands,
            host_capacity,
            threads,
        } => run_fabric(topo, demands, *host_capacity, *threads, mode),
    }
}

/// `service-burst`: `ServiceFeed::streaming_on` + `ServicePolicy::open`
/// through `run_jobs_streamed`.
fn run_service(topo: &Topology, cfg: &OpenLoopConfig, mode: Mode) -> Outcome {
    let cfg = cfg.clone();
    let plan = FaultPlan::empty();
    let start = Instant::now();
    let bus: LifecycleBus = Rc::new(RefCell::new(VecDeque::new()));
    let feed = ServiceFeed::streaming_on(topo, cfg, &ServiceConfig::default(), Some(bus.clone()));
    let policy = ServicePolicy::open(SchedulerKind::Echelon, bus);
    let mut feed = TimedFeed::new(feed, mode == Mode::Traced);
    let mut policy = TimedPolicy::new(policy, mode == Mode::Traced, 0.0);
    let result = run_jobs_streamed(
        topo,
        &mut feed,
        &mut policy,
        RecomputeMode::Incremental,
        &plan,
    );
    let host_s = start.elapsed().as_secs_f64();

    let records = feed.inner.records();
    let mut out = dag_outcome(&result, host_s);
    out.offered = records.len();
    let mut echelons: Vec<&EchelonFlow> = Vec::new();
    for r in records {
        out.rejected += usize::from(r.rejected);
        if let Some(admitted) = r.admitted_at {
            out.queue.push((r.arrival, admitted));
        }
        if let Some(done) = r.finished_at {
            out.completed += 1;
            out.jct_s.push(done - r.arrival);
            echelons.extend(&r.echelons);
        }
    }
    out.tardiness_sum_s = tardiness_sum(echelons, &result);
    let spread = placement_spread(topo, records.iter().map(|r| r.hosts.as_slice()));
    out.pods_spanned = (spread.mean_pods_spanned, spread.max_pods_spanned);
    out.book_peak = policy.inner.book_stats().map_or(0, |(_, peak)| peak);
    out.feed = feed.clock;
    out.policy = policy.clock;
    out
}

/// `coord-closed`: every job's `requests_from_dag` submitted to a
/// default `Coordinator`, then `into_policy` through `run_jobs_with`.
fn run_coordinated(scenario: &Scenario, mode: Mode) -> Outcome {
    let start = Instant::now();
    let mut coordinator = Coordinator::new(CoordinatorConfig::default());
    for job in &scenario.jobs {
        coordinator.submit_all(requests_from_dag(&job.dag));
    }
    let policy = coordinator.into_policy();
    let build_s = start.elapsed().as_secs_f64();
    let mut policy = TimedPolicy::new(policy, mode == Mode::Traced, build_s);
    let dags: Vec<&JobDag> = scenario.jobs.iter().map(|j| &j.dag).collect();
    let result = run_jobs_with(
        &scenario.topology,
        &dags,
        &mut policy,
        RecomputeMode::Incremental,
    );
    let host_s = start.elapsed().as_secs_f64();

    let mut out = dag_outcome(&result, host_s);
    out.offered = scenario.jobs.len();
    for job in &scenario.jobs {
        if let Some(done) = result.job_makespans.get(&job.dag.job) {
            out.completed += 1;
            out.jct_s.push(done.secs() - job.arrival);
        }
    }
    out.tardiness_sum_s =
        tardiness_sum(scenario.jobs.iter().flat_map(|j| &j.dag.echelons), &result);
    out.book_peak = policy.inner.book_stats().map_or(0, |(_, peak)| peak);
    out.decisions = policy.inner.decisions_computed();
    out.policy = policy.clock;
    out
}

/// `fabric-flows`: `PodMaxMinPolicy` through `run_flows_configured`
/// with the scale configuration (calendar queue, no per-event audits or
/// rate trace).
fn run_fabric(
    topo: &Topology,
    demands: &[FlowDemand],
    host_capacity: f64,
    threads: usize,
    mode: Mode,
) -> Outcome {
    let demands = demands.to_vec();
    let config = DriveConfig {
        next_completion: NextCompletionMode::Calendar,
        feasibility_checks: false,
        trace: false,
        profile: mode == Mode::Profiled,
        link_stats: false,
    };
    let start = Instant::now();
    let policy = PodMaxMinPolicy::new().with_threads(threads);
    let mut policy = TimedPolicy::new(policy, mode == Mode::Traced, 0.0);
    let flows = demands.len();
    let done = run_flows_configured(
        topo,
        demands,
        &mut policy,
        RecomputeMode::Incremental,
        config,
    );
    let host_s = start.elapsed().as_secs_f64();

    let completions = done.completions();
    let mut digest = Fnv::new();
    let mut fct_s = Vec::with_capacity(completions.len());
    let mut tardiness_sum_s = 0.0;
    for (id, c) in completions {
        digest.mix(id.0);
        digest.mix(c.finish.secs().to_bits());
        fct_s.push(c.fct());
        tardiness_sum_s += (c.fct() - c.size / host_capacity).max(0.0);
    }
    Outcome {
        host_s,
        digest: digest.finish(),
        offered: flows,
        completed: completions.len(),
        flows_released: flows,
        flows_finished: completions.len(),
        jct_s: fct_s.clone(),
        fct_s,
        tardiness_sum_s,
        driver: DriverCounters::from_stats(&done.drive_stats()),
        policy: policy.clock,
        ..Outcome::default()
    }
}

/// The parts of a DAG-runtime outcome both DAG workloads share.
fn dag_outcome(result: &RunResult, host_s: f64) -> Outcome {
    let mut digest = Fnv::new();
    let mut fct_s = Vec::with_capacity(result.flow_finishes.len());
    for (id, t) in &result.flow_finishes {
        digest.mix(id.0);
        digest.mix(t.secs().to_bits());
        if let Some(r) = result.flow_releases.get(id) {
            fct_s.push(*t - *r);
        }
    }
    for (job, t) in &result.job_makespans {
        digest.mix(u64::from(job.0));
        digest.mix(t.secs().to_bits());
    }
    Outcome {
        host_s,
        digest: digest.finish(),
        flows_released: result.flow_releases.len(),
        flows_finished: result.flow_finishes.len(),
        fct_s,
        driver: DriverCounters::from_stats(&result.stats),
        ..Outcome::default()
    }
}

/// Σ of `echelon_tardiness_from_run` over `echelons`, clamped at 0 per
/// group (groups whose flows never ran are skipped).
fn tardiness_sum<'a>(echelons: impl IntoIterator<Item = &'a EchelonFlow>, run: &RunResult) -> f64 {
    echelons
        .into_iter()
        .filter_map(|h| echelon_tardiness_from_run(h, run))
        .map(|t| t.max(0.0))
        .sum()
}

/// A [`JobFeed`] that forwards every method to `inner`, default methods
/// included, and times each call when a clock is attached.
struct TimedFeed<F> {
    inner: F,
    clock: Option<FeedClock>,
}

impl<F: JobFeed> TimedFeed<F> {
    fn new(inner: F, timed: bool) -> TimedFeed<F> {
        TimedFeed {
            inner,
            clock: timed.then(FeedClock::default),
        }
    }

    /// Runs `call` on the inner feed, timing it as an "other" call.
    fn other<T>(&self, call: impl FnOnce(&F) -> T) -> T {
        let Some(clock) = &self.clock else {
            return call(&self.inner);
        };
        let start = Instant::now();
        let out = call(&self.inner);
        clock.other.end(start);
        out
    }
}

impl<F: JobFeed> JobFeed for TimedFeed<F> {
    fn next_event_at(&self) -> Option<SimTime> {
        self.other(|f| f.next_event_at())
    }

    fn wants_admission(&self, now: SimTime) -> bool {
        self.other(|f| f.wants_admission(now))
    }

    fn admit(&mut self, now: SimTime, claimed: &BTreeSet<NodeId>) -> Vec<JobDag> {
        let Some(clock) = &self.clock else {
            return self.inner.admit(now, claimed);
        };
        let start = Instant::now();
        let admitted = self.inner.admit(now, claimed);
        clock.admit.end(start);
        if !admitted.is_empty() {
            clock.useful_admits.set(clock.useful_admits.get() + 1);
        }
        // Outside the timed span: the wrapper's own bookkeeping.
        clock.observe_backlog(now.secs(), self.inner.backlog());
        admitted
    }

    fn on_job_retired(&mut self, now: SimTime, job: JobId) {
        let Some(clock) = &self.clock else {
            return self.inner.on_job_retired(now, job);
        };
        let start = Instant::now();
        self.inner.on_job_retired(now, job);
        clock.other.end(start);
        clock.retire_calls.set(clock.retire_calls.get() + 1);
    }

    fn exhausted(&self) -> bool {
        self.other(|f| f.exhausted())
    }

    fn backlog(&self) -> usize {
        self.other(|f| f.backlog())
    }
}

/// A [`RatePolicy`] that forwards every method to `inner`, default
/// methods included, and times each call when a clock is attached.
struct TimedPolicy<P> {
    inner: P,
    clock: Option<PolicyClock>,
}

impl<P: RatePolicy> TimedPolicy<P> {
    fn new(inner: P, timed: bool, build_s: f64) -> TimedPolicy<P> {
        TimedPolicy {
            inner,
            clock: timed.then(|| PolicyClock {
                build_s,
                ..PolicyClock::default()
            }),
        }
    }

    /// Runs one `allocate*` entry point on the inner policy, timed.
    fn allocating<T>(&mut self, flows: usize, call: impl FnOnce(&mut P) -> T) -> T {
        let Some(clock) = &self.clock else {
            return call(&mut self.inner);
        };
        let start = Instant::now();
        let out = call(&mut self.inner);
        clock.allocate.end(start);
        clock.observe_flows(flows);
        out
    }

    /// Runs any other method on the inner policy, timed.
    fn other<'s, T>(&'s self, call: impl FnOnce(&'s P) -> T) -> T {
        let Some(clock) = &self.clock else {
            return call(&self.inner);
        };
        let start = Instant::now();
        let out = call(&self.inner);
        clock.other.end(start);
        out
    }
}

impl<P: RatePolicy> RatePolicy for TimedPolicy<P> {
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        self.allocating(flows.len(), |p| p.allocate(now, flows, topo))
    }

    fn allocate_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
    ) -> RateAlloc {
        self.allocating(flows.len(), |p| {
            p.allocate_incremental(now, flows, delta, topo)
        })
    }

    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.allocating(flows.len(), |p| p.allocate_dense(now, flows, topo, ws, out))
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
        self.allocating(flows.len(), |p| {
            p.allocate_dense_incremental(now, flows, delta, topo, ws, out)
        })
    }

    fn allocate_dense_incremental_sparse(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) -> bool {
        self.allocating(flows.len(), |p| {
            p.allocate_dense_incremental_sparse(now, flows, delta, topo, ws, out)
        })
    }

    fn changed_indices(&self) -> Option<&[usize]> {
        self.other(|p| p.changed_indices())
    }

    fn horizon(&self, now: SimTime, flows: &[ActiveFlowView], rates: &[f64]) -> AllocHorizon {
        self.other(|p| p.horizon(now, flows, rates))
    }

    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        let Some(clock) = &self.clock else {
            return self.inner.on_fault(now, fault);
        };
        let start = Instant::now();
        self.inner.on_fault(now, fault);
        clock.other.end(start);
    }

    fn name(&self) -> &'static str {
        self.other(|p| p.name())
    }

    fn pod_stats(&self) -> Option<(usize, usize)> {
        self.other(|p| p.pod_stats())
    }

    fn delta_fill_stats(&self) -> Option<(u64, u64)> {
        self.other(|p| p.delta_fill_stats())
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        self.other(|p| p.book_stats())
    }
}
