//! Co-simulation of computation and communication.
//!
//! [`run_jobs`] executes one or more [`JobDag`]s on a shared network: each
//! worker runs its computation program strictly in order; a completed
//! computation releases the communication stages depending on it; flow
//! completions unblock downstream computations. Bandwidth is allocated by
//! a pluggable [`RatePolicy`] — the same trait the pure-flow runner uses —
//! recomputed at every release/completion event, so schedulers behave
//! identically whether driven by static demand sets or by a live job.
//!
//! The event loop is the shared [`echelon_simnet::driver`]; this module
//! contributes `JobSource`, the DAG-runtime [`WorkloadSource`]. Readiness
//! is tracked with *dependency counters and ready queues* rather than
//! fixpoint rescans: reverse dependency edges are built once per job at
//! admission, every completion decrements exactly its dependents'
//! counters, and units whose counters hit zero enter id-ordered ready
//! queues — so an event costs O(dependents touched), not O(total DAG
//! size). Running units wait in an end-time heap, and per-unit state sits
//! in dense per-job arrays freed at retirement, so nothing scales with the
//! number of jobs not yet arrived or already retired.
//!
//! [`run_jobs_arriving`] additionally admits each job at its own arrival
//! time (the cluster workload shape): a job's workers and communication
//! units do not exist for the scheduler until the job is activated.
//!
//! The result records everything the paper's figures need: per-unit
//! computation spans (Fig. 1a timelines, idle fractions), flow release and
//! finish times (tardiness bookkeeping), and per-job makespans.

use crate::dag::{CompKind, JobDag};
use crate::ids::{CommId, CompId};
use echelon_core::JobId;
use echelon_sched::echelon::EchelonMadd;
use echelon_sched::varys::VarysMadd;
use echelon_simnet::alloc::AllocScratch;
use echelon_simnet::driver::{
    drive, drive_faulted, DriveStats, RateApply, RecomputeCadence, WorkloadSource,
};
use echelon_simnet::fault::{FaultKind, FaultPlan};
use echelon_simnet::flow::{FlowCompletion, FlowDemand};
use echelon_simnet::fluid::FluidNetwork;
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::runner::{RatePolicy, RecomputeMode};
use echelon_simnet::time::{SimTime, EPS};
use echelon_simnet::topology::Topology;
use echelon_simnet::trace::{FlowTrace, TraceEventKind};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

/// Which declared grouping to schedule a job under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// The §4 EchelonFlow formulation (scheduled by [`EchelonMadd`]).
    Echelon,
    /// The plain Coflow formulation (scheduled by [`VarysMadd`]).
    Coflow,
}

/// Builds the matching scheduler over every declared group of `dags`.
pub fn make_policy(grouping: Grouping, dags: &[&JobDag]) -> Box<dyn RatePolicy> {
    match grouping {
        Grouping::Echelon => {
            let echelons = dags
                .iter()
                .flat_map(|d| d.echelons.iter().cloned())
                .collect();
            Box::new(EchelonMadd::new(echelons))
        }
        Grouping::Coflow => {
            let coflows = dags
                .iter()
                .flat_map(|d| d.coflows.iter().cloned())
                .collect();
            Box::new(VarysMadd::new(coflows))
        }
    }
}

/// An incremental job supplier for open-loop runs ([`run_jobs_streamed`]).
///
/// The runtime polls the feed instead of holding a pre-materialized DAG
/// slice: at every event it asks for jobs whose arrival time has come and
/// whose admission test passes, and it reports each job's retirement (all
/// units finished) so the feed can release queue slots, record completion
/// times, and emit lifecycle notifications (e.g. scheduler-registry
/// eviction). Worker claims are freed on retirement, so a host set can be
/// reused by later jobs — the memory the runtime holds is proportional to
/// the *concurrently admitted* jobs, not the total stream length.
pub trait JobFeed {
    /// Absolute time of the next new arrival, if the stream has more
    /// jobs. Pending-but-blocked jobs are *not* events: their admission
    /// is re-attempted whenever any other event fires (host-freeing is
    /// always accompanied by one).
    fn next_event_at(&self) -> Option<SimTime>;

    /// Whether an [`admit`](Self::admit) call at `now` could do anything:
    /// an arrival is due or blocked jobs are queued. Lets the runtime
    /// skip the admission call on quiet events.
    fn wants_admission(&self, now: SimTime) -> bool {
        self.next_event_at().is_some_and(|t| t.at_or_before(now)) || self.backlog() > 0
    }

    /// Offers admission at `now`: returns the jobs to admit, in admission
    /// order. `claimed` is the set of workers currently held by admitted,
    /// unfinished jobs; the feed must only return jobs whose workers are
    /// all unclaimed (and disjoint among the returned batch).
    fn admit(&mut self, now: SimTime, claimed: &BTreeSet<NodeId>) -> Vec<JobDag>;

    /// Notification that an admitted job retired (every computation and
    /// communication unit finished) at `now`.
    fn on_job_retired(&mut self, now: SimTime, job: JobId);

    /// True once no further admission will ever occur: the stream is dry
    /// and no job is queued.
    fn exhausted(&self) -> bool;

    /// Jobs generated but not yet admitted (waiting for hosts). Purely
    /// informational: sized the admission re-scan and the deadlock report.
    fn backlog(&self) -> usize {
        0
    }
}

/// One bar of a worker timeline (Fig. 1a).
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Worker the unit ran on.
    pub worker: NodeId,
    /// The computation unit.
    pub comp: CompId,
    /// Its label (e.g. `"F2"`), shared with the DAG's unit.
    pub label: Arc<str>,
    /// Its kind.
    pub kind: CompKind,
    /// Execution start.
    pub start: SimTime,
    /// Execution end.
    pub end: SimTime,
}

/// Everything measured during a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Start/end of every computation unit.
    pub comp_spans: BTreeMap<CompId, (SimTime, SimTime)>,
    /// Start (stage-0 release)/end of every communication unit.
    pub comm_spans: BTreeMap<CommId, (SimTime, SimTime)>,
    /// Release time of every flow.
    pub flow_releases: BTreeMap<FlowId, SimTime>,
    /// Finish time of every flow.
    pub flow_finishes: BTreeMap<FlowId, SimTime>,
    /// Completion time per job (last computation or flow of the job).
    pub job_makespans: BTreeMap<JobId, SimTime>,
    /// Time the whole simulation finished.
    pub makespan: SimTime,
    /// Seconds of computation executed per worker.
    pub worker_busy: BTreeMap<NodeId, f64>,
    /// Chronological worker timeline.
    pub timeline: Vec<TimelineEntry>,
    /// Per-flow release/rate/finish trace (regenerates the rate series of
    /// the paper's Fig. 2 sub-figures).
    pub trace: FlowTrace,
    /// Driver counters: rate recomputations performed and events skipped
    /// under the policy-reported recompute horizon.
    pub stats: DriveStats,
}

impl RunResult {
    /// Fraction of `[0, makespan]` a worker spent idle.
    pub fn idle_fraction(&self, worker: NodeId) -> f64 {
        let busy = self.worker_busy.get(&worker).copied().unwrap_or(0.0);
        let span = self.makespan.secs();
        if span <= 0.0 {
            0.0
        } else {
            (1.0 - busy / span).max(0.0)
        }
    }

    /// The timeline restricted to one worker.
    pub fn timeline_of(&self, worker: NodeId) -> Vec<&TimelineEntry> {
        self.timeline
            .iter()
            .filter(|e| e.worker == worker)
            .collect()
    }

    /// Finish time of the last computation unit (the paper's "comp finish
    /// time" in Fig. 2).
    pub fn comp_finish_time(&self) -> SimTime {
        self.comp_spans
            .values()
            .map(|&(_, end)| end)
            .fold(SimTime::ZERO, SimTime::max)
    }
}

/// A unit or worker inside the arena: the live DAG's slot and the item's
/// rank among that DAG's sorted ids (its local index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Loc {
    slot: u32,
    local: u32,
}

/// Units unblocked by the completion of one unit, as local indices: the
/// dependent computation units and communication ops whose counters it
/// decrements. Taken (not cloned) at completion — a unit completes once.
#[derive(Debug, Default)]
struct Dependents {
    comps: Vec<u32>,
    comms: Vec<u32>,
}

/// Runtime state of one computation unit.
#[derive(Debug)]
struct CompSlot {
    /// Unresolved dependency count; completions decrement it via the
    /// reverse edges — no rescans.
    pending: usize,
    /// Local index of its worker.
    worker: u32,
    duration: f64,
    dependents: Dependents,
}

/// Runtime state of one communication op.
#[derive(Debug)]
struct CommSlot {
    pending: usize,
    dependents: Dependents,
    stages: usize,
    released_stages: usize,
    outstanding: usize,
    started: Option<SimTime>,
    done: bool,
}

/// Runtime state of one worker of a live DAG.
#[derive(Debug)]
struct WorkerSlot {
    node: NodeId,
    /// The worker's program, as local computation indices.
    program: Vec<u32>,
    /// Position of the program head.
    ptr: usize,
    /// Start of the unit it is running; `None` while idle.
    running_since: Option<SimTime>,
}

/// An admitted, unretired job: its DAG plus dense per-unit state. Every
/// `Vec` is indexed by local index (rank among the DAG's sorted ids), so
/// no lookup is keyed by a global id, and everything is freed with the
/// slot when the job retires.
struct LiveDag<'a> {
    /// Borrowed from the caller on the closed-loop entry points; owned
    /// when admitted from a [`JobFeed`], and so dropped at retirement (the
    /// bounded-memory half of the open-loop contract).
    dag: Cow<'a, JobDag>,
    comp_ids: Vec<CompId>,
    comps: Vec<CompSlot>,
    comm_ids: Vec<CommId>,
    comms: Vec<CommSlot>,
    workers: Vec<WorkerSlot>,
    /// Unfinished units (comps + comms); the job retires at zero.
    units_left: usize,
}

impl<'a> LiveDag<'a> {
    /// Builds the dependency counters and reverse edges of one job.
    fn new(entry: Cow<'a, JobDag>) -> LiveDag<'a> {
        let dag = &*entry;
        let comp_ids: Vec<CompId> = dag.comps.keys().copied().collect();
        let comm_ids: Vec<CommId> = dag.comms.keys().copied().collect();
        let nodes = dag.workers();
        let comp_rank = |id: &CompId| rank(&comp_ids, id);
        let comm_rank = |id: &CommId| rank(&comm_ids, id);
        let mut comps: Vec<CompSlot> = dag
            .comps
            .values()
            .map(|unit| CompSlot {
                pending: unit.deps_comp.len() + unit.deps_comm.len(),
                worker: rank(&nodes, &unit.worker) as u32,
                duration: unit.duration,
                dependents: Dependents::default(),
            })
            .collect();
        let mut comms: Vec<CommSlot> = dag
            .comms
            .values()
            .map(|comm| CommSlot {
                pending: comm.deps_comp.len() + comm.deps_comm.len(),
                dependents: Dependents::default(),
                stages: comm.stages.len(),
                released_stages: 0,
                outstanding: 0,
                started: None,
                done: false,
            })
            .collect();
        for (i, unit) in dag.comps.values().enumerate() {
            for d in &unit.deps_comp {
                comps[comp_rank(d)].dependents.comps.push(i as u32);
            }
            for d in &unit.deps_comm {
                comms[comm_rank(d)].dependents.comps.push(i as u32);
            }
        }
        for (i, comm) in dag.comms.values().enumerate() {
            for d in &comm.deps_comp {
                comps[comp_rank(d)].dependents.comms.push(i as u32);
            }
            for d in &comm.deps_comm {
                comms[comm_rank(d)].dependents.comms.push(i as u32);
            }
        }
        let workers = dag
            .programs
            .iter()
            .map(|(&node, program)| WorkerSlot {
                node,
                program: program.iter().map(|c| comp_rank(c) as u32).collect(),
                ptr: 0,
                running_since: None,
            })
            .collect();
        let units_left = comps.len() + comms.len();
        LiveDag {
            dag: entry,
            comp_ids,
            comps,
            comm_ids,
            comms,
            workers,
            units_left,
        }
    }
}

/// The local index of `id`: its rank in the DAG's sorted `ids`. Ids of
/// dependencies and programs always belong to the same DAG.
fn rank<T: Ord>(ids: &[T], id: &T) -> usize {
    ids.binary_search(id).expect("id inside its DAG")
}

/// Live DAGs by slot. A retired job's slot is freed and reused by the
/// next admission, so the arena is sized by the concurrently admitted
/// jobs, not by the stream's history.
#[derive(Default)]
struct Arena<'a> {
    slots: Vec<Option<LiveDag<'a>>>,
    free: Vec<u32>,
}

impl<'a> Arena<'a> {
    fn insert(&mut self, dag: LiveDag<'a>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(dag);
                slot
            }
            None => {
                self.slots.push(Some(dag));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn remove(&mut self, slot: u32) -> LiveDag<'a> {
        let dag = self.slots[slot as usize].take().expect("live dag");
        self.free.push(slot);
        dag
    }

    fn get(&self, slot: u32) -> &LiveDag<'a> {
        self.slots[slot as usize].as_ref().expect("live dag")
    }

    fn get_mut(&mut self, slot: u32) -> &mut LiveDag<'a> {
        self.slots[slot as usize].as_mut().expect("live dag")
    }
}

/// The DAG-runtime [`WorkloadSource`]: computation programs, dependency
/// counters, staged communication ops, and per-job admission times.
///
/// Per-event cost is O(live state): running units sit in an end-time
/// heap, and per-unit state lives in dense per-DAG arrays ([`LiveDag`]).
/// Every queue the cascade drains is ordered by global id, which keeps
/// the simulation deterministic and independent of slot assignment.
struct JobSource<'a> {
    /// Live jobs. Closed-loop entry points admit every DAG at
    /// construction, so there a DAG's slot is its index in the input.
    dags: Arena<'a>,
    /// Incremental job supplier for open-loop runs; `None` on the legacy
    /// entry points (all DAGs admitted at construction).
    feed: Option<&'a mut dyn JobFeed>,
    /// Per-dag admission time ([`SimTime::ZERO`] when not arrival-driven).
    arrivals: Vec<SimTime>,
    /// Dag indices in ascending (arrival, index) order; `arrival_cursor`
    /// marks the next unactivated dag.
    arrival_order: Vec<usize>,
    arrival_cursor: usize,

    /// Slot and local index of each claimed worker, indexed by node id
    /// (bounded by the topology, not by history).
    worker_at: Vec<Option<Loc>>,
    /// The claimed workers as a set, kept in step with `worker_at` for
    /// the feed's admission test.
    claimed: BTreeSet<NodeId>,
    /// Owning communication op of every released, unfinished flow.
    in_flight: BTreeMap<FlowId, Loc>,
    /// Running computation units as a min-heap of `(end, id, loc)`. It is
    /// the only record of end times: a worker has `running_since` set
    /// iff its program head is in the heap.
    running: BinaryHeap<Reverse<(SimTime, CompId, Loc)>>,
    /// Reused buffer for the units completing at one instant.
    due: Vec<(CompId, Loc)>,
    /// Communication ops with a releasable stage (deps met or previous
    /// stage drained), released in ascending id order.
    ready_comms: BTreeSet<(CommId, Loc)>,
    /// Workers whose program head may have become startable.
    ready_workers: BTreeSet<NodeId>,
    /// Set when a job retires during the current release pass; the feed
    /// admission scan re-runs so a blocked job can enter at this instant.
    retired_in_pass: bool,
    comps_done: usize,
    comms_done: usize,
    total_comps: usize,
    total_comms: usize,
    /// Force [`RecomputeCadence::EveryEvent`], ignoring policy horizons.
    /// The every-event reference run for the horizon differential tests.
    force_every_event: bool,
    /// Per-worker compute slowdown multipliers from
    /// [`FaultKind::WorkerSlowdown`] faults (absent = 1.0). Applied to
    /// the duration of units started after the fault and to the remaining
    /// time of units running when it strikes.
    slow_factor: BTreeMap<NodeId, f64>,
    result: RunResult,
}

impl<'a> JobSource<'a> {
    fn empty() -> JobSource<'a> {
        JobSource {
            dags: Arena::default(),
            feed: None,
            arrivals: Vec::new(),
            arrival_order: Vec::new(),
            arrival_cursor: 0,
            worker_at: Vec::new(),
            claimed: BTreeSet::new(),
            in_flight: BTreeMap::new(),
            running: BinaryHeap::new(),
            due: Vec::new(),
            ready_comms: BTreeSet::new(),
            ready_workers: BTreeSet::new(),
            retired_in_pass: false,
            comps_done: 0,
            comms_done: 0,
            total_comps: 0,
            total_comms: 0,
            force_every_event: false,
            slow_factor: BTreeMap::new(),
            result: RunResult {
                comp_spans: BTreeMap::new(),
                comm_spans: BTreeMap::new(),
                flow_releases: BTreeMap::new(),
                flow_finishes: BTreeMap::new(),
                job_makespans: BTreeMap::new(),
                makespan: SimTime::ZERO,
                worker_busy: BTreeMap::new(),
                timeline: Vec::new(),
                trace: FlowTrace::new(),
                stats: DriveStats::default(),
            },
        }
    }

    fn new(dags: &'a [&'a JobDag], arrivals: Vec<SimTime>) -> JobSource<'a> {
        let mut source = JobSource::empty();
        source.arrival_order = {
            let mut order: Vec<usize> = (0..dags.len()).collect();
            order.sort_by(|&a, &b| arrivals[a].cmp(&arrivals[b]).then(a.cmp(&b)));
            order
        };
        source.arrivals = arrivals;
        for (i, &dag) in dags.iter().enumerate() {
            let slot = source.admit_entry(Cow::Borrowed(dag));
            debug_assert_eq!(slot as usize, i, "construction admits into fresh slots");
        }
        source
    }

    fn with_feed(feed: &'a mut (dyn JobFeed + 'a)) -> JobSource<'a> {
        let mut source = JobSource::empty();
        source.feed = Some(feed);
        source
    }

    /// The slot and local index of a claimed worker.
    fn worker_loc(&self, node: NodeId) -> Option<Loc> {
        self.worker_at.get(node.0 as usize).copied().flatten()
    }

    /// Indexes one job into the arena and claims its workers. Panics if a
    /// worker is already claimed by a live job — legacy entry points
    /// reach this from construction (disjointness validation), feed-driven
    /// runs only after the admission gate checked the claim set.
    fn admit_entry(&mut self, entry: Cow<'a, JobDag>) -> u32 {
        let live = LiveDag::new(entry);
        for w in &live.workers {
            if let Some(prev) = self.worker_loc(w.node) {
                let prev = self.dags.get(prev.slot).dag.job;
                panic!(
                    "worker {} claimed by both {prev} and {}",
                    w.node, live.dag.job
                );
            }
        }
        self.total_comps += live.comps.len();
        self.total_comms += live.comms.len();
        let slot = self.dags.insert(live);
        for (local, w) in self.dags.get(slot).workers.iter().enumerate() {
            let at = w.node.0 as usize;
            if at >= self.worker_at.len() {
                self.worker_at.resize(at + 1, None);
            }
            self.worker_at[at] = Some(Loc {
                slot,
                local: local as u32,
            });
            self.claimed.insert(w.node);
        }
        slot
    }

    /// Admits a feed-supplied job at `now`: index, activate, and — for a
    /// degenerate job with no units at all — retire on the spot.
    fn admit_dag(&mut self, dag: JobDag, now: SimTime) {
        let slot = self.admit_entry(Cow::Owned(dag));
        self.activate(slot);
        if self.dags.get(slot).units_left == 0 {
            self.retire_job(slot, now);
        }
    }

    /// Decrements a job's unfinished-unit count, retiring it at zero.
    fn note_unit_done(&mut self, slot: u32, now: SimTime) {
        let live = self.dags.get_mut(slot);
        live.units_left -= 1;
        if live.units_left == 0 {
            self.retire_job(slot, now);
        }
    }

    /// Retires a finished job: its arena slot (per-unit state and an
    /// owned DAG) is freed and its worker claims released, so later
    /// arrivals may reuse the hosts. Bounded memory for open-loop runs;
    /// for legacy runs this is pure cleanup with no observable effect.
    /// All its comms are done, so none is queued in `ready_comms`.
    fn retire_job(&mut self, slot: u32, now: SimTime) {
        let live = self.dags.remove(slot);
        let job = live.dag.job;
        for w in &live.workers {
            self.worker_at[w.node.0 as usize] = None;
            self.claimed.remove(&w.node);
            self.ready_workers.remove(&w.node);
        }
        // A unit-less job still completes: its makespan is its admission.
        self.result.job_makespans.entry(job).or_insert(now);
        drop(live);
        self.retired_in_pass = true;
        if let Some(feed) = self.feed.as_deref_mut() {
            feed.on_job_retired(now, job);
        }
    }

    /// One feed admission pass: let the feed admit every due, unblocked
    /// job against the current worker claims, and index each.
    fn admit_from_feed(&mut self, now: SimTime) {
        let Some(feed) = self.feed.as_deref_mut() else {
            return;
        };
        if !feed.wants_admission(now) {
            return;
        }
        let admitted = feed.admit(now, &self.claimed);
        for dag in admitted {
            self.admit_dag(dag, now);
        }
    }

    /// Admits the dag in `slot`: its workers and dependency-free
    /// communication ops enter the ready queues.
    fn activate(&mut self, slot: u32) {
        let live = self.dags.get(slot);
        for w in &live.workers {
            self.ready_workers.insert(w.node);
        }
        for (local, comm) in live.comms.iter().enumerate() {
            if comm.pending == 0 {
                let at = Loc {
                    slot,
                    local: local as u32,
                };
                self.ready_comms.insert((live.comm_ids[local], at));
            }
        }
    }

    /// A completed unit unblocks its dependents: counters decrement, and
    /// units that reach zero enter the ready queues.
    fn resolve(&mut self, slot: u32, deps: Dependents) {
        let live = self.dags.get_mut(slot);
        for c in deps.comps {
            let unit = &mut live.comps[c as usize];
            unit.pending -= 1;
            if unit.pending == 0 {
                // Startable once it is also at its program head; the
                // worker queue re-checks that.
                self.ready_workers
                    .insert(live.workers[unit.worker as usize].node);
            }
        }
        for m in deps.comms {
            let comm = &mut live.comms[m as usize];
            comm.pending -= 1;
            if comm.pending == 0 {
                let at = Loc { slot, local: m };
                self.ready_comms.insert((live.comm_ids[m as usize], at));
            }
        }
    }

    /// The current compute slowdown multiplier of a worker (1.0 unless a
    /// [`FaultKind::WorkerSlowdown`] changed it).
    fn slow_of(&self, w: NodeId) -> f64 {
        self.slow_factor.get(&w).copied().unwrap_or(1.0)
    }

    /// Records a finished computation unit's span and timeline bar.
    fn record_comp(&mut self, slot: u32, id: CompId, worker: NodeId, start: SimTime, now: SimTime) {
        let unit = &self.dags.get(slot).dag.comps[&id];
        self.result.comp_spans.insert(id, (start, now));
        self.result.timeline.push(TimelineEntry {
            worker,
            comp: id,
            label: Arc::clone(&unit.label),
            kind: unit.kind,
            start,
            end: now,
        });
        self.comps_done += 1;
    }

    /// Completes a running computation unit at `now`.
    fn finish_comp(&mut self, id: CompId, at: Loc, now: SimTime) {
        let live = self.dags.get_mut(at.slot);
        let comp = &mut live.comps[at.local as usize];
        let deps = std::mem::take(&mut comp.dependents);
        let w = &mut live.workers[comp.worker as usize];
        let start = w.running_since.take().expect("running comp");
        w.ptr += 1;
        let worker = w.node;
        let job = live.dag.job;
        self.record_comp(at.slot, id, worker, start, now);
        // Wall time actually occupied (equals the nominal duration unless
        // a WorkerSlowdown fault stretched the unit mid-flight).
        *self.result.worker_busy.entry(worker).or_insert(0.0) += (now - start).max(0.0);
        let e = self
            .result
            .job_makespans
            .entry(job)
            .or_insert(SimTime::ZERO);
        *e = (*e).max(now);
        self.ready_workers.insert(worker);
        self.resolve(at.slot, deps);
        self.note_unit_done(at.slot, now);
    }

    /// Marks a communication op complete (last flow of its last stage).
    fn finish_comm(&mut self, at: Loc, now: SimTime) {
        let live = self.dags.get_mut(at.slot);
        let st = &mut live.comms[at.local as usize];
        st.done = true;
        let started = st.started.expect("started comm");
        let deps = std::mem::take(&mut st.dependents);
        self.result
            .comm_spans
            .insert(live.comm_ids[at.local as usize], (started, now));
        self.comms_done += 1;
        self.resolve(at.slot, deps);
        self.note_unit_done(at.slot, now);
    }

    /// Releases the next stage of a ready communication op.
    fn release_stage(&mut self, cid: CommId, at: Loc, now: SimTime, net: &mut FluidNetwork) {
        let live = self.dags.get_mut(at.slot);
        let st = &mut live.comms[at.local as usize];
        debug_assert!(
            !st.done && st.outstanding == 0 && st.released_stages < st.stages,
            "{cid} not in a releasable state"
        );
        if st.started.is_none() {
            st.started = Some(now);
        }
        let stage = &live.dag.comms[&cid].stages[st.released_stages];
        st.released_stages += 1;
        st.outstanding = stage.flows.len();
        for f in &stage.flows {
            net.release(&FlowDemand::new(f.id, f.src, f.dst, f.size, now));
            self.in_flight.insert(f.id, at);
            self.result.flow_releases.insert(f.id, now);
            self.result
                .trace
                .record(now, f.id, TraceEventKind::Released);
        }
    }

    /// Starts the program head of `worker` if it is unblocked, completing
    /// zero-duration units (barriers) inline and continuing down the
    /// program.
    fn advance_program(&mut self, worker: NodeId, now: SimTime) {
        let slow = self.slow_of(worker);
        // Re-resolved every iteration: a zero-duration unit completed
        // inline can retire the whole job, dropping the worker's claim
        // mid-loop.
        loop {
            let Some(wat) = self.worker_loc(worker) else {
                return;
            };
            let live = self.dags.get_mut(wat.slot);
            let w = &mut live.workers[wat.local as usize];
            if w.running_since.is_some() {
                return;
            }
            let Some(&head) = w.program.get(w.ptr) else {
                return;
            };
            let comp = &mut live.comps[head as usize];
            if comp.pending > 0 {
                return;
            }
            let id = live.comp_ids[head as usize];
            if comp.duration <= EPS {
                // Instantaneous unit (barrier): complete now. Bookkeeping
                // mirrors the non-zero path except worker-busy seconds and
                // job makespans, which a zero-length span cannot move.
                let deps = std::mem::take(&mut comp.dependents);
                w.ptr += 1;
                self.record_comp(wat.slot, id, worker, now, now);
                self.resolve(wat.slot, deps);
                self.note_unit_done(wat.slot, now);
                continue;
            }
            w.running_since = Some(now);
            let at = Loc {
                slot: wat.slot,
                local: head,
            };
            self.running
                .push(Reverse((now + comp.duration * slow, id, at)));
            return;
        }
    }
}

impl WorkloadSource for JobSource<'_> {
    fn release_due(&mut self, now: SimTime, net: &mut FluidNetwork, _trace: &mut FlowTrace) {
        // Admit jobs whose arrival time has come.
        while self.arrival_cursor < self.arrival_order.len() {
            let idx = self.arrival_order[self.arrival_cursor];
            if !self.arrivals[idx].at_or_before(now) {
                break;
            }
            self.arrival_cursor += 1;
            self.activate(idx as u32);
        }
        // Complete computation units whose end time has arrived, in
        // ascending id order. `at_or_before` is monotone in the end time,
        // so the due units are exactly a prefix of the heap.
        let mut due = std::mem::take(&mut self.due);
        while let Some(&Reverse((end, id, at))) = self.running.peek() {
            if !end.at_or_before(now) {
                break;
            }
            self.running.pop();
            due.push((id, at));
        }
        due.sort_unstable();
        for &(id, at) in &due {
            self.finish_comp(id, at, now);
        }
        due.clear();
        self.due = due;
        // Feed admission, then cascade newly ready stages and program
        // heads to a fixpoint. Comms drain first (releasing flows as
        // early as possible within the instant); zero-duration
        // computations completed inline by `advance_program` can ready
        // further comms, so alternate until both queues are empty. Id
        // order keeps this deterministic. A retirement inside the cascade
        // frees worker claims, so the admission pass re-runs until no
        // further job retires at this instant.
        loop {
            self.admit_from_feed(now);
            self.retired_in_pass = false;
            loop {
                if let Some((cid, at)) = self.ready_comms.pop_first() {
                    self.release_stage(cid, at, now, net);
                    continue;
                }
                if let Some(w) = self.ready_workers.pop_first() {
                    self.advance_program(w, now);
                    continue;
                }
                break;
            }
            if self.feed.is_none() || !self.retired_in_pass {
                break;
            }
        }
    }

    fn finished(&self) -> bool {
        let feed_dry = match &self.feed {
            Some(feed) => feed.exhausted(),
            None => true,
        };
        feed_dry && self.comps_done == self.total_comps && self.comms_done == self.total_comms
    }

    fn next_event_in(&self, now: SimTime) -> Option<f64> {
        let dt_comp = self
            .running
            .peek()
            .map(|Reverse((end, _, _))| (*end - now).max(0.0));
        let dt_arrival = self
            .arrival_order
            .get(self.arrival_cursor)
            .map(|&idx| (self.arrivals[idx] - now).max(0.0));
        let dt_feed = self
            .feed
            .as_ref()
            .and_then(|feed| feed.next_event_at())
            .map(|t| (t - now).max(0.0));
        [dt_comp, dt_arrival, dt_feed]
            .into_iter()
            .flatten()
            .reduce(f64::min)
    }

    fn on_flow_completions(
        &mut self,
        now: SimTime,
        done: &[FlowCompletion],
        _net: &mut FluidNetwork,
        _trace: &mut FlowTrace,
    ) {
        for c in done {
            self.result.flow_finishes.insert(c.id, now);
            self.result
                .trace
                .record(now, c.id, TraceEventKind::Finished);
            let at = self.in_flight.remove(&c.id).expect("flow released here");
            let live = self.dags.get_mut(at.slot);
            let e = self
                .result
                .job_makespans
                .entry(live.dag.job)
                .or_insert(SimTime::ZERO);
            *e = (*e).max(now);
            let st = &mut live.comms[at.local as usize];
            st.outstanding -= 1;
            if st.outstanding == 0 {
                if st.released_stages == st.stages {
                    self.finish_comm(at, now);
                } else {
                    // Next stage releases at this same instant, in the
                    // cascade at the top of the next driver iteration.
                    let cid = live.comm_ids[at.local as usize];
                    self.ready_comms.insert((cid, at));
                }
            }
        }
    }

    /// Unlike the pure-flow runner, rates may need recomputing at events
    /// that leave the flow set unchanged (computation completions pass
    /// time, and tardiness-driven orderings shift as time passes). The
    /// policy knows best: under [`RecomputeCadence::PolicyHorizon`] the
    /// driver asks [`RatePolicy::horizon`] after each recomputation and
    /// skips allocation until the horizon passes or the flow set changes.
    /// Policies that cannot certify a horizon (the MADD engines, whose
    /// remaining-proportional rates are not a floating-point fixed point)
    /// keep the default [`AllocHorizon::NextEvent`][horizon] and behave
    /// exactly as before.
    ///
    /// [horizon]: echelon_simnet::runner::AllocHorizon::NextEvent
    fn cadence(&self) -> RecomputeCadence {
        if self.force_every_event {
            RecomputeCadence::EveryEvent
        } else {
            RecomputeCadence::PolicyHorizon
        }
    }

    /// The source records releases/rates/finishes into its own
    /// [`RunResult`] trace (the driver's copy would duplicate it).
    fn wants_trace(&self) -> bool {
        false
    }

    fn allocate(
        &mut self,
        policy: &mut dyn RatePolicy,
        mode: RecomputeMode,
        now: SimTime,
        flows: &[echelon_simnet::flow::ActiveFlowView],
        delta: &echelon_simnet::fluid::FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) -> RateApply {
        match mode {
            RecomputeMode::Full => policy.allocate_dense(now, flows, topo, ws, out),
            RecomputeMode::Incremental => {
                policy.allocate_dense_incremental(now, flows, delta, topo, ws, out);
            }
        }
        // Record the applied rates here (rather than via the driver's
        // trace) so the trace lands in the same [`RunResult`] as the rest
        // of the bookkeeping. Horizon-skipped events record nothing; the
        // every-event reference records bit-identical rates there, which
        // `record_rate`'s dedup drops — so the traces stay identical.
        for (v, &rate) in flows.iter().zip(out.iter()) {
            self.result.trace.record_rate(now, v.id, rate.max(0.0));
        }
        // The rate trace above reads every entry of `out`, so this
        // source always requests the fully populated dense contract.
        RateApply::Dense
    }

    /// Straggler injection: a [`FaultKind::WorkerSlowdown`] rescales the
    /// remaining time of the unit running on that worker and the duration
    /// of every unit it starts afterwards. Factors replace (not compose
    /// with) the previous one, mirroring capacity factors scaling from
    /// base capacity.
    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        let FaultKind::WorkerSlowdown { worker, factor } = fault else {
            return;
        };
        let old = self.slow_of(*worker);
        self.slow_factor.insert(*worker, *factor);
        // A rescaled end time can move past other units' ends, so the
        // heap is rebuilt rather than patched.
        let mut running = std::mem::take(&mut self.running).into_vec();
        for Reverse((end, _, at)) in &mut running {
            let live = self.dags.get(at.slot);
            let unit_worker = live.workers[live.comps[at.local as usize].worker as usize].node;
            if unit_worker == *worker {
                let left = (*end - now).max(0.0);
                *end = now + left * (factor / old);
            }
        }
        self.running = BinaryHeap::from(running);
    }

    fn deadlock_context(&self) -> String {
        let mut pending: Vec<(CommId, usize)> = self
            .dags
            .slots
            .iter()
            .flatten()
            .flat_map(|live| live.comm_ids.iter().zip(&live.comms))
            .filter(|(_, st)| !st.done)
            .map(|(&id, st)| (id, st.released_stages))
            .collect();
        pending.sort_unstable();
        let pending: Vec<String> = pending
            .iter()
            .map(|(id, stage)| format!("{id}@stage{stage}"))
            .collect();
        let feed_note = match &self.feed {
            Some(feed) => format!(
                "; feed backlog: {} (exhausted: {})",
                feed.backlog(),
                feed.exhausted()
            ),
            None => String::new(),
        };
        format!(
            "{}/{} comps, {}/{} comms done; pending comms: {pending:?}{feed_note}",
            self.comps_done, self.total_comps, self.comms_done, self.total_comms
        )
    }
}

/// Runs a single job to completion (convenience wrapper).
pub fn run_job(topo: &Topology, dag: &JobDag, policy: &mut dyn RatePolicy) -> RunResult {
    run_jobs(topo, &[dag], policy)
}

/// Like [`run_job`], but selecting the policy recompute mode.
pub fn run_job_with(
    topo: &Topology,
    dag: &JobDag,
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    run_jobs_with(topo, &[dag], policy, mode)
}

/// Runs several jobs sharing the network to completion, using the
/// full-recompute path. Shorthand for [`run_jobs_with`] with
/// [`RecomputeMode::Full`].
pub fn run_jobs(topo: &Topology, dags: &[&JobDag], policy: &mut dyn RatePolicy) -> RunResult {
    run_jobs_with(topo, dags, policy, RecomputeMode::Full)
}

/// Runs several jobs sharing the network to completion.
///
/// `mode` selects which [`RatePolicy`] entry point is driven at each
/// event; `Full` and `Incremental` must produce bit-identical results
/// (see `tests/differential.rs` at the workspace root).
///
/// # Panics
///
/// Panics if two jobs claim the same worker, or if the simulation
/// deadlocks (a dependency cycle or a policy that starves all flows).
pub fn run_jobs_with(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    run_jobs_impl(topo, dags, vec![SimTime::ZERO; dags.len()], policy, mode)
}

/// Runs several jobs with per-job admission times: job `i` is invisible to
/// the simulation until `arrivals[i]` — its workers sit idle and its
/// communication ops cannot release, exactly like a job that has not been
/// submitted yet. This is the cluster-arrival workload shape, without the
/// synthetic gate computation units `delay_start` would splice in.
///
/// # Panics
///
/// Panics if `arrivals.len() != dags.len()`, or for the same reasons as
/// [`run_jobs_with`].
pub fn run_jobs_arriving(
    topo: &Topology,
    dags: &[&JobDag],
    arrivals: &[SimTime],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    assert_eq!(
        arrivals.len(),
        dags.len(),
        "one arrival time per job dag required"
    );
    run_jobs_impl(topo, dags, arrivals.to_vec(), policy, mode)
}

/// Like [`run_jobs_with`], but forcing a rate recomputation at every
/// event, ignoring any [`horizon`](RatePolicy::horizon) the policy
/// reports. This is the reference run for the horizon differential
/// tests: its trace must be bit-identical to the horizon-skipping run of
/// [`run_jobs_with`].
pub fn run_jobs_every_event(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    let mut source = JobSource::new(dags, vec![SimTime::ZERO; dags.len()]);
    source.force_every_event = true;
    finish_run(drive(topo, &mut source, policy, mode), source)
}

/// [`run_jobs_with`] under an injected [`FaultPlan`]: link churn,
/// coordinator outages, and worker slowdowns strike at their scheduled
/// times while the jobs run (see [`echelon_simnet::fault`]).
///
/// # Panics
///
/// Panics for the same reasons as [`run_jobs_with`], plus the deadlock
/// panic if the plan downs a link forever while unfinished flows depend
/// on it.
pub fn run_jobs_faulted(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    plan: &FaultPlan,
) -> RunResult {
    let mut source = JobSource::new(dags, vec![SimTime::ZERO; dags.len()]);
    finish_run(drive_faulted(topo, &mut source, policy, mode, plan), source)
}

/// [`run_jobs_faulted`] forcing a rate recomputation at every event — the
/// naive full-recompute reference for the fault differential suite.
pub fn run_jobs_faulted_every_event(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    plan: &FaultPlan,
) -> RunResult {
    let mut source = JobSource::new(dags, vec![SimTime::ZERO; dags.len()]);
    source.force_every_event = true;
    finish_run(drive_faulted(topo, &mut source, policy, mode, plan), source)
}

/// Runs an open-loop service: jobs are admitted incrementally from
/// `feed` (see [`JobFeed`]) instead of being pre-materialized, each job's
/// bookkeeping and DAG are dropped when it retires, and its worker claims
/// are freed so later arrivals can reuse the hosts. `plan` injects faults
/// while the stream runs (pass [`FaultPlan::empty`] for a fault-free
/// drive).
///
/// A feed replayed as a pre-materialized batch through the same admission
/// gate produces a bit-identical simulation: admission, release and
/// completion events depend only on the gate decisions, which both modes
/// share.
///
/// # Panics
///
/// Panics if the feed admits a job whose worker is still claimed, or if
/// the simulation deadlocks (e.g. the feed holds a job whose hosts are
/// never freed).
pub fn run_jobs_streamed<'a>(
    topo: &Topology,
    feed: &'a mut (dyn JobFeed + 'a),
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    plan: &FaultPlan,
) -> RunResult {
    let mut source = JobSource::with_feed(feed);
    finish_run(drive_faulted(topo, &mut source, policy, mode, plan), source)
}

fn run_jobs_impl(
    topo: &Topology,
    dags: &[&JobDag],
    arrivals: Vec<SimTime>,
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> RunResult {
    let mut source = JobSource::new(dags, arrivals);
    finish_run(drive(topo, &mut source, policy, mode), source)
}

fn finish_run(outcome: echelon_simnet::driver::DriveOutcome, source: JobSource<'_>) -> RunResult {
    let mut result = source.result;
    result.makespan = outcome.end;
    result.stats = outcome.stats;
    result
        .timeline
        .sort_by(|a, b| a.start.cmp(&b.start).then(a.comp.cmp(&b.comp)));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{CompKind, DagBuilder};
    use crate::ids::IdAlloc;
    use echelon_collectives::{CollectiveOp, Style};
    use echelon_core::arrangement::ArrangementFn;
    use echelon_simnet::runner::MaxMinPolicy;

    /// comp(1s) → 2B flow → comp(1s) on a unit link: makespan 4.
    fn relay_dag(alloc: &mut IdAlloc) -> JobDag {
        let mut b = DagBuilder::new(JobId(0), alloc);
        let f1 = b.comp(NodeId(0), 1.0, CompKind::Forward, "F1", &[], &[]);
        let send = b.comm_op(
            &CollectiveOp::P2p {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 2.0,
            },
            Style::Direct,
            &[f1],
            &[],
        );
        b.comp(NodeId(1), 1.0, CompKind::Forward, "F1'", &[], &[send]);
        let flows = b.comms()[&send].flows().copied().collect::<Vec<_>>();
        b.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        b.declare_coflow(flows);
        b.build()
    }

    #[test]
    fn relay_timing() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let out = run_job(&topo, &dag, &mut MaxMinPolicy);
        // F1: [0,1]; flow: [1,3]; F1': [3,4].
        assert!(out.makespan.approx_eq(SimTime::new(4.0)));
        assert!(out.comp_finish_time().approx_eq(SimTime::new(4.0)));
        let flow_id = dag.all_flows()[0].id;
        assert!(out.flow_releases[&flow_id].approx_eq(SimTime::new(1.0)));
        assert!(out.flow_finishes[&flow_id].approx_eq(SimTime::new(3.0)));
        // Worker 1 idles 3 of 4 seconds.
        assert!((out.idle_fraction(NodeId(1)) - 0.75).abs() < 1e-9);
        assert!((out.idle_fraction(NodeId(0)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn timeline_is_chronological() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let out = run_job(&topo, &dag, &mut MaxMinPolicy);
        assert_eq!(out.timeline.len(), 2);
        assert!(out.timeline[0].start.at_or_before(out.timeline[1].start));
        assert_eq!(out.timeline_of(NodeId(0)).len(), 1);
    }

    #[test]
    fn ring_allreduce_runs_through_stages() {
        // 3 workers, gradient bucket of 3 bytes: ring all-reduce has 4
        // stages of 3 chunk flows (1 byte each).
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        let workers = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut deps = Vec::new();
        for &w in &workers {
            deps.push(b.comp(w, 1.0, CompKind::Backward, "B", &[], &[]));
        }
        let ar = b.comm_op(
            &CollectiveOp::AllReduce {
                participants: workers.clone(),
                bytes: 3.0,
            },
            Style::Ring,
            &deps,
            &[],
        );
        for &w in &workers {
            b.comp(w, 0.5, CompKind::Update, "U", &[], &[ar]);
        }
        let flows = b.comms()[&ar].flows().copied().collect::<Vec<_>>();
        b.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        b.declare_coflow(flows);
        let dag = b.build();

        let topo = Topology::big_switch_uniform(3, 1.0);
        let out = run_job(&topo, &dag, &mut MaxMinPolicy);
        // Backward [0,1]; 4 ring stages of 1-byte chunks, each at full
        // port rate (disjoint src/dst pairs): 1s per stage → comm [1,5];
        // update [5,5.5].
        assert!(
            out.makespan.approx_eq(SimTime::new(5.5)),
            "{:?}",
            out.makespan
        );
        let (start, end) = out.comm_spans[&ar];
        assert!(start.approx_eq(SimTime::new(1.0)));
        assert!(end.approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn zero_duration_barrier_completes_instantly() {
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        let a = b.comp(NodeId(0), 1.0, CompKind::Forward, "F", &[], &[]);
        let bar = b.comp(NodeId(0), 0.0, CompKind::Update, "barrier", &[a], &[]);
        b.comp(NodeId(0), 1.0, CompKind::Backward, "B", &[bar], &[]);
        let dag = b.build();
        let topo = Topology::big_switch_uniform(1, 1.0);
        let out = run_job(&topo, &dag, &mut MaxMinPolicy);
        assert!(out.makespan.approx_eq(SimTime::new(2.0)));
        assert_eq!(out.timeline.len(), 3);
    }

    #[test]
    fn two_jobs_share_network() {
        let mut alloc = IdAlloc::new();
        let dag0 = relay_dag(&mut alloc);
        // Second job on workers 2,3 but its flow shares no port: runs
        // identically in parallel.
        let mut b = DagBuilder::new(JobId(1), &mut alloc);
        let f1 = b.comp(NodeId(2), 1.0, CompKind::Forward, "F1", &[], &[]);
        let send = b.comm_op(
            &CollectiveOp::P2p {
                src: NodeId(2),
                dst: NodeId(3),
                bytes: 2.0,
            },
            Style::Direct,
            &[f1],
            &[],
        );
        b.comp(NodeId(3), 1.0, CompKind::Forward, "F1'", &[], &[send]);
        let flows = b.comms()[&send].flows().copied().collect::<Vec<_>>();
        b.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        b.declare_coflow(flows);
        let dag1 = b.build();

        let topo = Topology::big_switch_uniform(4, 1.0);
        let out = run_jobs(&topo, &[&dag0, &dag1], &mut MaxMinPolicy);
        assert!(out.job_makespans[&JobId(0)].approx_eq(SimTime::new(4.0)));
        assert!(out.job_makespans[&JobId(1)].approx_eq(SimTime::new(4.0)));
    }

    #[test]
    fn arriving_job_starts_no_earlier_than_its_admission() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let out = run_jobs_arriving(
            &topo,
            &[&dag],
            &[SimTime::new(2.5)],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
        );
        // The whole schedule shifts by the admission time: F1 [2.5,3.5];
        // flow [3.5,5.5]; F1' [5.5,6.5].
        assert!(
            out.makespan.approx_eq(SimTime::new(6.5)),
            "{:?}",
            out.makespan
        );
        let flow_id = dag.all_flows()[0].id;
        assert!(out.flow_releases[&flow_id].approx_eq(SimTime::new(3.5)));
        for (start, _) in out.comp_spans.values() {
            assert!(
                SimTime::new(2.5).at_or_before(*start),
                "comp started at {start:?} before admission"
            );
        }
    }

    #[test]
    fn zero_arrivals_match_plain_run() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let plain = run_job(&topo, &dag, &mut MaxMinPolicy);
        let arriving = run_jobs_arriving(
            &topo,
            &[&dag],
            &[SimTime::ZERO],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
        );
        assert_eq!(plain.trace.events(), arriving.trace.events());
        assert_eq!(plain.makespan, arriving.makespan);
    }

    #[test]
    #[should_panic(expected = "claimed by both")]
    fn overlapping_workers_rejected() {
        let mut alloc = IdAlloc::new();
        let dag0 = relay_dag(&mut alloc);
        let dag1 = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let _ = run_jobs(&topo, &[&dag0, &dag1], &mut MaxMinPolicy);
    }

    #[test]
    fn worker_slowdown_stretches_running_and_future_comps() {
        // relay_dag: comp(1s)@w0 → 2B flow → comp(1s)@w1, makespan 4.
        // Slowing w0 by 2× at t=0.5 stretches the running unit's second
        // half to 1s (F1 ends at 1.5); the flow and w1 are untouched:
        // makespan 1.5 + 2 + 1 = 4.5.
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let plan = FaultPlan::empty().with(
            SimTime::new(0.5),
            FaultKind::WorkerSlowdown {
                worker: NodeId(0),
                factor: 2.0,
            },
        );
        let out = run_jobs_faulted(
            &topo,
            &[&dag],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
            &plan,
        );
        assert!(out.makespan.approx_eq(SimTime::new(4.5)));
        // Busy accounting reflects the stretched wall time.
        assert!((out.worker_busy[&NodeId(0)] - 1.5).abs() < 1e-9);
        assert!((out.worker_busy[&NodeId(1)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn worker_slowdown_reorders_running_units() {
        // w0 runs A [0,1] then A2 (0.25 s); w1 runs B [0,1.5] then B2
        // (0.25 s). Slowing w0 by 4× at t=0.5 pushes A's end from 1.0 to
        // 0.5 + 0.5 * 4 = 2.5, past B's 1.5, and stretches A2 to 1 s: the
        // end-time order of the running units flips.
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        let a = b.comp(NodeId(0), 1.0, CompKind::Forward, "A", &[], &[]);
        let b1 = b.comp(NodeId(1), 1.5, CompKind::Forward, "B", &[], &[]);
        let a2 = b.comp(NodeId(0), 0.25, CompKind::Backward, "A2", &[a], &[]);
        let b2 = b.comp(NodeId(1), 0.25, CompKind::Backward, "B2", &[b1], &[]);
        let dag = b.build();
        let topo = Topology::big_switch_uniform(2, 1.0);
        let plan = FaultPlan::empty().with(
            SimTime::new(0.5),
            FaultKind::WorkerSlowdown {
                worker: NodeId(0),
                factor: 4.0,
            },
        );
        let out = run_jobs_faulted(
            &topo,
            &[&dag],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
            &plan,
        );
        let span = |id| out.comp_spans[&id];
        assert_eq!(span(a), (SimTime::ZERO, SimTime::new(2.5)));
        assert_eq!(span(b1), (SimTime::ZERO, SimTime::new(1.5)));
        assert_eq!(span(b2), (SimTime::new(1.5), SimTime::new(1.75)));
        assert_eq!(span(a2), (SimTime::new(2.5), SimTime::new(3.5)));
        let order: Vec<CompId> = out.timeline.iter().map(|e| e.comp).collect();
        assert_eq!(order, vec![a, b1, b2, a2]);
        assert_eq!(out.makespan, SimTime::new(3.5));
    }

    #[test]
    fn link_churn_delays_relay_and_reports_stall() {
        // The relay's only flow crosses the 0→1 link; downing it for a
        // second mid-transfer shifts the makespan by exactly that second.
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let r = echelon_simnet::ids::ResourceId(0);
        let plan = FaultPlan::empty()
            .with(SimTime::new(1.5), FaultKind::LinkDown(r))
            .with(SimTime::new(2.5), FaultKind::LinkRestore(r));
        let out = run_jobs_faulted(
            &topo,
            &[&dag],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
            &plan,
        );
        assert!(out.makespan.approx_eq(SimTime::new(5.0)));
        assert!((out.stats.stall_flow_seconds - 1.0).abs() < 1e-9);
        assert_eq!(out.stats.fault_events, 2);
    }

    #[test]
    fn grouping_policy_construction() {
        let mut alloc = IdAlloc::new();
        let dag = relay_dag(&mut alloc);
        let topo = Topology::chain(2, 1.0);
        let mut p1 = make_policy(Grouping::Echelon, &[&dag]);
        let out1 = run_job(&topo, &dag, p1.as_mut());
        let mut p2 = make_policy(Grouping::Coflow, &[&dag]);
        let out2 = run_job(&topo, &dag, p2.as_mut());
        // A single flow behaves identically under both.
        assert!(out1.makespan.approx_eq(out2.makespan));
    }
}
