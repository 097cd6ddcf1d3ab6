//! End-to-end and per-layer benchmark of the EchelonFlow pipeline:
//! stream → admission/placement → DAG runtime → agent/coordinator →
//! echelon MADD → fluid network.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <service-burst|coord-closed|fabric-flows> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times plain runs and reports the end-to-end metrics;
//! `--trace 1` runs with the layer-timing wrappers on and reports the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object, and the exit code is non-zero if a correctness or
//! stability check failed. See `README.md` beside this file for the
//! workloads, the metrics and what each layer metric should move.

mod adapter;
mod calib;
mod probe;
mod stats;

use adapter::{Inputs, Mode, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop streamed service with bursty arrivals on a k=4 fat-tree.
    ServiceBurst,
    /// Closed-loop agent → coordinator path on a big switch.
    CoordClosed,
    /// Pod-local flows on a k=16 fat-tree under the pod max-min engine.
    FabricFlows,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServiceBurst,
        Workload::CoordClosed,
        Workload::FabricFlows,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServiceBurst => "service-burst",
            Workload::CoordClosed => "coord-closed",
            Workload::FabricFlows => "fabric-flows",
        }
    }

    /// Length of the full stream: jobs, or flows for `fabric-flows`.
    /// The scaling exponent compares it with a quarter-length stream.
    fn full_units(self) -> usize {
        match self {
            Workload::ServiceBurst => 4096,
            Workload::CoordClosed => 1024,
            Workload::FabricFlows => 12_800,
        }
    }

    fn unit_name(self) -> &'static str {
        match self {
            Workload::FabricFlows => "flows",
            _ => "jobs",
        }
    }

    /// Prefix of the per-layer metrics the wrapped policy's clock fills.
    fn policy_layer(self) -> &'static str {
        match self {
            Workload::ServiceBurst => "sched",
            Workload::CoordClosed => "coordinator",
            Workload::FabricFlows => "alloc",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad("workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Seed used when none is given; see `README.md` for the held-out seed.
const DEFAULT_SEED: u64 = 1;
/// Fewest timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Set-up runs in rounds, each calibrated by its own reference-kernel
/// run: a round repeats the set-up for this long (at least once), and
/// the median of the rounds' medians is reported.
const SETUP_ROUNDS: usize = 6;
const SETUP_ROUND: Duration = Duration::from_millis(250);
const MAX_SETUPS_PER_ROUND: usize = 20_000;
/// Stability self-check on `service-burst`: quarter- and full-length
/// mean backlog, and the first and second halves' mean queueing delay,
/// must agree within this share of the larger value.
const STABILITY_TOLERANCE: f64 = 0.25;

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count behind a percentile, printed beside it.
    samples: Option<usize>,
}

/// A run's metrics plus every check that failed.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    fn put_percentile(&mut self, name: &str, sorted: &[f64], p: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: stats::percentile(sorted, p),
            unit: "s",
            samples: Some(sorted.len()),
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Fails the run for every metric that is not finite or, when
    /// `positive`, not above 0.
    fn check_values(&mut self, kind: &str, positive: bool) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite() || (positive && m.value <= 0.0))
            .map(|m| format!("{kind} metric {} reads {}", m.name, m.value))
            .collect();
        self.failures.extend(bad);
    }

    /// The human-readable lines, then the one-line JSON result.
    fn print(&self) {
        for m in &self.metrics {
            match m.samples {
                Some(n) => println!("{:<40} {:>16} {:<6} (n={n})", m.name, fmt(m.value), m.unit),
                None => println!("{:<40} {:>16} {}", m.name, fmt(m.value), m.unit),
            }
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt(m.value),
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// JSON-safe number: every digit of a finite value, 0 otherwise (a
/// non-finite value also fails the run through [`Report::check`]).
fn fmt(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A workload's inputs at full and quarter length, with set-up timings.
struct Prepared {
    full: Inputs,
    quarter: Inputs,
    /// Median calibrated seconds to build both lengths' inputs.
    setup_s: f64,
    /// Median calibrated seconds to build the full-length inputs alone.
    gen_s: f64,
}

fn prepare(workload: Workload, seed: u64, threads: usize) -> Prepared {
    let full_units = workload.full_units();
    let (mut setup, mut gen) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        let reference = calib::reference_s();
        let (mut round_setup, mut round_gen) = (Vec::new(), Vec::new());
        let begin = Instant::now();
        while round_setup.is_empty()
            || (begin.elapsed() < SETUP_ROUND && round_setup.len() < MAX_SETUPS_PER_ROUND)
        {
            // Drop the previous repetition before the clock starts.
            drop(last.take());
            let t0 = Instant::now();
            let full = adapter::generate(workload, seed, full_units, threads);
            let t1 = Instant::now();
            let quarter = adapter::generate(workload, seed, full_units / 4, threads);
            round_setup.push(t0.elapsed().as_secs_f64());
            round_gen.push((t1 - t0).as_secs_f64());
            last = Some((full, quarter));
        }
        setup.push(calib::calibrated(stats::median(&round_setup), reference));
        gen.push(calib::calibrated(stats::median(&round_gen), reference));
    }
    let (full, quarter) = last.expect("at least one set-up ran");
    Prepared {
        full,
        quarter,
        setup_s: stats::median(&setup),
        gen_s: stats::median(&gen),
    }
}

/// Checks every run must pass: all released flows finish, every offered
/// job or flow is completed or counted as rejected, and no figure is
/// non-finite.
fn check_outcome(report: &mut Report, label: &str, o: &Outcome) {
    report.check(o.flows_released == o.flows_finished, || {
        format!(
            "{label}: {} flows released but {} finished",
            o.flows_released, o.flows_finished
        )
    });
    report.check(o.completed + o.rejected == o.offered, || {
        format!(
            "{label}: {} offered, {} completed, {} rejected",
            o.offered, o.completed, o.rejected
        )
    });
    report.check(o.completed > 0, || format!("{label}: nothing completed"));
}

/// Every pass of one input must reproduce the first pass's digest.
fn check_digests(report: &mut Report, label: &str, digests: &[u64]) {
    report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("{label}: passes of one seed gave different completion digests {digests:x?}")
    });
}

/// Time-weighted mean backlog of a service run: the queue's area is the
/// summed wait, spread over the offered horizon (first arrival to last
/// arrival plus one mean gap between arrival instants).
fn backlog_mean(queue: &[(f64, f64)]) -> f64 {
    let mut instants: Vec<f64> = queue.iter().map(|q| q.0).collect();
    instants.sort_by(f64::total_cmp);
    instants.dedup();
    let (Some(first), Some(last)) = (instants.first(), instants.last()) else {
        return 0.0;
    };
    let gaps = (instants.len() - 1).max(1) as f64;
    let horizon = (last - first) * (1.0 + 1.0 / gaps);
    let area: f64 = queue.iter().map(|(a, s)| s - a).sum();
    if horizon > 0.0 {
        area / horizon
    } else {
        0.0
    }
}

/// Mean queueing delay of the first and second halves of a service
/// run's jobs, in arrival order.
fn wait_halves(queue: &[(f64, f64)]) -> (f64, f64) {
    let mut q = queue.to_vec();
    q.sort_by(|a, b| a.0.total_cmp(&b.0));
    let waits: Vec<f64> = q.iter().map(|(a, s)| s - a).collect();
    let (first, second) = waits.split_at(waits.len() / 2);
    (stats::mean(first), stats::mean(second))
}

fn agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= STABILITY_TOLERANCE * a.abs().max(b.abs())
}

/// `service-burst`'s stability self-check: fails loudly when the backlog
/// grows with stream length or queueing delay drifts over the stream.
fn check_stability(report: &mut Report, quarter: &Outcome, full: &Outcome) {
    let (bq, bf) = (backlog_mean(&quarter.queue), backlog_mean(&full.queue));
    report.check(agree(bq, bf), || {
        format!(
            "unstable: mean backlog {bq:.3} over the quarter stream but {bf:.3} over the full one"
        )
    });
    let (w1, w2) = wait_halves(&full.queue);
    report.check(agree(w1, w2), || {
        format!(
            "unstable: mean queueing delay {w1:.3} s in the first half but {w2:.3} s in the second"
        )
    });
    println!(
        "stability: mean backlog {bq:.3} (quarter) vs {bf:.3} (full); mean wait {w1:.3} s (first half) vs {w2:.3} s (second half)"
    );
}

/// The jobs-or-flows offered, and how many were not completed.
fn count_attempts(report: &mut Report, o: &Outcome) {
    report.attempted = o.offered;
    report.failed = o.offered - o.completed;
}

/// `--trace 0`: plain full- and quarter-length passes, alternated for
/// `seconds`; every end-to-end metric from their medians.
fn timed(args: &Args, threads: usize) -> Report {
    let w = args.workload;
    let mut report = Report::default();
    let prep = prepare(w, args.seed, threads);
    let budget = Duration::from_secs_f64(args.seconds);

    // Per pass: calibrated full-length seconds and the pair's exponent.
    let (mut calibrated, mut exponents, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let (mut full_digests, mut quarter_digests) = (Vec::new(), Vec::new());
    let (mut first_full, mut first_quarter, mut peak_rss) = (None, None, None);
    let units_ratio = prep.full.units() as f64 / prep.quarter.units() as f64;
    let begin = Instant::now();
    while wall.len() < MIN_PASSES || begin.elapsed() < budget {
        let reference = calib::reference_s();
        let full = adapter::run(&prep.full, Mode::Plain);
        // The memory one run needs: set-up plus a single full pass, before
        // repeated passes fragment the heap.
        peak_rss.get_or_insert_with(stats::peak_rss_mib);
        let quarter = adapter::run(&prep.quarter, Mode::Plain);
        calibrated.push(calib::calibrated(full.host_s, reference));
        exponents.push((full.host_s / quarter.host_s).ln() / units_ratio.ln());
        wall.push(full.host_s);
        full_digests.push(full.digest);
        quarter_digests.push(quarter.digest);
        first_full.get_or_insert(full);
        first_quarter.get_or_insert(quarter);
    }
    let full = first_full.expect("at least one pass");
    let quarter = first_quarter.expect("at least one pass");
    check_outcome(&mut report, "full stream", &full);
    check_outcome(&mut report, "quarter stream", &quarter);
    check_digests(&mut report, "full stream", &full_digests);
    check_digests(&mut report, "quarter stream", &quarter_digests);
    if w == Workload::ServiceBurst {
        check_stability(&mut report, &quarter, &full);
    }
    count_attempts(&mut report, &full);

    let events = (full.flows_released + full.flows_finished) as f64;
    report.put(
        "flow_events_per_s",
        events / stats::median(&calibrated),
        "1/s",
    );
    report.put("scaling_exponent", stats::median(&exponents), "slope");
    report.put("setup_s", prep.setup_s, "s");
    let jct = stats::sorted(&full.jct_s);
    let fct = stats::sorted(&full.fct_s);
    report.put_percentile("sim_jct_p50_s", &jct, 0.50);
    report.put_percentile("sim_jct_p99_s", &jct, 0.99);
    report.put_percentile("sim_fct_p50_s", &fct, 0.50);
    report.put_percentile("sim_fct_p99_s", &fct, 0.99);
    report.put("sim_tardiness_sum_s", full.tardiness_sum_s, "s");
    report.put("peak_rss_mib", peak_rss.flatten().unwrap_or(0.0), "MiB");
    report.check_values("end-to-end", true);
    println!(
        "{}: seed {} threads {threads}: {} passes over {} {}, digest {:016x}; median wall {:.4} s, raw {:.1} events/s",
        w.name(),
        args.seed,
        wall.len(),
        prep.full.units(),
        w.unit_name(),
        full.digest,
        stats::median(&wall),
        events / stats::median(&wall),
    );
    report
}

/// `--trace 1`: wrapped and plain full-length passes alternated for
/// `seconds`; the per-layer metrics come from the median wrapped pass.
fn traced(args: &Args, threads: usize) -> Report {
    let w = args.workload;
    let mut report = Report::default();
    let prep = prepare(w, args.seed, threads);
    let budget = Duration::from_secs_f64(args.seconds);

    let mut wrapped: Vec<Outcome> = Vec::new();
    let mut overheads = Vec::new();
    let mut digests = Vec::new();
    let begin = Instant::now();
    while wrapped.len() < MIN_PASSES || begin.elapsed() < budget {
        let t = adapter::run(&prep.full, Mode::Traced);
        let p = adapter::run(&prep.full, Mode::Plain);
        digests.extend([t.digest, p.digest]);
        // Each wrapped pass against the plain pass right after it, so
        // both see the same machine load.
        overheads.push(t.host_s / p.host_s - 1.0);
        wrapped.push(t);
    }
    let profiled = (w == Workload::FabricFlows).then(|| adapter::run(&prep.full, Mode::Profiled));
    if let Some(p) = &profiled {
        digests.push(p.digest);
    }
    check_digests(&mut report, "timed, traced and profiled passes", &digests);
    for (i, o) in wrapped.iter().enumerate() {
        check_outcome(&mut report, &format!("traced pass {i}"), o);
        let feed_s = o.feed.as_ref().map_or(0.0, |c| c.secs());
        let policy_s = o.policy.as_ref().map_or(0.0, |c| c.secs());
        let self_s = o.host_s - feed_s - policy_s;
        report.check(self_s >= 0.0, || {
            format!(
                "traced pass {i}: layer times {feed_s} + {policy_s} exceed the wall {}",
                o.host_s
            )
        });
    }
    if w == Workload::ServiceBurst {
        let quarter = adapter::run(&prep.quarter, Mode::Plain);
        check_outcome(&mut report, "quarter stream", &quarter);
        check_stability(&mut report, &quarter, &wrapped[0]);
    }

    // The median wrapped pass by wall time carries the layer split.
    wrapped.sort_by(|a, b| a.host_s.total_cmp(&b.host_s));
    let o = wrapped.swap_remove(wrapped.len() / 2);
    count_attempts(&mut report, &o);
    let feed = o.feed.as_ref();
    let policy = o
        .policy
        .as_ref()
        .expect("traced passes carry a policy clock");
    let feed_s = feed.map_or(0.0, |c| c.secs());

    report.put("workload.gen_s", prep.gen_s, "s");
    let jobs = if w == Workload::FabricFlows {
        0
    } else {
        o.offered
    };
    report.put("workload.jobs", jobs as f64, "count");
    report.put("workload.flows", o.flows_released as f64, "count");
    report.put(
        "workload.failed_frac",
        report.failed as f64 / o.offered.max(1) as f64,
        "frac",
    );

    let admit_calls = feed.map_or(0, |c| c.admit.calls());
    report.put("service.feed_s", feed_s, "s");
    report.put("service.admit_s", feed.map_or(0.0, |c| c.admit.secs()), "s");
    report.put("service.admit_calls", admit_calls as f64, "count");
    report.put(
        "service.admit_useful_frac",
        feed.map_or(0, |c| c.useful_admits.get()) as f64 / admit_calls.max(1) as f64,
        "frac",
    );
    report.put(
        "service.admit_us_p50",
        feed.map_or(0.0, |c| c.admit.us_percentile(0.50)),
        "us",
    );
    report.put(
        "service.admit_us_p99",
        feed.map_or(0.0, |c| c.admit.us_percentile(0.99)),
        "us",
    );
    report.put(
        "service.backlog_mean",
        feed.map_or(0.0, |c| c.backlog_mean()),
        "jobs",
    );
    report.put(
        "service.backlog_max",
        feed.map_or(0, |c| c.backlog_max()) as f64,
        "jobs",
    );
    report.put(
        "service.retire_calls",
        feed.map_or(0, |c| c.retire_calls.get()) as f64,
        "count",
    );
    let waits = stats::sorted(&o.queue.iter().map(|(a, s)| s - a).collect::<Vec<_>>());
    report.put_percentile("service.wait_p50_s", &waits, 0.50);
    report.put_percentile("service.wait_p99_s", &waits, 0.99);
    report.put("placement.pods_spanned_mean", o.pods_spanned.0, "pods");
    report.put(
        "placement.pods_spanned_max",
        o.pods_spanned.1 as f64,
        "pods",
    );

    // One policy clock per run; it fills the layer this workload's
    // policy belongs to and the other two layers read zero.
    let calls = policy.allocate.calls();
    let flows = policy.active_flows.get();
    let ns_per_flow = policy.allocate.secs() * 1e9 / flows.max(1) as f64;
    for layer in ["sched", "coordinator", "alloc"] {
        let mine = layer == w.policy_layer();
        let pick = |x: f64| if mine { x } else { 0.0 };
        report.put(
            format!("{layer}.allocate_s"),
            pick(policy.allocate.secs()),
            "s",
        );
        report.put(
            format!("{layer}.allocate_calls"),
            pick(calls as f64),
            "count",
        );
        report.put(
            format!("{layer}.allocate_us_p50"),
            pick(policy.allocate.us_percentile(0.50)),
            "us",
        );
        report.put(
            format!("{layer}.allocate_us_p99"),
            pick(policy.allocate.us_percentile(0.99)),
            "us",
        );
        report.put(
            format!("{layer}.allocate_ns_per_active_flow"),
            pick(ns_per_flow),
            "ns",
        );
    }
    let sched = w == Workload::ServiceBurst;
    let coord = w == Workload::CoordClosed;
    let fabric = w == Workload::FabricFlows;
    let when = |on: bool, x: f64| if on { x } else { 0.0 };
    report.put(
        "sched.active_flows_mean",
        when(sched, flows as f64 / calls.max(1) as f64),
        "flows",
    );
    report.put("sched.book_peak", when(sched, o.book_peak as f64), "groups");
    report.put("coordinator.decisions", o.decisions as f64, "count");
    report.put(
        "coordinator.decision_frac",
        when(coord, o.decisions as f64 / calls.max(1) as f64),
        "frac",
    );
    report.put(
        "coordinator.book_groups",
        when(coord, o.book_peak as f64),
        "groups",
    );
    let d = o.driver;
    report.put(
        "alloc.pod_recompute_frac",
        when(fabric, d.pod_recompute_frac),
        "frac",
    );
    report.put("alloc.delta_fill_hits", d.delta_fill_hits as f64, "count");
    report.put(
        "alloc.delta_fill_fallbacks",
        d.delta_fill_fallbacks as f64,
        "count",
    );
    let fills = d.delta_fill_hits + d.delta_fill_fallbacks;
    report.put(
        "alloc.delta_fill_hit_frac",
        d.delta_fill_hits as f64 / fills.max(1) as f64,
        "frac",
    );

    let self_s = o.host_s - feed_s - policy.secs();
    report.put("runtime.self_s", self_s, "s");
    report.put("driver.alloc_batches", d.alloc_batches as f64, "count");
    report.put("driver.batched_events", d.batched_events as f64, "count");
    report.put("driver.horizon_skips", d.horizon_skips as f64, "count");
    report.put("driver.peak_active", d.peak_active as f64, "flows");
    let phase = profiled.map_or([0.0; 4], |p| p.driver.phase_s);
    for (name, s) in ["queue", "allocate", "write_back", "bookkeeping"]
        .iter()
        .zip(phase)
    {
        report.put(format!("driver.{name}_s"), s, "s");
    }

    report.put("trace.wall_s", o.host_s, "s");
    report.put("trace.feed_s", feed_s, "s");
    report.put("trace.policy_s", policy.secs(), "s");
    report.put("trace.overhead_frac", stats::median(&overheads), "frac");
    println!(
        "{}: seed {} threads {threads}: {} traced passes over {} {}, digest {:016x} ({} job, {} flow completion samples)",
        w.name(),
        args.seed,
        overheads.len(),
        prep.full.units(),
        w.unit_name(),
        o.digest,
        o.jct_s.len(),
        o.fct_s.len(),
    );
    report.check_values("per-layer", false);
    report
}

/// Pins every thread knob of the run shapes to at most the machine's
/// parallelism (and at most 2) and returns the pinned count.
fn pin_threads() -> usize {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    // The sweep engine's knob; no run shape here sweeps, but a later
    // one must not silently pick up the whole machine.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    threads
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <service-burst|coord-closed|fabric-flows> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let threads = pin_threads();
    let report = if args.trace {
        traced(&args, threads)
    } else {
        timed(&args, threads)
    };
    report.print();
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing wrappers forward every trait method: a wrapped run's
    /// completion digest equals the unwrapped run's on every workload,
    /// and the wrappers actually saw the calls.
    #[test]
    fn wrapped_runs_match_unwrapped_runs() {
        for w in Workload::ALL {
            let units = w.full_units() / 16;
            let inputs = adapter::generate(w, 7, units, 2);
            let plain = adapter::run(&inputs, Mode::Plain);
            let traced = adapter::run(&inputs, Mode::Traced);
            assert_eq!(
                plain.digest,
                traced.digest,
                "{}: wrapped run diverged",
                w.name()
            );
            assert_eq!(plain.completed, plain.offered, "{}: jobs lost", w.name());
            let policy = traced.policy.expect("traced run has a policy clock");
            assert!(
                policy.allocate.calls() > 0,
                "{}: no allocations seen",
                w.name()
            );
            if w == Workload::ServiceBurst {
                let feed = traced.feed.expect("service runs have a feed clock");
                assert!(feed.admit.calls() > 0 && feed.retire_calls.get() > 0);
            }
        }
    }

    #[test]
    fn backlog_mean_is_little_area_over_horizon() {
        // Two bursts 10 s apart; each job waits 2 s: area 8 over 20 s.
        let queue = [(0.0, 2.0), (0.0, 2.0), (10.0, 12.0), (10.0, 12.0)];
        assert!((backlog_mean(&queue) - 0.4).abs() < 1e-12);
        assert_eq!(wait_halves(&queue), (2.0, 2.0));
    }
}
