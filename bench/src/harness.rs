//! The measurement loop shared by every workload: set-ups with their
//! warm-up, timed repetitions cut into calibrated segments, correctness
//! checks outside the timed region, and the result line.
//!
//! Everything runs on this one thread. A repetition is deterministic
//! work — a fixed seed gives the same inputs and the same result hash —
//! so the only thing that differs between two runs is the host, and
//! [`crate::calibrate`] takes most of that out.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use crate::calibrate::{slowdown, Calibrator, Pass, CALIBRATE_EVERY_NS};
use crate::clock::Clock;
use crate::stats::{highest_reportable_percentile, median, ns_to_ms, peak_rss_mb, percentile};
use crate::trace::{self_time_by_name, Tracer};

/// The seed at which the result hashes of the engine and federation
/// workloads are pinned; the repository's `exp_*` binaries reproduce
/// those of `engine_churn` and `federation_s4`.
pub const PINNED_SEED: u64 = 42;

/// Latency samples an untraced run collects before it stops.
const MIN_SAMPLES: usize = 100;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one repetition did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rep {
    /// Throughput operations completed.
    pub ops: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Fingerprint of the repetition's result; equal across repetitions.
    pub hash: String,
}

/// Correctness checks made outside the timed region.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The traced repetitions of a run, for [`Workload::derive`].
pub struct Traced<'a> {
    /// Their wall time without the probes: the base of the layers' shares,
    /// which are sums of wall-clock spans.
    pub wall_ns: f64,
    /// Their operations' latencies in reference time, ascending.
    pub latencies_ns: &'a [u64],
}

pub trait Workload {
    /// One repetition. Times every latency operation from a
    /// [`Recorder::now`] to [`Recorder::op`]; when [`Recorder::tracing`] it
    /// also records spans and per-layer statistics, and may probe the
    /// layers on the side, inside [`Recorder::exclude`].
    fn rep(&mut self, rec: &mut Recorder) -> Rep;

    /// The untimed repetition that ends set-up.
    fn warm_up(&mut self, rec: &mut Recorder) {
        self.rep(rec);
    }

    /// The hash every repetition must log at [`PINNED_SEED`].
    fn pinned_hash(&self) -> Option<&'static str> {
        None
    }

    /// Workload-specific checks of the results, outside the timed region.
    fn verify(&mut self, checks: &mut Checks);

    /// One-off probes of the traced run, after the repetitions.
    fn probe(&mut self, _rec: &mut Recorder) {}

    /// Per-layer metrics derived from the traced repetitions, such as the
    /// share of their time each layer took.
    fn derive(&self, _rec: &mut Recorder, _traced: &Traced) {}
}

#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    sum: f64,
    n: u64,
}

/// The stretch of a phase between two calibrations.
#[derive(Debug, Clone, PartialEq)]
struct Segment {
    /// The set-up or repetition it belongs to.
    phase: usize,
    /// Its middle, on the run's clock.
    at_ns: u64,
    /// What it took on the run's clock, and on the wall clock.
    clock_ns: u64,
    wall_ns: u64,
    /// Its operations' latencies, as indices into `Recorder::lat_ns`.
    lat: Range<usize>,
}

/// What one phase — a set-up or a repetition — took.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PhaseTime {
    pub wall_ns: u64,
    /// On the run's clock.
    pub clock_ns: u64,
    /// In reference time; see [`crate::calibrate`].
    pub ref_ns: f64,
    /// Its operations' latencies, in reference time.
    pub latencies_ns: Vec<u64>,
}

/// Cuts phases into calibrated segments and collects their operations'
/// latencies; in a traced repetition it also collects spans and per-layer
/// statistics.
pub struct Recorder {
    epoch: Instant,
    clock: Clock,
    calibrator: Calibrator,
    passes: Vec<Pass>,
    segments: Vec<Segment>,
    /// Latencies on the run's clock, in the order they were recorded.
    lat_ns: Vec<u64>,
    phases: usize,
    segment_start_ns: u64,
    segment_start: Instant,
    tracing: bool,
    pub tracer: Tracer,
    stats: BTreeMap<&'static str, Acc>,
}

impl Recorder {
    pub fn new(epoch: Instant, clock: Clock) -> Self {
        Recorder {
            epoch,
            clock,
            calibrator: Calibrator::new(),
            passes: Vec::new(),
            segments: Vec::new(),
            lat_ns: Vec::new(),
            phases: 0,
            segment_start_ns: 0,
            segment_start: epoch,
            tracing: false,
            tracer: Tracer::new(epoch),
            stats: BTreeMap::new(),
        }
    }

    /// The run's clock. An operation is timed from a reading of it to
    /// [`Self::op`].
    pub fn now(&self) -> u64 {
        self.clock.now_ns(self.epoch)
    }

    fn calibrate(&mut self) {
        let (epoch, clock) = (self.epoch, self.clock);
        self.calibrator
            .calibrate(|| clock.now_ns(epoch), &mut self.passes);
    }

    fn open_segment(&mut self) {
        self.calibrate();
        self.segment_start_ns = self.now();
        self.segment_start = Instant::now();
    }

    fn close_segment(&mut self, now_ns: u64) {
        let done = self.segments.last().map_or(0, |s| s.lat.end);
        self.segments.push(Segment {
            phase: self.phases - 1,
            at_ns: self.segment_start_ns + (now_ns - self.segment_start_ns) / 2,
            clock_ns: now_ns - self.segment_start_ns,
            wall_ns: self.segment_start.elapsed().as_nanos() as u64,
            lat: done..self.lat_ns.len(),
        });
    }

    /// Starts a phase; returns its index.
    pub fn begin(&mut self) -> usize {
        self.phases += 1;
        self.open_segment();
        self.phases - 1
    }

    /// Ends the phase.
    pub fn end(&mut self) {
        self.close_segment(self.now());
        // The phase's last segment needs passes after it as well.
        self.calibrate();
    }

    /// Ends an operation that began at the reading `started_ns` of
    /// [`Self::now`]: records its latency and, after
    /// [`CALIBRATE_EVERY_NS`] of work, calibrates.
    pub fn op(&mut self, started_ns: u64) {
        let now_ns = self.now();
        self.record(now_ns, now_ns - started_ns);
    }

    /// [`Self::op`] for an operation the caller timed on [`Self::now`];
    /// call it at an operation boundary.
    pub fn op_took(&mut self, ns: u64) {
        self.record(self.now(), ns);
    }

    fn record(&mut self, now_ns: u64, ns: u64) {
        self.lat_ns.push(ns);
        if now_ns - self.segment_start_ns >= CALIBRATE_EVERY_NS {
            self.close_segment(now_ns);
            self.open_segment();
        }
    }

    /// Runs `f` off the clock: the time it takes is in no segment. For the
    /// probes a traced repetition makes on the side.
    pub fn exclude<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let (start_ns, start) = (self.now(), Instant::now());
        let value = f(self);
        self.segment_start_ns += self.now() - start_ns;
        self.segment_start += start.elapsed();
        value
    }

    /// What each phase took, in the order they began.
    pub fn phase_times(&self) -> Vec<PhaseTime> {
        let mut phases = vec![PhaseTime::default(); self.phases];
        for s in &self.segments {
            let slow = slowdown(&self.passes, s.at_ns);
            let phase = &mut phases[s.phase];
            phase.wall_ns += s.wall_ns;
            phase.clock_ns += s.clock_ns;
            phase.ref_ns += s.clock_ns as f64 / slow;
            phase.latencies_ns.extend(
                self.lat_ns[s.lat.clone()]
                    .iter()
                    .map(|&ns| (ns as f64 / slow) as u64),
            );
        }
        phases
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Runs `f` inside a span and adds its duration to the statistic of
    /// the same name.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.enter(name);
        let value = f();
        let ns = self.tracer.exit(id);
        self.add(name, ns as f64);
        value
    }

    /// Adds one sample: a wall-clock duration in nanoseconds, or a count.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let acc = self.stats.entry(name).or_default();
        acc.sum += value;
        acc.n += 1;
    }

    /// Sets a derived statistic.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.stats.insert(name, Acc { sum: value, n: 1 });
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.stats.get(name).map_or(0.0, |a| a.sum)
    }

    /// Samples added to the statistic.
    pub fn count(&self, name: &str) -> f64 {
        self.stats.get(name).map_or(0.0, |a| a.n as f64)
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.stats
            .get(name)
            .map_or(0.0, |a| if a.n == 0 { 0.0 } else { a.sum / a.n as f64 })
    }
}

/// How a per-layer metric is computed from the statistic of its name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agg {
    /// Mean duration of the samples, converted from nanoseconds.
    MeanTime,
    /// Mean of the samples.
    Mean,
    /// Sum of the samples divided by the number of traced repetitions.
    PerRep,
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub agg: Agg,
}

const fn m(name: &'static str, unit: &'static str, agg: Agg) -> LayerMetric {
    LayerMetric { name, unit, agg }
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// workload that does not touch a layer reports 0 for its metrics.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("sim.generate_us", "us", Agg::MeanTime),
    m("sim.wall_share", "ratio", Agg::Mean),
    m("select.scan_ms", "ms", Agg::MeanTime),
    m("select.slots_examined", "count", Agg::Mean),
    m("select.groups_scanned", "count", Agg::Mean),
    m("select.windows_found", "count", Agg::Mean),
    m("select.checkpoint_hits", "count", Agg::Mean),
    m("select.alternatives_per_job", "ratio", Agg::Mean),
    m("select.wall_share", "ratio", Agg::Mean),
    m("optimize.solve_ms", "ms", Agg::MeanTime),
    m("optimize.cold_round_ms", "ms", Agg::MeanTime),
    m("optimize.warm_round_ms", "ms", Agg::MeanTime),
    m("optimize.rows_rebuilt", "count", Agg::PerRep),
    m("optimize.rows_reused", "count", Agg::PerRep),
    m("optimize.reuse_ratio", "ratio", Agg::Mean),
    m("optimize.wall_share", "ratio", Agg::Mean),
    m("core.market_slots", "count", Agg::Mean),
    m("core.clone_ms", "ms", Agg::MeanTime),
    m("core.coalesce_ms", "ms", Agg::MeanTime),
    m("core.clip_rebuild_ms", "ms", Agg::MeanTime),
    m("engine.cycle_ms", "ms", Agg::MeanTime),
    m("engine.cycle_residual_ms", "ms", Agg::MeanTime),
    m("engine.expire_us", "us", Agg::MeanTime),
    m("engine.expire_share", "ratio", Agg::Mean),
    m("engine.strike_ms", "ms", Agg::MeanTime),
    m("engine.complete_us", "us", Agg::MeanTime),
    m("engine.publish_ms", "ms", Agg::MeanTime),
    m("engine.arrival_us", "us", Agg::MeanTime),
    m("engine.events", "count", Agg::PerRep),
    m("engine.checkpoint_ms", "ms", Agg::MeanTime),
    m("engine.bookkeeping_share", "ratio", Agg::Mean),
    m("persist.encode_ms", "ms", Agg::MeanTime),
    m("persist.decode_ms", "ms", Agg::MeanTime),
    m("persist.snapshot_bytes", "count", Agg::Mean),
    m("persist.save_ms", "ms", Agg::MeanTime),
    m("persist.resume_ms", "ms", Agg::MeanTime),
    m("persist.wall_share", "ratio", Agg::Mean),
    m("federation.route_us", "us", Agg::Mean),
    m("federation.probe_us", "us", Agg::MeanTime),
    m("federation.probes", "count", Agg::PerRep),
    m("federation.xshard_reserved", "count", Agg::PerRep),
    m("federation.xshard_committed", "count", Agg::PerRep),
    m("federation.xshard_commit_ratio", "ratio", Agg::Mean),
    m("federation.align_rounds", "count", Agg::PerRep),
    m("federation.shard_step_share", "ratio", Agg::Mean),
    m("federation.merged_events", "count", Agg::PerRep),
    m("federation.wall_share", "ratio", Agg::Mean),
    m("service.decode_us", "us", Agg::MeanTime),
    m("service.submit_us", "us", Agg::MeanTime),
    m("service.commit_fsync_us", "us", Agg::MeanTime),
    m("service.encode_us", "us", Agg::MeanTime),
    m("service.advance_ms", "ms", Agg::MeanTime),
    m("service.snapshot_advance_ms", "ms", Agg::MeanTime),
    m("service.ack_p99_ms", "ms", Agg::Mean),
    m("service.socket_ack_p50_ms", "ms", Agg::Mean),
    m("service.socket_ack_p99_ms", "ms", Agg::Mean),
    m("service.socket_overhead_us", "us", Agg::Mean),
    m("service.recover_ms", "ms", Agg::MeanTime),
    m("service.wall_share", "ratio", Agg::Mean),
    m("harness.host_slowdown", "ratio", Agg::Mean),
    m("harness.clock_share_of_wall", "ratio", Agg::Mean),
    m("harness.wall_throughput_per_s", "1/s", Agg::Mean),
    m("harness.trace_overhead_share", "ratio", Agg::Mean),
    m("harness.latency_p99_ms", "ms", Agg::Mean),
    m("harness.latency_max_ms", "ms", Agg::Mean),
    m("harness.samples", "count", Agg::Mean),
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub samples: u64,
}

/// The result of one run of one workload.
pub struct Outcome {
    pub attempted: u64,
    pub failed_ops: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub hash: String,
    /// Wall and reference seconds of each timed repetition, in run order.
    pub rep_seconds: Vec<(f64, f64)>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.failures.len() as u64
    }
}

struct TimedRep {
    rep: Rep,
    phase: usize,
    traced: bool,
}

/// Sets up [`SETUPS`] times with `build`, timing on `clock`, then runs the last workload
/// built for about `args.seconds` of timed repetitions (at least one) and
/// reports the end-to-end metrics, or — in a traced run, which alternates
/// untraced and traced repetitions — the per-layer metrics.
pub fn run(
    build: impl Fn(usize) -> Box<dyn Workload>,
    clock: Clock,
    args: &Args,
    process_start: Instant,
    trace_path: Option<&Path>,
) -> Outcome {
    let mut rec = Recorder::new(process_start, clock);
    let mut workload = None;
    for i in 0..SETUPS {
        // One instance at a time, as in a run that sets up once: the peak
        // resident set is that of one.
        drop(workload.take());
        rec.begin();
        let mut w = build(i);
        w.warm_up(&mut rec);
        rec.end();
        workload = Some(w);
    }
    let mut w = workload.expect("SETUPS > 0");

    let mut reps: Vec<TimedRep> = Vec::new();
    let mut samples = 0;
    let timed = Instant::now();
    // An untraced run goes on until the 90th percentile has ten samples
    // beyond it, even if the host is too slow to get there in `--seconds`.
    while timed.elapsed().as_secs_f64() < args.seconds || (!args.trace && samples < MIN_SAMPLES) {
        // Untraced and traced repetitions alternate, so that what the
        // calibration misses falls on both alike.
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            rec.tracing = traced;
            let phase = rec.begin();
            let before = rec.lat_ns.len();
            let rep = w.rep(&mut rec);
            rec.end();
            rec.tracing = false;
            if !traced {
                samples += rec.lat_ns.len() - before;
            }
            reps.push(TimedRep { rep, phase, traced });
        }
    }
    let peak_rss = peak_rss_mb();

    // -- correctness, outside the timed region -----------------------------
    let mut checks = Checks::default();
    let first = &reps[0].rep;
    checks.check(reps.iter().all(|r| r.rep == *first), || {
        let all: Vec<&Rep> = reps.iter().map(|r| &r.rep).collect();
        format!("repetitions disagree: {all:?}")
    });
    if let (Some(pinned), PINNED_SEED) = (w.pinned_hash(), args.seed) {
        checks.check(first.hash == pinned, || {
            format!("hash {} differs from the pinned {pinned}", first.hash)
        });
    }
    w.verify(&mut checks);

    let phases = rec.phase_times();
    let total = |traced: bool, of: &dyn Fn(&TimedRep) -> f64| -> f64 {
        reps.iter().filter(|r| r.traced == traced).map(of).sum()
    };
    let latencies = |traced: bool| -> Vec<u64> {
        let mut lat: Vec<u64> = reps
            .iter()
            .filter(|r| r.traced == traced)
            .flat_map(|r| phases[r.phase].latencies_ns.iter().copied())
            .collect();
        lat.sort_unstable();
        lat
    };
    let plain_ops = total(false, &|r| r.rep.ops as f64);
    let plain_ref_ns = total(false, &|r| phases[r.phase].ref_ns);
    let mut lat = latencies(false);
    checks.check(!lat.is_empty() && plain_ops > 0.0, || {
        "no operation was timed".into()
    });
    if lat.is_empty() {
        lat.push(0);
    }
    let samples = lat.len() as u64;

    let metrics = if args.trace {
        rec.begin();
        w.probe(&mut rec);
        rec.end();
        let traced_latencies = latencies(true);
        w.derive(
            &mut rec,
            &Traced {
                wall_ns: total(true, &|r| phases[r.phase].wall_ns as f64),
                latencies_ns: &traced_latencies,
            },
        );
        let plain_wall_ns = total(false, &|r| phases[r.phase].wall_ns as f64);
        let plain_clock_ns = total(false, &|r| phases[r.phase].clock_ns as f64);
        rec.set("harness.host_slowdown", plain_clock_ns / plain_ref_ns);
        rec.set(
            "harness.clock_share_of_wall",
            plain_clock_ns / plain_wall_ns,
        );
        rec.set(
            "harness.wall_throughput_per_s",
            plain_ops / (plain_wall_ns / 1e9),
        );
        rec.set(
            "harness.trace_overhead_share",
            total(true, &|r| phases[r.phase].ref_ns) / plain_ref_ns - 1.0,
        );
        rec.set("harness.latency_p99_ms", ns_to_ms(percentile(&lat, 99.0)));
        rec.set("harness.latency_max_ms", ns_to_ms(lat[lat.len() - 1]));
        rec.set("harness.samples", samples as f64);
        if let Some(path) = trace_path {
            if let Err(e) = rec.tracer.write_ndjson(path) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
        for (name, ns) in self_time_by_name(rec.tracer.spans()) {
            eprintln!(
                "{}: self time {:9.3} s  {name}",
                args.workload,
                ns as f64 / 1e9
            );
        }
        let traced_reps = reps.iter().filter(|r| r.traced).count() as f64;
        LAYER_METRICS
            .iter()
            .map(|l| Metric {
                name: l.name,
                unit: l.unit,
                value: match (l.agg, l.unit) {
                    (Agg::MeanTime, "us") => rec.mean(l.name) / 1e3,
                    (Agg::MeanTime, _) => rec.mean(l.name) / 1e6,
                    (Agg::Mean, _) => rec.mean(l.name),
                    (Agg::PerRep, _) => rec.sum(l.name) / traced_reps,
                },
                samples: rec.stats.get(l.name).map_or(0, |a| a.n),
            })
            .collect()
    } else {
        let metric = |name, unit, value| Metric {
            name,
            unit,
            value,
            samples,
        };
        let mut setups_ns: Vec<f64> = phases[..SETUPS].iter().map(|p| p.ref_ns).collect();
        vec![
            Metric {
                samples: SETUPS as u64,
                ..metric("setup_s", "s", median(&mut setups_ns) / 1e9)
            },
            metric("throughput_per_s", "1/s", plain_ops / (plain_ref_ns / 1e9)),
            metric("latency_p50_ms", "ms", ns_to_ms(percentile(&lat, 50.0))),
            metric("latency_p90_ms", "ms", ns_to_ms(percentile(&lat, 90.0))),
            metric("peak_rss_mb", "MB", peak_rss),
        ]
    };

    if let Some(p) = highest_reportable_percentile(lat.len()) {
        eprintln!(
            "{}: {samples} latency samples; the highest percentile with ten samples beyond it is p{p}",
            args.workload,
        );
    }
    Outcome {
        attempted: reps.iter().map(|r| r.rep.ops).sum::<u64>() + checks.attempted,
        failed_ops: reps.iter().map(|r| r.rep.failed).sum(),
        failures: checks.failures,
        metrics,
        hash: first.hash.clone(),
        rep_seconds: reps
            .iter()
            .map(|r| {
                let p = &phases[r.phase];
                (p.wall_ns as f64 / 1e9, p.ref_ns / 1e9)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for l in LAYER_METRICS {
            assert!(l.name.len() <= 64 && l.unit.len() <= 16, "{}", l.name);
            assert!(l.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(l
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(l.name), "{} listed twice", l.name);
        }
        assert!(LAYER_METRICS.len() <= 128);
    }

    /// `BENCHMARK.json` is written by hand; this keeps its per-layer list
    /// and the table above from drifting apart.
    #[test]
    fn benchmark_json_lists_exactly_these_layer_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let per_layer = text
            .split("\"per_layer\"")
            .nth(1)
            .expect("a per_layer list");
        let listed: Vec<(&str, &str)> = per_layer
            .split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap();
                let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                (name, unit.split('"').next().unwrap())
            })
            .collect();
        let table: Vec<(&str, &str)> = LAYER_METRICS.iter().map(|l| (l.name, l.unit)).collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn statistics_aggregate_by_name() {
        let mut rec = Recorder::new(Instant::now(), Clock::Wall);
        rec.add("a", 2.0);
        rec.add("a", 4.0);
        assert_eq!((rec.sum("a"), rec.mean("a")), (6.0, 3.0));
        assert_eq!((rec.sum("none"), rec.mean("none")), (0.0, 0.0));
        rec.set("a", 9.0);
        assert_eq!(rec.mean("a"), 9.0);
        let value = rec.span("b", || 5);
        assert_eq!((value, rec.tracer.spans().len()), (5, 1));
    }

    fn spin(ms: u64) {
        let start = Instant::now();
        while start.elapsed().as_millis() < u128::from(ms) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn phases_are_cut_into_segments_and_probes_are_off_the_clock() {
        let mut rec = Recorder::new(Instant::now(), Clock::Wall);
        assert_eq!(rec.begin(), 0);
        // Two operations of 25 ms: the second crosses the 40 ms mark and
        // closes the first segment.
        for _ in 0..2 {
            let started = rec.now();
            spin(25);
            rec.op(started);
        }
        rec.exclude(|_| spin(30));
        let started = rec.now();
        spin(5);
        rec.op(started);
        rec.end();
        assert_eq!(rec.begin(), 1);
        rec.end();

        let segments: Vec<(usize, Range<usize>)> = rec
            .segments
            .iter()
            .map(|s| (s.phase, s.lat.clone()))
            .collect();
        assert_eq!(segments, [(0, 0..2), (0, 2..3), (1, 3..3)]);
        let phases = rec.phase_times();
        assert_eq!(phases.len(), 2);
        let first = &phases[0];
        assert_eq!(first.latencies_ns.len(), 3);
        // 55 ms of work; the 30 ms probe and the calibrations are in
        // neither clock's total.
        for ns in [first.wall_ns, first.clock_ns] {
            assert!((55_000_000..70_000_000).contains(&ns), "{ns}");
        }
        // Reference time is measured time over the slowdown (far from 1
        // in an unoptimized build, where the kernels crawl).
        let slow = first.clock_ns as f64 / first.ref_ns;
        assert!(slow.is_finite() && slow > 0.0, "{slow}");
        assert!(phases[1].clock_ns < 5_000_000 && phases[1].latencies_ns.is_empty());
    }
}
