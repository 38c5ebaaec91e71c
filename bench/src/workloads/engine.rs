//! `engine_churn` and `engine_widemarket`: one `Engine<Amp>` stepped
//! event by event until its queue drains.
//!
//! `engine_churn` is the steady online loop: a market of about 1 000
//! slots, batches of 20–30 jobs and a revocation strike in every cycle,
//! so the market is carved, struck, repaired and coalesced all the time.
//! `engine_widemarket` publishes twice the slots and offers few jobs, so
//! the market grows to several thousand slots and is mostly scanned, not
//! changed.

use std::path::PathBuf;
use std::time::Instant;

use ecosched::core::{Batch, Job, JobId, SlotList, Span, TimePoint};
use ecosched::engine::{
    ArrivalConfig, Engine, EngineCheckpoint, EngineConfig, EngineReport, Event, RunState,
};
use ecosched::optimize::IncrementalOptimizer;
use ecosched::persist::{decode_snapshot, encode_snapshot, SnapshotStore};
use ecosched::select::{find_alternatives, Amp};
use ecosched::sim::{IntRange, JobGenConfig, RevocationConfig};

use crate::harness::{Checks, Recorder, Rep, Traced, Workload};
use crate::pipeline;

/// A traced repetition probes the layers before every this-many-th cycle.
pub const PROBE_EVERY: u32 = 5;
/// The snapshot codec is probed on every this-many-th probe only: one
/// encode, decode and durable write of a few megabytes takes as long as
/// twenty cycles.
const PERSIST_EVERY: u32 = 5;

pub struct EngineWorkload {
    engine: Engine<Amp>,
    seed: u64,
    jobs: u32,
    pinned: &'static str,
    probe_store: SnapshotStore,
    report: Option<EngineReport>,
}

fn poisson(jobs: u32, mean_interarrival: f64) -> ArrivalConfig {
    ArrivalConfig::Poisson {
        mean_interarrival,
        jobs,
        job_gen: JobGenConfig::default(),
    }
}

impl EngineWorkload {
    /// `exp_online --single --scenario churn --algo AMP --cycles 100
    /// --jobs 3000 --mean-gap 2` runs this configuration.
    pub fn churn(seed: u64, scratch: PathBuf) -> Self {
        let jobs = 3000;
        let config = EngineConfig {
            cycles: 100,
            revocation: RevocationConfig::per_slot(0.05),
            arrivals: poisson(jobs, 2.0),
            ..EngineConfig::default()
        };
        Self::new(config, seed, jobs, "87b3ef8d6cba58d4", scratch)
    }

    /// No `exp_*` binary widens the market, so the pinned hash is the one
    /// this workload logged when it was written: it guards against drift,
    /// where the other two are cross-checked.
    pub fn widemarket(seed: u64, scratch: PathBuf) -> Self {
        let jobs = 600;
        let mut config = EngineConfig {
            cycles: 40,
            arrivals: poisson(jobs, 4.0),
            ..EngineConfig::default()
        };
        let count = config.slot_gen.slot_count;
        config.slot_gen.slot_count = IntRange::new(count.lo * 2, count.hi * 2);
        Self::new(config, seed, jobs, "b06ce055a4e3b1d3", scratch)
    }

    fn new(
        config: EngineConfig,
        seed: u64,
        jobs: u32,
        pinned: &'static str,
        scratch: PathBuf,
    ) -> Self {
        EngineWorkload {
            engine: Engine::new(config, Amp::new()).expect("the configuration is valid"),
            seed,
            jobs,
            pinned,
            probe_store: SnapshotStore::open(scratch.join("probe-snapshots"), 3)
                .expect("the scratch directory is writable"),
            report: None,
        }
    }
}

/// The statistic a step's duration is added to, by [`event_kind`].
pub const EVENT_STATS: [&str; 6] = [
    "engine.arrival_us",
    "engine.publish_ms",
    "engine.expire_us",
    "engine.complete_us",
    "engine.strike_ms",
    "engine.cycle_ms",
];

pub fn event_kind(event: &Event) -> usize {
    match event {
        Event::JobArrival { .. } => 0,
        Event::SlotPublished { .. } => 1,
        Event::SlotExpired { .. } => 2,
        Event::LeaseCompleted { .. } => 3,
        Event::RevocationStrike { .. } => 4,
        Event::CycleTick { .. } => 5,
    }
}

/// The live market as a cycle sees it: elapsed slots dropped, running
/// ones clipped to `now`, rebuilt through `from_sorted_slots`.
fn clip_to_now(vacant: &SlotList, now: TimePoint) -> SlotList {
    let mut clipped: Vec<_> = vacant
        .iter()
        .filter(|s| s.end() > now)
        .map(|s| {
            if s.start() >= now {
                return *s;
            }
            let span = Span::new(now, s.end()).expect("the slot ends after now");
            s.with_span(s.id(), span).expect("non-empty span")
        })
        .collect();
    clipped.sort_by_key(|s| (s.start(), s.id()));
    SlotList::from_sorted_slots_with_repr(clipped, vacant.repr())
        .expect("clipping keeps slots disjoint")
}

/// What the coming cycle costs in the select and optimize layers.
pub struct ShadowCycle {
    pub select_ns: u64,
    pub optimize_ns: u64,
}

/// Probes the layers on the state a cycle is about to see, without
/// touching it: `Engine::checkpoint`, then on the captured market and
/// pending jobs the cycle's search and optimizer sequence, the market's
/// clone, coalesce and clip-rebuild, and the snapshot codec.
///
/// Call it between the `SlotPublished` step of a cycle and the
/// `CycleTick` step that follows it at the same tick.
pub fn shadow_probe(
    rec: &mut Recorder,
    engine: &Engine<Amp>,
    state: &RunState,
    cycle: u32,
    store: &SnapshotStore,
) -> ShadowCycle {
    rec.tracer.set_op(u64::from(cycle));
    let now = TimePoint::new(i64::from(cycle) * engine.config().cycle_length);
    let probe = rec.tracer.enter("probe");
    let checkpoint: EngineCheckpoint =
        rec.span("engine.checkpoint_ms", || engine.checkpoint(state));
    rec.add("core.market_slots", checkpoint.vacant.len() as f64);
    let market = rec.span("core.clip_rebuild_ms", || {
        clip_to_now(&checkpoint.vacant, now)
    });

    let mut shadow = ShadowCycle {
        select_ns: 0,
        optimize_ns: 0,
    };
    if !checkpoint.pending.is_empty() {
        let jobs = checkpoint
            .pending
            .iter()
            .enumerate()
            .map(|(i, p)| Job::new(JobId::new(i as u32), p.request))
            .collect();
        let batch = Batch::from_jobs(jobs).expect("re-keyed ids are unique");
        let restored = || {
            checkpoint.optimizer.as_ref().map_or_else(
                IncrementalOptimizer::new,
                IncrementalOptimizer::from_snapshot,
            )
        };
        // The cycle finds the market in the cache, having just stepped
        // through it; the probe has just copied it. An untimed pass first
        // levels that: without it the shadow search of a small market
        // takes longer than the whole cycle it shadows.
        if let Ok(search) = find_alternatives(Amp::new(), &market, &batch) {
            let _ = pipeline::solve(&mut restored(), &pipeline::covered(&search));
        }
        let start = Instant::now();
        let search = pipeline::traced_search(rec, Amp::new(), &market, &batch);
        shadow.select_ns = start.elapsed().as_nanos() as u64;
        let mut optimizer = restored();
        let covered = pipeline::covered(&search);
        let start = Instant::now();
        pipeline::traced_solve(rec, &mut optimizer, &covered);
        shadow.optimize_ns = start.elapsed().as_nanos() as u64;

        let mut remainder = rec.span("core.clone_ms", || search.remaining.clone());
        rec.span("core.coalesce_ms", || remainder.coalesce());
    }

    if cycle.is_multiple_of(PROBE_EVERY * PERSIST_EVERY) {
        let bytes = rec.span("persist.encode_ms", || encode_snapshot(&checkpoint));
        rec.add("persist.snapshot_bytes", bytes.len() as f64);
        rec.span("persist.decode_ms", || decode_snapshot(&bytes))
            .expect("a snapshot decodes");
        rec.span("persist.save_ms", || store.save(&checkpoint))
            .expect("the scratch directory is writable");
    }
    rec.tracer.exit(probe);
    shadow
}

/// Adds a probed cycle's step time and what is left of it once the
/// shadow search and optimizer sequence are taken out: clipping, the
/// release of unchosen alternatives, lease commits and the coalesce.
pub fn record_probed_cycle(rec: &mut Recorder, cycle_ns: u64, shadow: &ShadowCycle) {
    let residual = cycle_ns.saturating_sub(shadow.select_ns + shadow.optimize_ns);
    rec.add("engine.cycle_residual_ms", residual as f64);
    rec.add("engine.probed_cycle_ns", cycle_ns as f64);
    rec.add("engine.probed_select_ns", shadow.select_ns as f64);
    rec.add("engine.probed_optimize_ns", shadow.optimize_ns as f64);
}

/// Shares of the traced repetitions' time, from the probed cycles: a
/// layer's part of the probed cycles' time is taken as its part of every
/// cycle's.
pub fn derive_cycle_shares(rec: &mut Recorder, wall: f64) {
    pipeline::derive_ratios(rec);
    let probed = rec.sum("engine.probed_cycle_ns");
    if probed == 0.0 {
        return;
    }
    let cycles = rec.sum("engine.cycle_ms");
    let select = rec.sum("engine.probed_select_ns") / probed * cycles;
    let optimize = rec.sum("engine.probed_optimize_ns") / probed * cycles;
    let expire = rec.sum("engine.expire_us");
    rec.set("select.wall_share", select / wall);
    rec.set("optimize.wall_share", optimize / wall);
    rec.set("engine.expire_share", expire / wall);
    rec.set(
        "engine.bookkeeping_share",
        (cycles - select - optimize + expire).max(0.0) / wall,
    );
}

impl Workload for EngineWorkload {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut state = self.engine.start(self.seed);
        let mut shadow = None;
        let mut failed = 0;
        loop {
            let started = rec.now();
            let entry = match self.engine.step(&mut state) {
                Ok(Some(entry)) => entry,
                Ok(None) => break,
                Err(_) => {
                    failed += 1;
                    break;
                }
            };
            let ns = rec.now() - started;
            if let Event::CycleTick { .. } = entry.event {
                rec.op(started);
            }
            if !rec.tracing() {
                continue;
            }
            rec.add(EVENT_STATS[event_kind(&entry.event)], ns as f64);
            rec.add("engine.events", 1.0);
            match entry.event {
                Event::SlotPublished { round, .. } if round % PROBE_EVERY == 0 => {
                    shadow = Some(rec.exclude(|rec| {
                        shadow_probe(rec, &self.engine, &state, round, &self.probe_store)
                    }));
                }
                Event::CycleTick { .. } => {
                    if let Some(shadow) = shadow.take() {
                        record_probed_cycle(rec, ns, &shadow);
                    }
                }
                _ => {}
            }
        }
        let run = self.engine.finish(state);
        let rep = Rep {
            // Every job of the stream is taken in and carried through the
            // cycles until it is placed or the horizon ends. How many are
            // placed depends on the seed's market (458 to 598 of 600);
            // how many arrive does not.
            ops: run.report.jobs_arrived,
            failed,
            hash: run.report.log_hash.clone(),
        };
        self.report = Some(run.report);
        rep
    }

    fn pinned_hash(&self) -> Option<&'static str> {
        Some(self.pinned)
    }

    fn verify(&mut self, checks: &mut Checks) {
        let report = self.report.as_ref().expect("a repetition ran");
        checks.check(report.jobs_arrived == u64::from(self.jobs), || {
            format!("{} of {} jobs arrived", report.jobs_arrived, self.jobs)
        });
        let accounted = report.jobs_completed + report.backlog;
        checks.check(accounted == report.jobs_arrived, || {
            format!(
                "{} jobs arrived but {accounted} are completed, leased or pending",
                report.jobs_arrived
            )
        });
    }

    fn derive(&self, rec: &mut Recorder, traced: &Traced) {
        derive_cycle_shares(rec, traced.wall_ns);
    }
}
