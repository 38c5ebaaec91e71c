//! `paper_study`: the paper's Sec. 5 study. One iteration draws a slot
//! list of 120–150 slots and a batch of 3–7 jobs, and schedules the batch
//! with ALP and with AMP, each followed by a cold DP.

use ecosched::core::{Batch, SlotList};
use ecosched::experiments::runner::{AlgoSeedResult, SeedOutcome};
use ecosched::experiments::{run_seed, ExperimentConfig};
use ecosched::optimize::IncrementalOptimizer;
use ecosched::select::{find_alternatives, Alp, Amp, SlotSelector};
use ecosched::sim::{run_iteration, IterationConfig, JobGenerator, SlotGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::harness::{Checks, Recorder, Rep, Traced, Workload};
use crate::pipeline;
use crate::stats::Fnv;

const ITERATIONS: u64 = 1000;
/// The paper's invariants are re-derived on every this-many-th iteration.
const VERIFY_EVERY: u64 = 50;

pub struct PaperStudy {
    config: ExperimentConfig,
    /// Sums over the counted iterations of the last repetition:
    /// (iterations, ALP time, ALP cost, AMP time, AMP cost).
    counted: (u64, f64, f64, f64, f64),
}

impl PaperStudy {
    pub fn new(seed: u64) -> Self {
        PaperStudy {
            config: ExperimentConfig {
                // Iteration `i` is seeded with `seed_offset + i`: distinct
                // seeds draw disjoint ranges of iterations.
                seed_offset: seed.wrapping_mul(1_000_003),
                ..ExperimentConfig::default()
            },
            counted: (0, 0.0, 0.0, 0.0, 0.0),
        }
    }

    pub(super) fn inputs(&self, index: u64) -> (SlotList, Batch) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed_offset + index);
        let list = SlotGenerator::new(self.config.slot_config).generate(&mut rng);
        let batch = JobGenerator::new(self.config.job_config).generate(&mut rng);
        (list, batch)
    }

    /// One iteration through the layers' own functions, a span per stage.
    fn traced_iteration(&self, rec: &mut Recorder, index: u64) -> SeedOutcome {
        rec.tracer.set_op(index);
        let iteration = rec.tracer.enter("paper_study.iteration");
        let (list, batch) = rec.span("sim.generate_us", || self.inputs(index));
        let alp = traced_algo(rec, Alp::new(), &list, &batch);
        let amp = traced_algo(rec, Amp::new(), &list, &batch);
        rec.tracer.exit(iteration);
        SeedOutcome {
            index,
            slots: list.len(),
            jobs: batch.len(),
            alp,
            amp,
        }
    }
}

fn traced_algo(
    rec: &mut Recorder,
    selector: impl SlotSelector,
    list: &SlotList,
    batch: &Batch,
) -> AlgoSeedResult {
    let search = pipeline::traced_search(rec, selector, list, batch);
    let covered = pipeline::covered(&search);
    let solved = pipeline::traced_solve(rec, &mut IncrementalOptimizer::new(), &covered);
    if solved.is_none() && !covered.is_empty() {
        // `run_seed` counts an iteration the optimizer fails on as uncovered.
        return AlgoSeedResult::default();
    }
    let (avg_time, avg_cost) = solved.map_or((0.0, 0.0), |a| (a.avg_time(), a.avg_cost()));
    AlgoSeedResult {
        covered: covered.len() == batch.len(),
        avg_time,
        avg_cost,
        alternatives: search.alternatives.total_found() as u64,
    }
}

impl Workload for PaperStudy {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut hash = Fnv::new();
        let mut counted = (0, 0.0, 0.0, 0.0, 0.0);
        for index in 0..ITERATIONS {
            let started = rec.now();
            let outcome = if rec.tracing() {
                self.traced_iteration(rec, index)
            } else {
                run_seed(&self.config, index)
            };
            rec.op(started);
            hash.word(outcome.slots as u64);
            hash.word(outcome.jobs as u64);
            for algo in [&outcome.alp, &outcome.amp] {
                hash.word(u64::from(algo.covered));
                hash.word(algo.alternatives);
                hash.word(algo.avg_time.to_bits());
                hash.word(algo.avg_cost.to_bits());
            }
            if outcome.counted() {
                counted.0 += 1;
                counted.1 += outcome.alp.avg_time;
                counted.2 += outcome.alp.avg_cost;
                counted.3 += outcome.amp.avg_time;
                counted.4 += outcome.amp.avg_cost;
            }
        }
        self.counted = counted;
        Rep {
            ops: ITERATIONS,
            failed: 0,
            hash: hash.hex(),
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        // Fig. 4: AMP is about 35 % faster and 18 % costlier than ALP.
        // The bands are those of tests/reproduction_smoke.rs.
        let (n, alp_time, alp_cost, amp_time, amp_cost) = self.counted;
        checks.check(n >= ITERATIONS / 20, || {
            format!("only {n} counted iterations")
        });
        let (time_ratio, cost_ratio) = (amp_time / alp_time, amp_cost / alp_cost);
        checks.check((0.5..0.85).contains(&time_ratio), || {
            format!("AMP/ALP time ratio {time_ratio} outside the paper's band")
        });
        checks.check((1.02..1.6).contains(&cost_ratio), || {
            format!("AMP/ALP cost ratio {cost_ratio} outside the paper's band")
        });

        for index in (0..ITERATIONS).step_by(VERIFY_EVERY as usize) {
            let (list, batch) = self.inputs(index);
            verify_windows(checks, index, "ALP", Alp::new(), &list, &batch);
            verify_windows(checks, index, "AMP", Amp::new(), &list, &batch);
        }
    }

    fn derive(&self, rec: &mut Recorder, traced: &Traced) {
        pipeline::derive_ratios(rec);
        let wall = traced.wall_ns;
        rec.set("sim.wall_share", rec.sum("sim.generate_us") / wall);
        rec.set("select.wall_share", rec.sum("select.scan_ms") / wall);
        rec.set("optimize.wall_share", rec.sum("optimize.solve_ms") / wall);
    }
}

/// The paper's window invariants, re-derived from the search's output:
/// `N` slots sharing one start, each long enough for the task on its
/// node and fast enough; the price rule of the algorithm; alternatives
/// pairwise disjoint; and the chosen combination within `B*`.
fn verify_windows(
    checks: &mut Checks,
    index: u64,
    algo: &str,
    selector: impl SlotSelector + Copy,
    list: &SlotList,
    batch: &Batch,
) {
    let search = find_alternatives(selector, list, batch).expect("built-in selector");
    let mut windows = Vec::new();
    for (job, found) in batch.iter().zip(search.alternatives.per_job()) {
        let request = job.request();
        for alternative in found {
            let w = alternative.window();
            let shaped = w.slot_count() == request.nodes()
                && w.slots().iter().all(|ws| {
                    let used = w.used_span(ws);
                    used.start() == w.start()
                        && ws.runtime() == request.runtime_on(ws.perf())
                        && ws.perf().satisfies(request.min_perf())
                        && list.covering_slot(ws.node(), used).is_some()
                });
            checks.check(shaped, || {
                format!("iteration {index} {algo}: malformed window {w:?} for {request}")
            });
            let priced = if algo == "ALP" {
                w.slots().iter().all(|ws| ws.price() <= request.price_cap())
            } else {
                w.total_cost() <= request.budget()
            };
            checks.check(priced, || {
                format!("iteration {index} {algo}: window {w:?} breaks the price rule of {request}")
            });
            windows.push(w);
        }
    }
    let disjoint = windows
        .iter()
        .enumerate()
        .all(|(i, a)| windows[i + 1..].iter().all(|b| !a.overlaps(b)));
    checks.check(disjoint, || {
        format!("iteration {index} {algo}: alternatives overlap")
    });

    let result = run_iteration(selector, list, batch, &IterationConfig::default());
    let within = match &result {
        Ok(r) => match (&r.assignment, r.budget) {
            (Some(a), Some(budget)) => a.total_cost() <= budget,
            (None, None) => true,
            _ => false,
        },
        Err(_) => false,
    };
    checks.check(within, || {
        format!("iteration {index} {algo}: chosen combination exceeds B*")
    });
}
