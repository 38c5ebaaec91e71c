//! `batch_replan`: a virtual organization replanning a large batch.
//!
//! Set-up finds AMP alternatives for 300 jobs on one 8 000-slot market and
//! keeps the first eight of every job. A repetition then asks, round after
//! round, for the VO limits and both optimal combinations of a 100-job
//! window of that table, on one long-lived `IncrementalOptimizer`. The window slides by one job every
//! third round, so a round either finds its DP rows resident (same window
//! as the round before) or has to rebuild them. With two warm rounds to
//! one rebuilding round the median latency is a warm round's and the 90th
//! percentile a rebuilding round's; at one to one the median would sit on
//! the step between the two.

use ecosched::core::{Batch, JobAlternatives, Money, SlotList, TimeDelta};
use ecosched::optimize::{Assignment, IncrementalOptimizer};
use ecosched::select::{find_alternatives, Amp};
use ecosched::sim::{JobGenConfig, JobGenerator, SlotGenConfig, SlotGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::harness::{Checks, Recorder, Rep, Traced, Workload};
use crate::pipeline;
use crate::stats::Fnv;

const MARKET_SLOTS: usize = 8000;
const JOBS: usize = 300;
const WINDOW: usize = 100;
const ROUNDS: usize = 60;
const SLIDE_EVERY: usize = 3;
/// The search finds nine or more alternatives for every job, and dozens for
/// the first few; with the same number for each, the DP tables are as
/// large at one seed as at another.
const ALTERNATIVES_PER_JOB: usize = 8;

pub struct BatchReplan {
    /// Alternatives of every covered job, in batch order.
    table: Vec<JobAlternatives>,
    /// The warm optimizer's answer on the last round of the last
    /// repetition, to compare with a fresh optimizer's.
    last: Option<Answer>,
}

#[derive(Debug, Clone, PartialEq)]
struct Answer {
    quota: TimeDelta,
    budget: Money,
    fastest: Assignment,
    cheapest: Assignment,
}

fn window(table: &[JobAlternatives], round: usize) -> &[JobAlternatives] {
    &table[round / SLIDE_EVERY..round / SLIDE_EVERY + WINDOW]
}

fn answer(optimizer: &mut IncrementalOptimizer, jobs: &[JobAlternatives]) -> Option<Answer> {
    let quota = pipeline::relaxed_quota(jobs);
    let budget = optimizer.vo_budget_with_quota(jobs, quota).ok()?;
    Some(Answer {
        quota,
        budget,
        fastest: pipeline::min_time(optimizer, jobs, budget).ok()?,
        cheapest: optimizer.min_cost_under_time(jobs, quota).ok()?,
    })
}

pub(super) fn inputs(seed: u64) -> (SlotList, Batch) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let market =
        SlotGenerator::new(SlotGenConfig::default()).generate_exact(&mut rng, MARKET_SLOTS);
    let batch = JobGenerator::new(JobGenConfig::default()).generate_exact(&mut rng, JOBS);
    (market, batch)
}

impl BatchReplan {
    pub fn new(seed: u64) -> Self {
        let (market, batch) = inputs(seed);
        let search = find_alternatives(Amp::new(), &market, &batch).expect("built-in selector");
        let table: Vec<JobAlternatives> = pipeline::covered(&search)
            .iter()
            .filter(|found| found.len() >= ALTERNATIVES_PER_JOB)
            .map(|found| {
                let mut kept = JobAlternatives::new(found.job());
                for alternative in found.iter().take(ALTERNATIVES_PER_JOB) {
                    kept.push(alternative.clone());
                }
                kept
            })
            .collect();
        assert!(
            table.len() >= WINDOW + ROUNDS / SLIDE_EVERY,
            "only {} of {JOBS} jobs found {ALTERNATIVES_PER_JOB} alternatives",
            table.len()
        );
        BatchReplan { table, last: None }
    }
}

impl Workload for BatchReplan {
    fn rep(&mut self, rec: &mut Recorder) -> Rep {
        let mut optimizer = IncrementalOptimizer::new();
        let mut hash = Fnv::new();
        let mut failed = 0;
        for round in 0..ROUNDS {
            let jobs = window(&self.table, round);
            let before = optimizer.stats();
            let started = rec.now();
            let answered = if rec.tracing() {
                rec.tracer.set_op(round as u64);
                rec.span("optimize.solve_ms", || answer(&mut optimizer, jobs))
            } else {
                answer(&mut optimizer, jobs)
            };
            let ns = rec.now() - started;
            rec.op(started);
            if rec.tracing() {
                let name = if round == 0 {
                    "optimize.cold_round_ms"
                } else {
                    "optimize.warm_round_ms"
                };
                rec.add(name, ns as f64);
                let work = optimizer.stats().delta_since(&before);
                rec.add("optimize.rows_rebuilt", work.rows_rebuilt as f64);
                rec.add("optimize.rows_reused", work.rows_reused as f64);
            }
            match &answered {
                Some(a) => {
                    hash.word(a.quota.ticks() as u64);
                    hash.word(a.budget.micro() as u64);
                    for assignment in [&a.fastest, &a.cheapest] {
                        hash.word(assignment.total_time().ticks() as u64);
                        hash.word(assignment.total_cost().micro() as u64);
                    }
                }
                None => failed += 1,
            }
            self.last = answered;
        }
        Rep {
            ops: ROUNDS as u64,
            failed,
            hash: hash.hex(),
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        let jobs = window(&self.table, ROUNDS - 1);
        let fresh = answer(&mut IncrementalOptimizer::new(), jobs);
        checks.check(fresh.is_some() && fresh == self.last, || {
            "the warm optimizer's last answer differs from a fresh optimizer's".into()
        });
        if let Some(a) = &fresh {
            checks.check(a.fastest.total_cost() <= a.budget, || {
                "the fastest combination exceeds B*".into()
            });
            checks.check(a.cheapest.total_time() <= a.quota, || {
                "the cheapest combination exceeds T*".into()
            });
        }
    }

    fn derive(&self, rec: &mut Recorder, traced: &Traced) {
        pipeline::derive_ratios(rec);
        rec.set(
            "optimize.wall_share",
            rec.sum("optimize.solve_ms") / traced.wall_ns,
        );
    }
}
