//! The resource market: a persistent environment whose owners adjust
//! prices between scheduling cycles based on observed demand — the
//! integration of [`crate::pricing`] with the environment substrate and
//! the iteration driver.

use std::collections::BTreeMap;

use ecosched_core::{Money, NodeId, TimeDelta};
use rand::Rng;
use serde::{Deserialize, Serialize};

use ecosched_select::SlotSelector;

use crate::env::{extract_vacant_slots, generate_local_flow, EnvConfig, Environment};
use crate::iteration::{run_iteration, IterationConfig, IterationError};
use crate::job_gen::JobGenerator;
use crate::pricing::SupplyDemandPricing;
use crate::{IntRange, JobGenConfig};

/// A *demand-balanced* market: a single modest domain and a job flow
/// sized so the global demand is comparable to the published supply —
/// otherwise every node idles below target and all prices sink to the
/// floor, which teaches nothing about supply-and-demand trends.
const ENV: EnvConfig = EnvConfig {
    domains: IntRange { lo: 1, hi: 2 },
    nodes_per_domain: IntRange { lo: 5, hi: 8 },
    local_jobs_per_domain: IntRange { lo: 3, hi: 7 },
};

/// The global job flow: the paper's generator with 6–12 jobs of 1–4
/// nodes per batch.
fn job_flow() -> JobGenConfig {
    JobGenConfig {
        jobs_per_batch: IntRange::new(6, 12),
        nodes: IntRange::new(1, 4),
        ..JobGenConfig::default()
    }
}

/// One market cycle's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarketCycleReport {
    /// Jobs in the cycle's batch.
    pub batch_size: usize,
    /// Jobs scheduled.
    pub scheduled: usize,
    /// Owners' revenue: the committed assignment's total cost.
    pub revenue: Money,
    /// Mean price multiplier across all nodes after the cycle.
    pub mean_multiplier: f64,
    /// Mean multiplier over fast nodes (rate ≥ 2.0).
    pub fast_multiplier: f64,
    /// Mean multiplier over slow nodes (rate < 2.0).
    pub slow_multiplier: f64,
}

/// A persistent market: environment + evolving prices.
#[derive(Debug, Clone)]
pub struct MarketSimulation {
    environment: Environment,
    pricing: SupplyDemandPricing,
    job_gen: JobGenerator,
}

impl MarketSimulation {
    /// Generates a market with a fresh environment.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        MarketSimulation {
            environment: Environment::generate(&ENV, rng),
            pricing: SupplyDemandPricing::default(),
            job_gen: JobGenerator::new(job_flow()),
        }
    }

    /// The persistent environment.
    #[must_use]
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// Runs one market cycle: local flows regenerate, slots are extracted
    /// and repriced, a fresh batch is scheduled, and owners adjust prices
    /// from the observed per-node utilization.
    ///
    /// # Errors
    ///
    /// Propagates [`IterationError`] from the scheduling iteration.
    pub fn run_cycle<R: Rng + ?Sized>(
        &mut self,
        selector: impl SlotSelector,
        rng: &mut R,
    ) -> Result<MarketCycleReport, IterationError> {
        let occupancy = generate_local_flow(&self.environment, &ENV, rng);
        let published = extract_vacant_slots(&self.environment, &occupancy);
        let priced = self.pricing.reprice(&published);
        let batch = self.job_gen.generate(rng);

        let result = run_iteration(selector, &priced, &batch, &IterationConfig::default())?;

        // Sold node-ticks per node, from the committed assignment only.
        let mut sold: BTreeMap<NodeId, TimeDelta> = BTreeMap::new();
        let mut revenue = Money::ZERO;
        if let Some(assignment) = &result.assignment {
            revenue = assignment.total_cost();
            for choice in assignment.choices() {
                let ja = result
                    .search
                    .alternatives
                    // invariant: the optimizer only emits choices for jobs
                    // present in the search outcome it was given.
                    .get(choice.job)
                    .expect("choices refer to searched jobs");
                let window = ja.alternatives()[choice.alternative].window();
                for ws in window.slots() {
                    *sold.entry(ws.node()).or_insert(TimeDelta::ZERO) += ws.runtime();
                }
            }
        }

        // Observed utilization: sold fraction of the vacant time each node
        // actually published this cycle.
        for (_, resource) in self.environment.nodes() {
            let vacant: TimeDelta = occupancy
                .vacancies(resource.id(), self.environment.horizon())
                .iter()
                .map(|s| s.length())
                .sum();
            if !vacant.is_positive() {
                continue; // nothing offered, nothing to learn
            }
            let sold_ticks = sold.get(&resource.id()).copied().unwrap_or(TimeDelta::ZERO);
            let utilization = sold_ticks.ticks() as f64 / vacant.ticks() as f64;
            self.pricing.observe(resource.id(), utilization.min(1.0));
        }

        let (mut fast_sum, mut fast_n, mut slow_sum, mut slow_n) = (0.0, 0u32, 0.0, 0u32);
        for (_, resource) in self.environment.nodes() {
            let m = self.pricing.multiplier(resource.id());
            if resource.perf().to_f64() >= 2.0 {
                fast_sum += m;
                fast_n += 1;
            } else {
                slow_sum += m;
                slow_n += 1;
            }
        }
        Ok(MarketCycleReport {
            batch_size: batch.len(),
            scheduled: batch.len() - result.postponed.len(),
            revenue,
            mean_multiplier: self.pricing.mean_multiplier(),
            fast_multiplier: if fast_n > 0 {
                fast_sum / f64::from(fast_n)
            } else {
                1.0
            },
            slow_multiplier: if slow_n > 0 {
                slow_sum / f64::from(slow_n)
            } else {
                1.0
            },
        })
    }

    /// Runs `cycles` consecutive market cycles.
    ///
    /// # Errors
    ///
    /// Propagates [`IterationError`] from any cycle.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        selector: impl SlotSelector + Copy,
        cycles: usize,
        rng: &mut R,
    ) -> Result<Vec<MarketCycleReport>, IterationError> {
        (0..cycles).map(|_| self.run_cycle(selector, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_select::Amp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn market(seed: u64) -> (MarketSimulation, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let market = MarketSimulation::generate(&mut rng);
        (market, rng)
    }

    #[test]
    fn cycles_produce_revenue_and_move_prices() {
        let (mut market, mut rng) = market(3);
        let reports = market.run(Amp::new(), 8, &mut rng).unwrap();
        assert_eq!(reports.len(), 8);
        assert!(
            reports.iter().any(|r| r.revenue > Money::ZERO),
            "no cycle produced revenue"
        );
        let last = reports.last().unwrap();
        assert!(
            (last.mean_multiplier - 1.0).abs() > 1e-6,
            "prices never moved"
        );
    }

    #[test]
    fn multipliers_stay_within_bounds() {
        let (mut market, mut rng) = market(5);
        let reports = market.run(Amp::new(), 15, &mut rng).unwrap();
        for report in reports {
            assert!(report.mean_multiplier >= crate::pricing::MIN_MULTIPLIER);
            assert!(report.mean_multiplier <= crate::pricing::MAX_MULTIPLIER);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (mut m1, mut r1) = market(7);
        let (mut m2, mut r2) = market(7);
        let a = m1.run(Amp::new(), 5, &mut r1).unwrap();
        let b = m2.run(Amp::new(), 5, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn demand_prices_fast_nodes_above_slow_ones() {
        // Both ALP and AMP favour fast nodes (shorter runtimes, often
        // cheaper in total), so after a warm-up the fast tier must carry a
        // higher multiplier.
        let (mut market, mut rng) = market(11);
        let reports = market.run(Amp::new(), 20, &mut rng).unwrap();
        let last = reports.last().unwrap();
        assert!(
            last.fast_multiplier > last.slow_multiplier,
            "fast {} !> slow {}",
            last.fast_multiplier,
            last.slow_multiplier
        );
    }
}
