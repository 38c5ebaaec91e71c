//! Seeded fault injection: the revocation model and repair accounting.
//!
//! The paper's resources are non-dedicated — owner jobs have priority, so
//! a vacant slot published to the metascheduler can be withdrawn between
//! the alternatives search and the launch. The paper's Sec. 5 study keeps
//! the environment static; this module is our extension that injects that
//! churn deterministically so the repair tiers (failover → bounded repair
//! search → postpone) can be exercised and measured.
//!
//! Three fault processes, all driven by the cycle's `ChaCha8Rng`:
//!
//! * **per-slot drops** — each published slot is independently revoked
//!   with probability [`RevocationConfig::per_slot`];
//! * **domain outages** — nodes are grouped into pseudo-domains of
//!   [`RevocationConfig::nodes_per_domain`] consecutive node indices, and
//!   each domain goes down with probability
//!   [`RevocationConfig::domain_outage`], killing every slot on its nodes;
//! * **price-withdrawal bursts** — with probability
//!   [`RevocationConfig::price_burst`] per cycle, the owners of the most
//!   expensive [`RevocationConfig::burst_fraction`] of the slots withdraw
//!   their offers at once (a correlated economic shock).
//!
//! A disabled model ([`RevocationConfig::none`]) draws **nothing** from
//! the RNG, so runs without churn remain byte-identical to the
//! pre-revocation simulator.

use std::collections::BTreeSet;

use ecosched_core::{Revocation, RevocationReason, Slot, SlotList, Window};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::{positive_int, probability, ConfigError};
use crate::rng_ext::draw_bool;

/// Configuration of the revocation fault model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RevocationConfig {
    /// Independent per-slot revocation probability.
    pub per_slot: f64,
    /// Per-domain outage probability (each pseudo-domain flips
    /// independently per cycle).
    pub domain_outage: f64,
    /// Consecutive node indices per pseudo-domain for the outage process.
    pub nodes_per_domain: i64,
    /// Probability that a correlated price-withdrawal burst fires this
    /// cycle.
    pub price_burst: f64,
    /// Fraction of the most expensive slots a burst withdraws.
    pub burst_fraction: f64,
}

impl RevocationConfig {
    /// The disabled model: no fault process fires and no RNG draw happens.
    #[must_use]
    pub fn none() -> Self {
        RevocationConfig {
            per_slot: 0.0,
            domain_outage: 0.0,
            nodes_per_domain: 8,
            price_burst: 0.0,
            burst_fraction: 0.0,
        }
    }

    /// The pure per-slot Bernoulli model (the churn-sweep scenario).
    #[must_use]
    pub fn per_slot(p: f64) -> Self {
        RevocationConfig {
            per_slot: p,
            ..RevocationConfig::none()
        }
    }

    /// Returns `true` if any fault process can fire.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.per_slot > 0.0 || self.domain_outage > 0.0 || self.price_burst > 0.0
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first probability or fraction
    /// outside `[0, 1]`, or a non-positive domain size.
    pub fn validate(&self) -> Result<(), ConfigError> {
        probability(self.per_slot, "per_slot")?;
        probability(self.domain_outage, "domain_outage")?;
        positive_int(self.nodes_per_domain, "nodes_per_domain")?;
        probability(self.price_burst, "price_burst")?;
        probability(self.burst_fraction, "burst_fraction")
    }
}

impl Default for RevocationConfig {
    /// Disabled — churn is opt-in.
    fn default() -> Self {
        RevocationConfig::none()
    }
}

/// Draws seeded revocations against a published slot list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocationModel {
    config: RevocationConfig,
}

impl RevocationModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`RevocationConfig::validate`]).
    #[must_use]
    pub fn new(config: RevocationConfig) -> Self {
        config.validate().expect("invalid revocation configuration");
        RevocationModel { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &RevocationConfig {
        &self.config
    }

    /// Draws this cycle's revocations against the published `list`.
    ///
    /// Revocations carry the full `(node, span)` region of the withdrawn
    /// slot — the published list is the owners' offer, so a withdrawal
    /// takes the whole offer back regardless of how the metascheduler has
    /// since carved it. Each slot is revoked at most once; the domain
    /// outage draws first, then the per-slot drops, then the burst, each
    /// skipping already-revoked slots. A disabled model returns an empty
    /// vector without touching `rng`.
    pub fn draw<R: Rng + ?Sized>(&self, list: &SlotList, rng: &mut R) -> Vec<Revocation> {
        if !self.config.is_enabled() {
            return Vec::new();
        }
        let mut revocations: Vec<Revocation> = Vec::new();
        let mut revoked = vec![false; list.len()];

        if self.config.domain_outage > 0.0 {
            let domain_of = |node: u32| i64::from(node) / self.config.nodes_per_domain;
            let domains: BTreeSet<i64> = list
                .iter()
                .map(|slot| domain_of(slot.node().index()))
                .collect();
            for domain in domains {
                if !draw_bool(rng, self.config.domain_outage) {
                    continue;
                }
                for (i, slot) in list.iter().enumerate() {
                    if !revoked[i] && domain_of(slot.node().index()) == domain {
                        revoked[i] = true;
                        revocations.push(Revocation {
                            slot: slot.id(),
                            node: slot.node(),
                            span: slot.span(),
                            reason: RevocationReason::DomainOutage {
                                domain: domain as u32,
                            },
                        });
                    }
                }
            }
        }

        if self.config.per_slot > 0.0 {
            for (i, slot) in list.iter().enumerate() {
                if !revoked[i] && draw_bool(rng, self.config.per_slot) {
                    revoked[i] = true;
                    revocations.push(Revocation {
                        slot: slot.id(),
                        node: slot.node(),
                        span: slot.span(),
                        reason: RevocationReason::SlotDrop,
                    });
                }
            }
        }

        if self.config.price_burst > 0.0 && draw_bool(rng, self.config.price_burst) {
            let take = (self.config.burst_fraction * list.len() as f64).ceil() as usize;
            let slots: Vec<&Slot> = list.iter().collect();
            // Most expensive first; ties broken by id for determinism.
            let mut by_price: Vec<usize> = (0..list.len()).filter(|&i| !revoked[i]).collect();
            by_price.sort_by_key(|&i| {
                let slot = slots[i];
                (std::cmp::Reverse(slot.price()), slot.id())
            });
            for &i in by_price.iter().take(take) {
                let slot = slots[i];
                revoked[i] = true;
                revocations.push(Revocation {
                    slot: slot.id(),
                    node: slot.node(),
                    span: slot.span(),
                    reason: RevocationReason::PriceWithdrawal,
                });
            }
        }

        revocations
    }

    /// Draws revocations against the **live** execution state: the vacant
    /// `list` plus the regions currently held by the `leased` windows.
    ///
    /// The batch-cycle path ([`RevocationModel::draw`]) samples the
    /// published list only, so faults can never land on time the repair
    /// tiers have since carved out — a known blind spot (ROADMAP). The
    /// discrete-event engine strikes *mid-cycle*, when committed leases
    /// (including repair-carved replacements) are part of the owners'
    /// exposed surface, so its sampling domain is the union of the vacant
    /// slots and every active lease's used regions. Lease regions are
    /// disjoint from the vacant list by construction (commitment subtracts
    /// them), so the union is a valid slot list.
    ///
    /// The fault processes and their RNG draw order are identical to
    /// [`RevocationModel::draw`]; with no active leases the two produce
    /// the same revocations, and a disabled model still returns an empty
    /// vector without touching `rng` — the legacy byte-stability guarantee
    /// is unaffected because the metascheduler keeps calling `draw`.
    pub fn draw_live<'a, R: Rng + ?Sized>(
        &self,
        list: &SlotList,
        leased: impl IntoIterator<Item = &'a Window>,
        rng: &mut R,
    ) -> Vec<Revocation> {
        if !self.config.is_enabled() {
            return Vec::new();
        }
        let mut domain = list.clone();
        for window in leased {
            domain.release_window(window);
        }
        self.draw(&domain, rng)
    }
}

/// Counters describing one cycle's (or one run's) fault-and-repair
/// activity. Every injected revocation is accounted for:
/// `revocations_injected == revocations_breaking + revocations_vacant_only`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Revocations drawn by the model.
    pub revocations_injected: u64,
    /// Revocations whose region intersected at least one committed lease.
    pub revocations_breaking: u64,
    /// Revocations that only removed vacant (uncommitted) time.
    pub revocations_vacant_only: u64,
    /// Committed leases broken by at least one revocation.
    pub leases_broken: u64,
    /// Alternative re-validations attempted during failover (tier 1).
    pub failover_validations: u64,
    /// Failovers whose re-validation failed because a region was revoked.
    pub failover_stale_revoked: u64,
    /// Failovers whose re-validation failed because a region was consumed
    /// by another job's commitment or repair.
    pub failover_stale_consumed: u64,
    /// Broken leases recovered by adopting a surviving alternative.
    pub failovers_taken: u64,
    /// Bounded repair searches started (tier 2).
    pub repairs_attempted: u64,
    /// Bounded repair searches that found a fresh window.
    pub repairs_succeeded: u64,
    /// Full rescans started after the anchored repair was exhausted
    /// (tier 2.5, only under
    /// [`RepairPolicy::full_rescan_on_exhaustion`]).
    ///
    /// [`RepairPolicy::full_rescan_on_exhaustion`]: crate::RepairPolicy::full_rescan_on_exhaustion
    pub full_rescans_attempted: u64,
    /// Full rescans that recovered a window the anchored tiers missed.
    pub full_rescans_succeeded: u64,
    /// Total recovered-minus-original window cost over every failover and
    /// repair, in credits (negative when recovery found cheaper windows).
    pub repair_cost_delta: f64,
    /// AMP acceptance tests during repair scans that were rejected by the
    /// job budget — windows the repair refused rather than overspend.
    pub budget_violations_avoided: u64,
    /// Scan-work counters of every repair search, including the
    /// checkpoint-resume proof ([`ScanStats::checkpoint_hits`]).
    ///
    /// [`ScanStats::checkpoint_hits`]: ecosched_select::ScanStats::checkpoint_hits
    pub repair_scan: ecosched_select::ScanStats,
    /// Jobs postponed because the search found no alternatives at all.
    pub postponed_no_alternatives: u64,
    /// Broken jobs postponed after every alternative went stale and the
    /// repair search came up empty.
    pub postponed_stale: u64,
    /// Broken jobs postponed because the repair attempt budget ran out.
    pub postponed_budget_exhausted: u64,
}

impl RepairStats {
    /// Adds another counter set into this one (`repair_scan` merges per
    /// [`ScanStats::merge`]).
    ///
    /// [`ScanStats::merge`]: ecosched_select::ScanStats::merge
    pub fn merge(&mut self, other: &RepairStats) {
        self.revocations_injected += other.revocations_injected;
        self.revocations_breaking += other.revocations_breaking;
        self.revocations_vacant_only += other.revocations_vacant_only;
        self.leases_broken += other.leases_broken;
        self.failover_validations += other.failover_validations;
        self.failover_stale_revoked += other.failover_stale_revoked;
        self.failover_stale_consumed += other.failover_stale_consumed;
        self.failovers_taken += other.failovers_taken;
        self.repairs_attempted += other.repairs_attempted;
        self.repairs_succeeded += other.repairs_succeeded;
        self.full_rescans_attempted += other.full_rescans_attempted;
        self.full_rescans_succeeded += other.full_rescans_succeeded;
        self.repair_cost_delta += other.repair_cost_delta;
        self.budget_violations_avoided += other.budget_violations_avoided;
        self.repair_scan.merge(&other.repair_scan);
        self.postponed_no_alternatives += other.postponed_no_alternatives;
        self.postponed_stale += other.postponed_stale;
        self.postponed_budget_exhausted += other.postponed_budget_exhausted;
    }

    /// Broken leases that recovered without postponing.
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.failovers_taken + self.repairs_succeeded + self.full_rescans_succeeded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, Span, TimePoint};
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn slot(id: u64, node: u32, price: i64) -> Slot {
        Slot::new(
            SlotId::new(id),
            NodeId::new(node),
            Perf::UNIT,
            Price::from_credits(price),
            Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap(),
        )
        .unwrap()
    }

    fn list(n: u32) -> SlotList {
        SlotList::from_slots(
            (0..n)
                .map(|i| slot(u64::from(i), i, 2 + i64::from(i)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn disabled_model_draws_nothing() {
        let model = RevocationModel::new(RevocationConfig::none());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(model.draw(&list(20), &mut rng).is_empty());
        // The RNG was untouched: it yields the same stream as a fresh one.
        let mut fresh = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn per_slot_drops_are_seeded_and_plausible() {
        let model = RevocationModel::new(RevocationConfig::per_slot(0.3));
        let draw = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            model.draw(&list(200), &mut rng)
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert!(!a.is_empty() && a.len() < 150, "{} revoked", a.len());
        assert!(a.iter().all(|r| r.reason == RevocationReason::SlotDrop));
    }

    #[test]
    fn domain_outage_kills_whole_domains() {
        let model = RevocationModel::new(RevocationConfig {
            domain_outage: 0.5,
            nodes_per_domain: 5,
            ..RevocationConfig::none()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let revocations = model.draw(&list(40), &mut rng);
        assert!(!revocations.is_empty());
        // Every revocation names its domain, and each hit domain is
        // revoked completely (5 slots per domain in this list).
        let mut per_domain = std::collections::HashMap::new();
        for r in &revocations {
            let RevocationReason::DomainOutage { domain } = r.reason else {
                panic!("unexpected reason {:?}", r.reason);
            };
            assert_eq!(i64::from(r.node.index()) / 5, i64::from(domain));
            *per_domain.entry(domain).or_insert(0u32) += 1;
        }
        assert!(per_domain.values().all(|&n| n == 5));
    }

    #[test]
    fn price_burst_takes_the_most_expensive() {
        let model = RevocationModel::new(RevocationConfig {
            price_burst: 1.0,
            burst_fraction: 0.25,
            ..RevocationConfig::none()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let revocations = model.draw(&list(20), &mut rng);
        assert_eq!(revocations.len(), 5); // ⌈0.25 · 20⌉
                                          // The list prices rise with the node index, so the top-priced
                                          // slots are the last five.
        let mut nodes: Vec<u32> = revocations.iter().map(|r| r.node.index()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![15, 16, 17, 18, 19]);
        assert!(revocations
            .iter()
            .all(|r| r.reason == RevocationReason::PriceWithdrawal));
    }

    #[test]
    fn each_slot_is_revoked_at_most_once() {
        let model = RevocationModel::new(RevocationConfig {
            per_slot: 0.5,
            domain_outage: 0.5,
            nodes_per_domain: 4,
            price_burst: 1.0,
            burst_fraction: 0.5,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let revocations = model.draw(&list(40), &mut rng);
        let mut ids: Vec<u64> = revocations.iter().map(|r| r.slot.raw()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "a slot was revoked twice");
    }

    fn lease_over(node: u32, a: i64, b: i64, price: i64) -> ecosched_core::Lease {
        use ecosched_core::{JobId, Lease, TimeDelta, WindowSlot};
        let member = WindowSlot::from_slot(
            &Slot::new(
                SlotId::new(900 + u64::from(node)),
                NodeId::new(node),
                Perf::UNIT,
                Price::from_credits(price),
                Span::new(TimePoint::new(a), TimePoint::new(b)).unwrap(),
            )
            .unwrap(),
            TimeDelta::new(b - a),
        )
        .unwrap();
        Lease::planned(
            JobId::new(0),
            Window::new(TimePoint::new(a), vec![member]).unwrap(),
        )
    }

    #[test]
    fn live_draw_can_strike_lease_held_regions() {
        // The vacant list covers nodes 0..20; the lease holds carved-out
        // time on node 99 that `draw` could never sample.
        let model = RevocationModel::new(RevocationConfig::per_slot(1.0));
        let leases = [lease_over(99, 200, 260, 3)];
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let revocations = model.draw_live(&list(20), leases.iter().map(|l| &l.window), &mut rng);
        assert_eq!(revocations.len(), 21, "every vacant slot plus the lease");
        let hit = revocations
            .iter()
            .find(|r| r.node == NodeId::new(99))
            .expect("the lease region is part of the sampling domain");
        assert_eq!(
            hit.span,
            Span::new(TimePoint::new(200), TimePoint::new(260)).unwrap()
        );
        assert!(leases[0].broken_by(hit));
    }

    #[test]
    fn live_draw_without_leases_matches_the_legacy_draw() {
        let model = RevocationModel::new(RevocationConfig {
            per_slot: 0.3,
            price_burst: 0.5,
            burst_fraction: 0.2,
            ..RevocationConfig::none()
        });
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(
            model.draw_live(&list(30), [], &mut a),
            model.draw(&list(30), &mut b)
        );
    }

    #[test]
    fn disabled_live_draw_touches_no_rng() {
        let model = RevocationModel::new(RevocationConfig::none());
        let leases = [lease_over(5, 0, 40, 2)];
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        assert!(model
            .draw_live(&list(10), leases.iter().map(|l| &l.window), &mut rng)
            .is_empty());
        let mut fresh = ChaCha8Rng::seed_from_u64(10);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn config_validation() {
        assert!(RevocationConfig::none().validate().is_ok());
        assert!(!RevocationConfig::none().is_enabled());
        assert!(RevocationConfig::per_slot(0.1).is_enabled());
        assert_eq!(
            RevocationConfig::per_slot(1.5).validate(),
            Err(ConfigError::NotAProbability { field: "per_slot" })
        );
        assert_eq!(
            RevocationConfig {
                nodes_per_domain: 0,
                ..RevocationConfig::none()
            }
            .validate(),
            Err(ConfigError::NotPositive {
                field: "nodes_per_domain"
            })
        );
    }

    #[test]
    fn repair_stats_merge_is_additive() {
        let mut a = RepairStats {
            revocations_injected: 3,
            revocations_breaking: 1,
            revocations_vacant_only: 2,
            failovers_taken: 1,
            repair_cost_delta: -2.5,
            ..RepairStats::default()
        };
        let b = RepairStats {
            revocations_injected: 2,
            revocations_breaking: 2,
            repairs_attempted: 1,
            repair_cost_delta: 4.0,
            ..RepairStats::default()
        };
        a.merge(&b);
        assert_eq!(a.revocations_injected, 5);
        assert_eq!(a.revocations_breaking, 3);
        assert_eq!(a.revocations_vacant_only, 2);
        assert_eq!(a.repairs_attempted, 1);
        assert_eq!(a.recovered(), 1);
        assert!((a.repair_cost_delta - 1.5).abs() < 1e-12);
    }
}
