//! Supply-and-demand pricing — the paper's second future-work item
//! (Sec. 7: "pricing mechanisms that will take into account
//! supply-and-demand trends for computational resources").
//!
//! Owners adjust each node's price between scheduling cycles: a node whose
//! vacant time keeps selling out gets more expensive; an idle node gets
//! cheaper, bounded by a fixed band around the base price.

use std::collections::BTreeMap;

use ecosched_core::{NodeId, Slot, SlotList};

/// Relative price change per unit of utilization error per cycle.
pub const SENSITIVITY: f64 = 0.25;
/// The utilization owners aim for; above it prices rise. A quarter keeps
/// E10's demand-balanced market from sinking every price to the floor.
pub const TARGET_UTILIZATION: f64 = 0.25;
/// Lower bound on the price multiplier.
pub const MIN_MULTIPLIER: f64 = 0.25;
/// Upper bound on the price multiplier.
pub const MAX_MULTIPLIER: f64 = 4.0;

/// Per-node price multipliers evolved by observed demand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SupplyDemandPricing {
    multipliers: BTreeMap<NodeId, f64>,
}

impl SupplyDemandPricing {
    /// The current multiplier for `node` (1.0 until first observed).
    #[must_use]
    pub fn multiplier(&self, node: NodeId) -> f64 {
        self.multipliers.get(&node).copied().unwrap_or(1.0)
    }

    /// Mean multiplier across all observed nodes (1.0 when none observed).
    #[must_use]
    pub fn mean_multiplier(&self) -> f64 {
        if self.multipliers.is_empty() {
            1.0
        } else {
            self.multipliers.values().sum::<f64>() / self.multipliers.len() as f64
        }
    }

    /// Feeds one cycle's observed utilization (sold fraction of vacant
    /// time, in `[0, 1]`) for `node` and updates its multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]` (allowing for rounding
    /// slack up to 1.001).
    pub fn observe(&mut self, node: NodeId, utilization: f64) {
        assert!(
            (0.0..=1.001).contains(&utilization),
            "utilization {utilization} out of range for {node}"
        );
        let current = self.multiplier(node);
        let error = utilization.min(1.0) - TARGET_UTILIZATION;
        let next = (current * (1.0 + SENSITIVITY * error)).clamp(MIN_MULTIPLIER, MAX_MULTIPLIER);
        self.multipliers.insert(node, next);
    }

    /// Applies the current multipliers to a freshly published slot list,
    /// returning the repriced list the metascheduler actually sees.
    #[must_use]
    pub fn reprice(&self, list: &SlotList) -> SlotList {
        let slots: Vec<Slot> = list
            .iter()
            .map(|s| {
                let scaled = s.price().scale_f64(self.multiplier(s.node()));
                Slot::new(s.id(), s.node(), s.perf(), scaled, s.span())
                    .expect("repricing keeps spans intact")
            })
            .collect();
        SlotList::from_slots(slots).expect("repricing keeps ids and spans intact")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_core::{Perf, Price, SlotId, Span, TimePoint};

    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn hot_nodes_get_expensive_idle_nodes_cheap() {
        let mut pricing = SupplyDemandPricing::default();
        for _ in 0..10 {
            pricing.observe(node(0), 1.0); // always sold out
            pricing.observe(node(1), 0.0); // never sold
        }
        assert!(pricing.multiplier(node(0)) > 1.5);
        assert!(pricing.multiplier(node(1)) < 0.7);
        // Unobserved nodes stay at par.
        assert_eq!(pricing.multiplier(node(9)), 1.0);
    }

    #[test]
    fn multipliers_are_clamped() {
        let mut pricing = SupplyDemandPricing::default();
        for _ in 0..50 {
            pricing.observe(node(0), 1.0);
            pricing.observe(node(1), 0.0);
        }
        assert_eq!(pricing.multiplier(node(0)), MAX_MULTIPLIER);
        assert_eq!(pricing.multiplier(node(1)), MIN_MULTIPLIER);
    }

    #[test]
    fn target_utilization_is_the_fixed_point() {
        let mut pricing = SupplyDemandPricing::default();
        pricing.observe(node(0), TARGET_UTILIZATION);
        assert!((pricing.multiplier(node(0)) - 1.0).abs() < 1e-12);
        assert!((pricing.mean_multiplier() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reprice_scales_only_prices() {
        let slot = Slot::new(
            SlotId::new(0),
            node(0),
            Perf::UNIT,
            Price::from_credits(4),
            Span::new(TimePoint::new(0), TimePoint::new(100)).unwrap(),
        )
        .unwrap();
        let list = SlotList::from_slots(vec![slot]).unwrap();
        let mut pricing = SupplyDemandPricing::default();
        for _ in 0..10 {
            pricing.observe(node(0), 1.0);
        }
        let repriced = pricing.reprice(&list);
        let new_slot = *repriced.iter().next().unwrap();
        assert!(new_slot.price() > Price::from_credits(4));
        assert_eq!(new_slot.span(), slot.span());
        assert_eq!(new_slot.perf(), slot.perf());
        assert_eq!(new_slot.id(), slot.id());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_utilization_panics() {
        let mut pricing = SupplyDemandPricing::default();
        pricing.observe(node(0), 1.5);
    }
}
