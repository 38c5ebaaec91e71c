//! The slot-selector abstraction shared by ALP, AMP, and test doubles.

use ecosched_core::{ResourceRequest, SlotList, Window};

use crate::incremental::AlgoSpec;
use crate::stats::ScanStats;

/// A single-job window search strategy.
///
/// Implementations must be *non-destructive* — they read the slot list and
/// return a window whose cuts the caller may then subtract — and
/// *deterministic* for a given list and request.
///
/// The trait is object-safe so experiment harnesses can switch algorithms
/// at runtime (`&dyn SlotSelector`).
pub trait SlotSelector {
    /// A short display name ("ALP", "AMP", …).
    fn name(&self) -> &'static str;

    /// Searches `list` for the earliest window satisfying `request`,
    /// accumulating work counters into `stats`.
    ///
    /// Returns `None` when no suitable window exists on the current list —
    /// the paper then postpones the job to the next scheduling iteration.
    fn find_window(
        &self,
        list: &SlotList,
        request: &ResourceRequest,
        stats: &mut ScanStats,
    ) -> Option<Window>;

    /// Describes this selector as one of the built-in algorithms, if it is
    /// one.
    ///
    /// A search reads this once per job to choose its scan: a built-in
    /// algorithm gets the checkpointed scan, which amortizes the scan
    /// cost across windows. Custom selectors keep the default `None`, and
    /// their scan calls [`SlotSelector::find_window`] afresh for every
    /// window — the checkpoint argument only holds for ALP/AMP-shaped
    /// acceptance tests.
    fn as_algo(&self) -> Option<AlgoSpec> {
        None
    }
}

impl<T: SlotSelector + ?Sized> SlotSelector for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn find_window(
        &self,
        list: &SlotList,
        request: &ResourceRequest,
        stats: &mut ScanStats,
    ) -> Option<Window> {
        (**self).find_window(list, request, stats)
    }

    fn as_algo(&self) -> Option<AlgoSpec> {
        (**self).as_algo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alp::Alp;

    #[test]
    fn trait_is_object_safe_and_ref_forwards() {
        let alp = Alp::new();
        let dyn_ref: &dyn SlotSelector = &alp;
        assert_eq!(dyn_ref.name(), "ALP");
        // &T forwarding
        fn takes_selector(s: impl SlotSelector) -> &'static str {
            s.name()
        }
        assert_eq!(takes_selector(alp), "ALP");
    }
}
