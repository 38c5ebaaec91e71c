//! Counters describing the work done by the slot-selection algorithms.
//!
//! The paper's central complexity claim is that ALP and AMP are `O(m)` in
//! the number of available slots because the scan only moves forward.
//! [`ScanStats::slots_examined`] makes that claim checkable: a single
//! `find_window` call examines each slot of the list at most once.

use serde::{Deserialize, Serialize};

/// Work counters for window searches.
///
/// `slots_examined`, `slots_admitted` and `groups_scanned` count **list
/// reads**. A resumed scan of the incremental search re-tests acceptance
/// at its checkpoint anchor from the pool it kept — it reads no slot,
/// admits none and scans no group there, so that step shows only in
/// `acceptance_tests` (and, on success, `windows_found`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanStats {
    /// Slots taken from the ordered list and tested (step 2° executions).
    /// One scan reads a list slot at most once, however often it resumes.
    pub slots_examined: u64,
    /// Slots that passed admission and entered the candidate pool as they
    /// were read from the list. Remnants a subtraction report adds to a
    /// checkpointed pool are not list reads and are not counted.
    pub slots_admitted: u64,
    /// Pool members found expired and dropped (step 3° removals). The
    /// flat pools drop every dead member as the anchor moves; the wide
    /// AMP pool of the incremental search tests a member only where it
    /// reads it — in the head at an acceptance test, or promoted from the
    /// tail by a removal — so a member that dies unread is not counted.
    pub slots_expired: u64,
    /// Budget tests performed (AMP step 2° iterations; for ALP this counts
    /// the single acceptance check per window), whether on a group just
    /// read from the list or on the pool kept at a resume anchor. A test
    /// runs only on `N` live pool members.
    pub acceptance_tests: u64,
    /// Windows successfully assembled.
    pub windows_found: u64,
    /// Same-start groups read from the list that admitted at least one
    /// candidate (reading one is where the scan expires members; it tests
    /// acceptance there if the pool is full).
    pub groups_scanned: u64,
    /// Largest candidate-pool size observed (merged by `max`, not `+`).
    /// In a wide AMP pool it may include members not yet found expired.
    pub pool_high_water: u64,
    /// Scans resumed from a per-job checkpoint instead of rescanning the
    /// list prefix (incremental alternatives search only; always zero for
    /// standalone `find_window` calls).
    pub checkpoint_hits: u64,
}

impl ScanStats {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        ScanStats::default()
    }

    /// Adds another counter set into this one. All counters are additive
    /// except [`ScanStats::pool_high_water`], which is a running maximum.
    pub fn merge(&mut self, other: &ScanStats) {
        self.slots_examined += other.slots_examined;
        self.slots_admitted += other.slots_admitted;
        self.slots_expired += other.slots_expired;
        self.acceptance_tests += other.acceptance_tests;
        self.windows_found += other.windows_found;
        self.groups_scanned += other.groups_scanned;
        self.pool_high_water = self.pool_high_water.max(other.pool_high_water);
        self.checkpoint_hits += other.checkpoint_hits;
    }
}

/// Counters for a whole multi-pass alternatives search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of passes over the batch (each pass attempts every live job).
    pub passes: u64,
    /// Total windows committed as alternatives.
    pub windows_committed: u64,
    /// Aggregated scan counters over every `find_window` call.
    pub scan: ScanStats,
}

impl SearchStats {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        SearchStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = ScanStats {
            slots_examined: 1,
            slots_admitted: 2,
            slots_expired: 3,
            acceptance_tests: 4,
            windows_found: 5,
            groups_scanned: 6,
            pool_high_water: 7,
            checkpoint_hits: 8,
        };
        let b = ScanStats {
            slots_examined: 10,
            slots_admitted: 20,
            slots_expired: 30,
            acceptance_tests: 40,
            windows_found: 50,
            groups_scanned: 60,
            pool_high_water: 3,
            checkpoint_hits: 80,
        };
        a.merge(&b);
        assert_eq!(a.slots_examined, 11);
        assert_eq!(a.slots_admitted, 22);
        assert_eq!(a.slots_expired, 33);
        assert_eq!(a.acceptance_tests, 44);
        assert_eq!(a.windows_found, 55);
        assert_eq!(a.groups_scanned, 66);
        // High-water marks take the maximum, not the sum.
        assert_eq!(a.pool_high_water, 7);
        assert_eq!(a.checkpoint_hits, 88);
    }

    #[test]
    fn new_is_zeroed() {
        assert_eq!(ScanStats::new(), ScanStats::default());
        assert_eq!(SearchStats::new().passes, 0);
    }
}
