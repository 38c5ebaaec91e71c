//! The VO-level limits: the time quota `T*` (Eq. (2)) and the budget `B*`
//! (Eq. (3)).
//!
//! `T*` balances the global (user) and local (owner) job flows; `B*` is the
//! maximal owners' income achievable within `T*`, which the VO then grants
//! to the batch as its spending cap.

use ecosched_core::{JobAlternatives, Money, TimeDelta};

use crate::error::OptimizeError;
use crate::incremental::max_cost_under_time;

/// Computes the total slot-occupancy quota `T*` by Eq. (2):
///
/// ```text
/// T* = Σ_i Σ_{s̄_i} ⌊ t_i(s̄_i) / l_i ⌋
/// ```
///
/// where `l_i` is the number of alternatives of job `i` — i.e. roughly the
/// sum over jobs of their *mean* alternative execution time.
///
/// Jobs without alternatives contribute nothing (they are postponed before
/// optimization).
///
/// # Examples
///
/// ```
/// use ecosched_optimize::time_quota;
/// // With no alternatives at all the quota is zero.
/// assert_eq!(time_quota(&[]).ticks(), 0);
/// ```
#[must_use]
pub fn time_quota(alternatives: &[JobAlternatives]) -> TimeDelta {
    let mut total = 0i64;
    for ja in alternatives {
        let l = ja.len() as i64;
        if l == 0 {
            continue;
        }
        for alt in ja {
            total += alt.time().ticks() / l;
        }
    }
    TimeDelta::new(total)
}

/// Computes the VO budget `B*` by Eq. (3): the maximal total cost (owners'
/// income) of any combination whose total time fits `T*` from Eq. (2).
///
/// # Errors
///
/// * [`OptimizeError::EmptyBatch`] / [`OptimizeError::NoAlternatives`] on a
///   malformed table;
/// * [`OptimizeError::Infeasible`] if no combination fits `T*` — possible
///   because Eq. (2) floors each term, making the quota slightly tighter
///   than the true mean.
pub fn vo_budget(alternatives: &[JobAlternatives]) -> Result<Money, OptimizeError> {
    let quota = time_quota(alternatives);
    let assignment = max_cost_under_time(alternatives, quota)?;
    Ok(assignment.total_cost())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::alts;

    #[test]
    fn quota_is_sum_of_floored_means() {
        // Job 0: times 10, 20, 31 → l=3 → ⌊10/3⌋+⌊20/3⌋+⌊31/3⌋ = 3+6+10 = 19.
        // Job 1: times 40 → 40.
        let table = vec![alts(0, &[(1, 10), (1, 20), (1, 31)]), alts(1, &[(1, 40)])];
        assert_eq!(time_quota(&table), TimeDelta::new(59));
    }

    #[test]
    fn quota_skips_uncovered_jobs() {
        let table = vec![alts(0, &[]), alts(1, &[(1, 30)])];
        assert_eq!(time_quota(&table), TimeDelta::new(30));
    }

    #[test]
    fn budget_is_max_income_within_quota() {
        // Job 0: (cost 10, time 10), (cost 2, time 30) → quota term 20.
        // Job 1: (cost 8, time 10), (cost 3, time 30) → quota term 20.
        // T* = 40; the richest combination within 40 is 10 + 8 = 18.
        let table = vec![alts(0, &[(10, 10), (2, 30)]), alts(1, &[(8, 10), (3, 30)])];
        assert_eq!(time_quota(&table), TimeDelta::new(40));
        assert_eq!(vo_budget(&table).unwrap(), Money::from_credits(18));
    }

    #[test]
    fn explicit_quota_variant() {
        let table = vec![alts(0, &[(10, 10), (2, 30)])];
        let mut optimizer = crate::IncrementalOptimizer::new();
        for ticks in [30, 29, 10] {
            assert_eq!(
                optimizer
                    .vo_budget_with_quota(&table, TimeDelta::new(ticks))
                    .unwrap(),
                Money::from_credits(10)
            );
        }
        assert!(optimizer
            .vo_budget_with_quota(&table, TimeDelta::new(9))
            .is_err());
    }

    #[test]
    fn budget_on_malformed_table_errors() {
        assert!(vo_budget(&[]).is_err());
    }
}
