//! Cross-shard co-allocation types: the split of a coscheduled job across
//! shards and the typed lease a cross-shard placement surfaces on success.

use ecosched_core::Window;
use serde::{Deserialize, Serialize};

/// One shard's share of a cross-shard placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossShardPart {
    /// The shard hosting this part.
    pub shard: u32,
    /// The shard-local job id minted when the part was leased.
    pub job: u32,
    /// The shard-local lease id minted when the part was leased.
    pub lease: u64,
    /// The leased window. The parts of one placement start at most
    /// [`FederationConfig::align_tolerance`] ticks apart, so only at the
    /// default tolerance of zero do they all start at the same tick.
    ///
    /// [`FederationConfig::align_tolerance`]: crate::FederationConfig::align_tolerance
    pub window: Window,
}

/// A committed cross-shard placement: one federation job served by
/// synchronized-start windows on two or more shards.
///
/// It exists only if every part was carved out of its shard's market
/// and leased; otherwise every carved part went back to its market.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossShardWindow {
    /// The federation-level job id (arrival order at the superscheduler).
    pub fed_job: u64,
    /// The synchronized launch tick: the latest part start. At alignment
    /// tolerance zero every part starts exactly here; with slack,
    /// earlier parts hold their windows until this tick.
    pub start: i64,
    /// The per-shard parts, in shard order.
    pub parts: Vec<CrossShardPart>,
}

/// Splits `nodes` across at most `shards` shards as evenly as possible,
/// larger shares first: `split_nodes(7, 3)` is `[3, 2, 2]`, and
/// `split_nodes(2, 4)` is `[2]`-free — `[1, 1]`, dropping empty shares.
#[must_use]
pub fn split_nodes(nodes: usize, shards: u32) -> Vec<usize> {
    let shards = (shards as usize).min(nodes).max(1);
    let base = nodes / shards;
    let extra = nodes % shards;
    (0..shards)
        .map(|s| if s < extra { base + 1 } else { base })
        .filter(|&n| n > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_are_even_and_complete() {
        assert_eq!(split_nodes(7, 3), vec![3, 2, 2]);
        assert_eq!(split_nodes(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(split_nodes(2, 4), vec![1, 1]);
        assert_eq!(split_nodes(1, 4), vec![1]);
        assert_eq!(split_nodes(5, 1), vec![5]);
        for nodes in 1..40usize {
            for shards in 1..9u32 {
                let split = split_nodes(nodes, shards);
                assert_eq!(split.iter().sum::<usize>(), nodes);
                assert!(split.len() <= shards as usize);
                let lo = split.iter().min().copied().unwrap_or(0);
                let hi = split.iter().max().copied().unwrap_or(0);
                assert!(hi - lo <= 1, "uneven split {split:?}");
            }
        }
    }
}
