//! The hasher behind the market's id-keyed maps.
//!
//! [`SlotId`](crate::SlotId)s and [`NodeId`](crate::NodeId)s are integers
//! the system mints in sequence, and SipHash is pure per-lookup cost on
//! the subtraction and scan paths. They are not always the system's own,
//! though: `SlotList`'s node map is keyed by node ids that snapshot decode
//! reads from disk, so a crafted snapshot can pick ids that collide here
//! and make its load superlinear (measured 36× slower than sequential ids
//! at 60 000 slots). Removing that collision is ROADMAP item 21. Nothing
//! else keyed by a decoded id hashes it: `Window::new`'s duplicate-node
//! check, which a decoded window also passes, sorts the member nodes. The
//! hasher is private to this crate.
//!
//! One multiply by an odd 64-bit constant spreads sequential ids; folding
//! the high half down keeps both ends of the word mixed for the table's
//! bucket index (low bits) and control byte (high bits). Nothing may
//! depend on the iteration order of a map built on it — as nothing could
//! on `RandomState`'s.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for system-minted integer ids.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// `BuildHasher` for maps and sets keyed by a slot or node id.
pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A map keyed by a slot or node id.
pub(crate) type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::SlotId;
    use std::hash::BuildHasher;

    #[test]
    fn sequential_ids_spread_over_both_ends_of_the_word() {
        let build = IdBuildHasher::default();
        let hashes: Vec<u64> = (0..1024u64)
            .map(|i| build.hash_one(SlotId::new(i)))
            .collect();
        // Bucket index (low bits) and control byte (top seven bits) both
        // take many values over a run of sequential ids.
        let low: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0x3ff).collect();
        let high: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 512, "low bits cluster: {}", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn ids_sharing_their_low_bits_do_not_share_a_bucket() {
        let build = IdBuildHasher::default();
        let low: std::collections::HashSet<u64> = (0..256u64)
            .map(|i| build.hash_one(SlotId::new(i << 20)) & 0xff)
            .collect();
        assert!(low.len() > 64, "stride-2^20 ids collide: {}", low.len());
    }
}
