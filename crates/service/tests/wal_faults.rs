//! The WAL under single-byte damage: flipping any one byte of an intact
//! three-batch WAL never fails the load, and what loads is a prefix of
//! what was appended, whatever byte the flip left there
//! (`PROPTEST_CASES` sets the number of flips tried).

use ecosched_service::{load_wal, JobSpec, Wal, WalEntry};
use proptest::prelude::*;

fn entry(job: u32) -> WalEntry {
    WalEntry {
        shard: job % 2,
        job,
        injected_after: u64::from(job) * 3,
        time: i64::from(job) * 7,
        spec: JobSpec {
            nodes: 2,
            wall_ticks: 30,
            min_perf_milli: 1000,
            price_cap_micro: 1_500_000,
            deadline_tick: None,
        },
    }
}

proptest! {
    #[test]
    fn a_flipped_byte_loads_a_prefix(at in any::<prop::sample::Index>(), mask in 1u8..=255) {
        let path = std::env::temp_dir().join(format!(
            "ecosched-wal-flip-{}.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let appended = [entry(0), entry(1), entry(2), entry(3), entry(4)];
        let mut wal = Wal::open_append(&path).unwrap();
        for batch in [&appended[..2], &appended[2..3], &appended[3..]] {
            wal.append_batch(batch).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let at = at.index(bytes.len());
        bytes[at] ^= mask;
        std::fs::write(&path, &bytes).unwrap();

        let loaded = load_wal(&path);
        let _ = std::fs::remove_file(&path);
        let loaded = loaded.unwrap_or_else(|e| panic!("byte {at} ^ {mask:#04x}: {e}"));
        prop_assert_eq!(&loaded.entries[..], &appended[..loaded.entries.len()]);
    }
}
