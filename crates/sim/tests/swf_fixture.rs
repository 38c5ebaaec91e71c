//! Fixture-trace tests for the hardened SWF parser: a small archive-style
//! trace with CRLF line endings, `-1` sentinel fields, and trailing
//! comments must parse and convert to a schedulable economic batch.

use ecosched_sim::swf::{batch_from_swf, parse_swf, SwfImportConfig};
use ecosched_sim::{run_iteration, IterationConfig, SlotGenConfig, SlotGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const FIXTURE: &str = include_str!("data/mini.swf");

#[test]
fn fixture_really_exercises_the_hardening_cases() {
    assert!(FIXTURE.contains("\r\n"), "fixture must carry CRLF endings");
    assert!(
        FIXTURE
            .lines()
            .any(|l| !l.starts_with(';') && l.contains(';')),
        "fixture must carry a trailing comment on a data line"
    );
    assert!(
        FIXTURE.lines().any(|l| {
            let data = l.split(';').next().unwrap_or("");
            data.split_whitespace().nth(1) == Some("-1")
        }),
        "fixture must carry a -1 submit sentinel"
    );
}

#[test]
fn fixture_parses_with_sentinels_resolved() {
    let jobs = parse_swf(FIXTURE).expect("fixture parses");
    // Job 3 is a cancelled entry and is dropped.
    assert_eq!(jobs.len(), 4);
    let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
    assert_eq!(ids, vec![1, 2, 4, 5]);
    // -1 submit clamps to the trace epoch.
    assert_eq!(jobs[0].submit, 0);
    // Requested procs fall back to the allocated count (field 5).
    assert_eq!(jobs[1].procs, 2);
    // Requested time falls back to the run time (field 4).
    assert_eq!(jobs[2].requested_time, 600);
    // Submit times stay in trace order.
    assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
}

#[test]
fn fixture_converts_and_schedules_end_to_end() {
    let jobs = parse_swf(FIXTURE).expect("fixture parses");
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let batch = batch_from_swf(&jobs, &SwfImportConfig::default(), &mut rng);
    assert_eq!(batch.len(), 4);
    let list = SlotGenerator::new(SlotGenConfig::default()).generate(&mut rng);
    let result = run_iteration(
        ecosched_select::Amp::new(),
        &list,
        &batch,
        &IterationConfig::default(),
    )
    .expect("imported batch schedules");
    assert!(result.search.alternatives.total_found() > 0);
}
