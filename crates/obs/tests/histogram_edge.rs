//! Histogram edge cases: empty histograms, out-of-range values,
//! saturation, and exact totals under concurrent recording
//! (loom-free: plain spawn + join + assert).

use ecosched_obs::{Buckets, Recorder, RegistryBuilder};

#[test]
fn zero_observations_render_cleanly() {
    let mut b = RegistryBuilder::new();
    let h = b.histogram_with("empty_us", "never observed", Buckets::pow2(1, 8), &[]);
    let reg = b.build();
    assert_eq!(reg.histogram_count(h), 0);
    assert_eq!(reg.histogram_sum(h), 0);
    assert!(reg.histogram_buckets(h).iter().all(|&c| c == 0));
    let text = reg.render_prometheus();
    assert!(text.contains("empty_us_bucket{le=\"+Inf\"} 0"));
    assert!(text.contains("empty_us_sum 0"));
    assert!(text.contains("empty_us_count 0"));
}

#[test]
fn value_below_first_bucket_lands_in_first() {
    let mut b = RegistryBuilder::new();
    let h = b.histogram_with("low_us", "low values", Buckets::explicit(&[10, 100]), &[]);
    let reg = b.build();
    reg.observe(h, 0);
    reg.observe(h, 3);
    let counts = reg.histogram_buckets(h);
    assert_eq!(counts, vec![2, 0, 0], "both land in the first bucket");
    assert_eq!(reg.histogram_sum(h), 3);
}

#[test]
fn value_above_last_bucket_lands_in_inf() {
    let mut b = RegistryBuilder::new();
    let h = b.histogram_with("high_us", "high values", Buckets::explicit(&[10, 100]), &[]);
    let reg = b.build();
    reg.observe(h, 100); // boundary: `le` is inclusive
    reg.observe(h, 101);
    reg.observe(h, u64::MAX);
    let counts = reg.histogram_buckets(h);
    assert_eq!(counts, vec![0, 1, 2], "over-range values go to +Inf");
    // Cumulative exposition still counts everything.
    let text = reg.render_prometheus();
    assert!(text.contains("high_us_bucket{le=\"100\"} 1"));
    assert!(text.contains("high_us_bucket{le=\"+Inf\"} 3"));
    assert!(text.contains("high_us_count 3"));
}

#[test]
fn sums_saturate_instead_of_wrapping() {
    let mut b = RegistryBuilder::new();
    let h = b.histogram_with("sat_us", "saturating sum", Buckets::explicit(&[1]), &[]);
    let reg = b.build();
    reg.observe(h, u64::MAX - 1);
    reg.observe(h, u64::MAX);
    assert_eq!(reg.histogram_sum(h), u64::MAX, "sum must pin, not wrap");
    assert_eq!(reg.histogram_count(h), 2, "count keeps counting");
    reg.observe(h, 5);
    assert_eq!(reg.histogram_sum(h), u64::MAX);
    assert_eq!(reg.histogram_count(h), 3);
}

#[test]
fn concurrent_recording_sums_exactly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let mut b = RegistryBuilder::new();
    let h = b.histogram_with("conc_us", "concurrent", Buckets::pow2(1, 16), &[]);
    let c = b.counter_with("conc_total", "concurrent counter", &[]);
    let rec = Recorder::new(b.build());

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let rec = rec.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Deterministic per-thread values: thread t observes
                    // t+1 every time, so the exact total is known.
                    let _ = i;
                    let reg = rec.registry().expect("recorder is on");
                    reg.observe(h, t + 1);
                    reg.counter_add(c, 1);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker thread must not panic");
    }

    let reg = rec.registry().expect("recorder is on");
    let expected_count = THREADS * PER_THREAD;
    // sum over t of (t+1) * PER_THREAD
    let expected_sum: u64 = (1..=THREADS).map(|v| v * PER_THREAD).sum();
    assert_eq!(reg.histogram_count(h), expected_count);
    assert_eq!(reg.histogram_sum(h), expected_sum);
    assert_eq!(reg.counter_value(c), expected_count);
    let bucket_total: u64 = reg.histogram_buckets(h).iter().sum();
    assert_eq!(bucket_total, expected_count, "no observation lost a bucket");
}
