//! Serde round-trips for every serializable core type (C-SERDE): the
//! experiment harness persists configurations and results as JSON, so the
//! data model must survive the trip losslessly.

use ecosched_core::{
    Alternative, Batch, BatchAlternatives, Job, JobAlternatives, JobId, Money, NodeId, Perf, Price,
    Resource, ResourceRequest, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint, Window,
    WindowSlot,
};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn scalar_newtypes_roundtrip() {
    let t = TimePoint::new(-7);
    assert_eq!(roundtrip(&t), t);
    let d = TimeDelta::new(42);
    assert_eq!(roundtrip(&d), d);
    let m = Money::from_f64(3.25);
    assert_eq!(roundtrip(&m), m);
    let p = Price::from_f64(1.75);
    assert_eq!(roundtrip(&p), p);
    let perf = Perf::from_f64(2.5);
    assert_eq!(roundtrip(&perf), perf);
    let node = NodeId::new(3);
    assert_eq!(roundtrip(&node), node);
    let slot_id = SlotId::new(99);
    assert_eq!(roundtrip(&slot_id), slot_id);
    let job_id = JobId::new(4);
    assert_eq!(roundtrip(&job_id), job_id);
}

#[test]
fn span_and_slot_roundtrip() {
    let span = Span::new(TimePoint::new(10), TimePoint::new(90)).unwrap();
    assert_eq!(roundtrip(&span), span);
    let slot = Slot::new(
        SlotId::new(1),
        NodeId::new(2),
        Perf::from_f64(1.5),
        Price::from_f64(2.25),
        span,
    )
    .unwrap();
    assert_eq!(roundtrip(&slot), slot);
    let resource = Resource::new(NodeId::new(2), Perf::from_f64(1.5), Price::from_credits(3));
    assert_eq!(roundtrip(&resource), resource);
}

/// A span and a slot decode through their constructors: an inverted span
/// and a slot without a tick are refused, in a slot list's format-1 and
/// record forms too, and what decodes writes back the same bytes.
#[test]
fn decoded_spans_and_slots_are_checked_where_they_are_built() {
    let slot = Slot::new(
        SlotId::new(3),
        NodeId::new(0),
        Perf::UNIT,
        Price::from_credits(2),
        Span::new(TimePoint::new(5), TimePoint::new(9)).unwrap(),
    )
    .unwrap();
    let text = serde_json::to_string(&slot).unwrap();
    assert_eq!(
        text,
        r#"{"id":3,"node":0,"perf":1000,"price":2000000,"span":{"start":5,"end":9}}"#
    );
    let reread: Slot = serde_json::from_str(&text).unwrap();
    assert_eq!(serde_json::to_string(&reread).unwrap(), text);

    let inverted = r#"{"start":5,"end":3}"#;
    let err = serde_json::from_str::<Span>(inverted).unwrap_err();
    assert!(err.to_string().contains("ends before it starts"), "{err}");
    let empty: Span = serde_json::from_str(r#"{"start":5,"end":5}"#).unwrap();
    assert!(empty.is_empty(), "an empty span is a span");

    for (span, words) in [
        (r#"{"start":5,"end":5}"#, "has empty span"),
        (inverted, "ends before it starts"),
    ] {
        let bad = text.replace(r#"{"start":5,"end":9}"#, span);
        let err = serde_json::from_str::<Slot>(&bad).unwrap_err();
        assert!(err.to_string().contains(words), "{bad}: {err}");
        for list in [
            format!(r#"{{"slots":[{bad}],"next_id":4}}"#),
            format!(r#"{{"repr":"interval","nodes":[{{"node":0,"slots":[{bad}]}}],"next_id":4}}"#),
        ] {
            let err = serde_json::from_str::<SlotList>(&list).unwrap_err();
            assert!(err.to_string().contains(words), "{list}: {err}");
        }
    }
}

#[test]
fn slot_list_roundtrip_preserves_order_and_mint_state() {
    let slots = (0..5)
        .map(|i| {
            Slot::new(
                SlotId::new(i),
                NodeId::new(i as u32),
                Perf::UNIT,
                Price::from_credits(2),
                Span::new(TimePoint::new(i as i64 * 10), TimePoint::new(500)).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let mut list = SlotList::from_slots(slots).unwrap();
    let mut back = roundtrip(&list);
    assert_eq!(back, list);
    // The minted-id counter must survive too, or remnants could collide.
    assert_eq!(back.mint_id(), list.mint_id());
}

#[test]
fn request_job_batch_roundtrip() {
    let request = ResourceRequest::new(
        3,
        TimeDelta::new(80),
        Perf::from_f64(1.5),
        Price::from_f64(4.5),
    )
    .unwrap();
    assert_eq!(roundtrip(&request), request);
    let job = Job::new(JobId::new(0), request);
    assert_eq!(roundtrip(&job), job);
    let batch = Batch::from_jobs(vec![job]).unwrap();
    assert_eq!(roundtrip(&batch), batch);
}

#[test]
fn window_and_alternatives_roundtrip() {
    let slot = Slot::new(
        SlotId::new(0),
        NodeId::new(0),
        Perf::from_f64(2.0),
        Price::from_credits(3),
        Span::new(TimePoint::new(0), TimePoint::new(400)).unwrap(),
    )
    .unwrap();
    let window = Window::new(
        TimePoint::new(10),
        vec![WindowSlot::from_slot(&slot, TimeDelta::new(50)).unwrap()],
    )
    .unwrap();
    assert_eq!(roundtrip(&window), window);

    let alt = Alternative::new(JobId::new(1), window);
    assert_eq!(roundtrip(&alt), alt);

    let mut ja = JobAlternatives::new(JobId::new(1));
    ja.push(alt);
    assert_eq!(roundtrip(&ja), ja);

    let batch_alts = BatchAlternatives::for_jobs([JobId::new(1)]);
    assert_eq!(roundtrip(&batch_alts), batch_alts);
}

#[test]
fn json_is_stable_for_fixed_point_types() {
    // Money serializes by its micro representation — exact, no floats.
    let m = Money::from_micro(1_234_567);
    let json = serde_json::to_string(&m).unwrap();
    assert_eq!(json, "1234567");
}
