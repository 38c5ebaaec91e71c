//! The two wire shapes of a market and of a window member, against each
//! other.
//!
//! The writer prints a market as node groups of rows,
//! `[node, [[id, perf, price, start, end], …]]`, and a window member as
//! the row `[source, node, perf, price, runtime]`. Snapshot formats 5 and
//! earlier wrote records keyed by those names, and the readers take
//! either. Here random markets and windows are held as plain numbers and
//! printed by hand in both shapes (and, for markets, in the untagged
//! `{slots, next_id}` payload of format 1): the writer's text must be the
//! hand-printed rows, every shape must decode to the same value, and the
//! same damage must be refused in every shape — an empty or inverted
//! span, a repeated id, an overlap, a cursor at or below a live id, a slot
//! filed under the wrong node (for rows: a node group out of order), a
//! zero or negative runtime, a node used twice, an empty window. The
//! untagged payload, whose slots are listed in `(start, id)` order, must
//! also refuse them out of order.

use ecosched_core::{
    NodeId, Perf, Price, Slot, SlotId, SlotList, Span, TimeDelta, TimePoint, Window, WindowSlot,
};
use proptest::prelude::*;

/// A market as numbers: node groups with ascending nodes, each slot
/// `[id, perf, price, start, end]` in start order, and the cursor.
#[derive(Debug, Clone)]
struct Market {
    groups: Vec<(u32, Vec<[i64; 5]>)>,
    next_id: u64,
}

impl Market {
    fn slots(&self) -> impl Iterator<Item = (u32, [i64; 5])> + '_ {
        self.groups
            .iter()
            .flat_map(|(node, rows)| rows.iter().map(move |&row| (*node, row)))
    }

    fn list(&self) -> SlotList {
        let slots = self.slots().map(|(node, [id, perf, price, start, end])| {
            Slot::new(
                SlotId::new(id as u64),
                NodeId::new(node),
                Perf::from_milli(perf),
                Price::from_micro(price),
                Span::new(TimePoint::new(start), TimePoint::new(end)).unwrap(),
            )
            .unwrap()
        });
        let mut list = SlotList::from_slots(slots.collect()).unwrap();
        while list.clone().mint_id().raw() < self.next_id {
            list.mint_id();
        }
        list
    }

    /// The rows the writer prints.
    fn rows(&self) -> String {
        let groups: Vec<String> = self
            .groups
            .iter()
            .map(|(node, rows)| {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|[id, perf, price, start, end]| {
                        format!("[{id},{perf},{price},{start},{end}]")
                    })
                    .collect();
                format!("[{node},[{}]]", rows.join(","))
            })
            .collect();
        tagged(&groups, self.next_id)
    }

    /// The record groups of formats 2–5.
    fn records(&self) -> String {
        let groups: Vec<String> = self
            .groups
            .iter()
            .map(|(node, rows)| {
                let slots: Vec<String> = rows.iter().map(|&row| record(*node, row)).collect();
                format!(r#"{{"node":{node},"slots":[{}]}}"#, slots.join(","))
            })
            .collect();
        tagged(&groups, self.next_id)
    }

    /// The untagged payload of format 1: every slot record in `(start,
    /// id)` order, or as `order` leaves them.
    fn untagged(&self, order: impl FnOnce(&mut Vec<(u32, [i64; 5])>)) -> String {
        let mut slots: Vec<(u32, [i64; 5])> = self.slots().collect();
        slots.sort_by_key(|&(_, [id, _, _, start, _])| (start, id));
        order(&mut slots);
        let slots: Vec<String> = slots.into_iter().map(|(n, row)| record(n, row)).collect();
        format!(
            r#"{{"slots":[{}],"next_id":{}}}"#,
            slots.join(","),
            self.next_id
        )
    }
}

fn tagged(groups: &[String], next_id: u64) -> String {
    format!(
        r#"{{"repr":"interval","nodes":[{}],"next_id":{next_id}}}"#,
        groups.join(",")
    )
}

fn record(node: u32, [id, perf, price, start, end]: [i64; 5]) -> String {
    format!(
        r#"{{"id":{id},"node":{node},"perf":{perf},"price":{price},"span":{{"start":{start},"end":{end}}}}}"#
    )
}

/// Random markets: up to six nodes, up to five disjoint slots on each,
/// ids unique but scattered (even, in the order of random keys), the
/// cursor at or past the next id.
fn markets() -> impl Strategy<Value = Market> {
    let slot = (
        1i64..50,
        0i64..20,
        1i64..4000,
        1i64..9_000_000,
        any::<u64>(),
    );
    let node = (0u32..3, 0i64..100, prop::collection::vec(slot, 1..6));
    (prop::collection::vec(node, 1..7), 0u64..3).prop_map(|(nodes, extra)| {
        let mut keys: Vec<(u64, usize)> = nodes
            .iter()
            .flat_map(|(_, _, slots)| slots.iter().map(|slot| slot.4))
            .zip(0..)
            .collect();
        keys.sort_unstable();
        let mut ids = vec![0; keys.len()];
        for (rank, (_, at)) in keys.into_iter().enumerate() {
            ids[at] = 2 * rank as i64;
        }
        let mut ids = ids.into_iter();
        let mut groups = Vec::new();
        let mut node = 0;
        for (i, (gap, base, slots)) in nodes.into_iter().enumerate() {
            node += gap + u32::from(i > 0);
            let mut cursor = base;
            let rows = slots
                .into_iter()
                .map(|(len, gap, perf, price, _)| {
                    let id = ids.next().expect("one id per slot");
                    cursor += gap;
                    let row = [id, perf, price, cursor, cursor + len];
                    cursor += len;
                    row
                })
                .collect();
            groups.push((node, rows));
        }
        let mut market = Market { groups, next_id: 0 };
        let max_id = market.slots().map(|(_, row)| row[0]).max().unwrap_or(0);
        market.next_id = max_id as u64 + 1 + extra;
        market
    })
}

/// The damage every shape of a market must refuse, each with the words
/// of its refusal: the market edited as numbers, to be printed in each
/// shape. `pick` chooses the slot edited.
fn damaged(market: &Market, pick: usize) -> Vec<(Market, &'static str)> {
    let mut out = Vec::new();
    let slot_count = market.slots().count();
    fn nth(m: &mut Market, n: usize) -> &mut [i64; 5] {
        let mut rows = m.groups.iter_mut().flat_map(|(_, rows)| rows.iter_mut());
        rows.nth(n).expect("a slot of the market")
    }
    let at = pick % slot_count;

    let mut empty = market.clone();
    let row = nth(&mut empty, at);
    row[4] = row[3];
    out.push((empty, "has empty span"));

    let mut inverted = market.clone();
    let row = nth(&mut inverted, at);
    row[4] = row[3] - 1;
    out.push((inverted, "ends before it starts"));

    if slot_count > 1 {
        let mut twice = market.clone();
        let id = nth(&mut twice, at)[0];
        nth(&mut twice, (at + 1) % slot_count)[0] = id;
        out.push((twice, "duplicate slot id"));
    }

    if let Some(g) = market.groups.iter().position(|(_, rows)| rows.len() > 1) {
        let mut overlapping = market.clone();
        let rows = &mut overlapping.groups[g].1;
        rows[0][4] = rows[1][3] + 1;
        out.push((overlapping, "overlap"));
    }

    let mut low = market.clone();
    low.next_id = market.slots().map(|(_, row)| row[0]).max().unwrap() as u64;
    out.push((low, "is not above"));
    out
}

/// A window as numbers: its start and each member `[source, node, perf,
/// price, runtime]`.
fn window_text(start: i64, members: &[[i64; 5]], records: &[bool]) -> String {
    let members: Vec<String> = members
        .iter()
        .zip(records.iter().cycle())
        .map(|(&[source, node, perf, price, runtime], &record)| {
            if record {
                format!(
                    r#"{{"source":{source},"node":{node},"perf":{perf},"price":{price},"runtime":{runtime}}}"#
                )
            } else {
                format!("[{source},{node},{perf},{price},{runtime}]")
            }
        })
        .collect();
    format!(r#"{{"start":{start},"slots":[{}]}}"#, members.join(","))
}

/// Random windows: one to six members on distinct nodes.
fn windows() -> impl Strategy<Value = (i64, Vec<[i64; 5]>)> {
    let member = (0i64..5000, 0i64..4, 1i64..4000, 1i64..9_000_000, 1i64..300);
    (-50i64..500, prop::collection::vec(member, 1..7)).prop_map(|(start, members)| {
        let mut node = -1;
        let members = members
            .into_iter()
            .map(|(source, gap, perf, price, runtime)| {
                node += 1 + gap;
                [source, node, perf, price, runtime]
            })
            .collect();
        (start, members)
    })
}

fn window(start: i64, members: &[[i64; 5]]) -> Window {
    let members = members.iter().map(|&[source, node, perf, price, runtime]| {
        let slot = Slot::new(
            SlotId::new(source as u64),
            NodeId::new(node as u32),
            Perf::from_milli(perf),
            Price::from_micro(price),
            Span::new(TimePoint::new(start), TimePoint::new(start + runtime)).unwrap(),
        )
        .unwrap();
        WindowSlot::from_slot(&slot, TimeDelta::new(runtime)).unwrap()
    });
    Window::new(TimePoint::new(start), members.collect()).unwrap()
}

fn refused<T: serde::de::DeserializeOwned + std::fmt::Debug>(text: &str, needle: &str) {
    let err = serde_json::from_str::<T>(text)
        .expect_err(needle)
        .to_string();
    assert!(
        err.contains(needle),
        "{err:?} should mention {needle:?}: {text}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A market decodes to one list from the writer's rows, the record
    /// groups and the untagged payload, and the same damage is refused in
    /// all three.
    #[test]
    fn markets_decode_alike_from_rows_and_records(market in markets(), pick in 0usize..64) {
        let list = market.list();
        let rows = serde_json::to_string(&list).expect("text");
        prop_assert_eq!(&rows, &market.rows());
        for text in [rows, market.records(), market.untagged(|_| ())] {
            let back: SlotList = serde_json::from_str(&text).expect("decodes");
            back.validate().expect("valid");
            prop_assert_eq!(&back, &list);
        }

        for (damaged, needle) in damaged(&market, pick) {
            refused::<SlotList>(&damaged.rows(), needle);
            refused::<SlotList>(&damaged.records(), needle);
            refused::<SlotList>(&damaged.untagged(|_| ()), needle);
        }
        // A slot filed under the wrong node: a record naming another
        // node than its group's, a group of rows after a group of the
        // same or a higher node.
        let mut misfiled = market.records();
        let (node, rows) = &market.groups[pick % market.groups.len()];
        let id = rows[0][0];
        let at = format!(r#"{{"id":{id},"node":{node},"#);
        misfiled = misfiled.replacen(&at, &format!(r#"{{"id":{id},"node":{},"#, node + 1), 1);
        refused::<SlotList>(&misfiled, "filed under node");
        let mut regrouped = market.clone();
        regrouped.groups.push(market.groups[pick % market.groups.len()].clone());
        refused::<SlotList>(&regrouped.rows(), "filed under node");
        // The untagged payload lists its slots in order.
        if market.slots().count() > 1 {
            let swapped = market.untagged(|slots| slots.swap(0, 1));
            refused::<SlotList>(&swapped, "breaks (start, id) order");
        }
    }

    /// A window decodes to one value whatever shape each member takes,
    /// and the same damage is refused in both.
    #[test]
    fn windows_decode_alike_from_rows_and_records(
        case in windows(),
        records in prop::collection::vec(any::<bool>(), 1..7),
        pick in 0usize..64,
    ) {
        let (start, members) = case;
        let w = window(start, &members);
        let rows = serde_json::to_string(&w).expect("text");
        prop_assert_eq!(&rows, &window_text(start, &members, &[false]));
        for shapes in [&[false][..], &[true], &records] {
            let back: Window = serde_json::from_str(&window_text(start, &members, shapes)).expect("decodes");
            prop_assert_eq!(&back, &w);
        }

        let at = pick % members.len();
        for shapes in [&[false][..], &[true]] {
            refused::<Window>(&window_text(start, &[], shapes), "at least one slot");
            for runtime in [0, -1] {
                let mut edited = members.clone();
                edited[at][4] = runtime;
                refused::<Window>(&window_text(start, &edited, shapes), "non-positive runtime");
            }
            if members.len() > 1 {
                let mut edited = members.clone();
                edited[(at + 1) % members.len()][1] = members[at][1];
                refused::<Window>(&window_text(start, &edited, shapes), "two tasks to node");
            }
        }
    }
}
