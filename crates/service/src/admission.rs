//! Admission control: typed accept/reject decisions against the live
//! run state, in the spirit of Libra's deadline/budget feasibility
//! screen.
//!
//! The daemon calls [`decide`] before injecting a submission. Checks run
//! cheapest-first and each rejection names its cause (see
//! [`RejectReason`]):
//!
//! 1. **validity** — the spec must convert to a well-formed request;
//! 2. **backpressure** — the scheduling backlog (pending jobs plus
//!    not-yet-processed arrivals) must stay under the configured bound,
//!    counting submissions already accepted in the current group-commit
//!    batch;
//! 3. **horizon** — virtual time must not be past the final cycle tick
//!    (a later submission could never be scheduled);
//! 4. **deadline feasibility** — if the spec carries a deadline, the
//!    earliest achievable completion (next cycle tick + wall time) must
//!    not overshoot it;
//! 5. **budget feasibility** — the current market must offer at least
//!    `nodes` distinct nodes with a live slot that satisfies the
//!    performance floor within the price cap. Under the AMP budget
//!    `S = C·t·N`, per-slot cap eligibility *is* affordability, so this
//!    single screen covers both. It always runs, although the market
//!    refreshes every cycle and the screen also sheds jobs a future
//!    publication could have hosted: no daemon ever ran without it, and
//!    its switch, `"admit_market": true`, is a reserved manifest key. The
//!    screen stops at the `nodes`-th eligible node; only a rejection walks
//!    every market, so it reports the best shard's whole count.
//!
//! Admission reads state but never mutates it and never draws
//! randomness, so it cannot perturb engine determinism.

use ecosched_core::{ResourceRequest, SlotList, TimePoint};
use ecosched_sim::reserved_key;
use serde::{Deserialize, Serialize};

use crate::protocol::{JobSpec, RejectReason};

/// The admission-control policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Reject submissions while the backlog is at or above this bound.
    /// The default (256) sits just above the saturation knee measured by
    /// `exp_online --saturate` (E15): halving the mean arrival gap from
    /// 2.5 to 1.25 ticks moves ALP's end-of-run backlog from 84 to 206,
    /// and the next halving explodes it to 595 while completions stall —
    /// past ~250 pending jobs, extra backlog only adds wait time, it
    /// does not add throughput.
    pub max_backlog: u64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy { max_backlog: 256 }
    }
}

// Serde through a derived wire struct that keeps the removed market-screen
// switch as a reserved key, on, so every manifest written before the
// removal still decodes and a fresh one is written byte for byte as before.
#[derive(Serialize)]
struct AdmissionPolicyWire {
    max_backlog: u64,
    admit_market: bool, // reserved
}

impl Serialize for AdmissionPolicy {
    fn write_json(&self, out: &mut Vec<u8>) {
        let wire = AdmissionPolicyWire {
            max_backlog: self.max_backlog,
            admit_market: true,
        };
        wire.write_json(out);
    }
}

impl<'de> Deserialize<'de> for AdmissionPolicy {
    fn read_json(parser: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let mut max_backlog = None;
        parser.read_map(|parser, key| match key {
            "max_backlog" => parser.field(&mut max_backlog, key),
            "admit_market" => reserved_key(parser, key, &true),
            _ => parser.skip_value(),
        })?;
        Ok(AdmissionPolicy {
            max_backlog: serde::required(max_backlog, "max_backlog")?,
        })
    }
}

/// The slice of run state admission reads.
#[derive(Debug)]
pub struct MarketView<'a> {
    /// Jobs waiting to be scheduled, summed across shards (see
    /// `RunState::backlog`).
    pub backlog: u64,
    /// The live vacant-slot market of every shard, in shard order.
    /// Service mode places each job on exactly one shard, so the
    /// budget screen asks whether *some* shard's market suffices — node
    /// and slot ids are shard-local and must not be pooled.
    pub markets: &'a [&'a SlotList],
    /// Current virtual time in ticks.
    pub now: i64,
    /// Ticks between cycle ticks.
    pub cycle_length: i64,
    /// The final cycle tick's time.
    pub horizon: i64,
}

impl MarketView<'_> {
    /// The next cycle tick at or after `now` (the earliest moment a new
    /// submission can be scheduled), saturating at the horizon.
    #[must_use]
    pub fn next_tick(&self) -> i64 {
        if self.now <= 0 {
            return 0;
        }
        let len = self.cycle_length.max(1);
        let below = self.now / len * len;
        let ticks = if below < self.now {
            below.saturating_add(len)
        } else {
            below
        };
        ticks.min(self.horizon)
    }
}

/// Decides one submission. `staged` is how many submissions were already
/// accepted into the current (not yet committed) batch — they count
/// against the backlog bound so a single burst cannot overshoot it.
///
/// # Errors
///
/// The typed [`RejectReason`]; nothing was persisted or mutated.
pub fn decide(
    policy: &AdmissionPolicy,
    view: &MarketView<'_>,
    spec: &JobSpec,
    staged: u64,
) -> Result<ResourceRequest, RejectReason> {
    let request = spec
        .to_request()
        .map_err(|detail| RejectReason::Malformed { detail })?;
    let earliest_finish = view
        .next_tick()
        .checked_add(spec.wall_ticks)
        .ok_or_else(|| RejectReason::Malformed {
            detail: format!(
                "wall_ticks {} runs past the end of virtual time",
                spec.wall_ticks
            ),
        })?;

    let backlog = view.backlog + staged;
    if backlog >= policy.max_backlog {
        return Err(RejectReason::BacklogFull {
            backlog,
            limit: policy.max_backlog,
        });
    }

    if view.now > view.horizon {
        return Err(RejectReason::BeyondHorizon {
            time: view.now,
            horizon: view.horizon,
        });
    }

    if let Some(deadline) = spec.deadline_tick {
        if deadline < earliest_finish {
            return Err(RejectReason::DeadlineInfeasible {
                deadline,
                earliest_finish,
            });
        }
    }

    // Best single shard: the job lands on one shard, so the screen passes
    // iff some shard's market could host it.
    let needed = request.nodes();
    let mut eligible = 0;
    for vacant in view.markets {
        eligible = eligible.max(eligible_nodes(vacant, &request, view.now, needed));
        if eligible >= needed {
            break;
        }
    }
    if eligible < needed {
        return Err(RejectReason::BudgetInfeasible {
            needed_nodes: needed as u64,
            eligible_nodes: eligible as u64,
        });
    }

    Ok(request)
}

/// Distinct nodes offering a live (not yet expired) slot that satisfies
/// the request's performance floor within its price cap, counted up to
/// `enough`: a count below it is the whole market's.
fn eligible_nodes(vacant: &SlotList, request: &ResourceRequest, now: i64, enough: usize) -> usize {
    let now = TimePoint::new(now);
    let eligible = vacant
        .iter()
        .filter(|slot| slot.end() > now && request.perf_ok(slot) && request.price_ok(slot));
    // Sorted, so a hostile `nodes` far above the market's size costs a
    // binary search per slot, not a scan.
    let mut nodes = Vec::with_capacity(enough.min(16));
    for slot in eligible {
        if let Err(at) = nodes.binary_search(&slot.node()) {
            nodes.insert(at, slot.node());
            if nodes.len() >= enough {
                break;
            }
        }
    }
    nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecosched_core::{NodeId, Perf, Price, Slot, SlotId, Span, TimePoint, PERF_SCALE};

    fn market() -> SlotList {
        let mut slots = Vec::new();
        for n in 0..4u32 {
            let span = Span::new(TimePoint::new(0), TimePoint::new(100)).expect("span");
            slots.push(
                Slot::new(
                    SlotId::new(u64::from(n)),
                    NodeId::new(n),
                    Perf::UNIT,
                    Price::from_credits(2),
                    span,
                )
                .expect("slot"),
            );
        }
        SlotList::from_slots(slots).expect("list")
    }

    fn spec() -> JobSpec {
        JobSpec {
            nodes: 2,
            wall_ticks: 30,
            min_perf_milli: 1000,
            price_cap_micro: 3_000_000,
            deadline_tick: None,
        }
    }

    fn view<'a>(markets: &'a [&'a SlotList]) -> MarketView<'a> {
        MarketView {
            backlog: 0,
            markets,
            now: 10,
            cycle_length: 60,
            horizon: 600,
        }
    }

    #[test]
    fn accepts_feasible_spec() {
        let vacant = market();
        let markets = [&vacant];
        let policy = AdmissionPolicy::default();
        let request = decide(&policy, &view(&markets), &spec(), 0).expect("accepted");
        assert_eq!(request.nodes(), 2);
    }

    #[test]
    fn rejects_over_backlog_counting_staged() {
        let vacant = market();
        let markets = [&vacant];
        let policy = AdmissionPolicy { max_backlog: 4 };
        let mut v = view(&markets);
        v.backlog = 3;
        assert!(decide(&policy, &v, &spec(), 0).is_ok());
        let denied = decide(&policy, &v, &spec(), 1).unwrap_err();
        assert_eq!(
            denied,
            RejectReason::BacklogFull {
                backlog: 4,
                limit: 4
            }
        );
    }

    #[test]
    fn rejects_past_horizon() {
        let vacant = market();
        let markets = [&vacant];
        let mut v = view(&markets);
        v.now = 601;
        assert!(matches!(
            decide(&AdmissionPolicy::default(), &v, &spec(), 0),
            Err(RejectReason::BeyondHorizon { .. })
        ));
    }

    #[test]
    fn rejects_impossible_deadline() {
        let vacant = market();
        let markets = [&vacant];
        let v = view(&markets);
        // Next tick is 60; earliest finish 60 + 30 = 90.
        let tight = JobSpec {
            deadline_tick: Some(89),
            ..spec()
        };
        assert_eq!(
            decide(&AdmissionPolicy::default(), &v, &tight, 0).unwrap_err(),
            RejectReason::DeadlineInfeasible {
                deadline: 89,
                earliest_finish: 90
            }
        );
        let loose = JobSpec {
            deadline_tick: Some(90),
            ..spec()
        };
        assert!(decide(&AdmissionPolicy::default(), &v, &loose, 0).is_ok());
    }

    /// Near the end of virtual time the next cycle tick saturates, and a
    /// wall time that does not fit after it is `Malformed`, not a wrapped
    /// earliest finish.
    #[test]
    fn rejects_a_finish_past_the_end_of_time() {
        let vacant = market();
        let markets = [&vacant];
        let late = MarketView {
            now: i64::MAX - 3,
            horizon: i64::MAX,
            ..view(&markets)
        };
        assert_eq!(late.next_tick(), i64::MAX);
        let endless = JobSpec {
            wall_ticks: i64::MAX / PERF_SCALE,
            price_cap_micro: 0,
            ..spec()
        };
        match decide(&AdmissionPolicy::default(), &late, &endless, 0) {
            Err(RejectReason::Malformed { detail }) => {
                assert!(detail.contains("end of virtual time"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unaffordable_market() {
        let vacant = market();
        let markets = [&vacant];
        let v = view(&markets);
        let priced_out = JobSpec {
            price_cap_micro: 1_000_000, // every slot costs 2 credits
            ..spec()
        };
        assert_eq!(
            decide(&AdmissionPolicy::default(), &v, &priced_out, 0).unwrap_err(),
            RejectReason::BudgetInfeasible {
                needed_nodes: 2,
                eligible_nodes: 0
            }
        );
    }

    #[test]
    fn rejects_more_nodes_than_market_offers() {
        let vacant = market();
        let markets = [&vacant];
        let v = view(&markets);
        let wide = JobSpec { nodes: 5, ..spec() };
        assert!(matches!(
            decide(&AdmissionPolicy::default(), &v, &wide, 0),
            Err(RejectReason::BudgetInfeasible {
                needed_nodes: 5,
                eligible_nodes: 4
            })
        ));
    }

    #[test]
    fn the_screen_passes_on_the_best_single_shard_not_the_pool() {
        // Two shards of 4 nodes each: a 5-node job fits neither alone,
        // and pooling shard-local node ids would double-count them.
        let (a, b) = (market(), market());
        let markets = [&a, &b];
        let v = view(&markets);
        let wide = JobSpec { nodes: 5, ..spec() };
        assert!(matches!(
            decide(&AdmissionPolicy::default(), &v, &wide, 0),
            Err(RejectReason::BudgetInfeasible {
                needed_nodes: 5,
                eligible_nodes: 4
            })
        ));
        let fits_one = JobSpec { nodes: 4, ..spec() };
        assert!(decide(&AdmissionPolicy::default(), &v, &fits_one, 0).is_ok());
    }

    /// The screen stops at the requested node count when a market has
    /// them, but a rejection walks every market and reports the best
    /// one's whole count, each node once however many slots it offers.
    #[test]
    fn the_screen_stops_at_enough_nodes_but_a_rejection_counts_them_all() {
        let half = |n: u32, id: u64, a: i64| {
            let span = Span::new(TimePoint::new(a), TimePoint::new(a + 50)).expect("span");
            Slot::new(
                SlotId::new(id),
                NodeId::new(n),
                Perf::UNIT,
                Price::from_credits(2),
                span,
            )
            .expect("slot")
        };
        // Six nodes, each offering two slots; and the four-node market.
        let slots = (0..6u32).flat_map(|n| {
            [
                half(n, 2 * u64::from(n), 0),
                half(n, 2 * u64::from(n) + 1, 50),
            ]
        });
        let wide = SlotList::from_slots(slots.collect()).expect("list");
        let small = market();
        let request = spec().to_request().expect("request");
        assert_eq!(eligible_nodes(&wide, &request, 10, 2), 2, "stops at enough");
        assert_eq!(eligible_nodes(&wide, &request, 10, usize::MAX), 6);
        let markets = [&small, &wide];
        let v = view(&markets);
        let accepted = decide(&AdmissionPolicy::default(), &v, &spec(), 0);
        assert_eq!(accepted, Ok(request));
        let too_wide = JobSpec { nodes: 7, ..spec() };
        assert_eq!(
            decide(&AdmissionPolicy::default(), &v, &too_wide, 0),
            Err(RejectReason::BudgetInfeasible {
                needed_nodes: 7,
                eligible_nodes: 6
            })
        );
    }

    #[test]
    fn malformed_specs_never_reach_the_market() {
        let vacant = market();
        let markets = [&vacant];
        let v = view(&markets);
        let bad = JobSpec { nodes: 0, ..spec() };
        assert!(matches!(
            decide(&AdmissionPolicy::default(), &v, &bad, 0),
            Err(RejectReason::Malformed { .. })
        ));
    }
}
