//! Equivalence properties for the tracker's indexed query paths.
//!
//! `LocationTracker` serves `location_of` and `objects_in_zone` from a
//! `ZoneHistoryIndex` of per-object time-ordered histories, each a time
//! column with the runs of equal `(zone, inferred)` keys along it
//! (binary searches per probe), instead of scanning a history vector.
//! The index is only an optimization if it is *undetectable*: these
//! properties pin both queries to a naive full-history reference scan
//! over arbitrary (including out-of-order) finite feeds, pin eviction
//! to a filter of the time-sorted feed and, interleaved with
//! observations, to a per-object model, pin `absorb` to one tracker fed
//! the concatenated feeds, pin the transitions the operator face emits
//! to an oracle over the feed, pin the eviction-aware batch feed to
//! `push` followed by eviction, and pin the typed rejection of
//! non-finite times that replaced the old panicking `expect`, and of
//! zones too large for a history key. Generated observations draw the
//! inferred flag, so a key that lost it would show; a zone-churn plan
//! puts late observations on run boundaries, cuts inside runs and
//! absorbs interleaved runs.

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rfid_track::stream::Operator;
use rfid_track::{
    LocationTracker, ObjectHandle, ObjectRegistry, ObserveError, ZoneObservation, ZoneTransition,
};
use std::iter;

const OBJECTS: usize = 3;
const STALENESS_S: f64 = 4.0;

fn handles() -> Vec<ObjectHandle> {
    let mut registry = ObjectRegistry::new();
    (0..OBJECTS)
        .map(|i| registry.register(format!("case-{i}")))
        .collect()
}

/// An observation plan of up to `len` steps, each `(object, zone,
/// time step, inferred)`.
fn plan(len: usize) -> impl Strategy<Value = Vec<(usize, usize, u8, bool)>> {
    proptest::collection::vec((0usize..OBJECTS, 0usize..4, 0u8..20, any::<bool>()), 0..len)
}

/// Builds the tracker and the raw feed from a generated plan. Times
/// come from a small grid so ties and out-of-order arrivals are
/// common — exactly the cases where index/scan disagreement would hide.
fn feed(
    plan: &[(usize, usize, u8, bool)],
) -> (LocationTracker, Vec<ZoneObservation>, Vec<ObjectHandle>) {
    let objects = handles();
    let fed: Vec<ZoneObservation> = plan
        .iter()
        .map(|&(object, zone, time, inferred)| ZoneObservation {
            object: objects[object],
            zone,
            time_s: f64::from(time) * 0.5,
            inferred,
        })
        .collect();
    (tracker_of(&fed), fed, objects)
}

/// One tracker fed `observations` in order.
fn tracker_of<'a>(observations: impl IntoIterator<Item = &'a ZoneObservation>) -> LocationTracker {
    let mut tracker = LocationTracker::new(STALENESS_S);
    for obs in observations {
        tracker.observe(*obs).expect("finite time");
    }
    tracker
}

/// The object's feed in (time, feed-order) sort: what its history run
/// must hold.
fn time_sorted(fed: &[ZoneObservation], object: ObjectHandle) -> Vec<ZoneObservation> {
    let mut want: Vec<ZoneObservation> =
        fed.iter().copied().filter(|o| o.object == object).collect();
    want.sort_by(|a, b| a.time_s.partial_cmp(&b.time_s).expect("finite"));
    want
}

/// Reference `location_of`: scan the full feed, keep the last-fed
/// observation among those with the maximum time at or before `now_s`
/// (matching `observe`'s `>=` update rule), then apply staleness.
fn scan_location(fed: &[ZoneObservation], object: ObjectHandle, now_s: f64) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for obs in fed.iter().filter(|o| o.object == object) {
        if obs.time_s <= now_s && best.is_none_or(|(t, _)| obs.time_s >= t) {
            best = Some((obs.time_s, obs.zone));
        }
    }
    let (time_s, zone) = best?;
    (now_s - time_s <= STALENESS_S).then_some(zone)
}

/// A time from a small grid, so ties are common, or one of the values
/// a grid cannot produce: `-0.0` (equal to the grid's `0.0`), `NaN`
/// and both infinities.
fn grid_or_non_finite(step: u8) -> f64 {
    match step {
        0..=19 => f64::from(step) * 0.5,
        20 => -0.0,
        21 => f64::NAN,
        22 => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    }
}

/// Reference transitions, one slot per fed observation. The estimate
/// before observation `i` comes from a scan of the object's earlier
/// finite observations: the last-fed among those with the greatest
/// time. A first finite sight moves from nothing; an observation at or
/// after the estimate's time in another zone moves from the estimate;
/// anything else, and every non-finite time, moves nothing.
fn oracle_transitions(fed: &[ZoneObservation]) -> Vec<Option<ZoneTransition>> {
    fed.iter()
        .enumerate()
        .map(|(i, obs)| {
            if !obs.time_s.is_finite() {
                return None;
            }
            let mut estimate: Option<(usize, f64)> = None;
            for earlier in &fed[..i] {
                if earlier.object == obs.object
                    && earlier.time_s.is_finite()
                    && estimate.is_none_or(|(_, time_s)| earlier.time_s >= time_s)
                {
                    estimate = Some((earlier.zone, earlier.time_s));
                }
            }
            let from = match estimate {
                None => None,
                Some((zone, time_s)) if obs.time_s >= time_s && obs.zone != zone => Some(zone),
                Some(_) => return None,
            };
            Some(ZoneTransition {
                object: obs.object,
                from,
                to: obs.zone,
                time_s: obs.time_s,
            })
        })
        .collect()
}

proptest! {
    /// `Operator::push` emits exactly the oracle's transitions over
    /// arbitrary out-of-order feeds with ties and non-finite times.
    #[test]
    fn push_emits_exactly_the_oracle_transitions(
        plan in proptest::collection::vec(
            (0usize..OBJECTS, 0usize..3, 0u8..24, any::<bool>()),
            0..64,
        ),
    ) {
        let objects = handles();
        let fed: Vec<ZoneObservation> = plan
            .iter()
            .map(|&(object, zone, step, inferred)| ZoneObservation {
                object: objects[object],
                zone,
                time_s: grid_or_non_finite(step),
                inferred,
            })
            .collect();
        let mut tracker = LocationTracker::new(STALENESS_S);
        for (i, (obs, want)) in fed.iter().zip(oracle_transitions(&fed)).enumerate() {
            let want: Vec<ZoneTransition> = want.into_iter().collect();
            prop_assert_eq!(tracker.push(*obs), want, "push {}: {:?}", i, obs);
        }
    }

    /// The indexed `location_of` equals the reference scan for every
    /// object at probe times before, between, at, and after the feed.
    #[test]
    fn location_of_matches_the_reference_scan(
        plan in plan(48),
        probe in 0usize..48,
    ) {
        let (tracker, fed, objects) = feed(&plan);
        let now_s = -0.25 + (probe as f64) * 0.25;
        for object in &objects {
            prop_assert_eq!(
                tracker.location_of(*object, now_s),
                scan_location(&fed, *object, now_s),
                "object {:?} at {}", object, now_s
            );
        }
        // NaN query times answer None rather than panicking.
        for object in &objects {
            prop_assert_eq!(tracker.location_of(*object, f64::NAN), None);
        }
    }

    /// The indexed `objects_in_zone` equals filtering every object
    /// through the reference scan, ascending by handle.
    #[test]
    fn objects_in_zone_matches_the_reference_scan(
        plan in plan(48),
        zone in 0usize..4,
        probe in 0usize..48,
    ) {
        let (tracker, fed, objects) = feed(&plan);
        let now_s = -0.25 + (probe as f64) * 0.25;
        let want: Vec<ObjectHandle> = objects
            .iter()
            .copied()
            .filter(|object| scan_location(&fed, *object, now_s) == Some(zone))
            .collect();
        prop_assert_eq!(tracker.objects_in_zone(zone, now_s), want);
    }

    /// History retained by the tracker is exactly the feed in
    /// (time, feed-order) sort — the index loses nothing.
    #[test]
    fn history_of_is_the_time_sorted_feed(
        plan in plan(48),
    ) {
        let (tracker, fed, objects) = feed(&plan);
        for object in &objects {
            let got: Vec<ZoneObservation> = tracker.history_of(*object).collect();
            prop_assert_eq!(got, time_sorted(&fed, *object));
        }
    }

    /// Eviction keeps exactly the time-sorted feed at or after the
    /// cutoff, reports exactly what it removed, and leaves every live
    /// estimate (a query at or after the object's newest time) as it
    /// was. Cutoffs fall on and between the feed's times.
    #[test]
    fn eviction_keeps_the_sorted_feed_at_or_after_the_cutoff(
        plan in plan(48),
        cut in 0usize..44,
    ) {
        let (mut tracker, fed, objects) = feed(&plan);
        let cutoff_s = cut as f64 * 0.25;
        let live_at = |object: ObjectHandle| {
            let newest = fed
                .iter()
                .filter(|o| o.object == object)
                .map(|o| o.time_s)
                .fold(0.0, f64::max);
            [newest, newest + 1.0, newest + STALENESS_S + 1.0]
        };
        let live = |tracker: &LocationTracker| -> Vec<Option<usize>> {
            objects
                .iter()
                .flat_map(|&object| live_at(object).map(|at| tracker.location_of(object, at)))
                .collect()
        };
        let before = live(&tracker);
        let evicted = tracker.evict_history_before(cutoff_s);
        let stale = fed.iter().filter(|o| o.time_s < cutoff_s).count();
        prop_assert_eq!(evicted, stale);
        prop_assert_eq!(tracker.history_len(), fed.len() - stale);
        for object in &objects {
            let want: Vec<ZoneObservation> = time_sorted(&fed, *object)
                .into_iter()
                .filter(|o| o.time_s >= cutoff_s)
                .collect();
            let got: Vec<ZoneObservation> = tracker.history_of(*object).collect();
            prop_assert_eq!(got, want, "object {:?} cut at {}", object, cutoff_s);
        }
        prop_assert_eq!(live(&tracker), before);
    }

    /// Evictions interleaved with observations — runs emptied,
    /// refilled and emptied again, late observations landing behind a
    /// cutoff — keep exactly what a per-object model keeps, report
    /// exactly what it removes, and leave shard trackers whose union
    /// still evicts like the single tracker.
    #[test]
    fn interleaved_evictions_match_a_per_object_model(
        steps in proptest::collection::vec(
            (0u8..5, 0usize..OBJECTS, 0usize..4, 0u8..40, any::<bool>()),
            0..64,
        ),
    ) {
        let objects = handles();
        let mut tracker = LocationTracker::new(STALENESS_S);
        let mut shards = [LocationTracker::new(STALENESS_S), LocationTracker::new(STALENESS_S)];
        let mut model: Vec<Vec<ZoneObservation>> = vec![Vec::new(); OBJECTS];
        for &(kind, object, zone, time, inferred) in &steps {
            if kind == 0 {
                let cutoff_s = f64::from(time) * 0.25;
                let mut stale = 0;
                for run in &mut model {
                    let before = run.len();
                    run.retain(|o| o.time_s >= cutoff_s);
                    stale += before - run.len();
                }
                prop_assert_eq!(tracker.evict_history_before(cutoff_s), stale);
                for shard in &mut shards {
                    shard.evict_history_before(cutoff_s);
                }
            } else {
                let observation = ZoneObservation {
                    object: objects[object],
                    zone,
                    time_s: f64::from(time / 2) * 0.5,
                    inferred,
                };
                let run = &mut model[object];
                let after = run.partition_point(|o| o.time_s <= observation.time_s);
                run.insert(after, observation);
                tracker.observe(observation).expect("finite time");
                shards[object % 2].observe(observation).expect("finite time");
            }
            prop_assert_eq!(tracker.history_len(), model.iter().map(Vec::len).sum::<usize>());
        }
        for (object, run) in objects.iter().zip(&model) {
            let got: Vec<ZoneObservation> = tracker.history_of(*object).collect();
            prop_assert_eq!(&got, run);
        }
        let [mut union, other] = shards;
        union.absorb(other);
        prop_assert_eq!(&union, &tracker);
        let cutoff_s = steps.last().map_or(0.0, |&(_, _, _, time, _)| f64::from(time) * 0.25);
        prop_assert_eq!(
            union.evict_history_before(cutoff_s),
            tracker.evict_history_before(cutoff_s)
        );
        prop_assert_eq!(union, tracker);
    }

    /// `absorb` equals one tracker fed the concatenated feeds, whether
    /// the two trackers share objects and times or hold disjoint
    /// objects as the shards of one plane do — in which case the union
    /// also equals the tracker fed the original interleaved feed.
    #[test]
    fn absorb_equals_one_tracker_fed_the_concatenated_feeds(
        first in plan(32),
        second in plan(32),
    ) {
        let (mut joined, first_fed, _) = feed(&first);
        let (later, second_fed, _) = feed(&second);
        joined.absorb(later);
        prop_assert_eq!(joined, tracker_of(first_fed.iter().chain(&second_fed)));

        let mut union = LocationTracker::new(STALENESS_S);
        for shard in 0..2 {
            union.absorb(tracker_of(
                first_fed.iter().filter(|o| o.object.index() % 2 == shard),
            ));
        }
        prop_assert_eq!(union, tracker_of(&first_fed));
    }
}

/// One object's zone-churn feed: `runs` of equal `(zone, inferred)`
/// keys, `length` observations each, at rising times two to a time
/// step (so some runs start among equal times), in time order.
fn churn(object: ObjectHandle, runs: &[(usize, bool, usize)]) -> Vec<ZoneObservation> {
    runs.iter()
        .flat_map(|&(zone, inferred, length)| iter::repeat_n((zone, inferred), length))
        .enumerate()
        .map(|(i, (zone, inferred))| ZoneObservation {
            object,
            zone,
            time_s: (i / 2) as f64,
            inferred,
        })
        .collect()
}

/// A late observation landing on a boundary of `base`: just after
/// observation `at - 1` (`place` 0: at its time, 1: half way to the
/// next), or ahead of the whole feed (2), keyed like the observation
/// before the boundary (`key` 0), after it (1), or like no run (2).
fn late_at(
    base: &[ZoneObservation],
    at: usize,
    place: u8,
    key: u8,
    inferred: bool,
) -> ZoneObservation {
    let time_s = match place {
        0 => base[at - 1].time_s,
        1 => (base[at - 1].time_s + base[at].time_s) / 2.0,
        _ => base[0].time_s - 1.0,
    };
    let like = match key {
        0 => base[at - 1],
        1 => base[at],
        _ => ZoneObservation {
            zone: 3,
            inferred,
            ..base[at]
        },
    };
    ZoneObservation { time_s, ..like }
}

proptest! {
    /// Zone churn: late observations on run boundaries, an eviction
    /// that may cut inside a run, and the absorb of two trackers whose
    /// runs interleave. After each, the tracker answers like the
    /// reference scans and equals the tracker fed the same history in
    /// time order, so its runs are as few as the keys allow.
    #[test]
    fn zone_churn_matches_the_reference_scans(
        runs in proptest::collection::vec((0usize..3, any::<bool>(), 1usize..5), 2..10),
        late in proptest::collection::vec(
            (0usize..64, 0u8..3, 0u8..3, any::<bool>()),
            0..8,
        ),
        cut in 0usize..64,
        between in any::<bool>(),
    ) {
        let object = handles()[0];
        let base = churn(object, &runs);
        let boundaries: Vec<usize> = runs
            .iter()
            .scan(0, |start, &(_, _, length)| {
                *start += length;
                Some(*start)
            })
            .filter(|&at| at < base.len())
            .collect();
        let mut fed = base.clone();
        fed.extend(late.iter().map(|&(pick, place, key, inferred)| {
            late_at(&base, boundaries[pick % boundaries.len()], place, key, inferred)
        }));
        let mut tracker = tracker_of(&fed);
        let sorted = time_sorted(&fed, object);
        prop_assert_eq!(&tracker, &tracker_of(&sorted));
        prop_assert_eq!(tracker.history_of(object).collect::<Vec<_>>(), sorted.clone());
        let probes = || (0..=4 * base.len() + 4).map(|step| step as f64 * 0.25 - 1.5);
        for now_s in probes() {
            prop_assert_eq!(
                tracker.location_of(object, now_s),
                scan_location(&fed, object, now_s),
                "at {}", now_s
            );
        }

        let cutoff_s = sorted[cut % sorted.len()].time_s + if between { 0.25 } else { 0.0 };
        let stale = fed.iter().filter(|o| o.time_s < cutoff_s).count();
        prop_assert_eq!(tracker.evict_history_before(cutoff_s), stale);
        let kept: Vec<ZoneObservation> =
            sorted.iter().copied().filter(|o| o.time_s >= cutoff_s).collect();
        prop_assert_eq!(tracker.history_of(object).collect::<Vec<_>>(), kept.clone());
        let mut rebuilt = LocationTracker::new(STALENESS_S);
        rebuilt.push_and_evict_before(sorted.iter().map(|&o| ((), o)), cutoff_s, &mut Vec::new());
        prop_assert_eq!(&tracker, &rebuilt);
        let newest = sorted.last().map_or(0.0, |o| o.time_s);
        let retained: Vec<ZoneObservation> =
            fed.iter().copied().filter(|o| o.time_s >= cutoff_s).collect();
        for now_s in probes() {
            let reference = if now_s >= newest { &fed } else { &retained };
            prop_assert_eq!(
                tracker.location_of(object, now_s),
                scan_location(reference, object, now_s),
                "at {} after a cut at {}", now_s, cutoff_s
            );
            let want: Vec<ObjectHandle> = (scan_location(reference, object, now_s) == Some(1))
                .then_some(object)
                .into_iter()
                .collect();
            prop_assert_eq!(tracker.objects_in_zone(1, now_s), want);
        }

        let run_of: Vec<usize> = runs
            .iter()
            .enumerate()
            .flat_map(|(run, &(_, _, length))| iter::repeat_n(run, length))
            .collect();
        let runs_of_parity = |parity: usize| -> Vec<ZoneObservation> {
            base.iter()
                .zip(&run_of)
                .filter(|&(_, run)| run % 2 == parity)
                .map(|(&o, _)| o)
                .collect()
        };
        let (even, odd) = (runs_of_parity(0), runs_of_parity(1));
        let mut joined = tracker_of(&even);
        joined.absorb(tracker_of(&odd));
        let concatenated: Vec<ZoneObservation> = even.iter().chain(&odd).copied().collect();
        prop_assert_eq!(&joined, &tracker_of(&concatenated));
        prop_assert_eq!(
            joined.history_of(object).collect::<Vec<_>>(),
            time_sorted(&concatenated, object)
        );
        prop_assert_eq!(&joined, &tracker_of(&time_sorted(&concatenated, object)));
    }
}

/// A zone the generator picks: small ones, the largest a history key
/// holds, and two above it.
fn zone_or_out_of_range(pick: u8) -> usize {
    match pick {
        0..=3 => usize::from(pick),
        4 => (1 << 31) - 1,
        5 => 1 << 31,
        _ => usize::MAX,
    }
}

/// A batch cutoff the generator picks: `rise` added to the running
/// finite cutoff (so a sequence of batches cuts at rising times that
/// fall before, inside and after the grid), or one of `-inf`, `+inf`
/// and `NaN`, which leave the running cutoff where it was.
fn next_cutoff(running: &mut f64, rise: u8, special: u8) -> f64 {
    match special {
        0 => f64::NEG_INFINITY,
        1 => f64::INFINITY,
        2 => f64::NAN,
        _ => {
            *running += f64::from(rise) * 0.5;
            *running
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `push_and_evict_before` is `push` on each observation followed by
    /// `evict_history_before`: over a sequence of batches with rising,
    /// infinite and NaN cutoffs, fed late and equal-time observations,
    /// non-finite times and zones above 2^31 - 1, it leaves a tracker
    /// equal to the reference's, with the same `history_len`, the same
    /// transitions at the same input positions, and the same answers to
    /// later `location_of` and `history_of` queries.
    #[test]
    fn push_and_evict_before_equals_push_then_evict(
        batches in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..OBJECTS, 0u8..7, 0u8..24), 0..24),
                0u8..8,
                0u8..8,
            ),
            1..5,
        ),
        start in 0u8..24,
    ) {
        let objects = handles();
        let mut batched = LocationTracker::new(STALENESS_S);
        let mut reference = LocationTracker::new(STALENESS_S);
        let mut running = f64::from(start) * 0.5 - 2.0;
        for (plan, rise, special) in &batches {
            let cutoff_s = next_cutoff(&mut running, *rise, *special);
            let fed: Vec<ZoneObservation> = plan
                .iter()
                .map(|&(object, zone, step)| ZoneObservation {
                    object: objects[object],
                    zone: zone_or_out_of_range(zone),
                    time_s: grid_or_non_finite(step),
                    inferred: step % 2 == 1,
                })
                .collect();
            let mut got = Vec::new();
            batched.push_and_evict_before(fed.iter().copied().enumerate(), cutoff_s, &mut got);
            let mut want = Vec::new();
            for (position, observation) in fed.iter().enumerate() {
                want.extend(
                    reference
                        .push(*observation)
                        .into_iter()
                        .map(|transition| (position, transition)),
                );
            }
            reference.evict_history_before(cutoff_s);
            prop_assert_eq!(got, want, "cutoff {}", cutoff_s);
            prop_assert_eq!(&batched, &reference, "cutoff {}", cutoff_s);
            prop_assert_eq!(batched.history_len(), reference.history_len());
        }
        for object in &objects {
            prop_assert_eq!(
                batched.history_of(*object).collect::<Vec<_>>(),
                reference.history_of(*object).collect::<Vec<_>>()
            );
            for probe in 0..48 {
                let now_s = -0.25 + f64::from(probe) * 0.25;
                prop_assert_eq!(
                    batched.location_of(*object, now_s),
                    reference.location_of(*object, now_s),
                    "object {:?} at {}", object, now_s
                );
            }
        }
    }
}

#[test]
fn non_finite_times_are_typed_errors_and_leave_the_tracker_unchanged() {
    let objects = handles();
    let mut tracker = LocationTracker::new(STALENESS_S);
    tracker
        .observe(ZoneObservation {
            object: objects[0],
            zone: 1,
            time_s: 1.0,
            inferred: false,
        })
        .expect("finite time");
    let reference = tracker.clone();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = tracker
            .observe(ZoneObservation {
                object: objects[0],
                zone: 0,
                time_s: bad,
                inferred: false,
            })
            .expect_err("non-finite time must be rejected");
        let ObserveError::NonFiniteTime { time_s } = err else {
            panic!("expected NonFiniteTime, got {err:?}");
        };
        assert_eq!(time_s.to_bits(), bad.to_bits());
        assert_eq!(tracker, reference, "rejection must not mutate state");
    }
    assert_eq!(tracker.location_of(objects[0], 2.0), Some(1));
}

/// A retained observation keeps its zone in 31 bits, so a larger zone
/// is a typed rejection like a non-finite time, never a truncation.
#[test]
fn out_of_range_zones_are_typed_errors_and_leave_the_tracker_unchanged() {
    let objects = handles();
    let largest = (1usize << 31) - 1;
    let mut tracker = LocationTracker::new(STALENESS_S);
    for (zone, inferred) in [(1, false), (largest, true)] {
        tracker
            .observe(ZoneObservation {
                object: objects[0],
                zone,
                time_s: 1.0,
                inferred,
            })
            .expect("a zone below 2^31 is held");
    }
    let held: Vec<(usize, bool)> = tracker
        .history_of(objects[0])
        .map(|o| (o.zone, o.inferred))
        .collect();
    assert_eq!(held, [(1, false), (largest, true)]);
    let reference = tracker.clone();
    for bad in [largest + 1, usize::MAX] {
        let err = tracker
            .observe(ZoneObservation {
                object: objects[0],
                zone: bad,
                time_s: 2.0,
                inferred: false,
            })
            .expect_err("a zone above 2^31 - 1 must be rejected");
        assert_eq!(err, ObserveError::ZoneOutOfRange { zone: bad });
        assert_eq!(tracker, reference, "rejection must not mutate state");
    }
    assert_eq!(tracker.location_of(objects[0], 2.0), Some(largest));
}

#[test]
fn eviction_drops_old_history_but_keeps_live_estimates() {
    let objects = handles();
    let mut tracker = LocationTracker::new(1000.0);
    for time in 0..10 {
        tracker
            .observe(ZoneObservation {
                object: objects[time % 2],
                zone: time % 3,
                time_s: time as f64,
                inferred: false,
            })
            .expect("finite time");
    }
    assert_eq!(tracker.history_len(), 10);

    // Evict everything strictly before t=5: five observations go.
    assert_eq!(tracker.evict_history_before(5.0), 5);
    assert_eq!(tracker.history_len(), 5);

    // Live estimates (query at/after the newest observation) survive.
    assert_eq!(tracker.location_of(objects[0], 20.0), Some(8 % 3));
    assert_eq!(tracker.location_of(objects[1], 20.0), Some(9 % 3));
    // Historical queries behind the cutoff now answer from nothing —
    // a durable deployment serves them from the store instead.
    assert_eq!(tracker.location_of(objects[0], 3.0), None);
    // Historical queries at or after the cutoff still answer.
    assert_eq!(tracker.location_of(objects[1], 7.5), Some(7 % 3));

    // A non-finite cutoff evicts nothing.
    assert_eq!(tracker.evict_history_before(f64::NAN), 0);
    assert_eq!(tracker.history_len(), 5);
}
