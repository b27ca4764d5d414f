//! Equivalence properties for the tracker's indexed query paths.
//!
//! `LocationTracker` serves `location_of` and `objects_in_zone` from a
//! `ZoneHistoryIndex` of per-object time-ordered runs (one binary
//! search per probe) instead of scanning a history vector. The index
//! is only an optimization if it is *undetectable*: these properties
//! pin both queries to a naive full-history reference scan over
//! arbitrary (including out-of-order) finite feeds, pin eviction to a
//! filter of the time-sorted feed, pin `absorb` to one tracker fed the
//! concatenated feeds, and pin the typed rejection of non-finite times
//! that replaced the old panicking `expect`.

use proptest::prelude::*;
use rfid_track::{LocationTracker, ObjectHandle, ObjectRegistry, ObserveError, ZoneObservation};

const OBJECTS: usize = 3;
const STALENESS_S: f64 = 4.0;

fn handles() -> Vec<ObjectHandle> {
    let mut registry = ObjectRegistry::new();
    (0..OBJECTS)
        .map(|i| registry.register(format!("case-{i}")))
        .collect()
}

/// Builds the tracker and the raw feed from a generated plan. Times
/// come from a small grid so ties and out-of-order arrivals are
/// common — exactly the cases where index/scan disagreement would hide.
fn feed(plan: &[(usize, usize, u8)]) -> (LocationTracker, Vec<ZoneObservation>, Vec<ObjectHandle>) {
    let objects = handles();
    let fed: Vec<ZoneObservation> = plan
        .iter()
        .map(|&(object, zone, time)| ZoneObservation {
            object: objects[object],
            zone,
            time_s: f64::from(time) * 0.5,
            inferred: false,
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

proptest! {
    /// The indexed `location_of` equals the reference scan for every
    /// object at probe times before, between, at, and after the feed.
    #[test]
    fn location_of_matches_the_reference_scan(
        plan in proptest::collection::vec((0usize..OBJECTS, 0usize..4, 0u8..20), 0..48),
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
        plan in proptest::collection::vec((0usize..OBJECTS, 0usize..4, 0u8..20), 0..48),
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
        plan in proptest::collection::vec((0usize..OBJECTS, 0usize..4, 0u8..20), 0..48),
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
        plan in proptest::collection::vec((0usize..OBJECTS, 0usize..4, 0u8..20), 0..48),
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

    /// `absorb` equals one tracker fed the concatenated feeds, whether
    /// the two trackers share objects and times or hold disjoint
    /// objects as the shards of one plane do — in which case the union
    /// also equals the tracker fed the original interleaved feed.
    #[test]
    fn absorb_equals_one_tracker_fed_the_concatenated_feeds(
        first in proptest::collection::vec((0usize..OBJECTS, 0usize..4, 0u8..20), 0..32),
        second in proptest::collection::vec((0usize..OBJECTS, 0usize..4, 0u8..20), 0..32),
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
        let ObserveError::NonFiniteTime { time_s } = err;
        assert_eq!(time_s.to_bits(), bad.to_bits());
        assert_eq!(tracker, reference, "rejection must not mutate state");
    }
    assert_eq!(tracker.location_of(objects[0], 2.0), Some(1));
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
