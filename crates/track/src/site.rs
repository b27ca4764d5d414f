//! Multi-portal sites: zones, portal-to-zone mapping, and location
//! tracking.
//!
//! The paper's applications — supply chains, toll gates, doorway access —
//! are *sites* with several read points: an object's location is inferred
//! from which portal last saw it ("human tracking with room-level
//! accuracy"). This module maps (reader, antenna) pairs to named zones,
//! turns raw reads into [`ZoneObservation`]s, and maintains a per-object
//! location estimate with staleness handling.

use crate::constraints::ZoneObservation;
use crate::registry::{ObjectHandle, ObjectRegistry};
use crate::store::ZoneHistoryIndex;
use crate::stream::Operator;
use rfid_sim::ReadEvent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A site: named zones and the portals (reader/antenna pairs) that
/// observe them.
///
/// # Examples
///
/// ```
/// use rfid_track::{ObjectRegistry, Site};
/// use rfid_gen2::Epc96;
/// use rfid_sim::ReadEvent;
///
/// let mut site = Site::new();
/// let dock = site.add_zone("dock door");
/// let aisle = site.add_zone("aisle gate");
/// site.assign_portal(0, 0, dock);
/// site.assign_portal(1, 0, aisle);
///
/// let mut registry = ObjectRegistry::new();
/// let case = registry.register("case");
/// registry.attach_tag(case, Epc96::from_u128(9));
///
/// let reads = [ReadEvent { time_s: 1.0, reader: 1, antenna: 0, tag: 0,
///                          epc: Epc96::from_u128(9) }];
/// let observations = site.observations(&registry, &reads);
/// assert_eq!(observations.len(), 1);
/// assert_eq!(observations[0].zone, aisle);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Site {
    zone_names: Vec<String>,
    portal_zone: BTreeMap<(usize, usize), usize>,
}

impl Site {
    /// Creates an empty site.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a zone, returning its id.
    pub fn add_zone(&mut self, name: impl Into<String>) -> usize {
        self.zone_names.push(name.into());
        self.zone_names.len() - 1
    }

    /// Number of zones.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.zone_names.len()
    }

    /// A zone's display name.
    ///
    /// # Panics
    ///
    /// Panics if the zone id was not created by this site.
    #[must_use]
    pub fn zone_name(&self, zone: usize) -> &str {
        &self.zone_names[zone]
    }

    /// Assigns a (reader, antenna) portal to a zone. Reassignment moves
    /// the portal.
    ///
    /// # Panics
    ///
    /// Panics if the zone id was not created by this site.
    pub fn assign_portal(&mut self, reader: usize, antenna: usize, zone: usize) {
        assert!(zone < self.zone_names.len(), "unknown zone id {zone}");
        self.portal_zone.insert((reader, antenna), zone);
    }

    /// The zone a (reader, antenna) pair reports into, if assigned.
    #[must_use]
    pub fn zone_of_portal(&self, reader: usize, antenna: usize) -> Option<usize> {
        self.portal_zone.get(&(reader, antenna)).copied()
    }

    /// Maps raw reads to zone observations. Reads from unassigned portals
    /// or unknown tags are dropped.
    ///
    /// # Ordering contract
    ///
    /// Input may arrive in any order (it is sorted internally; equal
    /// timestamps keep their input order). The result is time-ordered —
    /// bit-identical to pushing the sorted reads through an
    /// [`ObservationStream`](crate::stream::ObservationStream).
    #[must_use]
    pub fn observations(
        &self,
        registry: &ObjectRegistry,
        reads: &[ReadEvent],
    ) -> Vec<ZoneObservation> {
        let mut sorted: Vec<ReadEvent> = reads.to_vec();
        sorted.sort_by(|a, b| {
            a.time_s
                .partial_cmp(&b.time_s)
                .expect("read times are finite")
        });
        let mut op = crate::stream::ObservationStream::new(self, registry);
        op.run_batch(sorted)
    }
}

/// A typed rejection from [`LocationTracker::observe`].
///
/// Mirrors the wire adapter's `AdapterError::NonFiniteTime`: a
/// non-finite timestamp has no place in the tracker's total order over
/// times, so it is rejected at the boundary instead of poisoning every
/// later query (the historical scan used to `expect` finiteness and
/// could panic the daemon's query path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObserveError {
    /// The observation carries a NaN or infinite `time_s`.
    NonFiniteTime {
        /// The offending timestamp.
        time_s: f64,
    },
}

impl fmt::Display for ObserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserveError::NonFiniteTime { time_s } => {
                write!(f, "observation time {time_s} is not finite")
            }
        }
    }
}

impl std::error::Error for ObserveError {}

/// Per-object location estimation from zone observations.
///
/// The estimate is "last zone seen", expiring after `staleness_s` without
/// a new observation — room-level tracking with an honest unknown state.
/// Estimates and history live in one [`ZoneHistoryIndex`] entry per
/// object, so an observation costs one map probe, historical
/// [`LocationTracker::location_of`] and
/// [`LocationTracker::objects_in_zone`] queries are one binary search
/// of the object's time-ordered run rather than scans, and durable
/// deployments can evict observations that are already safe in a
/// [`ZoneHistoryStore`](crate::store::ZoneHistoryStore) via
/// [`LocationTracker::evict_history_before`].
///
/// Equality depends only on each object's own feed: trackers fed the
/// same per-object sequences compare equal however the objects were
/// interleaved, so trackers over disjoint objects join into the
/// single-feed tracker with [`LocationTracker::absorb`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocationTracker {
    staleness_s: f64,
    history: ZoneHistoryIndex,
}

impl LocationTracker {
    /// Creates a tracker whose estimates expire after `staleness_s`.
    ///
    /// # Panics
    ///
    /// Panics if `staleness_s` is not strictly positive.
    #[must_use]
    pub fn new(staleness_s: f64) -> Self {
        assert!(staleness_s > 0.0, "staleness must be positive");
        Self {
            staleness_s,
            history: ZoneHistoryIndex::new(),
        }
    }

    /// Feeds one observation (observations may arrive out of order; only
    /// newer ones update the estimate).
    ///
    /// # Errors
    ///
    /// [`ObserveError::NonFiniteTime`] if `time_s` is NaN or infinite;
    /// the tracker is unchanged.
    pub fn observe(&mut self, observation: ZoneObservation) -> Result<(), ObserveError> {
        self.record(observation).map(|_| ())
    }

    /// [`LocationTracker::observe`], returning the object's estimate
    /// from before the observation — the streaming operator face diffs
    /// against it. The estimate moves unless it is newer: equal times
    /// resolve to the later call.
    pub(crate) fn record(
        &mut self,
        observation: ZoneObservation,
    ) -> Result<Option<(usize, f64)>, ObserveError> {
        if !observation.time_s.is_finite() {
            return Err(ObserveError::NonFiniteTime {
                time_s: observation.time_s,
            });
        }
        Ok(self.history.insert(observation))
    }

    /// Joins `other` into this tracker. The result equals feeding
    /// `other`'s observations after this tracker's: per object, its
    /// retained history merges in after every observation here at or
    /// before its time, and its estimate replaces this one unless this
    /// one is newer. History either tracker evicted stays evicted, and
    /// the staleness horizon stays this tracker's. For trackers over
    /// disjoint objects — the shards of one ingest plane — it is a
    /// plain move.
    pub fn absorb(&mut self, other: LocationTracker) {
        self.history.absorb(other.history);
    }

    /// Feeds a batch of observations, stopping at the first rejection
    /// (observations before it remain recorded).
    ///
    /// # Errors
    ///
    /// The first [`ObserveError`] returned by
    /// [`LocationTracker::observe`].
    pub fn observe_all<I: IntoIterator<Item = ZoneObservation>>(
        &mut self,
        observations: I,
    ) -> Result<(), ObserveError> {
        for observation in observations {
            self.observe(observation)?;
        }
        Ok(())
    }

    /// The object's live estimate: the `(zone, time_s)` of its newest
    /// observation, whatever its staleness, or `None` if it was never
    /// seen. Eviction keeps it.
    #[must_use]
    pub fn latest(&self, object: ObjectHandle) -> Option<(usize, f64)> {
        self.history.latest(object)
    }

    /// The object's zone as of `now_s`: the most recent observation at
    /// or before `now_s`, or `None` if there is none or it has gone
    /// stale. Queries are point-in-time — observations from the future
    /// of `now_s` are ignored, so the tracker answers historical
    /// questions correctly.
    ///
    /// Live queries (`now_s` at or past the object's newest
    /// observation) are answered in `O(log objects)` from the running
    /// estimate; historical queries add one binary search of the
    /// object's history run, in the same map probe. Observations
    /// evicted by [`LocationTracker::evict_history_before`] no longer
    /// answer historical queries (durable deployments route those to
    /// the store).
    #[must_use]
    pub fn location_of(&self, object: ObjectHandle, now_s: f64) -> Option<usize> {
        let (zone, time_s) = self.history.latest_at(object, now_s)?;
        (now_s - time_s <= self.staleness_s).then_some(zone)
    }

    /// Every retained observation of an object, ordered by time (ties
    /// in feed order). For time-ordered feeds — every batch API and
    /// the streaming plane — this is feed order.
    pub fn history_of(&self, object: ObjectHandle) -> impl Iterator<Item = ZoneObservation> + '_ {
        self.history.history_of(object)
    }

    /// Number of retained history observations (across all objects).
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Drops retained history strictly older than `cutoff_s`,
    /// returning how many observations were evicted. The live estimate
    /// ([`LocationTracker::location_of`] at or past each object's
    /// newest observation) is unaffected; historical queries before
    /// the cutoff must be served elsewhere (the durable store).
    pub fn evict_history_before(&mut self, cutoff_s: f64) -> usize {
        self.history.evict_before(cutoff_s)
    }

    /// Objects estimated to be in `zone` as of `now_s` (point-in-time,
    /// like [`LocationTracker::location_of`]), ascending by handle.
    /// One pass over the tracked objects, with at most one history-run
    /// search each.
    #[must_use]
    pub fn objects_in_zone(&self, zone: usize, now_s: f64) -> Vec<ObjectHandle> {
        self.history
            .each_latest_at(now_s)
            .filter(|&(_, (found_zone, found_time))| {
                now_s - found_time <= self.staleness_s && found_zone == zone
            })
            .map(|(handle, _)| handle)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_gen2::Epc96;

    fn read(time_s: f64, reader: usize, antenna: usize, epc: u128) -> ReadEvent {
        ReadEvent {
            time_s,
            reader,
            antenna,
            tag: 0,
            epc: Epc96::from_u128(epc),
        }
    }

    fn site_with_two_zones() -> (Site, usize, usize) {
        let mut site = Site::new();
        let dock = site.add_zone("dock");
        let aisle = site.add_zone("aisle");
        site.assign_portal(0, 0, dock);
        site.assign_portal(0, 1, dock); // second antenna, same zone
        site.assign_portal(1, 0, aisle);
        (site, dock, aisle)
    }

    #[test]
    fn portal_assignment_and_lookup() {
        let (site, dock, aisle) = site_with_two_zones();
        assert_eq!(site.zone_count(), 2);
        assert_eq!(site.zone_name(dock), "dock");
        assert_eq!(site.zone_of_portal(0, 1), Some(dock));
        assert_eq!(site.zone_of_portal(1, 0), Some(aisle));
        assert_eq!(site.zone_of_portal(9, 0), None);
    }

    #[test]
    fn observations_map_and_filter() {
        let (site, dock, aisle) = site_with_two_zones();
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        registry.attach_tag(case, Epc96::from_u128(5));

        let reads = [
            read(3.0, 1, 0, 5),  // aisle
            read(1.0, 0, 0, 5),  // dock (earlier)
            read(2.0, 9, 0, 5),  // unassigned portal: dropped
            read(2.5, 0, 0, 99), // unknown tag: dropped
        ];
        let observations = site.observations(&registry, &reads);
        assert_eq!(observations.len(), 2);
        assert_eq!(observations[0].zone, dock);
        assert_eq!(observations[1].zone, aisle);
        assert!(observations[0].time_s < observations[1].time_s);
    }

    #[test]
    fn duplicate_timestamps_keep_input_order() {
        let (site, dock, aisle) = site_with_two_zones();
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        registry.attach_tag(case, Epc96::from_u128(5));

        // Same instant at two portals: the stable sort preserves input
        // order, so the aisle read stays first.
        let reads = [read(2.0, 1, 0, 5), read(2.0, 0, 0, 5)];
        let observations = site.observations(&registry, &reads);
        assert_eq!(observations.len(), 2);
        assert_eq!(observations[0].zone, aisle);
        assert_eq!(observations[1].zone, dock);
    }

    #[test]
    fn tracker_follows_the_latest_observation() {
        let (site, dock, aisle) = site_with_two_zones();
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        registry.attach_tag(case, Epc96::from_u128(5));

        let reads = [read(1.0, 0, 0, 5), read(5.0, 1, 0, 5)];
        let mut tracker = LocationTracker::new(10.0);
        tracker
            .observe_all(site.observations(&registry, &reads))
            .expect("finite times");
        assert_eq!(tracker.location_of(case, 6.0), Some(aisle));
        assert_eq!(tracker.history_of(case).count(), 2);
        assert_eq!(tracker.objects_in_zone(aisle, 6.0), vec![case]);
        assert!(tracker.objects_in_zone(dock, 6.0).is_empty());
    }

    #[test]
    fn queries_are_point_in_time() {
        // An observation in the future of the query time must not count.
        let mut tracker = LocationTracker::new(5.0);
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        tracker
            .observe(ZoneObservation {
                object: case,
                zone: 2,
                time_s: 10.0,
                inferred: false,
            })
            .expect("finite time");
        assert_eq!(tracker.location_of(case, 1.0), None, "not seen yet at t=1");
        assert_eq!(tracker.location_of(case, 11.0), Some(2));
        assert!(tracker.objects_in_zone(2, 1.0).is_empty());
        assert_eq!(tracker.objects_in_zone(2, 11.0), vec![case]);
    }

    #[test]
    fn stale_estimates_expire() {
        let mut tracker = LocationTracker::new(2.0);
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        tracker
            .observe(ZoneObservation {
                object: case,
                zone: 0,
                time_s: 1.0,
                inferred: false,
            })
            .expect("finite time");
        assert_eq!(tracker.location_of(case, 2.9), Some(0));
        assert_eq!(tracker.location_of(case, 3.1), None);
    }

    #[test]
    fn out_of_order_observations_do_not_regress() {
        let mut tracker = LocationTracker::new(100.0);
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        tracker
            .observe(ZoneObservation {
                object: case,
                zone: 1,
                time_s: 5.0,
                inferred: false,
            })
            .expect("finite time");
        // A late-arriving older observation must not override.
        tracker
            .observe(ZoneObservation {
                object: case,
                zone: 0,
                time_s: 2.0,
                inferred: false,
            })
            .expect("finite time");
        assert_eq!(tracker.location_of(case, 6.0), Some(1));
    }

    #[test]
    #[should_panic(expected = "unknown zone id")]
    fn assigning_to_a_missing_zone_panics() {
        let mut site = Site::new();
        site.assign_portal(0, 0, 3);
    }
}
