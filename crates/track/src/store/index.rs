//! The in-memory time index over zone observations.
//!
//! [`ZoneHistoryIndex`] is the state of the live
//! [`LocationTracker`](crate::LocationTracker): one entry per object,
//! holding both the object's live estimate (its newest observation)
//! and its retained history as one time-ordered run. Recording an
//! observation is one map probe: the same `entry` call reads the
//! previous estimate, updates it and appends to (or inserts into) the
//! run. A point-in-time question — "where was this object at `t`?" —
//! is answered by the estimate when `t` is at or past it and by one
//! binary search of the run otherwise. Entries outlive eviction,
//! because the estimate does; eviction visits only the objects that
//! still hold history, found through a list the recording probe keeps,
//! cuts a prefix of each run and frees the buffer of a run it empties,
//! so an object without history holds only its entry. Entries are
//! keyed by object in a `BTreeMap`, never a vector indexed by object
//! id, so no allocation is sized by an id a store segment or a wire
//! record can choose.
//!
//! Runs compare `f64` times directly: non-finite times are rejected
//! upstream (the tracker's `observe` and the store's `append` both
//! return typed errors), and over finite times `f64` order is total
//! (with `-0.0` and `+0.0` equal). [`time_key`] maps a time to an
//! order-preserving `u64` for the store's per-segment span index.

use crate::constraints::ZoneObservation;
use crate::registry::ObjectHandle;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Maps a finite time to a `u64` whose unsigned order matches `f64`
/// order; `-0.0` is identified with `+0.0` so the two equal times get
/// equal keys.
///
/// The classic trick: flip the sign bit of non-negative floats and all
/// bits of negative ones, turning IEEE-754 sign-magnitude order into
/// two's-complement-style unsigned order. Callers must have rejected
/// NaN already — NaN has no place in a total order (infinities map
/// consistently, but the store layer rejects them too so every stored
/// key round-trips through arithmetic safely).
#[must_use]
pub fn time_key(time_s: f64) -> u64 {
    // `-0.0 == 0.0` yet their bit patterns differ; normalise so equal
    // times can never straddle a key boundary.
    let normalized = if time_s == 0.0 { 0.0 } else { time_s };
    let bits = normalized.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// One retained observation of an object; the object is its entry's key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IndexEntry {
    zone: usize,
    time_s: f64,
    inferred: bool,
}

/// Everything the index holds for one object.
#[derive(Debug, Clone, PartialEq)]
struct ObjectTrack {
    /// The live estimate: the `(zone, time_s)` of the newest
    /// observation, equal times resolving to the later one. Its time is
    /// at or after every time in `run`.
    latest: (usize, f64),
    /// Retained history ordered by `(time, feed order)`; eviction that
    /// cuts all of it frees its buffer.
    run: VecDeque<IndexEntry>,
}

impl ObjectTrack {
    /// Records `entry` after every retained observation at or before
    /// its time, and makes it the estimate unless the estimate is
    /// newer. Returns the estimate from before.
    fn record(&mut self, entry: IndexEntry) -> (usize, f64) {
        let previous = self.latest;
        if entry.time_s >= previous.1 {
            // At or after the estimate, hence after the whole run.
            self.latest = (entry.zone, entry.time_s);
            self.run.push_back(entry);
        } else {
            let after = self.run.partition_point(|held| held.time_s <= entry.time_s);
            self.run.insert(after, entry);
        }
        previous
    }

    /// The most recent `(zone, time_s)` at or before `now_s`.
    fn at(&self, now_s: f64) -> Option<(usize, f64)> {
        if now_s >= self.latest.1 {
            return Some(self.latest);
        }
        let at_or_before = self.run.partition_point(|entry| entry.time_s <= now_s);
        let entry = self.run.get(at_or_before.checked_sub(1)?)?;
        Some((entry.zone, entry.time_s))
    }
}

/// The live estimate and retained zone history of many objects: one
/// entry per object, supporting one-probe recording, `O(log run)`
/// point-in-time queries and prefix eviction whose cost follows the
/// objects that hold history.
///
/// Within a run, observations are ordered by time and observations at
/// equal times keep their feed order. The index is therefore a
/// deterministic function of each object's own feed: two indexes fed
/// the same per-object sequences compare equal however those sequences
/// were interleaved, which is what lets disjoint shards be joined by
/// [`ZoneHistoryIndex::absorb`] into the index a single feed builds.
/// Equality compares what the index answers — every estimate and
/// retained run — and not the order of its eviction list, which
/// follows the interleaving.
#[derive(Debug, Clone, Default)]
pub struct ZoneHistoryIndex {
    /// Every object ever recorded; an entry outlives eviction.
    objects: BTreeMap<usize, ObjectTrack>,
    /// The objects whose run is non-empty, each once: what eviction
    /// visits. An object joins when an observation lands in its empty
    /// run and leaves when eviction empties the run.
    holding: Vec<usize>,
    /// Retained observations across all runs.
    len: usize,
}

impl PartialEq for ZoneHistoryIndex {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.objects == other.objects
    }
}

impl ZoneHistoryIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retained observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index retains no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records one observation with a single map probe, returning the
    /// object's previous estimate (`None` the first time the object is
    /// seen). The observation lands after every retained observation
    /// of its object at or before its time — at or after the estimate
    /// it is pushed without a search — and becomes the estimate unless
    /// the estimate is newer. The caller must have rejected non-finite
    /// times (debug-asserted here).
    pub fn insert(&mut self, observation: ZoneObservation) -> Option<(usize, f64)> {
        debug_assert!(
            observation.time_s.is_finite(),
            "non-finite times must be rejected before indexing"
        );
        let entry = IndexEntry {
            zone: observation.zone,
            time_s: observation.time_s,
            inferred: observation.inferred,
        };
        self.len += 1;
        let object = observation.object.index();
        match self.objects.entry(object) {
            Entry::Vacant(slot) => {
                slot.insert(ObjectTrack {
                    latest: (entry.zone, entry.time_s),
                    run: VecDeque::from([entry]),
                });
                self.holding.push(object);
                None
            }
            Entry::Occupied(mut slot) => {
                let track = slot.get_mut();
                if track.run.is_empty() {
                    self.holding.push(object);
                }
                Some(track.record(entry))
            }
        }
    }

    /// The object's live estimate: the `(zone, time_s)` of its newest
    /// observation, kept through eviction.
    #[must_use]
    pub fn latest(&self, object: ObjectHandle) -> Option<(usize, f64)> {
        self.objects.get(&object.index()).map(|track| track.latest)
    }

    /// The most recent `(zone, time_s)` for `object` at or before
    /// `now_s`: the estimate when `now_s` is at or past it, otherwise
    /// one binary search of the object's run. Ties at the same time
    /// resolve to the latest-fed observation, matching a forward scan
    /// that keeps `time_s <= now_s` maxima with `>=` updates. Evicted
    /// observations answer nothing, and a `NaN` query time compares
    /// false everywhere and finds nothing.
    #[must_use]
    pub fn latest_at(&self, object: ObjectHandle, now_s: f64) -> Option<(usize, f64)> {
        self.objects.get(&object.index())?.at(now_s)
    }

    /// Every object with its [`ZoneHistoryIndex::latest_at`] answer at
    /// `now_s`, ascending by handle; objects with no answer are
    /// skipped. One pass over the entries, no further map probes.
    pub fn each_latest_at(
        &self,
        now_s: f64,
    ) -> impl Iterator<Item = (ObjectHandle, (usize, f64))> + '_ {
        self.objects.iter().filter_map(move |(&object, track)| {
            Some((ObjectHandle::from_index(object), track.at(now_s)?))
        })
    }

    /// Every retained observation of `object`, ordered by `(time, feed
    /// order)`.
    pub fn history_of(&self, object: ObjectHandle) -> impl Iterator<Item = ZoneObservation> + '_ {
        self.objects
            .get(&object.index())
            .into_iter()
            .flat_map(|track| &track.run)
            .map(move |entry| ZoneObservation {
                object,
                zone: entry.zone,
                time_s: entry.time_s,
                inferred: entry.inferred,
            })
    }

    /// Removes every observation strictly older than `cutoff_s`,
    /// returning how many were evicted. Only the objects holding
    /// history are visited: each run's prefix is cut at a binary
    /// search, and entries stay, so the estimates survive. A run this
    /// empties gives its buffer back. Used by durable deployments to
    /// bound live memory once observations are safely on disk.
    pub fn evict_before(&mut self, cutoff_s: f64) -> usize {
        if !cutoff_s.is_finite() {
            return 0;
        }
        let objects = &mut self.objects;
        let mut evicted = 0;
        self.holding.retain(|object| {
            let Some(track) = objects.get_mut(object) else {
                return false;
            };
            let stale = track.run.partition_point(|entry| entry.time_s < cutoff_s);
            evicted += stale;
            if stale == track.run.len() {
                track.run = VecDeque::new();
                return false;
            }
            track.run.drain(..stale);
            true
        });
        self.len -= evicted;
        evicted
    }

    /// Joins `other` into this index. The result equals inserting
    /// `other`'s observations after this index's: per object, a stable
    /// merge that puts each of `other`'s observations after every one
    /// here at or before its time, and `other`'s estimate replaces this
    /// one unless this one is newer. An object this index does not hold
    /// is moved in whole.
    pub fn absorb(&mut self, other: ZoneHistoryIndex) {
        self.len += other.len;
        for (object, later) in other.objects {
            match self.objects.entry(object) {
                Entry::Vacant(slot) => {
                    if !later.run.is_empty() {
                        self.holding.push(object);
                    }
                    slot.insert(later);
                }
                Entry::Occupied(mut slot) => {
                    let track = slot.get_mut();
                    if track.run.is_empty() && !later.run.is_empty() {
                        self.holding.push(object);
                    }
                    if later.latest.1 >= track.latest.1 {
                        track.latest = later.latest;
                    }
                    merge_after(&mut track.run, later.run);
                }
            }
        }
    }
}

/// Stable merge of `later` into `run`, both time-ordered: each entry
/// of `later` lands after every entry of `run` at or before its time.
fn merge_after(run: &mut VecDeque<IndexEntry>, later: VecDeque<IndexEntry>) {
    let mut merged = VecDeque::with_capacity(run.len() + later.len());
    let mut later = later.into_iter().peekable();
    for entry in run.drain(..) {
        while let Some(earlier) = later.next_if(|next| next.time_s < entry.time_s) {
            merged.push_back(earlier);
        }
        merged.push_back(entry);
    }
    merged.extend(later);
    *run = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ObjectRegistry;

    fn obs(object: ObjectHandle, zone: usize, time_s: f64) -> ZoneObservation {
        ZoneObservation {
            object,
            zone,
            time_s,
            inferred: false,
        }
    }

    #[test]
    fn time_key_orders_like_f64() {
        let times = [
            f64::MIN,
            -1e9,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            1e12,
            f64::MAX,
        ];
        for pair in times.windows(2) {
            assert!(time_key(pair[0]) <= time_key(pair[1]), "{pair:?}");
        }
        assert_eq!(time_key(-0.0), time_key(0.0));
        assert!(time_key(-0.0) < time_key(f64::MIN_POSITIVE));
    }

    #[test]
    fn latest_at_resolves_ties_to_feed_order() {
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        let mut index = ZoneHistoryIndex::new();
        assert_eq!(index.insert(obs(case, 1, 2.0)), None, "first sight");
        assert_eq!(index.insert(obs(case, 2, 2.0)), Some((1, 2.0)));
        assert_eq!(index.latest(case), Some((2, 2.0)));
        assert_eq!(index.latest_at(case, 2.0), Some((2, 2.0)));
        assert_eq!(index.latest_at(case, 1.9), None);
        assert_eq!(index.latest_at(case, f64::NAN), None);
    }

    #[test]
    fn eviction_counts_and_preserves_order() {
        let mut registry = ObjectRegistry::new();
        let a = registry.register("a");
        let b = registry.register("b");
        let mut index = ZoneHistoryIndex::new();
        index.insert(obs(a, 0, 1.0));
        index.insert(obs(b, 1, 2.0));
        index.insert(obs(a, 2, 3.0));
        assert_eq!(index.evict_before(2.0), 1);
        assert_eq!(index.len(), 2);
        assert_eq!(index.latest_at(a, 10.0), Some((2, 3.0)));
        assert_eq!(index.latest_at(a, 1.5), None, "evicted");
        assert_eq!(index.evict_before(f64::NAN), 0);
        assert_eq!(index.evict_before(10.0), 2);
        assert!(index.is_empty());
        assert_eq!(index.history_of(b).count(), 0);
        assert_eq!(index.latest_at(a, 2.5), None, "emptied runs answer nothing");
        assert_eq!(
            index.latest_at(b, 10.0),
            Some((1, 2.0)),
            "the estimate outlives eviction"
        );
        index.insert(obs(b, 3, 11.0));
        assert_eq!(index.len(), 1, "an emptied run refills");
        assert_eq!(index.latest_at(b, 10.5), None);
    }

    #[test]
    fn eviction_visits_only_holders_and_frees_emptied_runs() {
        let mut registry = ObjectRegistry::new();
        let hot = registry.register("hot");
        let quiet = registry.register("quiet");
        let mut index = ZoneHistoryIndex::new();
        index.insert(obs(hot, 0, 1.0));
        index.insert(obs(quiet, 1, 1.0));
        index.insert(obs(hot, 0, 3.0));
        assert_eq!(index.holding, [hot.index(), quiet.index()]);
        assert_eq!(index.evict_before(2.0), 2);
        assert_eq!(
            index.holding,
            [hot.index()],
            "an emptied run leaves the list"
        );
        let capacity = |index: &ZoneHistoryIndex, object: ObjectHandle| {
            index.objects[&object.index()].run.capacity()
        };
        assert_eq!(capacity(&index, quiet), 0, "and gives its buffer back");
        assert!(capacity(&index, hot) > 0);
        assert_eq!(index.latest(quiet), Some((1, 1.0)), "the estimate stays");
        index.insert(obs(quiet, 2, 5.0));
        assert_eq!(
            index.holding,
            [hot.index(), quiet.index()],
            "a refilled run rejoins"
        );
        assert_eq!(index.evict_before(4.0), 1);
        assert_eq!(index.holding, [quiet.index()]);
        assert_eq!(index.history_of(quiet).count(), 1);
    }

    #[test]
    fn late_inserts_and_absorb_keep_feed_order_among_equal_times() {
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        let mut index = ZoneHistoryIndex::new();
        index.insert(obs(case, 0, 1.0));
        index.insert(obs(case, 1, 3.0));
        index.insert(obs(case, 2, 1.0)); // late: after the t=1 entry
        let mut later = ZoneHistoryIndex::new();
        later.insert(obs(case, 3, 1.0));
        later.insert(obs(case, 4, 0.5));
        let mut fed_once = index.clone();
        for observation in later.history_of(case).collect::<Vec<_>>() {
            fed_once.insert(observation);
        }
        index.absorb(later);
        assert_eq!(index, fed_once);
        let zones: Vec<usize> = index.history_of(case).map(|o| o.zone).collect();
        assert_eq!(zones, [4, 0, 2, 3, 1]);
        assert_eq!(index.len(), 5);
    }
}
