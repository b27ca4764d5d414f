//! The in-memory time index over zone observations.
//!
//! [`ZoneHistoryIndex`] holds the retained history of the live
//! [`LocationTracker`](crate::LocationTracker): one time-ordered run
//! per object, so a point-in-time question — "where was this object at
//! `t`?" — is one binary search of that object's run, a time-ordered
//! feed appends without searching, and eviction cuts a prefix per run.
//! Runs are keyed by object in a `BTreeMap`, never a vector indexed by
//! object id, so no allocation is sized by an id a store segment or a
//! wire record can choose.
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

/// One retained observation of an object; the object is its run's key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IndexEntry {
    zone: usize,
    time_s: f64,
    inferred: bool,
}

/// The retained zone history of many objects: one time-ordered run per
/// object, supporting `O(log run)` point-in-time queries, an append
/// fast path and prefix eviction.
///
/// Within a run, observations are ordered by time and observations at
/// equal times keep their feed order. The index is therefore a
/// deterministic function of each object's own feed: two indexes fed
/// the same per-object sequences compare equal however those sequences
/// were interleaved, which is what lets disjoint shards be joined by
/// [`ZoneHistoryIndex::absorb`] into the index a single feed builds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZoneHistoryIndex {
    /// Only objects that still hold history have a run; none is empty.
    runs: BTreeMap<usize, VecDeque<IndexEntry>>,
    len: usize,
}

impl ZoneHistoryIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts one observation after every observation of its object
    /// whose time is at or before its own. An observation at or after
    /// its object's newest time is pushed without a search. The caller
    /// must have rejected non-finite times (debug-asserted here).
    pub fn insert(&mut self, observation: ZoneObservation) {
        debug_assert!(
            observation.time_s.is_finite(),
            "non-finite times must be rejected before indexing"
        );
        let entry = IndexEntry {
            zone: observation.zone,
            time_s: observation.time_s,
            inferred: observation.inferred,
        };
        let run = self.runs.entry(observation.object.index()).or_default();
        if run
            .back()
            .is_none_or(|newest| entry.time_s >= newest.time_s)
        {
            run.push_back(entry);
        } else {
            let after = run.partition_point(|held| held.time_s <= entry.time_s);
            run.insert(after, entry);
        }
        self.len += 1;
    }

    /// The most recent `(zone, time_s)` for `object` at or before
    /// `now_s`: one binary search of the object's run. Ties at the same
    /// time resolve to the latest-fed observation, matching a forward
    /// scan that keeps `time_s <= now_s` maxima with `>=` updates. A
    /// `NaN` query time compares false everywhere and finds nothing.
    #[must_use]
    pub fn latest_at(&self, object: ObjectHandle, now_s: f64) -> Option<(usize, f64)> {
        let run = self.runs.get(&object.index())?;
        let at_or_before = run.partition_point(|entry| entry.time_s <= now_s);
        let entry = run.get(at_or_before.checked_sub(1)?)?;
        Some((entry.zone, entry.time_s))
    }

    /// Every retained observation of `object`, ordered by `(time, feed
    /// order)`.
    pub fn history_of(&self, object: ObjectHandle) -> impl Iterator<Item = ZoneObservation> + '_ {
        self.runs
            .get(&object.index())
            .into_iter()
            .flatten()
            .map(move |entry| ZoneObservation {
                object,
                zone: entry.zone,
                time_s: entry.time_s,
                inferred: entry.inferred,
            })
    }

    /// Removes every observation strictly older than `cutoff_s`,
    /// returning how many were evicted. Each run loses a prefix found
    /// by binary search and runs left empty are dropped, so the cost
    /// follows the objects that still hold history, not the entries.
    /// Used by durable deployments to bound live memory once
    /// observations are safely on disk.
    pub fn evict_before(&mut self, cutoff_s: f64) -> usize {
        if !cutoff_s.is_finite() {
            return 0;
        }
        let mut evicted = 0;
        self.runs.retain(|_, run| {
            let stale = run.partition_point(|entry| entry.time_s < cutoff_s);
            run.drain(..stale);
            evicted += stale;
            !run.is_empty()
        });
        self.len -= evicted;
        evicted
    }

    /// Joins `other` into this index. The result equals inserting
    /// `other`'s observations after this index's: per object, a stable
    /// merge that puts each of `other`'s observations after every one
    /// here at or before its time. A run whose object this index does
    /// not hold is moved in whole.
    pub fn absorb(&mut self, other: ZoneHistoryIndex) {
        self.len += other.len;
        for (object, later) in other.runs {
            match self.runs.entry(object) {
                Entry::Vacant(slot) => {
                    slot.insert(later);
                }
                Entry::Occupied(mut slot) => merge_after(slot.get_mut(), later),
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
        index.insert(obs(case, 1, 2.0));
        index.insert(obs(case, 2, 2.0));
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
        assert_eq!(index.latest_at(b, 10.0), None, "emptied runs are dropped");
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
