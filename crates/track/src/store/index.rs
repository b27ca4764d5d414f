//! The in-memory time index over zone observations.
//!
//! [`ZoneHistoryIndex`] is the state of the live
//! [`LocationTracker`](crate::LocationTracker): one entry per object,
//! holding both the object's live estimate (its newest observation)
//! and its retained history. Recording an observation is one map
//! probe: the same `entry` call reads the previous estimate, updates it
//! and appends to (or inserts into) the history. A point-in-time
//! question — "where was this object at `t`?" — is answered by the
//! estimate when `t` is at or past it and by binary searches of the
//! history otherwise. Entries outlive eviction, because the estimate
//! does; eviction visits only the objects that still hold history,
//! found through a list the recording probe keeps, cuts a prefix of
//! each history and frees a history it empties, so an object without
//! history holds only its entry. Entries are keyed by object in a
//! `BTreeMap`, never a vector indexed by object id, so no allocation
//! is sized by an id a store segment or a wire record can choose.
//!
//! A history is a column of times and the runs of equal keys along it,
//! a key being `zone << 1 | inferred` in one `u32`: the first key is
//! held inline and each later run is one `(position, key)` change.
//! Redundant tags, antennas and reader sessions read an object again
//! and again in the zone it is in, so most retained observations
//! confirm the one before and cost their 8-byte time alone; an
//! observation that starts a run adds a 16-byte change. Zones above
//! 2³¹ − 1 do not fit a key and are rejected upstream (the tracker's
//! `observe` returns a typed error) rather than truncated.
//!
//! Histories compare `f64` times directly: non-finite times are
//! rejected upstream (the tracker's `observe` and the store's `append`
//! both return typed errors), and over finite times `f64` order is
//! total (with `-0.0` and `+0.0` equal). [`time_key`] maps a time to an
//! order-preserving `u64` for the store's per-segment first keys.

use crate::constraints::ZoneObservation;
use crate::registry::ObjectHandle;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::iter;

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

/// The largest zone a history key holds: its `u32` keeps one bit for
/// the inferred flag.
pub(crate) const MAX_ZONE: usize = (u32::MAX >> 1) as usize;

/// An observation's zone and inferred flag as one history key,
/// `zone << 1 | inferred`; the caller must have rejected zones above
/// [`MAX_ZONE`] (debug-asserted here).
fn key_of(observation: &ZoneObservation) -> u32 {
    debug_assert!(
        observation.zone <= MAX_ZONE,
        "out-of-range zones must be rejected before indexing"
    );
    (observation.zone as u32) << 1 | u32::from(observation.inferred)
}

/// The zone of a history key.
fn zone_of(key: u32) -> usize {
    (key >> 1) as usize
}

/// Where a run of equal keys starts: `times[at]` is its first
/// observation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Change {
    at: usize,
    key: u32,
}

/// One object's retained observations, ordered by `(time, feed
/// order)`: a time column and the runs of equal keys along it. A
/// history is never empty — eviction that empties one frees it — and
/// its runs are maximal: every change's key differs from the key
/// before it. Two histories holding the same observations are
/// therefore equal field by field, so the derived equality is equality
/// of what they hold; it compares times as `f64`, so `-0.0` equals
/// `+0.0`.
#[derive(Debug, Clone, PartialEq)]
struct History {
    /// Every observation's time, ascending; equal times in feed order.
    times: Vec<f64>,
    /// The key of the first observation.
    first: u32,
    /// The later runs by ascending start, each in `1..times.len()`;
    /// nothing is allocated until the key first changes.
    changes: Vec<Change>,
}

impl History {
    fn new(time_s: f64, key: u32) -> Self {
        Self {
            times: vec![time_s],
            first: key,
            changes: Vec::new(),
        }
    }

    /// The key of the run before change `index`: the first key when
    /// there is none.
    fn key_before(&self, index: usize) -> u32 {
        self.changes[..index]
            .last()
            .map_or(self.first, |change| change.key)
    }

    /// Appends an observation at or after every held time.
    fn push(&mut self, time_s: f64, key: u32) {
        if key != self.key_before(self.changes.len()) {
            self.changes.push(Change {
                at: self.times.len(),
                key,
            });
        }
        self.times.push(time_s);
    }

    /// Inserts an observation after every held one at or before its
    /// time: one shift of the time column, and of the changes after the
    /// insertion point, plus at most two changes inserted or one moved
    /// so the runs stay maximal.
    fn insert(&mut self, time_s: f64, key: u32) {
        let at = self.times.partition_point(|&held| held <= time_s);
        if at == self.times.len() {
            return self.push(time_s, key);
        }
        self.times.insert(at, time_s);
        let next = self.changes.partition_point(|change| change.at < at);
        for change in &mut self.changes[next..] {
            change.at += 1;
        }
        if at == 0 {
            if key != self.first {
                let first = std::mem::replace(&mut self.first, key);
                self.changes.insert(0, Change { at: 1, key: first });
            }
            return;
        }
        let before = self.key_before(next);
        if key == before {
            return;
        }
        let inserted = Change { at, key };
        match self.changes.get_mut(next) {
            // The displaced observation starts a run of this key, which
            // now starts one earlier.
            Some(change) if change.at == at + 1 && change.key == key => change.at = at,
            // It starts a run of another key.
            Some(change) if change.at == at + 1 => self.changes.insert(next, inserted),
            // It continues the run before, which the insertion splits.
            _ => {
                let resumed = Change {
                    at: at + 1,
                    key: before,
                };
                self.changes.splice(next..next, [inserted, resumed]);
            }
        }
    }

    /// The `(key, time_s)` of the last observation at or before
    /// `now_s`: one binary search of the time column and one of the
    /// changes.
    fn at(&self, now_s: f64) -> Option<(u32, f64)> {
        let position = self
            .times
            .partition_point(|&held| held <= now_s)
            .checked_sub(1)?;
        let run = self.changes.partition_point(|change| change.at <= position);
        Some((self.key_before(run), self.times[position]))
    }

    /// Every observation as `(time_s, key)`, in order.
    fn entries(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        let runs = iter::once(Change {
            at: 0,
            key: self.first,
        })
        .chain(self.changes.iter().copied());
        let ends = self
            .changes
            .iter()
            .map(|change| change.at)
            .chain(iter::once(self.times.len()));
        runs.zip(ends).flat_map(move |(run, end)| {
            self.times[run.at..end]
                .iter()
                .map(move |&time_s| (time_s, run.key))
        })
    }

    /// Drops the observations strictly older than `cutoff_s`, returning
    /// how many: the column's prefix is drained and the changes left
    /// are rebased onto it. A history this empties is left for the
    /// caller to free.
    fn evict_before(&mut self, cutoff_s: f64) -> usize {
        let stale = self.times.partition_point(|&held| held < cutoff_s);
        if stale == 0 {
            return 0;
        }
        self.times.drain(..stale);
        let gone = self.changes.partition_point(|change| change.at <= stale);
        self.first = self.key_before(gone);
        self.changes.drain(..gone);
        for change in &mut self.changes {
            change.at -= stale;
        }
        stale
    }

    /// The stable merge of `later` after this history: each of
    /// `later`'s observations lands after every one here at or before
    /// its time.
    fn merged(&self, later: &History) -> History {
        let first = if later.times[0] < self.times[0] {
            later.first
        } else {
            self.first
        };
        let mut merged = History {
            times: Vec::with_capacity(self.times.len() + later.times.len()),
            first,
            changes: Vec::new(),
        };
        let mut held = self.entries().peekable();
        let mut later = later.entries().peekable();
        let entries = iter::from_fn(|| match (held.peek(), later.peek()) {
            (Some(&(mine, _)), Some(&(theirs, _))) if theirs < mine => later.next(),
            _ => held.next().or_else(|| later.next()),
        });
        for (time_s, key) in entries {
            merged.push(time_s, key);
        }
        merged
    }
}

/// Everything the index holds for one object.
#[derive(Debug, Clone, PartialEq)]
struct ObjectTrack {
    /// The live estimate: the `(zone, time_s)` of the newest
    /// observation, equal times resolving to the later one. Its time is
    /// at or after every time in `history`.
    latest: (usize, f64),
    /// Retained history; `None` once eviction has emptied it.
    history: Option<Box<History>>,
}

impl ObjectTrack {
    /// The most recent `(zone, time_s)` at or before `now_s`.
    fn at(&self, now_s: f64) -> Option<(usize, f64)> {
        if now_s >= self.latest.1 {
            return Some(self.latest);
        }
        let (key, time_s) = self.history.as_ref()?.at(now_s)?;
        Some((zone_of(key), time_s))
    }
}

/// The live estimate and retained zone history of many objects: one
/// entry per object, supporting one-probe recording, `O(log history)`
/// point-in-time queries and prefix eviction whose cost follows the
/// objects that hold history.
///
/// Within a history, observations are ordered by time and observations
/// at equal times keep their feed order. The index is therefore a
/// deterministic function of each object's own feed: two indexes fed
/// the same per-object sequences compare equal however those sequences
/// were interleaved, which is what lets disjoint shards be joined by
/// [`ZoneHistoryIndex::absorb`] into the index a single feed builds.
/// Equality compares what the index answers — every estimate and
/// retained history — and not the order of its eviction list, which
/// follows the interleaving.
#[derive(Debug, Clone, Default)]
pub struct ZoneHistoryIndex {
    /// Every object ever recorded; an entry outlives eviction.
    objects: BTreeMap<usize, ObjectTrack>,
    /// The objects holding history, each once: what eviction visits.
    /// An object joins when an observation lands in its empty history
    /// and leaves when eviction empties it.
    holding: Vec<usize>,
    /// Retained observations across all histories.
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
    /// it is appended without a search — and becomes the estimate
    /// unless the estimate is newer. The caller must have rejected
    /// non-finite times and zones above [`MAX_ZONE`] (debug-asserted
    /// here), as [`LocationTracker`](crate::LocationTracker) does.
    pub(crate) fn insert(&mut self, observation: ZoneObservation) -> Option<(usize, f64)> {
        debug_assert!(
            observation.time_s.is_finite(),
            "non-finite times must be rejected before indexing"
        );
        let key = key_of(&observation);
        let (zone, time_s) = (observation.zone, observation.time_s);
        self.len += 1;
        let object = observation.object.index();
        match self.objects.entry(object) {
            Entry::Vacant(slot) => {
                slot.insert(ObjectTrack {
                    latest: (zone, time_s),
                    history: Some(Box::new(History::new(time_s, key))),
                });
                self.holding.push(object);
                None
            }
            Entry::Occupied(mut slot) => {
                let track = slot.get_mut();
                let previous = track.latest;
                let newest = time_s >= previous.1;
                if newest {
                    track.latest = (zone, time_s);
                }
                match &mut track.history {
                    None => {
                        track.history = Some(Box::new(History::new(time_s, key)));
                        self.holding.push(object);
                    }
                    // At or after the estimate, hence after the whole
                    // history.
                    Some(history) if newest => history.push(time_s, key),
                    Some(history) => history.insert(time_s, key),
                }
                Some(previous)
            }
        }
    }

    /// Records one observation that is to be evicted at once: the
    /// estimate moves exactly as [`ZoneHistoryIndex::insert`] would move
    /// it, and the previous one is returned, but the observation is not
    /// retained — no history grows or is allocated, and the object does
    /// not join the eviction list. The caller must have rejected what
    /// `insert` requires rejected.
    pub(crate) fn move_estimate(&mut self, observation: ZoneObservation) -> Option<(usize, f64)> {
        let latest = (observation.zone, observation.time_s);
        match self.objects.entry(observation.object.index()) {
            Entry::Vacant(slot) => {
                slot.insert(ObjectTrack {
                    latest,
                    history: None,
                });
                None
            }
            Entry::Occupied(mut slot) => {
                let track = slot.get_mut();
                let previous = track.latest;
                if observation.time_s >= previous.1 {
                    track.latest = latest;
                }
                Some(previous)
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
    /// one binary search of the object's times and one of its runs.
    /// Ties at the same time resolve to the latest-fed observation,
    /// matching a forward scan that keeps `time_s <= now_s` maxima with
    /// `>=` updates. Evicted observations answer nothing, and a `NaN`
    /// query time compares false everywhere and finds nothing.
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
            .and_then(|track| track.history.as_deref())
            .into_iter()
            .flat_map(History::entries)
            .map(move |(time_s, key)| ZoneObservation {
                object,
                zone: zone_of(key),
                time_s,
                inferred: key & 1 == 1,
            })
    }

    /// Removes every observation strictly older than `cutoff_s`,
    /// returning how many were evicted. Only the objects holding
    /// history are visited: each history's prefix is cut at a binary
    /// search, and entries stay, so the estimates survive. A history
    /// this empties is freed. Used by durable deployments to bound live
    /// memory once observations are safely on disk.
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
            let Some(history) = &mut track.history else {
                return false;
            };
            evicted += history.evict_before(cutoff_s);
            if history.times.is_empty() {
                track.history = None;
                return false;
            }
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
                    if later.history.is_some() {
                        self.holding.push(object);
                    }
                    slot.insert(later);
                }
                Entry::Occupied(mut slot) => {
                    let track = slot.get_mut();
                    if later.latest.1 >= track.latest.1 {
                        track.latest = later.latest;
                    }
                    let Some(later) = later.history else {
                        continue;
                    };
                    match &mut track.history {
                        Some(history) => **history = history.merged(&later),
                        None => {
                            track.history = Some(later);
                            self.holding.push(object);
                        }
                    }
                }
            }
        }
    }
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
        assert_eq!(index.latest_at(a, 2.5), None, "evicted: nothing answers");
        assert_eq!(
            index.latest_at(b, 10.0),
            Some((1, 2.0)),
            "the estimate outlives eviction"
        );
        index.insert(obs(b, 3, 11.0));
        assert_eq!(index.len(), 1, "an emptied history refills");
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
            "an emptied history leaves the list"
        );
        let holds = |index: &ZoneHistoryIndex, object: ObjectHandle| {
            index.objects[&object.index()].history.is_some()
        };
        assert!(!holds(&index, quiet), "and frees its buffers");
        assert!(holds(&index, hot));
        assert_eq!(index.latest(quiet), Some((1, 1.0)), "the estimate stays");
        index.insert(obs(quiet, 2, 5.0));
        assert_eq!(
            index.holding,
            [hot.index(), quiet.index()],
            "a refilled history rejoins"
        );
        assert_eq!(index.evict_before(4.0), 1);
        assert_eq!(index.holding, [quiet.index()]);
        assert_eq!(index.history_of(quiet).count(), 1);
    }

    #[test]
    fn move_estimate_moves_like_insert_and_retains_nothing() {
        let mut registry = ObjectRegistry::new();
        let held = registry.register("held");
        let passing = registry.register("passing");
        let mut moved = ZoneHistoryIndex::new();
        let mut inserted = ZoneHistoryIndex::new();
        moved.insert(obs(held, 0, 1.0));
        inserted.insert(obs(held, 0, 1.0));
        for observation in [
            obs(held, 1, 2.0),
            obs(held, 2, 2.0),
            obs(held, 3, 1.5),
            obs(passing, 1, 3.0),
        ] {
            assert_eq!(
                moved.move_estimate(observation),
                inserted.insert(observation)
            );
        }
        for object in [held, passing] {
            assert_eq!(moved.latest(object), inserted.latest(object));
        }
        assert_eq!(moved.latest(held), Some((2, 2.0)), "ties go to the later");
        assert_eq!(moved.len(), 1, "nothing moved is retained");
        assert_eq!(moved.holding, [held.index()], "or joins the eviction list");
        assert!(
            moved.objects[&passing.index()].history.is_none(),
            "and allocates no history"
        );
    }

    #[test]
    fn entries_pack_zone_and_flag_losslessly() {
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        let fed = [
            (0, 0.0, false),
            (0, 0.5, true),
            (1, 1.0, false),
            (MAX_ZONE - 1, 1.5, true),
            (MAX_ZONE, 2.0, false),
            (MAX_ZONE, 2.5, true),
        ];
        let mut index = ZoneHistoryIndex::new();
        for (zone, time_s, inferred) in fed {
            index.insert(ZoneObservation {
                object: case,
                zone,
                time_s,
                inferred,
            });
        }
        let held: Vec<(usize, f64, bool)> = index
            .history_of(case)
            .map(|o| (o.zone, o.time_s, o.inferred))
            .collect();
        assert_eq!(held, fed);
        assert_eq!(index.latest_at(case, 2.25), Some((MAX_ZONE, 2.0)));
        assert_eq!(MAX_ZONE, (1 << 31) - 1);
        let fed_once = |zone: usize, time_s: f64| {
            let mut index = ZoneHistoryIndex::new();
            index.insert(obs(case, zone, time_s));
            index
        };
        assert_eq!(fed_once(3, 0.0), fed_once(3, -0.0), "-0.0 == +0.0");
        assert_ne!(fed_once(3, 0.0), fed_once(2, 0.0));
    }

    /// The `(first, changes)` runs of `object`'s history.
    fn runs(index: &ZoneHistoryIndex, object: ObjectHandle) -> (u32, Vec<(usize, u32)>) {
        let history = index.objects[&object.index()].history.as_deref().unwrap();
        let changes = history.changes.iter().map(|c| (c.at, c.key)).collect();
        (history.first, changes)
    }

    #[test]
    fn late_inserts_and_eviction_keep_runs_maximal() {
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        let mut index = ZoneHistoryIndex::new();
        for (zone, time_s) in [(1, 1.0), (1, 2.0), (2, 3.0), (2, 4.0), (1, 5.0)] {
            index.insert(obs(case, zone, time_s));
        }
        // A key is `zone << 1`: zone 1 is key 2, zone 2 key 4.
        assert_eq!(runs(&index, case), (2, vec![(2, 4), (4, 2)]));
        index.insert(obs(case, 2, 2.0)); // on a boundary, like the run after
        assert_eq!(runs(&index, case), (2, vec![(2, 4), (5, 2)]));
        index.insert(obs(case, 2, 4.0)); // on a boundary, like the run before
        assert_eq!(runs(&index, case), (2, vec![(2, 4), (6, 2)]));
        index.insert(obs(case, 3, 3.0)); // inside a run: splits it
        assert_eq!(
            runs(&index, case),
            (2, vec![(2, 4), (4, 6), (5, 4), (7, 2)])
        );
        index.insert(obs(case, 2, 0.5)); // ahead of everything
        assert_eq!(
            runs(&index, case),
            (4, vec![(1, 2), (3, 4), (5, 6), (6, 4), (8, 2)])
        );
        index.insert(obs(case, 4, 4.5)); // on a boundary, like neither
        assert_eq!(
            runs(&index, case),
            (4, vec![(1, 2), (3, 4), (5, 6), (6, 4), (8, 8), (9, 2)])
        );
        let zones: Vec<usize> = index.history_of(case).map(|o| o.zone).collect();
        assert_eq!(zones, [2, 1, 1, 2, 2, 3, 2, 2, 4, 1]);
        assert_eq!(index.evict_before(2.0), 2, "a cut inside a run");
        assert_eq!(
            runs(&index, case),
            (2, vec![(1, 4), (3, 6), (4, 4), (6, 8), (7, 2)])
        );
        assert_eq!(index.evict_before(4.0), 4, "a cut on a boundary");
        assert_eq!(runs(&index, case), (4, vec![(2, 8), (3, 2)]));
        assert_eq!(index.latest_at(case, 4.25), Some((2, 4.0)));
        assert_eq!(index.len(), 4);
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
