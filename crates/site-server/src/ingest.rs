//! The shared ingest plane: many sessions, one merge, sharded
//! application.
//!
//! Every reader session thread pushes its drained wire records here.
//! Wire conversion happens *outside* any lock; one short critical
//! section admits the batch into the watermark-keyed [`SessionMerge`],
//! stamps every released event with a global release sequence number,
//! and routes it to a shard by its object's stable partition key
//! ([`shard_of`] over the hash-free `mix64` map). The session thread
//! then applies its own shard batches — `ObservationStream →
//! LocationTracker` per shard — under per-shard locks, ordered by
//! tickets issued at routing time, so concurrent sessions drive K
//! tracker chains in parallel while each shard still consumes its
//! subsequence of the canonical stream in canonical order.
//!
//! Bit-replayability: objects are partitioned disjointly across
//! shards, and the tracker is per-object state whose equality depends
//! only on each object's own feed, so every per-object answer
//! (location, history) is identical to the unsharded chain's. At
//! shutdown [`SharedIngest::into_report`] joins the shard trackers
//! with [`LocationTracker::absorb`] into one tracker that is
//! **bit-identical** to a batch replay of the same recorded reads —
//! the same acceptance gate every prior PR held.
//!
//! Hostile input discipline: a record that fails conversion (garbage
//! EPC, non-finite time) or merge admission (out of order, behind the
//! watermark) is *counted and dropped* — one bad frame must never take
//! down the daemon or poison the tracker.

use crate::counters::IngestCounters;
use rfid_readerapi::{TagRecord, WireEventAdapter};
use rfid_sim::ReadEvent;
use rfid_track::store::Record;
use rfid_track::stream::{
    shard_of, MergeError, ObservationStream, Operator, SessionMerge, ShardCounters, ZoneTransition,
};
use rfid_track::{
    LocationTracker, ObjectHandle, ObjectRegistry, Site, StoreError, ZoneHistoryStore,
    ZoneObservation,
};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// What one `ingest_records` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestOutcome {
    /// Records accepted into the merge.
    pub accepted: usize,
    /// Records rejected (adapter or merge) and dropped.
    pub rejected: usize,
}

/// The final state a server run hands back, for bit-exact comparison
/// against a batch replay of the same recorded session set.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// The canonical tracker, bit-identical to the batch pipeline's.
    /// In memory mode it is the union of the shard trackers; in durable
    /// mode it is a replay of the store, which is the canonical log.
    pub tracker: LocationTracker,
    /// Every zone transition, in canonical stream order.
    pub transitions: Vec<ZoneTransition>,
    /// Ingest/query counters at shutdown.
    pub counters: IngestCounters,
    /// Per-shard routing and application tallies.
    pub shard_counters: Vec<ShardCounters>,
}

/// The merge-side state: one short lock every drain passes through.
struct IngestState {
    merge: SessionMerge<ReadEvent>,
    counters: IngestCounters,
    /// Highest released event time: the "now" queries evaluate at.
    now_s: f64,
    /// Next global release sequence number.
    next_seq: u64,
    /// Application tickets issued per shard.
    issued: Vec<u64>,
    /// The durable zone-history log, when the daemon runs with
    /// `--store-dir`. Appends happen here, inside the release critical
    /// section, so the on-disk order *is* the canonical release order.
    store: Option<ZoneHistoryStore>,
}

/// One shard's application state: its slice of the operator chain.
struct ShardState<'a> {
    observe: ObservationStream<'a>,
    tracker: LocationTracker,
    transitions: Vec<(u64, ZoneTransition)>,
    counters: ShardCounters,
    /// Tickets applied so far; ticket N may apply only when this is N.
    applied_tickets: u64,
}

struct ShardSlot<'a> {
    state: Mutex<ShardState<'a>>,
    /// Signalled after every applied ticket; orders appliers and wakes
    /// queries waiting for their snapshot ticket.
    applied: Condvar,
}

/// One routed batch: shard `lane` must apply `events` when its ticket
/// comes up.
struct RoutedBatch {
    lane: usize,
    ticket: u64,
    events: Vec<(u64, ReadEvent)>,
    /// In durable mode, the time below which the shard tracker's
    /// history may be evicted after applying (everything older is
    /// already safe in the store).
    evict_before: Option<f64>,
}

/// The shared ingest plane. One per server run; borrow it from every
/// session and query thread.
pub struct SharedIngest<'a> {
    site: &'a Site,
    registry: &'a ObjectRegistry,
    adapters: &'a [WireEventAdapter],
    staleness_s: f64,
    state: Mutex<IngestState>,
    shards: Vec<ShardSlot<'a>>,
    /// Whether a [`ZoneHistoryStore`] backs this plane. In durable
    /// mode shard tracker history is evicted as it becomes durable,
    /// history queries answer from the store, and the report replays
    /// the store.
    durable: bool,
}

impl<'a> SharedIngest<'a> {
    /// Creates the plane: one merge lane and one adapter per portal, a
    /// fresh per-shard tracker chain with the given staleness horizon.
    /// `shards` is the parallel application width; `0` selects the
    /// machine's available parallelism. Every shard count produces the
    /// same final report, bit for bit.
    #[must_use]
    pub fn new(
        site: &'a Site,
        registry: &'a ObjectRegistry,
        adapters: &'a [WireEventAdapter],
        staleness_s: f64,
        shards: usize,
    ) -> Self {
        let lanes = if shards == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            shards
        };
        Self {
            site,
            registry,
            adapters,
            staleness_s,
            state: Mutex::new(IngestState {
                merge: SessionMerge::new(adapters.len()),
                counters: IngestCounters::default(),
                now_s: f64::NEG_INFINITY,
                next_seq: 0,
                issued: vec![0; lanes],
                store: None,
            }),
            shards: (0..lanes)
                .map(|_| ShardSlot {
                    state: Mutex::new(ShardState {
                        observe: ObservationStream::new(site, registry),
                        tracker: LocationTracker::new(staleness_s),
                        transitions: Vec::new(),
                        counters: ShardCounters::default(),
                        applied_tickets: 0,
                    }),
                    applied: Condvar::new(),
                })
                .collect(),
            durable: false,
        }
    }

    /// Creates a durable plane backed by an opened
    /// [`ZoneHistoryStore`]: observations recovered from the store are
    /// replayed into the shard trackers one segment at a time (so live
    /// queries resume where the previous run stopped), new releases are
    /// appended to the store inside the release critical section, and
    /// shard history is evicted as it becomes durable — bounding
    /// resident memory.
    ///
    /// The replay evicts as it goes: after each segment, every shard
    /// drops history older than that segment's newest time, so restart
    /// never holds more than about one segment of history. Those
    /// cutoffs rise with the segments and end at the store's newest
    /// time, so the shards end exactly as a full replay followed by one
    /// eviction at that time would leave them.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] if the recovered log cannot be read
    /// back.
    pub fn with_store(
        site: &'a Site,
        registry: &'a ObjectRegistry,
        adapters: &'a [WireEventAdapter],
        staleness_s: f64,
        shards: usize,
        store: ZoneHistoryStore,
    ) -> Result<Self, StoreError> {
        let high_s = store.high_s();
        let mut ingest = Self::new(site, registry, adapters, staleness_s, shards);
        ingest.durable = true;
        // Nothing else can reach the plane yet, so the shards are
        // borrowed directly rather than locked.
        let mut shards: Vec<&mut ShardState<'a>> = ingest
            .shards
            .iter_mut()
            .map(|slot| slot.state.get_mut().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let lanes = shards.len();
        let mut recovered = 0u64;
        store.visit_segments(|records| {
            for record in records {
                let Record::Observation(observation) = record else {
                    continue;
                };
                let shard = &mut shards[shard_of(observation.object.index() as u64, lanes)];
                let emitted = shard.tracker.push(*observation);
                shard.transitions.extend(
                    emitted
                        .into_iter()
                        .map(|transition| (recovered, transition)),
                );
                recovered += 1;
            }
            // Replayed history is already durable, and the live
            // estimates survive eviction. Records are time-ordered, so
            // the last one carries the segment's newest time.
            if let Some(newest) = records.last() {
                for shard in &mut shards {
                    shard.tracker.evict_history_before(newest.time_s());
                }
            }
        })?;
        {
            let state = ingest
                .state
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            state.counters.store_recovered = recovered;
            state.next_seq = recovered;
            if let Some(high) = high_s {
                state.now_s = high;
            }
            state.store = Some(store);
        }
        Ok(ingest)
    }

    /// Whether a durable store backs this plane.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// Maps one released read to its zone observation exactly as the
    /// shard-side [`ObservationStream`] will: reads from unassigned
    /// portals or unknown tags map to `None`.
    fn map_observation(&self, event: &ReadEvent) -> Option<ZoneObservation> {
        let zone = self.site.zone_of_portal(event.reader, event.antenna)?;
        let object = self.registry.object_of(event.epc)?;
        Some(ZoneObservation {
            object,
            zone,
            time_s: event.time_s,
            inferred: false,
        })
    }

    /// Number of portal lanes.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.adapters.len()
    }

    /// Number of parallel application shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn lock(&self) -> MutexGuard<'_, IngestState> {
        // A panicking session thread must not brick the daemon: the
        // state is counters + operator structs whose invariants hold
        // between pushes, so recover the guard and keep serving.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The stable partition key of a released event: its object's
    /// index. Unknown EPCs (which the observation stage drops anyway)
    /// collapse onto key 0 — deterministic, and immaterial to output.
    fn partition_key(&self, event: &ReadEvent) -> u64 {
        self.registry
            .object_of(event.epc)
            .map_or(0, |object| object.index() as u64)
    }

    /// Stamps released events with sequence numbers, partitions them
    /// by object key, and issues one application ticket per non-empty
    /// shard batch. Runs under the merge lock; the caller applies the
    /// returned batches after dropping it.
    ///
    /// In durable mode every mapped observation is appended to the
    /// store here, inside the critical section, so the on-disk append
    /// order is exactly the canonical release order. A failed append
    /// (disk fault) is counted and the event still flows to its shard:
    /// durability degrades, liveness does not.
    fn route(&self, state: &mut IngestState, released: Vec<ReadEvent>) -> Vec<RoutedBatch> {
        if released.is_empty() {
            return Vec::new();
        }
        let lanes = self.shards.len();
        let mut per_lane: Vec<Vec<(u64, ReadEvent)>> = vec![Vec::new(); lanes];
        let mut high_s: Option<f64> = None;
        for event in released {
            state.counters.events_released += 1;
            state.now_s = state.now_s.max(event.time_s);
            high_s = Some(high_s.map_or(event.time_s, |h: f64| h.max(event.time_s)));
            let seq = state.next_seq;
            state.next_seq += 1;
            if state.store.is_some() {
                if let Some(observation) = self.map_observation(&event) {
                    let appended = state
                        .store
                        .as_mut()
                        .map(|store| store.append(&Record::Observation(observation)));
                    match appended {
                        Some(Ok(_)) => state.counters.store_appends += 1,
                        Some(Err(_)) => state.counters.store_errors += 1,
                        None => {}
                    }
                }
            }
            per_lane[shard_of(self.partition_key(&event), lanes)].push((seq, event));
        }
        if let Some(store) = state.store.as_mut() {
            if store.flush().is_err() {
                state.counters.store_errors += 1;
            }
        }
        let evict_before = if self.durable { high_s } else { None };
        per_lane
            .into_iter()
            .enumerate()
            .filter(|(_, events)| !events.is_empty())
            .map(|(lane, events)| {
                let ticket = state.issued[lane];
                state.issued[lane] += 1;
                RoutedBatch {
                    lane,
                    ticket,
                    events,
                    evict_before,
                }
            })
            .collect()
    }

    /// Applies one routed batch on the calling (session) thread, in
    /// ticket order: tickets are issued under the merge lock in
    /// canonical release order, so each shard consumes its subsequence
    /// of the canonical stream exactly as the unsharded chain would.
    fn apply(&self, batch: RoutedBatch) {
        let slot = &self.shards[batch.lane];
        let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        let depth = (batch.ticket + 1).saturating_sub(state.applied_tickets);
        state.counters.max_queue_depth = state.counters.max_queue_depth.max(depth);
        if state.applied_tickets != batch.ticket {
            state.counters.merge_holds += 1;
            while state.applied_tickets != batch.ticket {
                state = slot
                    .applied
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        state.counters.watermarks_forwarded += 1;
        state.counters.events_routed += batch.events.len() as u64;
        for (seq, event) in batch.events {
            for observation in state.observe.push(event) {
                let emitted = state.tracker.push(observation);
                state
                    .transitions
                    .extend(emitted.into_iter().map(|transition| (seq, transition)));
            }
        }
        if let Some(cutoff_s) = batch.evict_before {
            // Everything strictly older than the release high-water is
            // already durable; drop it from the live index so resident
            // memory stays bounded by the in-flight window.
            state.tracker.evict_history_before(cutoff_s);
        }
        state.applied_tickets += 1;
        slot.applied.notify_all();
    }

    /// Locks shard `lane` once every ticket up to `target` has been
    /// applied, so a query observes everything routed before its
    /// snapshot. Bounded waiting: if an applier died mid-ticket the
    /// query answers from the freshest applied state rather than
    /// hanging the daemon.
    fn synced_shard(&self, lane: usize, target: u64) -> MutexGuard<'_, ShardState<'a>> {
        let slot = &self.shards[lane];
        let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut patience = 0u32;
        while state.applied_tickets < target && patience < 50 {
            let (guard, _) = slot
                .applied
                .wait_timeout(state, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            patience += 1;
        }
        state
    }

    /// Claims a portal lane for a live session.
    ///
    /// # Errors
    ///
    /// Propagates [`MergeError::UnknownSession`] /
    /// [`MergeError::SessionBusy`]; both are counted.
    pub fn attach(&self, session: usize) -> Result<(), MergeError> {
        let mut state = self.lock();
        match state.merge.attach(session) {
            Ok(()) => {
                state.counters.sessions_attached += 1;
                Ok(())
            }
            Err(err) => {
                state.counters.session_rejects += 1;
                Err(err)
            }
        }
    }

    /// Releases a portal lane (watermark and queue survive for the
    /// next session on the same portal).
    pub fn detach(&self, session: usize) {
        let mut state = self.lock();
        if state.merge.detach(session).is_ok() {
            state.counters.sessions_detached += 1;
        }
    }

    /// Ingests one drained batch of wire records for a session, then
    /// advances the session's watermark to the highest accepted time
    /// and applies whatever the merge releases.
    ///
    /// The whole drain is one batch: conversion runs before the merge
    /// lock, admission and routing inside it, and the per-shard tracker
    /// application after it under per-shard locks — so concurrent
    /// sessions contend only on the short admission section.
    pub fn ingest_records(&self, session: usize, records: &[TagRecord]) -> IngestOutcome {
        let mut outcome = IngestOutcome::default();
        let adapter = self.adapters.get(session);
        let mut adapter_rejects = 0u64;
        let mut unroutable = 0u64;
        let mut events = Vec::with_capacity(records.len());
        for record in records {
            match adapter {
                Some(adapter) => match adapter.convert(record) {
                    Ok(event) => events.push(event),
                    Err(_) => {
                        adapter_rejects += 1;
                        outcome.rejected += 1;
                    }
                },
                None => {
                    unroutable += 1;
                    outcome.rejected += 1;
                }
            }
        }
        let batches = {
            let mut state = self.lock();
            state.counters.records_drained += records.len() as u64;
            state.counters.adapter_rejects += adapter_rejects;
            state.counters.merge_rejects += unroutable;
            let mut high: Option<f64> = None;
            for event in events {
                match state.merge.push(session, event) {
                    Ok(()) => {
                        state.counters.events_ingested += 1;
                        outcome.accepted += 1;
                        high = Some(high.map_or(event.time_s, |h: f64| h.max(event.time_s)));
                    }
                    Err(_) => {
                        state.counters.merge_rejects += 1;
                        outcome.rejected += 1;
                    }
                }
            }
            let released = high.map_or_else(Vec::new, |watermark_s| {
                state
                    .merge
                    .advance(session, watermark_s)
                    .unwrap_or_default()
            });
            // audit:allow(guard-held-across-blocking, reason = "route flushes the store inside the merge lock on purpose: the on-disk append order must equal the canonical release order, and appliers wait on per-shard tickets, never on this lock, so the flush cannot deadlock — only lengthen the admission section")
            self.route(&mut state, released)
        };
        for batch in batches {
            self.apply(batch);
        }
        outcome
    }

    /// Ends every lane and flushes the remaining events through the
    /// sharded chains — the drain step of a graceful shutdown. Call
    /// once every session has detached.
    pub fn finish(&self) {
        let batches = {
            let mut state = self.lock();
            let released = state.merge.finish();
            // audit:allow(guard-held-across-blocking, reason = "same ticket-ordering argument as ingest_records: the drain must append to the store in canonical release order under the merge lock; every session has detached, so nothing else contends for it")
            self.route(&mut state, released)
        };
        for batch in batches {
            self.apply(batch);
        }
        // Flush each shard's chain tail. The observation stage is
        // stateless and the tracker holds no windows, so the tails are
        // empty today; the discipline stays so a future windowed stage
        // in the shard chain drains correctly (tails flush per shard,
        // in shard order, after every routed event).
        let mut tail_seq = {
            let state = self.lock();
            state.next_seq
        };
        for slot in &self.shards {
            let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
            let tail: Vec<ZoneObservation> = state.observe.finish();
            for observation in tail {
                let emitted = state.tracker.push(observation);
                state
                    .transitions
                    .extend(emitted.into_iter().map(|transition| (tail_seq, transition)));
                tail_seq += 1;
            }
            let last = state.tracker.finish();
            state
                .transitions
                .extend(last.into_iter().map(|transition| (tail_seq, transition)));
        }
    }

    /// Aggregate counter snapshot. The `transitions` tally is summed
    /// live from the shard states.
    #[must_use]
    pub fn counters(&self) -> IngestCounters {
        let mut counters = self.lock().counters;
        counters.transitions = self
            .shards
            .iter()
            .map(|slot| {
                let state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
                state.transitions.len() as u64
            })
            .sum();
        counters
    }

    /// Per-shard counter snapshot, indexed by shard.
    #[must_use]
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|slot| {
                let state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
                state.counters
            })
            .collect()
    }

    /// The full `counters` RPC payload: every aggregate row, then the
    /// per-shard rows as `shard<N>_<name>`.
    #[must_use]
    pub fn counter_rows(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = self
            .counters()
            .rows()
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value))
            .collect();
        for (lane, counters) in self.shard_counters().into_iter().enumerate() {
            for (name, value) in counters.rows() {
                rows.push((format!("shard{lane}_{name}"), value));
            }
        }
        rows
    }

    /// Tallies a served query.
    pub fn record_query(&self) {
        self.lock().counters.queries_served += 1;
    }

    /// Tallies a rejected auth token.
    pub fn record_auth_failure(&self) {
        self.lock().counters.auth_failures += 1;
    }

    /// Tallies a malformed or unanswerable RPC request.
    pub fn record_rpc_error(&self) {
        self.lock().counters.rpc_errors += 1;
    }

    /// Tallies a session that ended in a transport error.
    pub fn record_session_error(&self) {
        self.lock().counters.session_errors += 1;
    }

    /// Resolves an EPC (24 hex digits) to its registered object.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason (bad hex, unknown tag).
    pub fn resolve(&self, epc_text: &str) -> Result<rfid_track::ObjectHandle, String> {
        let epc: rfid_gen2::Epc96 = epc_text
            .parse()
            .map_err(|err| format!("unparseable EPC {epc_text:?}: {err}"))?;
        self.registry
            .object_of(epc)
            .ok_or_else(|| format!("EPC {epc_text} is not a registered tag"))
    }

    /// Snapshots the query horizon for an object's shard: the ticket
    /// count the shard must reach and the canonical "now".
    fn query_snapshot(&self, lane: usize) -> (u64, f64) {
        let state = self.lock();
        (state.issued[lane], state.now_s)
    }

    /// Point-in-time location query at the canonical stream's "now"
    /// (the highest released event time): `(zone index, zone name)`,
    /// or `None` if the object is unseen or stale.
    ///
    /// The object's whole observation subsequence lives in one shard,
    /// so the per-object answer equals the unsharded chain's.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for an unresolvable EPC, or an
    /// unreadable store segment when the answer comes from the store.
    pub fn location_of(&self, epc_text: &str) -> Result<Option<(usize, String)>, String> {
        let object = self.resolve(epc_text)?;
        let lane = shard_of(object.index() as u64, self.shards.len());
        let snapshot = self.query_snapshot(lane);
        self.location_at_snapshot(object, lane, snapshot)
    }

    /// Answers [`SharedIngest::location_of`] at a snapshot taken by
    /// [`SharedIngest::query_snapshot`]. Drains applied after the
    /// snapshot may have moved the object's estimate past `now_s`; in
    /// durable mode they may also have evicted the history that answers
    /// `now_s`, so when the tracker finds nothing there the store,
    /// which holds every released observation, answers instead. The
    /// common answer costs one tracker probe in either mode.
    fn location_at_snapshot(
        &self,
        object: ObjectHandle,
        lane: usize,
        (target, now_s): (u64, f64),
    ) -> Result<Option<(usize, String)>, String> {
        let state = self.synced_shard(lane, target);
        let found = state.tracker.location_of(object, now_s);
        // Eviction cuts only observations older than every retained
        // one, so a retained answer is the true one; only a miss can
        // hide evicted history.
        if found.is_none()
            && self.durable
            && state
                .tracker
                .latest(object)
                .is_some_and(|(_, time_s)| time_s > now_s)
        {
            drop(state);
            return self.stored_location_at(object, now_s);
        }
        Ok(found.map(|zone| (zone, self.site.zone_name(zone).to_owned())))
    }

    /// The durable answer to a point-in-time location query: the
    /// store's newest observation of `object` at or before `at_s`,
    /// under the tracker's staleness horizon.
    fn stored_location_at(
        &self,
        object: ObjectHandle,
        at_s: f64,
    ) -> Result<Option<(usize, String)>, String> {
        let state = self.lock();
        let found = state
            .store
            .as_ref()
            .map_or(Ok(None), |store| store.location_at(object, at_s))
            .map_err(|err| format!("store read failed: {err}"))?;
        Ok(found.and_then(|(zone, time_s)| {
            (at_s - time_s <= self.staleness_s)
                .then(|| (zone, self.site.zone_name(zone).to_owned()))
        }))
    }

    /// Full zone history of an object: `(zone index, zone name,
    /// time, inferred)` per observation, in canonical stream order.
    ///
    /// In durable mode the answer comes from the store (shard history
    /// is evicted as it becomes durable), read at the release
    /// snapshot; otherwise from the object's shard tracker.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for an unresolvable EPC or an
    /// unreadable store segment.
    #[allow(clippy::type_complexity)]
    pub fn zone_history(&self, epc_text: &str) -> Result<Vec<(usize, String, f64, bool)>, String> {
        let object = self.resolve(epc_text)?;
        if self.durable {
            let state = self.lock();
            let history = state
                .store
                .as_ref()
                .map_or_else(|| Ok(Vec::new()), |store| store.history_of(object))
                .map_err(|err| format!("store read failed: {err}"))?;
            return Ok(history
                .into_iter()
                .map(|obs| {
                    (
                        obs.zone,
                        self.site.zone_name(obs.zone).to_owned(),
                        obs.time_s,
                        obs.inferred,
                    )
                })
                .collect());
        }
        let lane = shard_of(object.index() as u64, self.shards.len());
        let (target, _) = self.query_snapshot(lane);
        let state = self.synced_shard(lane, target);
        Ok(state
            .tracker
            .history_of(object)
            .map(|obs| {
                (
                    obs.zone,
                    self.site.zone_name(obs.zone).to_owned(),
                    obs.time_s,
                    obs.inferred,
                )
            })
            .collect())
    }

    /// Point-in-time location query at an arbitrary historical time
    /// `at_s`: `(zone index, zone name)` as of `at_s` under the same
    /// staleness horizon as [`SharedIngest::location_of`], or `None`
    /// if the object was unseen or stale then.
    ///
    /// Durable mode answers from the store's segment index in
    /// `O(log n)`; otherwise the object's shard tracker answers from
    /// its in-memory time index.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for an unresolvable EPC, a
    /// non-finite query time, or an unreadable store segment.
    pub fn location_at(
        &self,
        epc_text: &str,
        at_s: f64,
    ) -> Result<Option<(usize, String)>, String> {
        if !at_s.is_finite() {
            return Err(format!("non-finite query time {at_s}"));
        }
        let object = self.resolve(epc_text)?;
        if self.durable {
            return self.stored_location_at(object, at_s);
        }
        let lane = shard_of(object.index() as u64, self.shards.len());
        let (target, _) = self.query_snapshot(lane);
        let state = self.synced_shard(lane, target);
        Ok(state
            .tracker
            .location_of(object, at_s)
            .map(|zone| (zone, self.site.zone_name(zone).to_owned())))
    }

    /// The object's display name.
    #[must_use]
    pub fn name_of(&self, object: rfid_track::ObjectHandle) -> &str {
        self.registry.name_of(object)
    }

    /// Consumes the plane into its final report. In memory mode the
    /// shard trackers hold disjoint objects, each fed its canonical
    /// subsequence, so their union ([`LocationTracker::absorb`]) is
    /// bit-exact to a batch replay. In durable mode the shards have
    /// evicted their history and the store *is* the canonical log, so
    /// the tracker is rebuilt by replaying it one segment at a time —
    /// the recovery path and the report path are one code path, which
    /// is what makes "replay equals live run" a structural guarantee.
    /// Transitions merge back into canonical order by release
    /// sequence. Call after [`SharedIngest::finish`] once every session
    /// has detached.
    #[must_use]
    pub fn into_report(self) -> ServerReport {
        let mut state = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let mut counters = state.counters;
        if let Some(store) = state.store.as_mut() {
            if store.flush().is_err() {
                counters.store_errors += 1;
            }
        }
        let mut tracker = LocationTracker::new(self.staleness_s);
        let mut transitions: Vec<(u64, ZoneTransition)> = Vec::new();
        let mut shard_counters = Vec::with_capacity(self.shards.len());
        for slot in self.shards {
            let shard = slot
                .state
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            if !self.durable {
                tracker.absorb(shard.tracker);
            }
            transitions.extend(shard.transitions);
            shard_counters.push(shard.counters);
        }
        // Release sequence numbers are unique, so the sort is total:
        // this *is* the k-way merge back into canonical stream order.
        transitions.sort_by_key(|&(seq, _)| seq);
        counters.transitions = transitions.len() as u64;
        if let Some(store) = state.store.as_ref() {
            // `push` drops non-finite times instead of erroring; stored
            // times were validated at append, so nothing is dropped here.
            let replayed = store.visit_observations(|observation| {
                let _ = tracker.push(observation);
            });
            if let Err(err) = replayed {
                counters.store_errors += 1;
                eprintln!("store replay failed at shutdown: {err}");
            }
        }
        ServerReport {
            tracker,
            transitions: transitions
                .into_iter()
                .map(|(_, transition)| transition)
                .collect(),
            counters,
            shard_counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_gen2::Epc96;
    use rfid_track::StoreConfig;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ingest-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn world() -> (Site, ObjectRegistry, Vec<Epc96>) {
        let mut site = Site::new();
        let dock = site.add_zone("dock");
        let aisle = site.add_zone("aisle");
        site.assign_portal(0, 0, dock);
        site.assign_portal(1, 0, aisle);
        let mut registry = ObjectRegistry::new();
        let epcs = vec![Epc96::from_u128(0xA1), Epc96::from_u128(0xB2)];
        for (index, epc) in epcs.iter().enumerate() {
            let object = registry.register(format!("case-{index}"));
            registry.attach_tag(object, *epc);
        }
        (site, registry, epcs)
    }

    fn record(epc: Epc96, time_s: f64) -> TagRecord {
        TagRecord {
            epc: epc.to_string(),
            antenna: 1,
            time_s,
        }
    }

    #[test]
    fn multi_session_ingest_matches_batch() {
        let (site, registry, epcs) = world();
        let adapters: Vec<_> = (0..2)
            .map(|r| WireEventAdapter::new(r, epcs.iter().copied()))
            .collect();
        let ingest = SharedIngest::new(&site, &registry, &adapters, 100.0, 4);
        ingest.attach(0).expect("lane 0");
        ingest.attach(1).expect("lane 1");

        // Case 0 crosses dock (t=1) then aisle (t=3); case 1 only dock.
        let outcome = ingest.ingest_records(0, &[record(epcs[0], 1.0), record(epcs[1], 2.0)]);
        assert_eq!(outcome.accepted, 2);
        let outcome = ingest.ingest_records(1, &[record(epcs[0], 3.0)]);
        assert_eq!(outcome.accepted, 1);
        ingest.detach(0);
        ingest.detach(1);
        ingest.finish();

        let reads = vec![
            rfid_sim::ReadEvent {
                time_s: 1.0,
                reader: 0,
                antenna: 0,
                tag: 0,
                epc: epcs[0],
            },
            rfid_sim::ReadEvent {
                time_s: 2.0,
                reader: 0,
                antenna: 0,
                tag: 1,
                epc: epcs[1],
            },
            rfid_sim::ReadEvent {
                time_s: 3.0,
                reader: 1,
                antenna: 0,
                tag: 0,
                epc: epcs[0],
            },
        ];
        let mut batch = LocationTracker::new(100.0);
        batch
            .observe_all(site.observations(&registry, &reads))
            .expect("finite times");

        let report = ingest.into_report();
        assert_eq!(report.tracker, batch, "streamed state is the batch state");
        assert_eq!(report.transitions.len(), 3, "two first-sights + one move");
        assert_eq!(report.counters.events_ingested, 3);
        assert_eq!(report.counters.events_released, 3);
        assert_eq!(report.shard_counters.len(), 4);
        let routed: u64 = report.shard_counters.iter().map(|c| c.events_routed).sum();
        assert_eq!(routed, 3, "every released event lands on one shard");
    }

    /// Bit-identity across shard counts: the report any K produces is
    /// the report K=1 produces.
    #[test]
    fn report_is_shard_count_invariant() {
        let (site, registry, epcs) = world();
        let drains: Vec<(usize, Vec<TagRecord>)> = vec![
            (0, vec![record(epcs[0], 1.0), record(epcs[1], 2.0)]),
            (1, vec![record(epcs[0], 3.0), record(epcs[1], 3.5)]),
            (0, vec![record(epcs[1], 4.0)]),
            (1, vec![record(epcs[0], 5.0)]),
        ];
        let run = |shards: usize| {
            let adapters: Vec<_> = (0..2)
                .map(|r| WireEventAdapter::new(r, epcs.iter().copied()))
                .collect();
            let ingest = SharedIngest::new(&site, &registry, &adapters, 100.0, shards);
            ingest.attach(0).expect("lane 0");
            ingest.attach(1).expect("lane 1");
            for (session, records) in &drains {
                ingest.ingest_records(*session, records);
            }
            ingest.detach(0);
            ingest.detach(1);
            ingest.finish();
            let report = ingest.into_report();
            (report.tracker, report.transitions, report.counters)
        };
        let reference = run(1);
        for shards in [2, 3, 8] {
            assert_eq!(run(shards), reference, "shards = {shards}");
        }
    }

    #[test]
    fn hostile_records_are_counted_and_dropped() {
        let (site, registry, epcs) = world();
        let adapters = vec![WireEventAdapter::new(0, epcs.iter().copied())];
        let ingest = SharedIngest::new(&site, &registry, &adapters, 100.0, 2);
        ingest.attach(0).expect("lane 0");
        let hostile = [
            TagRecord {
                epc: "zz-not-hex".into(),
                antenna: 1,
                time_s: 1.0,
            },
            record(epcs[0], f64::NAN),
            record(epcs[0], f64::INFINITY),
            record(epcs[0], 5.0),
            record(epcs[0], 4.0), // out of order behind 5.0
        ];
        let outcome = ingest.ingest_records(0, &hostile);
        assert_eq!(outcome.accepted, 1);
        assert_eq!(outcome.rejected, 4);
        let counters = ingest.counters();
        assert_eq!(counters.adapter_rejects, 3, "bad hex + NaN + inf");
        assert_eq!(counters.merge_rejects, 1, "the out-of-order record");
        assert_eq!(counters.events_ingested, 1);
        ingest.detach(0);
        ingest.finish();
        let report = ingest.into_report();
        // Only the one clean record (t=5.0) reached the tracker.
        assert_eq!(report.counters.events_released, 1);
        assert_eq!(report.transitions.len(), 1);
    }

    #[test]
    fn queries_answer_from_released_state() {
        let (site, registry, epcs) = world();
        let adapters: Vec<_> = (0..2)
            .map(|r| WireEventAdapter::new(r, epcs.iter().copied()))
            .collect();
        let ingest = SharedIngest::new(&site, &registry, &adapters, 100.0, 3);
        ingest.attach(0).expect("lane 0");
        ingest.attach(1).expect("lane 1");
        ingest.ingest_records(0, &[record(epcs[0], 1.0)]);
        // Lane 1 silent: nothing released yet.
        assert_eq!(ingest.location_of(&epcs[0].to_string()), Ok(None));
        ingest.ingest_records(1, &[record(epcs[0], 3.0)]);
        // Floor is now min(1.0, 3.0) = 1.0: still nothing strictly below.
        ingest.ingest_records(0, &[record(epcs[1], 2.5)]);
        // Lane 0 watermark 2.5, lane 1 watermark 3.0: t=1.0 released.
        let location = ingest.location_of(&epcs[0].to_string()).expect("known epc");
        assert_eq!(location, Some((0, "dock".to_owned())));
        assert!(ingest.location_of("junk").is_err());
        assert!(ingest
            .location_of("000000000000000000000FFF")
            .unwrap_err()
            .contains("not a registered tag"));
        let history = ingest.zone_history(&epcs[0].to_string()).expect("history");
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].1, "dock");
    }

    #[test]
    fn counter_rows_expose_every_shard() {
        let (site, registry, epcs) = world();
        let adapters = vec![WireEventAdapter::new(0, epcs.iter().copied())];
        let ingest = SharedIngest::new(&site, &registry, &adapters, 100.0, 2);
        ingest.attach(0).expect("lane 0");
        ingest.ingest_records(0, &[record(epcs[0], 1.0), record(epcs[1], 2.0)]);
        let rows = ingest.counter_rows();
        let aggregate = IngestCounters::default().rows().len();
        assert_eq!(rows.len(), aggregate + 2 * 4, "13 aggregate + 2 shards x 4");
        assert!(rows.iter().any(|(name, _)| name == "shard0_events_routed"));
        assert!(rows
            .iter()
            .any(|(name, _)| name == "shard1_max_queue_depth"));
        let routed: u64 = rows
            .iter()
            .filter(|(name, _)| name.ends_with("_events_routed"))
            .map(|&(_, value)| value)
            .sum();
        // The lane watermark is 2.0, so only t=1.0 has been released
        // and routed; t=2.0 still sits in the merge.
        assert_eq!(routed, 1);
    }

    /// A drain applied between a query's snapshot and its answer moves
    /// the object's estimate past the snapshot's "now". Durable mode
    /// has then evicted the history that answers it, so the answer must
    /// come from the store, as memory mode's comes from the tracker.
    #[test]
    fn location_of_answers_its_snapshot_after_a_later_drain() {
        let (site, registry, epcs) = world();
        let adapters = vec![WireEventAdapter::new(0, epcs.iter().copied())];
        let dir = temp_dir("snapshot");
        let store = ZoneHistoryStore::open(&dir, StoreConfig::default()).expect("open store");
        let durable =
            SharedIngest::with_store(&site, &registry, &adapters, 100.0, 2, store).expect("replay");
        let memory = SharedIngest::new(&site, &registry, &adapters, 100.0, 2);
        for ingest in [&durable, &memory] {
            ingest.attach(0).expect("lane 0");
            // The lane watermark 2.0 releases the dock read at t=1.
            ingest.ingest_records(0, &[record(epcs[0], 1.0), record(epcs[0], 2.0)]);
            let object = ingest.resolve(&epcs[0].to_string()).expect("known epc");
            let lane = shard_of(object.index() as u64, ingest.shards());
            let snapshot = ingest.query_snapshot(lane);
            assert_eq!(snapshot.1, 1.0, "now is the released t=1");
            // The next drain releases t=2 before the query is answered.
            ingest.ingest_records(0, &[record(epcs[0], 3.0)]);
            assert_eq!(
                ingest.location_at_snapshot(object, lane, snapshot),
                Ok(Some((0, "dock".to_owned()))),
                "durable = {}",
                ingest.is_durable()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Observations of both cases, with equal times straddling the
    /// segment boundaries of a three-record store.
    fn straddling_observations(registry: &ObjectRegistry, epcs: &[Epc96]) -> Vec<ZoneObservation> {
        let (a, b) = (
            registry.object_of(epcs[0]).expect("case 0"),
            registry.object_of(epcs[1]).expect("case 1"),
        );
        [
            (a, 0, 1.0),
            (b, 0, 1.0),
            (a, 1, 1.0),
            (b, 1, 1.0),
            (a, 0, 2.0),
            (b, 0, 2.0),
            (a, 1, 2.0),
            (b, 1, 3.0),
            (a, 0, 3.0),
            (b, 0, 3.0),
            (a, 1, 3.0),
        ]
        .into_iter()
        .map(|(object, zone, time_s)| ZoneObservation {
            object,
            zone,
            time_s,
            inferred: false,
        })
        .collect()
    }

    /// Evicting after every segment of the replay leaves the plane
    /// exactly as one replay followed by one eviction at the store's
    /// newest time: the same shard trackers (holding only the newest
    /// observations), answers, counters and report as a one-segment
    /// store of the same records.
    #[test]
    fn segment_by_segment_replay_equals_replay_then_evict() {
        let (site, registry, epcs) = world();
        let adapters = vec![WireEventAdapter::new(0, epcs.iter().copied())];
        let observations = straddling_observations(&registry, &epcs);
        let newest = observations.last().expect("observations").time_s;
        let shards = 2;
        let mut replayed: Vec<LocationTracker> =
            (0..shards).map(|_| LocationTracker::new(100.0)).collect();
        for observation in &observations {
            let _ =
                replayed[shard_of(observation.object.index() as u64, shards)].push(*observation);
        }
        for tracker in &mut replayed {
            tracker.evict_history_before(newest);
        }
        assert_eq!(
            replayed
                .iter()
                .map(LocationTracker::history_len)
                .sum::<usize>(),
            4,
            "only the four observations at t=3 stay"
        );

        let run = |name: &str, records_per_segment: usize| {
            let dir = temp_dir(name);
            let mut store = ZoneHistoryStore::open(
                &dir,
                StoreConfig {
                    records_per_segment,
                },
            )
            .expect("open");
            for observation in &observations {
                store
                    .append(&Record::Observation(*observation))
                    .expect("append");
            }
            store.flush().expect("flush");
            let segments = store.segment_count();
            let ingest =
                SharedIngest::with_store(&site, &registry, &adapters, 100.0, shards, store)
                    .expect("replay");
            let trackers: Vec<LocationTracker> = ingest
                .shards
                .iter()
                .map(|slot| slot.state.lock().expect("shard lock").tracker.clone())
                .collect();
            let mut answers = Vec::new();
            for epc in &epcs {
                let text = epc.to_string();
                answers.push(format!("{:?}", ingest.location_of(&text)));
                answers.push(format!("{:?}", ingest.zone_history(&text)));
                for step in 0..8 {
                    let at_s = f64::from(step) * 0.5;
                    answers.push(format!("{:?}", ingest.location_at(&text, at_s)));
                }
            }
            let counters = ingest.counters();
            ingest.finish();
            let report = ingest.into_report();
            let _ = std::fs::remove_dir_all(&dir);
            (segments, trackers, answers, counters, report)
        };
        let (segments, trackers, answers, counters, report) = run("segments", 3);
        let (one, whole_trackers, whole_answers, whole_counters, whole_report) =
            run("one-segment", 1024);
        assert_eq!((segments, one), (4, 1));
        assert_eq!(trackers, replayed, "evicting per segment = evicting once");
        assert_eq!(whole_trackers, replayed);
        assert_eq!(answers, whole_answers);
        assert_eq!(counters, whole_counters);
        assert_eq!(report, whole_report);
        assert_eq!(report.counters.store_recovered, 11);
    }
}
