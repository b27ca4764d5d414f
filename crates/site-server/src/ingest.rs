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
    /// Every zone transition, in canonical stream order. In durable
    /// mode these are the transitions of the whole store, the runs
    /// before a restart included.
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
    /// The shard's transitions, tagged with their release sequence
    /// numbers. Only memory mode keeps them: a durable report takes its
    /// transitions from the store, so a durable shard clears them after
    /// every batch.
    transitions: Vec<(u64, ZoneTransition)>,
    /// Transitions the shard emitted this run, in either mode.
    emitted: u64,
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
    /// The time below which the shard tracker keeps no history once
    /// the batch is applied: in durable mode the release high-water
    /// (everything older is already safe in the store), in memory mode
    /// `+∞`, which evicts nothing.
    evict_before: f64,
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
    /// same report `tracker`, `transitions` and `counters`, bit for bit.
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
                        emitted: 0,
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
    /// [`ZoneHistoryStore`]: the shard trackers resume from what the
    /// store recovered, so live queries continue where the previous run
    /// stopped; new releases are appended to the store inside the
    /// release critical section; and shard history is evicted as it
    /// becomes durable, bounding resident memory.
    ///
    /// The log is read once, by the store's recovery, which also lists
    /// each object's newest stored observation and each segment's zones
    /// and observation count. The shards are seeded from
    /// [`ZoneHistoryStore::visit_latest`] through
    /// [`LocationTracker::push_and_evict_before`] with the store's
    /// newest time as the cutoff. In a time-ordered log each object's
    /// last observation is its estimate, and only the observations at
    /// the newest time stay in history, so the shards end exactly as a
    /// replay of every stored observation followed by one eviction at
    /// that time would leave them. Only the trailing segments holding
    /// observations at that time are read back; a segment damaged after
    /// the store opened is reported by the first query or replay that
    /// reads it. The seeding emits no transitions: `counters`
    /// `transitions` counts this run's, and [`SharedIngest::into_report`]
    /// takes every stored transition from its replay of the store.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownZone`] for the first stored observation, in
    /// append order, whose zone is not one of `site`'s: segment bytes
    /// are hostile input, and every query answer names its zone. This
    /// is checked first, from the per-segment highest zones, reading
    /// back only the first segment that holds such a zone. Then
    /// propagates [`StoreError`] if a trailing segment cannot be read
    /// back.
    pub fn with_store(
        site: &'a Site,
        registry: &'a ObjectRegistry,
        adapters: &'a [WireEventAdapter],
        staleness_s: f64,
        shards: usize,
        store: ZoneHistoryStore,
    ) -> Result<Self, StoreError> {
        store.check_zones(site.zone_count())?;
        let high_s = store.high_s();
        let mut ingest = Self::new(site, registry, adapters, staleness_s, shards);
        ingest.durable = true;
        let lanes = ingest.shards.len();
        let mut batches: Vec<Vec<((), ZoneObservation)>> = vec![Vec::new(); lanes];
        store.visit_latest(|observation| {
            batches[shard_of(observation.object.index() as u64, lanes)].push(((), observation));
        })?;
        if let Some(high_s) = high_s {
            // Nothing else can reach the plane yet, so the shards are
            // borrowed directly rather than locked.
            for (slot, batch) in ingest.shards.iter_mut().zip(batches) {
                let shard = slot.state.get_mut().unwrap_or_else(PoisonError::into_inner);
                shard
                    .tracker
                    .push_and_evict_before(batch, high_s, &mut Vec::new());
            }
        }
        {
            let state = ingest
                .state
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            let recovered = store.observation_count();
            state.counters.store_recovered = recovered;
            state.next_seq = recovered;
            if let Some(high) = high_s {
                state.now_s = high;
            }
            state.store = Some(store);
        }
        Ok(ingest)
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
        let evict_before = match high_s {
            Some(high_s) if self.durable => high_s,
            _ => f64::INFINITY,
        };
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
        let ShardState {
            observe,
            tracker,
            transitions,
            emitted,
            ..
        } = &mut *state;
        let observed = batch.events.into_iter().flat_map(|(seq, event)| {
            observe
                .push(event)
                .into_iter()
                .map(move |observation| (seq, observation))
        });
        // In durable mode everything strictly older than the release
        // high-water is already durable, so it never enters the live
        // index and resident memory stays bounded by the in-flight
        // window.
        let before = transitions.len();
        tracker.push_and_evict_before(observed, batch.evict_before, transitions);
        *emitted += (transitions.len() - before) as u64;
        if self.durable {
            transitions.clear();
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
    }

    /// Aggregate counter snapshot. The `transitions` tally is summed
    /// live from the shard states: the transitions of this run, as
    /// `events_ingested` counts this run's reads.
    #[must_use]
    pub fn counters(&self) -> IngestCounters {
        let mut counters = self.lock().counters;
        counters.transitions = self
            .shards
            .iter()
            .map(|slot| {
                let state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
                state.emitted
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
    /// bit-exact to a batch replay, and the shards' transitions merge
    /// back into canonical order by release sequence. In durable mode
    /// the shards have evicted their history and kept only a count of
    /// their transitions, and the store *is* the canonical log: the
    /// tracker and every transition, this run's and the stored runs'
    /// before it, come from one replay of the store through
    /// [`LocationTracker::push_and_evict_before`] with an infinite
    /// cutoff, which keeps every observation as `push` does — which is
    /// what makes "replay equals live run" a structural guarantee. In
    /// either mode `counters.transitions` counts this run's transitions.
    /// Call after [`SharedIngest::finish`] once every session has
    /// detached.
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
            counters.transitions += shard.emitted;
            shard_counters.push(shard.counters);
        }
        // Release sequence numbers are unique, so the sort is total:
        // this *is* the k-way merge back into canonical stream order.
        transitions.sort_by_key(|&(seq, _)| seq);
        if let Some(store) = state.store.as_ref() {
            // Stored times were validated at append and stored zones by
            // `with_store`, so the replay drops nothing; the store's
            // order is the canonical release order.
            let replayed = store.visit_observations(|observation| {
                tracker.push_and_evict_before([(0, observation)], f64::INFINITY, &mut transitions);
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

    /// A release answers queries at once, whether its object's shard
    /// is the only one (K=1) or most shards hold nothing (K=3, K=8).
    #[test]
    fn queries_answer_from_released_state() {
        let (site, registry, epcs) = world();
        let adapters: Vec<_> = (0..2)
            .map(|r| WireEventAdapter::new(r, epcs.iter().copied()))
            .collect();
        for shards in [1, 3, 8] {
            let ingest = SharedIngest::new(&site, &registry, &adapters, 100.0, shards);
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
            assert_eq!(location, Some((0, "dock".to_owned())), "shards = {shards}");
            assert!(ingest.location_of("junk").is_err());
            assert!(ingest
                .location_of("000000000000000000000FFF")
                .unwrap_err()
                .contains("not a registered tag"));
            let history = ingest.zone_history(&epcs[0].to_string()).expect("history");
            assert_eq!(history.len(), 1, "shards = {shards}");
            assert_eq!(history[0].1, "dock");
        }
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
                ingest.durable
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A durable batch evicts what the store already holds and a
    /// memory-mode batch evicts nothing: after the same drains the
    /// durable shards keep only the newest released observation, the
    /// memory-mode shards every released one.
    #[test]
    fn durable_batches_evict_below_the_release_high_water() {
        let (site, registry, epcs) = world();
        let adapters = vec![WireEventAdapter::new(0, epcs.iter().copied())];
        let dir = temp_dir("evict-high-water");
        let store = ZoneHistoryStore::open(&dir, StoreConfig::default()).expect("open store");
        let durable =
            SharedIngest::with_store(&site, &registry, &adapters, 100.0, 2, store).expect("replay");
        let memory = SharedIngest::new(&site, &registry, &adapters, 100.0, 2);
        for (ingest, retained) in [(&durable, 1), (&memory, 3)] {
            ingest.attach(0).expect("lane 0");
            // Each drain's watermark releases the read before it: t=1,
            // then t=2, then t=3, one batch each.
            ingest.ingest_records(0, &[record(epcs[0], 1.0), record(epcs[0], 2.0)]);
            ingest.ingest_records(0, &[record(epcs[0], 3.0)]);
            ingest.ingest_records(0, &[record(epcs[0], 4.0)]);
            assert_eq!(ingest.counters().events_released, 3);
            let held: usize = ingest
                .shards
                .iter()
                .map(|slot| slot.state.lock().expect("shard lock").tracker.history_len())
                .sum();
            assert_eq!(held, retained, "durable = {}", ingest.durable);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stored observation in a zone the site lacks would panic every
    /// query that names it; `with_store` refuses the store instead,
    /// naming the first segment that holds such a zone.
    #[test]
    fn with_store_refuses_a_zone_the_site_lacks() {
        let (site, registry, epcs) = world();
        let adapters = vec![WireEventAdapter::new(0, epcs.iter().copied())];
        let case = registry.object_of(epcs[0]).expect("case 0");
        let dir = temp_dir("unknown-zone");
        let mut store = ZoneHistoryStore::open(
            &dir,
            StoreConfig {
                records_per_segment: 2,
            },
        )
        .expect("open");
        for (zone, time_s) in [(0, 1.0), (1, 2.0), (1, 3.0), (2, 4.0), (9, 5.0)] {
            store
                .append(&Record::Observation(ZoneObservation {
                    object: case,
                    zone,
                    time_s,
                    inferred: false,
                }))
                .expect("append");
        }
        store.flush().expect("flush");
        let refused = SharedIngest::with_store(&site, &registry, &adapters, 100.0, 2, store);
        assert_eq!(
            refused.err(),
            Some(StoreError::UnknownZone { index: 1, zone: 2 })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The replay ends at the first zone the site lacks: a later segment
    /// that became unreadable after the store opened is never read, so
    /// the unknown zone, not the read failure, is the error.
    #[test]
    fn with_store_stops_at_the_first_unknown_zone() {
        let (site, registry, epcs) = world();
        let adapters = vec![WireEventAdapter::new(0, epcs.iter().copied())];
        let case = registry.object_of(epcs[0]).expect("case 0");
        let dir = temp_dir("unknown-zone-first");
        let mut store = ZoneHistoryStore::open(
            &dir,
            StoreConfig {
                records_per_segment: 2,
            },
        )
        .expect("open");
        for (zone, time_s) in [(9, 1.0), (0, 2.0), (1, 3.0), (0, 4.0)] {
            store
                .append(&Record::Observation(ZoneObservation {
                    object: case,
                    zone,
                    time_s,
                    inferred: false,
                }))
                .expect("append");
        }
        store.flush().expect("flush");
        let segment = dir.join("seg-00000001.rzh");
        let mut bytes = std::fs::read(&segment).expect("read segment 1");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&segment, &bytes).expect("damage segment 1");
        let refused = SharedIngest::with_store(&site, &registry, &adapters, 100.0, 2, store);
        assert_eq!(
            refused.err(),
            Some(StoreError::UnknownZone { index: 0, zone: 9 })
        );
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

    /// A restart over a store of several segments leaves the plane
    /// exactly as one replay followed by one eviction at the store's
    /// newest time: the same shard trackers (holding only the newest
    /// observations), answers, counters and report as a one-segment
    /// store of the same records, at every shard count.
    #[test]
    fn segment_by_segment_replay_equals_replay_then_evict() {
        let (site, registry, epcs) = world();
        let adapters = vec![WireEventAdapter::new(0, epcs.iter().copied())];
        let observations = straddling_observations(&registry, &epcs);
        let newest = observations.last().expect("observations").time_s;
        for shards in [1, 2, 3, 8] {
            let mut replayed: Vec<LocationTracker> =
                (0..shards).map(|_| LocationTracker::new(100.0)).collect();
            for observation in &observations {
                let _ = replayed[shard_of(observation.object.index() as u64, shards)]
                    .push(*observation);
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
                let dir = temp_dir(&format!("{name}-{shards}"));
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
            assert_eq!(
                trackers, replayed,
                "evicting per segment = evicting once, shards = {shards}"
            );
            assert_eq!(whole_trackers, replayed, "shards = {shards}");
            assert_eq!(answers, whole_answers, "shards = {shards}");
            assert_eq!(counters, whole_counters, "shards = {shards}");
            assert_eq!(report, whole_report, "shards = {shards}");
            assert_eq!(report.counters.store_recovered, 11);
        }
    }

    fn observation(object: ObjectHandle, zone: usize, time_s: f64) -> Record {
        Record::Observation(ZoneObservation {
            object,
            zone,
            time_s,
            inferred: false,
        })
    }

    fn stored_read(epc: Epc96, time_s: f64) -> Record {
        Record::Read(ReadEvent {
            time_s,
            reader: 0,
            antenna: 0,
            tag: 0,
            epc,
        })
    }

    /// The shard trackers a replay of every stored observation followed
    /// by one eviction at `high_s` leaves.
    fn push_all_then_evict(records: &[Record], high_s: f64, shards: usize) -> Vec<LocationTracker> {
        let mut trackers: Vec<LocationTracker> =
            (0..shards).map(|_| LocationTracker::new(100.0)).collect();
        for record in records {
            if let Record::Observation(observation) = record {
                let _ = trackers[shard_of(observation.object.index() as u64, shards)]
                    .push(*observation);
            }
        }
        for tracker in &mut trackers {
            tracker.evict_history_before(high_s);
        }
        trackers
    }

    fn shard_trackers(ingest: &SharedIngest<'_>) -> Vec<LocationTracker> {
        ingest
            .shards
            .iter()
            .map(|slot| slot.state.lock().expect("shard lock").tracker.clone())
            .collect()
    }

    /// The restart reads back only the trailing segments holding
    /// observations at the store's newest time: with every other closed
    /// segment deleted after `open` — one of them ending in a read at
    /// that time — it seeds the same trackers, answers and recovered
    /// count as a restart on an intact copy.
    #[test]
    fn with_store_reads_only_the_segments_at_the_newest_time() {
        let (site, registry, epcs) = world();
        let adapters = vec![WireEventAdapter::new(0, epcs.iter().copied())];
        let (a, b) = (
            registry.object_of(epcs[0]).expect("case 0"),
            registry.object_of(epcs[1]).expect("case 1"),
        );
        // Three records a segment: [a@1 b@1 a@2] [b@2 read@3 read@3]
        // [a@3 b@3 read@3], then a@3 in the open tail.
        let records = [
            observation(a, 0, 1.0),
            observation(b, 1, 1.0),
            observation(a, 1, 2.0),
            observation(b, 0, 2.0),
            stored_read(epcs[0], 3.0),
            stored_read(epcs[1], 3.0),
            observation(a, 0, 3.0),
            observation(b, 1, 3.0),
            stored_read(epcs[0], 3.0),
            observation(a, 1, 3.0),
        ];
        let config = StoreConfig {
            records_per_segment: 3,
        };
        let restart = |name: &str, delete: &[&str]| {
            let dir = temp_dir(name);
            let mut store = ZoneHistoryStore::open(&dir, config).expect("open");
            for record in &records {
                store.append(record).expect("append");
            }
            store.flush().expect("flush");
            drop(store);
            let store = ZoneHistoryStore::open(&dir, config).expect("reopen");
            for file in delete {
                std::fs::remove_file(dir.join(file)).expect("delete segment");
            }
            let ingest = SharedIngest::with_store(&site, &registry, &adapters, 100.0, 2, store)
                .expect("restart");
            let answers: Vec<_> = epcs
                .iter()
                .map(|epc| ingest.location_of(&epc.to_string()))
                .collect();
            let seen = (
                shard_trackers(&ingest),
                answers,
                ingest.counters().store_recovered,
            );
            let _ = std::fs::remove_dir_all(&dir);
            seen
        };
        let intact = restart("newest-intact", &[]);
        let trailing = restart("newest-trailing", &["seg-00000000.rzh", "seg-00000001.rzh"]);
        assert_eq!(trailing, intact);
        assert_eq!(trailing.0, push_all_then_evict(&records, 3.0, 2));
        assert_eq!(
            trailing.1,
            [
                Ok(Some((1, "aisle".to_owned()))),
                Ok(Some((1, "aisle".to_owned())))
            ]
        );
        assert_eq!(trailing.2, 7);
    }

    proptest::proptest! {
        /// Over arbitrary stores — one to five records a segment, ties
        /// at the newest time across closed segments and the tail, reads
        /// and transitions among the observations, an object last seen
        /// first, and tails left empty — the restart seeds each shard as
        /// a replay of every observation followed by one eviction at the
        /// newest time leaves it, and the report is a fresh reopen's
        /// replay, tracker and transitions, at K = 1, 2 and 3.
        #[test]
        fn seeding_from_the_newest_observations_equals_replay_then_evict(
            records_per_segment in 1usize..6,
            steps in proptest::collection::vec((0u8..5, 0usize..3, 0usize..2, 0u8..3), 1..40),
        ) {
            let site = world().0;
            let mut registry = ObjectRegistry::new();
            let objects: Vec<ObjectHandle> = (0..4)
                .map(|index| registry.register(format!("case-{index}")))
                .collect();
            let adapters: Vec<WireEventAdapter> = Vec::new();
            // Object 3 is seen once, first. Two steps in three keep the
            // time of the record before.
            let mut records = vec![observation(objects[3], 1, 0.0)];
            let mut time_s = 0.0;
            for (kind, object, zone, step) in steps {
                time_s += if step == 0 { 0.5 } else { 0.0 };
                let object = objects[object];
                records.push(match kind {
                    0 => stored_read(Epc96::from_u128(1), time_s),
                    1 => Record::Transition(ZoneTransition {
                        object,
                        from: None,
                        to: zone,
                        time_s,
                    }),
                    _ => observation(object, zone, time_s),
                });
            }
            let config = StoreConfig { records_per_segment };
            let dir = temp_dir(&format!("seeding-{records_per_segment}-{}", records.len()));
            let mut store = ZoneHistoryStore::open(&dir, config).expect("open");
            for record in &records {
                store.append(record).expect("append");
            }
            store.flush().expect("flush");
            drop(store);
            let mut replayed = LocationTracker::new(100.0);
            let mut transitions = Vec::new();
            let reopened = ZoneHistoryStore::open(&dir, config).expect("reopen");
            reopened
                .visit_observations(|observation| transitions.extend(replayed.push(observation)))
                .expect("replay");
            drop(reopened);
            for shards in 1..=3 {
                let store = ZoneHistoryStore::open(&dir, config).expect("reopen");
                let ingest =
                    SharedIngest::with_store(&site, &registry, &adapters, 100.0, shards, store)
                        .expect("restart");
                proptest::prop_assert_eq!(
                    shard_trackers(&ingest),
                    push_all_then_evict(&records, time_s, shards),
                    "shards = {}", shards
                );
                proptest::prop_assert_eq!(ingest.counters().transitions, 0);
                ingest.finish();
                let report = ingest.into_report();
                proptest::prop_assert_eq!(&report.tracker, &replayed);
                proptest::prop_assert_eq!(&report.transitions, &transitions);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
