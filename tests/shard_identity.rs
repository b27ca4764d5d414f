//! K shards ≡ 1: property tests pinning the site daemon's sharded
//! ingest plane to its single-shard report, bit-identically, for
//! arbitrary shard counts, drain chunkings, session interleavings and
//! thread schedules.
//!
//! `rfid_site_server::SharedIngest` merges the portal sessions into one
//! canonical stream, routes every released event to one of K tracker
//! chains by its object's partition key, and applies each shard's
//! batches in the order its tickets were issued. These tests are the
//! proof that the report's tracker, transitions and ingest counters do
//! not depend on K: with the sessions drained in turn, with each
//! session draining on its own thread, against the plain chain fed the
//! merge's canonical order, across the shard-boundary cases (duplicate
//! timestamps straddling shards, a single object, a silent session),
//! and over a durable store restarted at several K.

use proptest::prelude::*;
use rfid_gen2::Epc96;
use rfid_readerapi::{TagRecord, WireEventAdapter};
use rfid_sim::ReadEvent;
use rfid_site_server::{IngestCounters, ServerReport, SharedIngest};
use rfid_track::store::Record;
use rfid_track::stream::{shard_of, ObservationStream, Operator, ZoneTransition};
use rfid_track::{LocationTracker, ObjectRegistry, Site, StoreConfig, ZoneHistoryStore};
use std::path::{Path, PathBuf};
use std::sync::Barrier;

/// Portal sessions: session `s` is reader `s`.
const SESSIONS: usize = 2;

const STALENESS_S: f64 = 5.0;

/// A drive plan: `(session, records)` steps, each draining the next
/// `records` of that session's reads.
type Plan = Vec<(usize, usize)>;

/// One drain: the session and the wire records it returned.
type Drain = (usize, Vec<TagRecord>);

fn plan_strategy() -> impl Strategy<Value = Plan> {
    proptest::collection::vec((0..SESSIONS, 1usize..6), 1..24)
}

/// Two objects with two tags each (EPCs 1-4); EPC 5 is a foreign tag.
fn registry() -> ObjectRegistry {
    let mut reg = ObjectRegistry::new();
    for obj in 0..2u128 {
        let handle = reg.register(format!("obj{obj}"));
        reg.attach_tag(handle, Epc96::from_u128(obj * 2 + 1));
        reg.attach_tag(handle, Epc96::from_u128(obj * 2 + 2));
    }
    reg
}

/// Raw reads on the quarter-second grid (sorted, frequent exact ties);
/// tag index 4 is the foreign EPC.
fn reads_strategy() -> impl Strategy<Value = Vec<ReadEvent>> {
    proptest::collection::vec((0u32..240, 0usize..5, 0usize..2, 0..SESSIONS), 0..40).prop_map(
        |raw| {
            let mut reads: Vec<ReadEvent> = raw
                .into_iter()
                .map(|(t, tag, antenna, reader)| read(f64::from(t) * 0.25, tag, antenna, reader))
                .collect();
            reads.sort_by(|a, b| {
                a.time_s
                    .partial_cmp(&b.time_s)
                    .expect("grid times are finite")
            });
            reads
        },
    )
}

fn read(time_s: f64, tag: usize, antenna: usize, reader: usize) -> ReadEvent {
    ReadEvent {
        time_s,
        reader,
        antenna,
        tag,
        epc: Epc96::from_u128(tag as u128 + 1),
    }
}

/// A site whose portals cover some but not all (reader, antenna) pairs.
fn site() -> Site {
    let mut site = Site::new();
    let dock = site.add_zone("dock");
    let aisle = site.add_zone("aisle");
    site.assign_portal(0, 0, dock);
    site.assign_portal(0, 1, aisle);
    site.assign_portal(1, 0, aisle);
    site
}

/// One wire adapter per session. Each knows all five EPCs, so the
/// foreign tag passes the adapter and is dropped by the tracker chain.
fn adapters() -> Vec<WireEventAdapter> {
    (0..SESSIONS)
        .map(|reader| WireEventAdapter::new(reader, (1..=5).map(Epc96::from_u128)))
        .collect()
}

/// Each session's reads as the wire records its reader reports, in
/// the session's own time order.
fn session_records(reads: &[ReadEvent]) -> Vec<Vec<TagRecord>> {
    let mut sessions = vec![Vec::new(); SESSIONS];
    for read in reads {
        sessions[read.reader].push(TagRecord {
            epc: read.epc.to_string(),
            antenna: u8::try_from(read.antenna + 1).expect("antenna port fits u8"),
            time_s: read.time_s,
        });
    }
    sessions
}

/// Renders reads and a drive plan into the drains a daemon would see.
/// Once the plan is spent, each session drains what it has left in one
/// last drain.
fn drains(reads: &[ReadEvent], plan: &Plan) -> Vec<Drain> {
    let sessions = session_records(reads);
    let mut cursor = [0usize; SESSIONS];
    let mut out = Vec::new();
    let steps = plan
        .iter()
        .copied()
        .chain((0..SESSIONS).map(|session| (session, usize::MAX)));
    for (session, len) in steps {
        let records = &sessions[session];
        let start = cursor[session];
        let end = start.saturating_add(len).min(records.len());
        if end > start {
            out.push((session, records[start..end].to_vec()));
            cursor[session] = end;
        }
    }
    out
}

/// One drain per read, on the read's own session.
fn one_read_drains(reads: &[ReadEvent]) -> Vec<Drain> {
    let plan: Plan = reads.iter().map(|read| (read.reader, 1)).collect();
    drains(reads, &plan)
}

fn attach_all(ingest: &SharedIngest<'_>) {
    for session in 0..ingest.sessions() {
        ingest.attach(session).expect("a free lane");
    }
}

/// The graceful drain: every session detaches, the merge flushes, and
/// the plane becomes its report.
fn shut_down(ingest: SharedIngest<'_>) -> ServerReport {
    for session in 0..ingest.sessions() {
        ingest.detach(session);
    }
    ingest.finish();
    ingest.into_report()
}

/// Drives a plane at `shards` through `drains` in order, on this thread.
fn run(site: &Site, registry: &ObjectRegistry, drains: &[Drain], shards: usize) -> ServerReport {
    let adapters = adapters();
    let ingest = SharedIngest::new(site, registry, &adapters, STALENESS_S, shards);
    attach_all(&ingest);
    for (session, records) in drains {
        ingest.ingest_records(*session, records);
    }
    shut_down(ingest)
}

/// Drives a plane at `shards` with each session's drains on a thread of
/// its own, all released together, as the daemon's session threads do.
fn run_threaded(
    site: &Site,
    registry: &ObjectRegistry,
    drains: &[Drain],
    shards: usize,
) -> ServerReport {
    let adapters = adapters();
    let ingest = SharedIngest::new(site, registry, &adapters, STALENESS_S, shards);
    attach_all(&ingest);
    let start = Barrier::new(SESSIONS);
    std::thread::scope(|scope| {
        for session in 0..SESSIONS {
            let (ingest, start) = (&ingest, &start);
            scope.spawn(move || {
                start.wait();
                for (_, records) in drains.iter().filter(|(s, _)| *s == session) {
                    ingest.ingest_records(session, records);
                }
            });
        }
    });
    shut_down(ingest)
}

/// The parts of a report every shard count must reproduce:
/// `shard_counters` has one entry per shard, and all but
/// `events_routed` depend on thread scheduling.
fn invariant(report: &ServerReport) -> (&LocationTracker, &[ZoneTransition], IngestCounters) {
    (&report.tracker, &report.transitions, report.counters)
}

/// The merge's canonical release order: reads stably sorted by
/// `(time, session)`.
fn canonical_order(reads: &[ReadEvent]) -> Vec<ReadEvent> {
    let mut sorted = reads.to_vec();
    sorted.sort_by(|a, b| {
        a.time_s
            .partial_cmp(&b.time_s)
            .expect("grid times are finite")
            .then(a.reader.cmp(&b.reader))
    });
    sorted
}

proptest! {
    /// The headline identity: for every shard count, drain chunking and
    /// session interleaving, the report is the K=1 report, and every
    /// released event is routed to exactly one shard.
    #[test]
    fn sharded_tracker_chain_is_bit_identical_to_serial(
        reads in reads_strategy(),
        plan in plan_strategy(),
        k in 2usize..=8,
    ) {
        let site = site();
        let reg = registry();
        let drains = drains(&reads, &plan);
        let serial = run(&site, &reg, &drains, 1);
        let sharded = run(&site, &reg, &drains, k);
        prop_assert_eq!(invariant(&sharded), invariant(&serial), "k = {}", k);
        prop_assert_eq!(sharded.shard_counters.len(), k);
        let routed: u64 = sharded.shard_counters.iter().map(|c| c.events_routed).sum();
        prop_assert_eq!(routed, sharded.counters.events_released);
    }

    /// No read is lost or reordered against the unsharded chain: at
    /// K=1 the tracker is the batch tracker over the reads in the
    /// merge's canonical order, and the transitions are the plain
    /// chain's over that order.
    #[test]
    fn serial_shard_plane_is_the_canonical_sort_of_the_plain_chain(
        reads in reads_strategy(),
        plan in plan_strategy(),
    ) {
        let site = site();
        let reg = registry();
        let report = run(&site, &reg, &drains(&reads, &plan), 1);
        let canonical = canonical_order(&reads);

        let mut batch = LocationTracker::new(STALENESS_S);
        batch
            .observe_all(site.observations(&reg, &canonical))
            .expect("grid times are finite");
        prop_assert_eq!(&report.tracker, &batch);

        let mut chain = ObservationStream::new(&site, &reg).then(LocationTracker::new(STALENESS_S));
        let mut plain = Vec::new();
        for read in &canonical {
            plain.extend(chain.push(*read));
        }
        plain.extend(chain.finish());
        prop_assert_eq!(report.transitions, plain);
    }
}

proptest! {
    // Enough cases that a shard applying its batches out of ticket
    // order shows up in every run, not only in a lucky one.
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The daemon's concurrency: with each session draining on its own
    /// thread, the report at any K is the sequential K=1 report.
    #[test]
    fn concurrent_sessions_reproduce_the_sequential_one_shard_report(
        reads in reads_strategy(),
        plan in plan_strategy(),
        k in 1usize..=8,
    ) {
        let site = site();
        let reg = registry();
        let drains = drains(&reads, &plan);
        let serial = run(&site, &reg, &drains, 1);
        let threaded = run_threaded(&site, &reg, &drains, k);
        prop_assert_eq!(invariant(&threaded), invariant(&serial), "k = {}", k);
    }
}

/// Reads that put two objects at the same instant on different shards:
/// the duplicate timestamp must straddle the shard boundary and still
/// come out in the canonical order.
fn straddling_reads() -> Vec<ReadEvent> {
    vec![
        read(1.0, 0, 0, 0), // object 0 at dock
        read(1.0, 2, 0, 1), // object 1 at aisle, same instant
        read(2.0, 2, 0, 0), // object 1 at dock
        read(2.0, 0, 0, 1), // object 0 at aisle, same instant
        read(3.0, 0, 0, 0),
        read(3.0, 2, 0, 1),
    ]
}

#[test]
fn duplicate_timestamps_straddling_shards_keep_canonical_order() {
    let site = site();
    let reg = registry();
    let drains = one_read_drains(&straddling_reads());
    let serial = run(&site, &reg, &drains, 1);
    assert!(!serial.transitions.is_empty());
    let times: Vec<f64> = serial.transitions.iter().map(|t| t.time_s).collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "transitions are time-sorted"
    );
    // The two objects share a shard at K=2 and straddle two at K=4 and 8.
    assert_eq!(shard_of(0, 2), shard_of(1, 2));
    assert!([4, 8].iter().all(|&k| shard_of(0, k) != shard_of(1, k)));
    for k in [2, 4, 8] {
        let sharded = run(&site, &reg, &drains, k);
        assert_eq!(invariant(&sharded), invariant(&serial), "k = {k}");
    }
}

#[test]
fn zero_event_shards_do_not_stall_the_merge() {
    let site = site();
    let reg = registry();
    // Only object 0 is ever read: at K=8 most shards see nothing.
    let reads: Vec<ReadEvent> = (0..6)
        .map(|i| read(f64::from(i), 0, 0, i as usize % 2))
        .collect();
    let drains = one_read_drains(&reads);
    let serial = run(&site, &reg, &drains, 1);
    let sharded = run(&site, &reg, &drains, 8);
    assert_eq!(invariant(&sharded), invariant(&serial));
    assert!(
        !serial.transitions.is_empty(),
        "the object does move between zones"
    );
    let shards_used = sharded
        .shard_counters
        .iter()
        .filter(|c| c.events_routed > 0)
        .count();
    assert_eq!(shards_used, 1, "one object routes to exactly one shard");
}

#[test]
fn watermark_advance_with_idle_shard_releases_early() {
    // One object on four shards: three shards never see an event, and a
    // watermark advance must still release everything below the merge
    // floor at once. The foreign read (tag index 4) only advances
    // session 0's watermark; the tracker chain drops it.
    let site = site();
    let reg = registry();
    let adapters = adapters();
    let sessions = session_records(&[
        read(1.0, 0, 0, 0), // object 0 at dock
        read(1.5, 4, 0, 0), // foreign tag
        read(2.0, 0, 0, 1), // object 0 at aisle
    ]);
    let epc = Epc96::from_u128(1).to_string();
    let drive = |shards: usize| {
        let ingest = SharedIngest::new(&site, &reg, &adapters, STALENESS_S, shards);
        attach_all(&ingest);
        ingest.ingest_records(0, &sessions[0][..1]);
        assert_eq!(ingest.counters().events_released, 0, "held until watermark");
        assert_eq!(ingest.location_of(&epc), Ok(None));
        ingest.ingest_records(1, &sessions[1]);
        assert_eq!(
            ingest.counters().events_released,
            0,
            "the floor is 1.0 and nothing lies strictly below it"
        );
        ingest.ingest_records(0, &sessions[0][1..]);
        assert_eq!(
            ingest.counters().events_released,
            1,
            "t=1.0 is below the 1.5 floor, t=1.5 and t=2.0 are not"
        );
        assert_eq!(ingest.location_of(&epc), Ok(Some((0, "dock".to_owned()))));
        let history = ingest.zone_history(&epc).expect("registered epc");
        assert_eq!(history.len(), 1, "shards = {shards}");
        assert_eq!(history[0].2, 1.0);
        let shards_used = ingest
            .shard_counters()
            .iter()
            .filter(|c| c.events_routed > 0)
            .count();
        assert_eq!(shards_used, 1, "the other shards stay idle");
        shut_down(ingest)
    };
    let serial = drive(1);
    assert_eq!(serial.counters.events_released, 3);
    let times: Vec<f64> = serial.transitions.iter().map(|t| t.time_s).collect();
    assert_eq!(times, [1.0, 2.0], "finish releases the rest");
    let sharded = drive(4);
    assert_eq!(invariant(&sharded), invariant(&serial));
}

#[test]
fn finish_flushes_unwatermarked_events_in_canonical_order() {
    // Session 1 attaches and never drains, so its lane watermark never
    // rises and the merge releases nothing until shutdown ends every
    // lane: `finish` alone must route and apply everything.
    let site = site();
    let reg = registry();
    let reads = vec![
        read(1.0, 0, 0, 0), // object 0 at dock
        read(1.0, 2, 1, 0), // object 1 at aisle, same instant
        read(2.0, 2, 0, 0),
        read(2.0, 0, 1, 0),
        read(3.0, 0, 0, 0),
        read(3.0, 2, 1, 0),
    ];
    let drains = one_read_drains(&reads);
    let adapters = adapters();
    let run_silent = |shards: usize| {
        let ingest = SharedIngest::new(&site, &reg, &adapters, STALENESS_S, shards);
        attach_all(&ingest);
        for (session, records) in &drains {
            ingest.ingest_records(*session, records);
        }
        assert_eq!(ingest.counters().events_ingested, reads.len() as u64);
        assert_eq!(ingest.counters().events_released, 0, "shards = {shards}");
        shut_down(ingest)
    };
    let serial = run_silent(1);
    assert_eq!(serial.counters.events_released, reads.len() as u64);
    assert!(!serial.transitions.is_empty());
    for k in [2, 4, 8] {
        let sharded = run_silent(k);
        assert_eq!(invariant(&sharded), invariant(&serial), "k = {k}");
        let routed: u64 = sharded.shard_counters.iter().map(|c| c.events_routed).sum();
        assert_eq!(routed, reads.len() as u64);
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shard-identity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir lists")
        .map(|entry| {
            let path = entry.expect("store dir entry").path();
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("store file reads"))
        })
        .collect();
    files.sort();
    files
}

/// Every query answer the plane gives for every EPC, as text.
fn answers(ingest: &SharedIngest<'_>) -> Vec<String> {
    let mut answers = Vec::new();
    for epc in (1..=6).map(Epc96::from_u128) {
        let text = epc.to_string();
        answers.push(format!("{:?}", ingest.location_of(&text)));
        answers.push(format!("{:?}", ingest.zone_history(&text)));
        for step in 0..24 {
            let at_s = f64::from(step) * 0.5;
            answers.push(format!("{:?}", ingest.location_at(&text, at_s)));
        }
    }
    answers
}

#[test]
fn durable_restart_is_shard_count_invariant() {
    let site = site();
    let reg = registry();
    let adapters = adapters();
    // Forty reads over ten seconds with ties, both sessions, every
    // portal and the foreign tag: the first half is already in the
    // store when the plane restarts, the second half arrives after.
    let reads: Vec<ReadEvent> = (0..40usize)
        .map(|i| read((i / 3) as f64 * 0.75, i % 5, (i / 2) % 2, i % 2))
        .collect();
    let (before, after) = reads.split_at(reads.len() / 2);
    let config = StoreConfig {
        records_per_segment: 3,
    };
    let written = temp_dir("written");
    let mut store = ZoneHistoryStore::open(&written, config).expect("open store");
    let recorded = site.observations(&reg, &canonical_order(before));
    for &observation in &recorded {
        store
            .append(&Record::Observation(observation))
            .expect("append");
    }
    store.flush().expect("flush");
    assert!(store.segment_count() > 2, "the replay crosses segments");
    drop(store);
    let drains = one_read_drains(after);

    let run_durable = |shards: usize| {
        let dir = temp_dir(&format!("restart-{shards}"));
        std::fs::create_dir_all(&dir).expect("create store dir");
        for (name, bytes) in files(&written) {
            std::fs::write(dir.join(name), bytes).expect("copy store file");
        }
        let store = ZoneHistoryStore::open(&dir, config).expect("reopen store");
        let ingest = SharedIngest::with_store(&site, &reg, &adapters, STALENESS_S, shards, store)
            .expect("replay");
        attach_all(&ingest);
        let mut seen = answers(&ingest);
        for (session, records) in &drains {
            ingest.ingest_records(*session, records);
        }
        seen.extend(answers(&ingest));
        let report = shut_down(ingest);
        let segments = files(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (seen, report, segments)
    };
    let (answers, report, segments) = run_durable(1);
    assert_eq!(report.counters.store_recovered, recorded.len() as u64);
    assert!(report.counters.store_appends > 0);
    for k in [2, 8] {
        let (sharded_answers, sharded, sharded_segments) = run_durable(k);
        assert_eq!(sharded_answers, answers, "k = {k}");
        assert_eq!(invariant(&sharded), invariant(&report), "k = {k}");
        assert!(
            sharded_segments == segments,
            "k = {k}: segment bytes differ"
        );
    }
    let _ = std::fs::remove_dir_all(&written);
}
