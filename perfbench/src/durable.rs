//! `durable_restart`: the durable ingest plane, restarted over a
//! pre-written zone-history store far larger than the store's in-memory
//! tail, then driven in-process.
//!
//! The restart is the one the daemon performs for `--store-dir`:
//! `ZoneHistoryStore::open` then `SharedIngest::with_store`. Phase A
//! ingests at a fixed rate through `SharedIngest::ingest_records`, four
//! portal lanes taken round-robin by one thread, while a second thread
//! issues `location_at` and `zone_history` on a schedule. Phase B drains
//! backlogs as fast as the plane takes them. The traced run adds a span
//! around each of those calls and replays the restart and the drains
//! stage by stage through the store, merge, observation and tracker
//! parts they are built from.

use crate::env::{self, dir_bytes, ScratchDir};
use crate::plane::{
    ingest_metrics, moves, other_zone, split_ingest, world, Read, World, ZIPF_EXPONENT,
};
use crate::report::{Metric, Outcome};
use crate::stats::{aggregate_rate, median, ms, unit_rates, us, Digest, Rng, Samples, Zipf};
use crate::trace::{durations, SpanId, Tracer};
use crate::Config;
use rfid_readerapi::TagRecord;
use rfid_site_server::{ServerConfig, SharedIngest};
use rfid_track::store::Record;
use rfid_track::stream::{shard_of, Operator};
use rfid_track::{LocationTracker, ObjectHandle, StoreConfig, ZoneHistoryStore, ZoneObservation};
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

const READERS: usize = 4;
const ANTENNAS: usize = 4;
const ZONES: usize = READERS * ANTENNAS;
/// Records per ingest call in phase B: the tag-list cap of one drain.
const BACKLOG_BATCH: usize = 1000;

struct Sizes {
    objects: usize,
    stored: usize,
    phase_a_s: f64,
    batch: usize,
    batches_per_s: f64,
    location_at_per_s: f64,
    zone_history_per_s: f64,
    backlog: usize,
    backlogs: usize,
    restarts: usize,
}

fn sizes(config: &Config) -> Sizes {
    if config.smoke {
        Sizes {
            objects: 128,
            stored: 20_000,
            phase_a_s: 1.0,
            batch: 25,
            batches_per_s: 1000.0,
            location_at_per_s: 1500.0,
            zone_history_per_s: 150.0,
            backlog: 20_000,
            backlogs: 2,
            restarts: 1,
        }
    } else {
        Sizes {
            objects: 4096,
            stored: 1_000_000,
            phase_a_s: 0.2 * config.seconds as f64,
            batch: 25,
            batches_per_s: 1000.0,
            location_at_per_s: 500.0,
            zone_history_per_s: 24.0,
            backlog: 150_000,
            backlogs: (config.seconds as usize / 5).max(2),
            restarts: 5,
        }
    }
}

#[derive(Clone, Copy)]
enum Query {
    LocationAt { object: u32, at_s: f64 },
    ZoneHistory { object: u32 },
}

struct Schedule {
    /// Phase-A batches then phase-B batches, `(lane, reads)`.
    batches: Vec<(usize, std::ops::Range<usize>)>,
    reads: Vec<Read>,
    phase_a_batches: usize,
    /// Reads per phase-A batch, and the gap between their due times.
    batch_len: usize,
    batch_every_ns: u64,
    backlog_batches: usize,
    queries: Vec<(u64, Query)>,
    /// Each object's zone in its newest observation, pre-written or read.
    last_zone: Vec<Option<u8>>,
}

fn handles(world: &World) -> Vec<ObjectHandle> {
    world
        .epcs
        .iter()
        .map(|epc| {
            world
                .registry
                .object_of(*epc)
                .expect("every EPC is registered")
        })
        .collect()
}

/// Writes the pre-existing store: `sizes.stored` observations with
/// Zipf-skewed objects, one millisecond apart. Returns its digest.
fn prewrite(
    dir: &Path,
    handles: &[ObjectHandle],
    seed: u64,
    sizes: &Sizes,
    last_zone: &mut [Option<u8>],
) -> Result<u64, String> {
    let mut store =
        ZoneHistoryStore::open(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed, 0xd0_0d);
    let zipf = Zipf::new(sizes.objects, ZIPF_EXPONENT, &mut rng);
    let mut zone_of: Vec<u8> = (0..sizes.objects).map(|_| rng.below(ZONES) as u8).collect();
    let mut digest = Digest::default();
    for i in 0..sizes.stored {
        let object = zipf.pick(&mut rng);
        if moves(&mut rng) {
            zone_of[object] = other_zone(zone_of[object], ZONES, &mut rng);
        }
        let observation = ZoneObservation {
            object: handles[object],
            zone: usize::from(zone_of[object]),
            time_s: i as f64 * 1e-3,
            inferred: false,
        };
        store
            .append(&Record::Observation(observation))
            .map_err(|e| e.to_string())?;
        last_zone[object] = Some(zone_of[object]);
        digest.word(object as u64);
        digest.word(u64::from(zone_of[object]));
    }
    store.flush().map_err(|e| e.to_string())?;
    Ok(digest.value())
}

impl Schedule {
    fn generate(seed: u64, sizes: &Sizes, last_zone: Vec<Option<u8>>) -> Self {
        let mut rng = Rng::new(seed, 0xbeef);
        let zipf = Zipf::new(sizes.objects, ZIPF_EXPONENT, &mut rng);
        let mut schedule = Self {
            batches: Vec::new(),
            reads: Vec::new(),
            phase_a_batches: (sizes.phase_a_s * sizes.batches_per_s) as usize,
            batch_len: sizes.batch,
            batch_every_ns: (1e9 / sizes.batches_per_s) as u64,
            backlog_batches: sizes.backlog.div_ceil(BACKLOG_BATCH),
            queries: Vec::new(),
            last_zone,
        };
        let start_s = sizes.stored as f64 * 1e-3 + 1.0;
        // Lanes take batches round-robin. A lane's reader sees the
        // objects standing in its zones; a read that moves its object
        // sees it in another of those zones, wherever it stood before.
        let push_batch = |schedule: &mut Self, len: usize, rng: &mut Rng| {
            let lane = schedule.batches.len() % READERS;
            let first = schedule.reads.len();
            for _ in 0..len {
                let (object, zone) = if moves(rng) {
                    let object = zipf.pick(rng);
                    let mut zone = lane * ANTENNAS + rng.below(ANTENNAS);
                    if schedule.last_zone[object] == Some(zone as u8) {
                        zone = lane * ANTENNAS + (zone + 1) % ANTENNAS;
                    }
                    (object, zone as u8)
                } else {
                    loop {
                        let object = zipf.pick(rng);
                        match schedule.last_zone[object] {
                            Some(zone) if usize::from(zone) / ANTENNAS == lane => {
                                break (object, zone);
                            }
                            _ => {}
                        }
                    }
                };
                schedule.last_zone[object] = Some(zone);
                schedule.reads.push(Read {
                    time_s: start_s + schedule.reads.len() as f64 * 1e-5,
                    object: object as u32,
                    zone,
                });
            }
            schedule.batches.push((lane, first..schedule.reads.len()));
        };
        for _ in 0..schedule.phase_a_batches {
            push_batch(&mut schedule, sizes.batch, &mut rng);
        }
        for _ in 0..sizes.backlogs {
            let mut left = sizes.backlog;
            while left > 0 {
                let len = left.min(BACKLOG_BATCH);
                push_batch(&mut schedule, len, &mut rng);
                left -= len;
            }
        }
        let stored_s = sizes.stored as f64 * 1e-3;
        let mut queries: Vec<(u64, Query)> = Vec::new();
        for j in 0..(sizes.phase_a_s * sizes.location_at_per_s) as usize {
            queries.push((
                (j as f64 * 1e9 / sizes.location_at_per_s) as u64,
                Query::LocationAt {
                    object: rng.below(sizes.objects) as u32,
                    at_s: rng.unit() * stored_s,
                },
            ));
        }
        for j in 0..(sizes.phase_a_s * sizes.zone_history_per_s) as usize {
            queries.push((
                (j as f64 * 1e9 / sizes.zone_history_per_s) as u64 + 1,
                Query::ZoneHistory {
                    object: rng.below(sizes.objects) as u32,
                },
            ));
        }
        queries.sort_by_key(|&(due_ns, _)| due_ns);
        schedule.queries = queries;
        schedule
    }

    fn digest(&self) -> (u64, u64) {
        let mut reads = Digest::default();
        for (lane, range) in &self.batches {
            reads.word(*lane as u64);
            for read in &self.reads[range.clone()] {
                reads.real(read.time_s);
                reads.word(u64::from(read.object) << 8 | u64::from(read.zone));
            }
        }
        let mut queries = Digest::default();
        for (due_ns, query) in &self.queries {
            queries.word(*due_ns);
            match *query {
                Query::LocationAt { object, at_s } => {
                    queries.word(u64::from(object));
                    queries.real(at_s);
                }
                Query::ZoneHistory { object } => queries.word(u64::from(object) | 1 << 63),
            }
        }
        (reads.value(), queries.value())
    }

    fn records(&self, world: &World, batch: usize) -> Vec<TagRecord> {
        self.reads[self.batches[batch].1.clone()]
            .iter()
            .map(|read| read.record(world, ANTENNAS))
            .collect()
    }
}

#[derive(Default)]
struct Phases {
    visible_ms: Samples,
    location_at_us: Samples,
    zone_history_ms: Samples,
    late_ms: Samples,
    /// `(reads, seconds)` of each phase-B backlog.
    backlogs: Vec<(f64, f64)>,
    rejected: u64,
    query_errors: u64,
    /// `(lane, records)` of every ingest call, kept for the traced split.
    drains: Vec<(usize, Vec<TagRecord>)>,
}

fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, parent, 0, f),
        None => f(),
    }
}

fn sleep_until(due: Instant, tracer: Option<&Tracer>, root: Option<SpanId>) {
    let now = Instant::now();
    if due > now {
        span(tracer, "idle", root, || thread::sleep(due - now));
    }
}

/// Phase A on two threads (ingest, queries), then phase B on one.
fn drive(
    plane: &SharedIngest<'_>,
    world: &World,
    schedule: &Schedule,
    tracer: Option<&Tracer>,
) -> Phases {
    let start = Instant::now() + Duration::from_millis(20);
    let batch_due =
        |batch: usize| start + Duration::from_nanos(batch as u64 * schedule.batch_every_ns);
    let keep = tracer.is_some();
    let (mut ingest_side, query_side) = thread::scope(|scope| {
        let queries = scope.spawn(|| {
            let root = tracer.map(|t| t.open("queries", None, 0));
            let mut out = Phases::default();
            for &(due_ns, query) in &schedule.queries {
                let due = start + Duration::from_nanos(due_ns);
                sleep_until(due, tracer, root);
                out.late_ms
                    .push(ms(Instant::now().saturating_duration_since(due)));
                let ok = match query {
                    Query::LocationAt { object, at_s } => {
                        let result = span(tracer, "site_server.location_at", root, || {
                            plane.location_at(&world.epc_text[object as usize], at_s)
                        });
                        out.location_at_us
                            .push(us(Instant::now().saturating_duration_since(due)));
                        result.is_ok()
                    }
                    Query::ZoneHistory { object } => {
                        let result = span(tracer, "site_server.zone_history", root, || {
                            plane.zone_history(&world.epc_text[object as usize])
                        });
                        out.zone_history_ms
                            .push(ms(Instant::now().saturating_duration_since(due)));
                        result.is_ok()
                    }
                };
                out.query_errors += u64::from(!ok);
            }
            if let (Some(tracer), Some(root)) = (tracer, root) {
                tracer.close(root);
            }
            out
        });
        let root = tracer.map(|t| t.open("ingest", None, 0));
        let mut out = Phases::default();
        let mut released_before = 0usize;
        for batch in 0..schedule.phase_a_batches {
            let due = batch_due(batch);
            sleep_until(due, tracer, root);
            out.late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            let lane = schedule.batches[batch].0;
            let records = schedule.records(world, batch);
            let outcome = span(tracer, "site_server.ingest_records", root, || {
                plane.ingest_records(lane, &records)
            });
            let done = Instant::now();
            out.rejected += outcome.rejected as u64;
            let released = plane.counters().events_released as usize;
            for read in released_before..released.min(schedule.reads.len()) {
                let due = batch_due(read / schedule.batch_len);
                out.visible_ms.push(ms(done.saturating_duration_since(due)));
            }
            released_before = released;
            if keep {
                out.drains.push((lane, records));
            }
        }
        if let (Some(tracer), Some(root)) = (tracer, root) {
            tracer.close(root);
        }
        let queries = queries.join().expect("the query thread does not panic");
        (out, queries)
    });
    let root = tracer.map(|t| t.open("backlog", None, 0));
    let mut next = schedule.phase_a_batches;
    while next < schedule.batches.len() {
        let end = (next + schedule.backlog_batches).min(schedule.batches.len());
        let prepared: Vec<(usize, Vec<TagRecord>)> = (next..end)
            .map(|batch| (schedule.batches[batch].0, schedule.records(world, batch)))
            .collect();
        let offered: usize = prepared.iter().map(|(_, r)| r.len()).sum();
        let began = Instant::now();
        for (lane, records) in &prepared {
            let outcome = span(tracer, "site_server.ingest_records", root, || {
                plane.ingest_records(*lane, records)
            });
            ingest_side.rejected += outcome.rejected as u64;
        }
        ingest_side
            .backlogs
            .push((offered as f64, began.elapsed().as_secs_f64()));
        if keep {
            ingest_side.drains.extend(prepared);
        }
        next = end;
    }
    if let (Some(tracer), Some(root)) = (tracer, root) {
        tracer.close(root);
    }
    ingest_side.late_ms.extend(&query_side.late_ms);
    ingest_side.location_at_us = query_side.location_at_us;
    ingest_side.zone_history_ms = query_side.zone_history_ms;
    ingest_side.query_errors = query_side.query_errors;
    ingest_side
}

struct Restart<'w> {
    plane: SharedIngest<'w>,
    setup_s: Vec<f64>,
}

/// Restarts the plane `restarts` times over the store in `dir`, keeping
/// the last one. Each restart must recover exactly `stored` records.
fn restart<'w>(
    world: &'w World,
    dir: &Path,
    restarts: usize,
    stored: u64,
    out: &mut Outcome,
    tracer: Option<&Tracer>,
) -> Result<Restart<'w>, String> {
    let server = ServerConfig::new("perfbench");
    let root = tracer.map(|t| t.open("restart", None, 0));
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..restarts {
        drop(last.take());
        let began = Instant::now();
        let plane = span(tracer, "site_server.restart", root, || {
            let store =
                ZoneHistoryStore::open(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
            SharedIngest::with_store(
                &world.site,
                &world.registry,
                &world.adapters,
                server.staleness_s,
                server.shards,
                store,
            )
            .map_err(|e| e.to_string())
        })?;
        setup_s.push(began.elapsed().as_secs_f64());
        let recovered = plane.counters().store_recovered;
        out.gate(
            "store_recovered_all",
            recovered == stored,
            format!("restart recovered {recovered} of {stored} pre-written observations"),
        );
        last = Some(plane);
    }
    if let (Some(tracer), Some(root)) = (tracer, root) {
        tracer.close(root);
    }
    let plane = last.ok_or("no restart was made")?;
    Ok(Restart { plane, setup_s })
}

/// The restart split: the recovery `with_store` performs, remade from
/// public parts with a span per stage.
struct RestartSplit {
    recovered: u64,
    evict_ns: u64,
    /// History the replayed trackers still hold after eviction.
    history_len: usize,
}

fn restart_split(dir: &Path, tracer: &Tracer, shards: usize) -> Result<RestartSplit, String> {
    let root = tracer.open("restart_split", None, 0);
    let store = tracer
        .span("track.store_open", Some(root), 0, || {
            ZoneHistoryStore::open(dir, StoreConfig::default())
        })
        .map_err(|e| e.to_string())?;
    let observations = tracer
        .span("track.store_decode", Some(root), 0, || store.observations())
        .map_err(|e| e.to_string())?;
    let server = ServerConfig::new("perfbench");
    let mut trackers: Vec<LocationTracker> = (0..shards)
        .map(|_| LocationTracker::new(server.staleness_s))
        .collect();
    tracer.span("track.tracker_replay", Some(root), 0, || {
        for observation in &observations {
            let lane = shard_of(observation.object.index() as u64, shards);
            let _ = trackers[lane].push(*observation);
        }
    });
    let high_s = store.high_s();
    let evict_start = tracer.now_ns();
    tracer.span("track.tracker_evict", Some(root), 0, || {
        if let Some(high) = high_s {
            for tracker in &mut trackers {
                tracker.evict_history_before(high);
            }
        }
    });
    let evict_ns = tracer.now_ns() - evict_start;
    tracer.close(root);
    Ok(RestartSplit {
        recovered: observations.len() as u64,
        evict_ns,
        history_len: trackers.iter().map(LocationTracker::history_len).sum(),
    })
}

pub fn run(config: &Config, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let sizes = sizes(config);
    let mut out = Outcome::default();
    let scratch = ScratchDir::new("durable_restart").map_err(|e| e.to_string())?;
    let dir = scratch.path().join("store");
    let world = world(config.seed, READERS, ANTENNAS, sizes.objects);
    let handles = handles(&world);
    let mut last_zone = vec![None; sizes.objects];
    let store_digest = prewrite(&dir, &handles, config.seed, &sizes, &mut last_zone)?;
    let schedule = Schedule::generate(config.seed, &sizes, last_zone);
    let (reads_digest, queries_digest) = schedule.digest();
    out.fact("inputs.store", format!("{store_digest:#018x}"));
    out.fact("inputs.read_schedule", format!("{reads_digest:#018x}"));
    out.fact("inputs.query_schedule", format!("{queries_digest:#018x}"));
    out.fact("inputs.objects", sizes.objects);
    out.fact("inputs.stored_observations", sizes.stored);
    out.fact("inputs.reads", schedule.reads.len());
    out.fact("inputs.queries", schedule.queries.len());
    out.gen_threads = 2;
    out.gen_connections = 0;
    let server = ServerConfig::new("perfbench");
    let shards = if server.shards == 0 {
        env::available_parallelism()
    } else {
        server.shards
    };
    let split = match tracer {
        Some(tracer) => Some(restart_split(&dir, tracer, shards)?),
        None => None,
    };

    let Restart { plane, setup_s } = restart(
        &world,
        &dir,
        sizes.restarts,
        sizes.stored as u64,
        &mut out,
        tracer,
    )?;
    for lane in 0..READERS {
        plane.attach(lane).map_err(|e| e.to_string())?;
    }
    let bytes_at_restart = dir_bytes(&dir);
    let cpu_before = env::cpu_seconds();
    let mut phases = drive(&plane, &world, &schedule, tracer);
    let cpu_s = env::cpu_seconds() - cpu_before;
    let peak_rss_mb = env::peak_rss_mb();
    // The traced split replays the recorded drains now, so they are
    // freed before the replay gates build their trackers.
    let held_max = match tracer {
        Some(tracer) => {
            let mut store =
                ZoneHistoryStore::open(scratch.path().join("split"), StoreConfig::default())
                    .map_err(|e| e.to_string())?;
            split_ingest(&world, &phases.drains, READERS, Some(&mut store), tracer)?.held_max
        }
        None => 0,
    };
    phases.drains = Vec::new();
    for lane in 0..READERS {
        plane.detach(lane);
    }
    plane.finish();
    let counters = plane.counters();
    let shard_counters = plane.shard_counters();
    let report = plane.into_report();
    let written = dir_bytes(&dir).saturating_sub(bytes_at_restart);

    out.fact("restart_s", format!("{setup_s:.3?}"));
    out.fact(
        "phase_b.events_per_s",
        format!("{:.0?}", unit_rates(&phases.backlogs)),
    );
    out.e2e.push(Metric::new(
        "setup_s",
        "s",
        median(&setup_s).unwrap_or(0.0),
        setup_s.len(),
    ));
    out.e2e.push(Metric::new(
        "ingest_events_per_s",
        "1/s",
        aggregate_rate(&phases.backlogs),
        phases.backlogs.len(),
    ));
    out.e2e.push(Metric::percentile(
        "visible_p50_ms",
        "ms",
        &phases.visible_ms,
        5000,
    ));
    out.e2e.push(Metric::percentile(
        "visible_p99_ms",
        "ms",
        &phases.visible_ms,
        9900,
    ));
    out.e2e.push(Metric::percentile(
        "location_at_p50_us",
        "us",
        &phases.location_at_us,
        5000,
    ));
    out.e2e.push(Metric::percentile(
        "location_at_p99_us",
        "us",
        &phases.location_at_us,
        9900,
    ));
    out.e2e.push(Metric::percentile(
        "zone_history_p50_ms",
        "ms",
        &phases.zone_history_ms,
        5000,
    ));
    out.e2e.push(Metric::percentile(
        "zone_history_p90_ms",
        "ms",
        &phases.zone_history_ms,
        9000,
    ));
    out.e2e.push(Metric::new(
        "store_bytes_per_event",
        "B",
        written as f64 / counters.store_appends.max(1) as f64,
        counters.store_appends as usize,
    ));
    out.e2e
        .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb, 1));
    out.late_ms = phases.late_ms.clone();
    out.attempted = (schedule.reads.len() + schedule.queries.len() + setup_s.len()) as u64;
    out.failed += phases.rejected + phases.query_errors + counters.store_errors;

    out.gate(
        "all_reads_ingested",
        counters.events_ingested == schedule.reads.len() as u64
            && counters.store_appends == schedule.reads.len() as u64
            && counters.store_errors == 0,
        format!(
            "ingested={} appended={} store_errors={} of {} reads",
            counters.events_ingested,
            counters.store_appends,
            counters.store_errors,
            schedule.reads.len()
        ),
    );
    let reopened =
        ZoneHistoryStore::open(&dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    let mut replayed = LocationTracker::new(server.staleness_s);
    for observation in reopened.observations().map_err(|e| e.to_string())? {
        let _ = replayed.push(observation);
    }
    out.gate(
        "reopen_replay_equals_report",
        replayed == report.tracker,
        format!(
            "{} observations replayed from a fresh open of the store",
            reopened.len()
        ),
    );
    drop(replayed);
    let high_s = reopened.high_s().unwrap_or(0.0);
    let wrong: usize = handles
        .iter()
        .zip(&schedule.last_zone)
        .filter(|(handle, zone)| {
            report.tracker.location_of(**handle, high_s) != zone.map(usize::from)
        })
        .count();
    out.gate(
        "final_locations_match_inputs",
        wrong == 0,
        format!(
            "{wrong} of {} objects not in the zone of their newest input",
            handles.len()
        ),
    );

    if let Some(tracer) = tracer {
        let store_root = tracer.open("store_queries", None, 0);
        for (_, query) in &schedule.queries {
            match *query {
                Query::LocationAt { object, at_s } => {
                    tracer.span("track.store_location_at", Some(store_root), 0, || {
                        let _ = reopened.location_at(handles[object as usize], at_s);
                    });
                }
                Query::ZoneHistory { object } => {
                    tracer.span("track.store_history_of", Some(store_root), 0, || {
                        let _ = reopened.history_of(handles[object as usize]);
                    });
                }
            }
        }
        let now_s = high_s;
        tracer.span("track.tracker_location_of", Some(store_root), 0, || {
            for handle in &handles {
                std::hint::black_box(report.tracker.location_of(*handle, now_s));
            }
        });
        tracer.close(store_root);
        let split = split.ok_or("the traced run made the restart split")?;
        layers(
            &mut out,
            tracer,
            &counters,
            &shard_counters,
            held_max,
            &split,
            handles.len(),
            reopened.segment_count(),
        );
    }
    out.layers.push(Metric::new(
        "process.cpu_us_per_event",
        "us",
        cpu_s * 1e6 / schedule.reads.len().max(1) as f64,
        schedule.reads.len(),
    ));
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn layers(
    out: &mut Outcome,
    tracer: &Tracer,
    counters: &rfid_site_server::IngestCounters,
    shard_counters: &[rfid_track::stream::ShardCounters],
    held_max: u64,
    split: &RestartSplit,
    objects: usize,
    segments: usize,
) {
    let spans = tracer.snapshot();
    ingest_metrics(&mut out.layers, &spans, counters, shard_counters, held_max);
    let per = |total: f64, count: u64| total / count.max(1) as f64;
    let total_ns = |name: &str| durations(&spans, name).sum();
    let flush = durations(&spans, "track.store_flush").scaled(1e-3);
    let location_at = durations(&spans, "track.store_location_at").scaled(1e-3);
    let history = durations(&spans, "track.store_history_of").scaled(1e-6);
    let events = counters.events_released;
    out.layers.extend([
        Metric::new(
            "track.tracker_observe_ns_per_event",
            "ns",
            per(total_ns("track.tracker_replay"), split.recovered),
            split.recovered as usize,
        ),
        Metric::new(
            "track.tracker_evict_ms",
            "ms",
            split.evict_ns as f64 / 1e6,
            1,
        ),
        Metric::new(
            "track.tracker_location_of_ns",
            "ns",
            per(total_ns("track.tracker_location_of"), objects as u64),
            objects,
        ),
        Metric::count("track.tracker_history_len", split.history_len as u64),
        Metric::new(
            "track.store_open_ms",
            "ms",
            total_ns("track.store_open") / 1e6,
            1,
        ),
        Metric::new(
            "track.store_decode_ms",
            "ms",
            total_ns("track.store_decode") / 1e6,
            1,
        ),
        Metric::new(
            "track.store_append_ns_per_record",
            "ns",
            per(total_ns("track.store_append"), events),
            events as usize,
        ),
        Metric::percentile("track.store_flush_us_p50", "us", &flush, 5000),
        Metric::percentile("track.store_location_at_us_p50", "us", &location_at, 5000),
        Metric::percentile("track.store_location_at_us_p99", "us", &location_at, 9900),
        Metric::percentile("track.store_history_of_ms_p50", "ms", &history, 5000),
        Metric::count("track.store_segments", segments as u64),
    ]);
}
