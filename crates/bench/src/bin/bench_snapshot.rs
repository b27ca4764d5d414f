//! Snapshot benchmark: times the memoized hot path against the
//! unmemoized reference and writes the result as JSON.
//!
//! ```text
//! bench_snapshot <out.json> [--smoke] [--fleet]
//! ```
//!
//! Two cases, chosen to bracket the caching design:
//!
//! * `moving` — the 12-box cart pass (every tag moves, geometry cannot
//!   be hoisted into the `ScenarioCache`); the speedup here is pure
//!   round-scoped `(tag, t)` memo + fading cache + allocation reuse.
//! * `static` — the parked read-range scenario, where the batch-level
//!   `ScenarioCache` already did the heavy lifting; this case guards
//!   against the memo layers *regressing* the static path.
//!
//! Both paths produce bit-identical `SimOutput`s (asserted here), so the
//! ratio is pure engine overhead or win. `--smoke` shrinks trial counts
//! so CI can exercise the binary in seconds.
//!
//! A third section measures the streaming data plane: events/second
//! through the full online operator chains (reorder buffer into the
//! sighting operator, and reorder into zone observation into the
//! location tracker) over a synthetic two-portal read stream.
//!
//! A fourth section loads the live site server: N portals dial in over
//! real TCP and drain M tags' recorded sessions while a query client
//! measures sustained ingest (events/second to full ingestion) and
//! query latency (p50/p99 over sequential `location_of` round-trips).
//! The drained tracker is asserted bit-identical to a batch replay, so
//! the numbers are only reported for a *correct* run. Two companion
//! numbers compare whole-drain batched ingest against per-record
//! ingest over the same shared plane (no TCP), isolating the win from
//! converting wire records outside the merge lock.
//!
//! A fifth section, `store`, measures the durable zone-history store:
//! append throughput into the segmented CRC-framed log, `location_at`
//! point-query latency (p50/p99) against the span index, and cold
//! recovery time (reopen + replay into a fresh tracker), gated on the
//! replay being bit-identical to the tracker fed live.
//!
//! A sixth section, `fleet_campaign`, drives the campaign engine over
//! a full procedural [`CampaignSpec`] — the `fleet` preset (≥100k
//! simulated objects) under `--fleet`, `smoke`/`standard` otherwise —
//! and reports objects/second plus the peak live accumulator bytes (the
//! bounded-memory proxy: campaign state is O(deployments), never
//! per-trial). Two correctness gates run before any number is recorded:
//! the streaming fold must equal a materialized batch fold bit for bit,
//! and a halted-then-resumed checkpointed run must reach the exact
//! digest of the uninterrupted run.
//!
//! All floats in the JSON go through [`rfid_bench::json_f64`], the
//! shortest-round-trip formatter, so the document parses back to the
//! exact measured bits.

use rfid_bench::json_f64;
use rfid_experiments::campaign::{
    run_campaign_checkpointed, run_instance, CampaignAccumulator, CampaignRunConfig, CampaignState,
};
use rfid_experiments::scenarios::{
    object_pass_scenario, read_range_scenario, BoxFace, ObjectPassConfig,
};
use rfid_experiments::Calibration;
use rfid_gen2::Epc96;
use rfid_readerapi::TagRecord;
use rfid_sim::{
    run_scenario_reference, CampaignSpec, ReadEvent, Scenario, ScenarioCompiler, TrialExecutor,
};
use rfid_site_server::{
    recorded_reads, run_portal, synthetic_world, QueryClient, ServerConfig, SharedIngest,
    SiteServer,
};
use rfid_track::stream::{ObservationStream, Operator, ReorderBuffer, SightingStream};
use rfid_track::{LocationTracker, ObjectRegistry, Site};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

struct Case {
    name: &'static str,
    scenario: Scenario,
    trials: u64,
    /// Timing repetitions per side; the minimum is reported, which
    /// filters out scheduler noise on these tens-of-milliseconds runs.
    repeats: u32,
}

struct Measurement {
    name: &'static str,
    trials: u64,
    memoized_s: f64,
    unmemoized_s: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.unmemoized_s / self.memoized_s
    }
}

/// Times `trials` serial runs of the memoized path (as `run_scenario` /
/// the executor use it) and the unmemoized reference, checking that both
/// produce identical outputs.
fn measure(case: &Case) -> Measurement {
    let executor = TrialExecutor::serial();
    // Warm-up: fault in code paths and the scenario cache once.
    let warm = executor.run_scenario_trials(&case.scenario, 1, 0);
    assert_eq!(warm[0], run_scenario_reference(&case.scenario, 0));

    // Interleave the two sides and keep the fastest repetition of each:
    // both runs fit in tens of milliseconds, where a single scheduler
    // hiccup would otherwise dominate the ratio.
    let mut memoized_s = f64::INFINITY;
    let mut unmemoized_s = f64::INFINITY;
    let mut memoized = Vec::new();
    let mut reference = Vec::new();
    for rep in 0..case.repeats {
        rfid_sim::counters::reset();
        let start = Instant::now();
        memoized = executor.run_scenario_trials(&case.scenario, case.trials, 1);
        memoized_s = memoized_s.min(start.elapsed().as_secs_f64());
        if rep == 0 {
            eprintln!(
                "  {} memoized:   {}",
                case.name,
                rfid_sim::counters::snapshot()
            );
        }

        rfid_sim::counters::reset();
        let start = Instant::now();
        reference = (0..case.trials)
            .map(|i| run_scenario_reference(&case.scenario, 1u64.wrapping_add(i)))
            .collect();
        unmemoized_s = unmemoized_s.min(start.elapsed().as_secs_f64());
        if rep == 0 {
            eprintln!(
                "  {} unmemoized: {}",
                case.name,
                rfid_sim::counters::snapshot()
            );
        }
    }

    assert_eq!(
        memoized, reference,
        "{}: paths must be bit-identical",
        case.name
    );
    Measurement {
        name: case.name,
        trials: case.trials,
        memoized_s,
        unmemoized_s,
    }
}

struct StreamingMeasurement {
    name: &'static str,
    events: usize,
    outputs: usize,
    elapsed_s: f64,
}

impl StreamingMeasurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_s
    }
}

/// A synthetic read stream shaped like a busy two-portal corridor:
/// eight tags on four objects, reads every millisecond alternating
/// readers and antennas, with a watermark every 1000 events (one
/// polling window per second of stream time).
fn synthetic_reads(events: usize) -> Vec<ReadEvent> {
    (0..events)
        .map(|i| ReadEvent {
            time_s: i as f64 * 1e-3,
            reader: i % 2,
            antenna: (i / 2) % 2,
            tag: i % 8,
            epc: Epc96::from_u128(i as u128 % 8 + 1),
        })
        .collect()
}

fn streaming_world() -> (ObjectRegistry, Site) {
    let mut registry = ObjectRegistry::new();
    for object in 0..4u128 {
        let handle = registry.register(format!("case-{object}"));
        registry.attach_tag(handle, Epc96::from_u128(object * 2 + 1));
        registry.attach_tag(handle, Epc96::from_u128(object * 2 + 2));
    }
    let mut site = Site::new();
    let dock = site.add_zone("dock");
    let aisle = site.add_zone("aisle");
    site.assign_portal(0, 0, dock);
    site.assign_portal(0, 1, dock);
    site.assign_portal(1, 0, aisle);
    site.assign_portal(1, 1, aisle);
    (registry, site)
}

/// Times `repeats` runs of a full operator chain over the synthetic
/// stream (fastest repetition wins) and reports events/second. The
/// chain is rebuilt inside `make` each repetition so state never leaks
/// between runs.
fn measure_streaming<Op, F>(
    name: &'static str,
    reads: &[ReadEvent],
    repeats: u32,
    make: F,
) -> StreamingMeasurement
where
    Op: Operator<In = ReadEvent>,
    F: Fn() -> Op,
{
    let mut elapsed_s = f64::INFINITY;
    let mut outputs = 0;
    for _ in 0..repeats {
        let mut chain = make();
        let mut produced = 0;
        let start = Instant::now();
        for (i, read) in reads.iter().enumerate() {
            produced += chain.push(*read).len();
            if i % 1000 == 999 {
                produced += chain.advance_watermark(read.time_s).len();
            }
        }
        produced += chain.finish().len();
        elapsed_s = elapsed_s.min(start.elapsed().as_secs_f64());
        outputs = produced;
    }
    assert!(outputs > 0, "{name}: the chain must emit something");
    StreamingMeasurement {
        name,
        events: reads.len(),
        outputs,
        elapsed_s,
    }
}

/// Streaming throughput of the two operator chains an application runs
/// online: raw reads to object sightings, and raw reads through zone
/// observation into the location tracker.
fn measure_streaming_cases(smoke: bool) -> Vec<StreamingMeasurement> {
    let events = if smoke { 20_000 } else { 400_000 };
    let repeats = if smoke { 1 } else { 5 };
    let reads = synthetic_reads(events);
    let (registry, site) = streaming_world();
    vec![
        measure_streaming("reads_to_sightings", &reads, repeats, || {
            ReorderBuffer::new().then(SightingStream::new(&registry, 0.5))
        }),
        measure_streaming("reads_to_zone_history", &reads, repeats, || {
            ReorderBuffer::new()
                .then(ObservationStream::new(&site, &registry))
                .then(LocationTracker::new(5.0))
        }),
    ]
}

struct IngestBatchMeasurement {
    events: usize,
    batched_s: f64,
    per_record_s: f64,
}

impl IngestBatchMeasurement {
    fn batched_events_per_sec(&self) -> f64 {
        self.events as f64 / self.batched_s
    }
    fn per_record_events_per_sec(&self) -> f64 {
        self.events as f64 / self.per_record_s
    }
}

/// Isolates the ingest-plane batching win, no TCP: the same recorded
/// wire records flow through `SharedIngest` either one whole drain per
/// call (conversion outside the lock, one admission section per drain)
/// or one record per call (the old per-record cadence).
fn measure_ingest_batching(smoke: bool) -> IngestBatchMeasurement {
    let portals = 4;
    let tags = 8;
    let steps = if smoke { 100 } else { 1000 };
    let repeats = if smoke { 1 } else { 5 };
    let world = synthetic_world(portals, tags);
    let reads = recorded_reads(portals, tags, steps);
    // Per-portal drains of up to 64 records, interleaved round-robin
    // across portals like live sessions polling in turn.
    let per_portal: Vec<Vec<TagRecord>> = (0..portals)
        .map(|p| {
            reads
                .iter()
                .filter(|r| r.reader == p)
                .map(|r| TagRecord {
                    epc: r.epc.to_string(),
                    antenna: (r.antenna + 1) as u8,
                    time_s: r.time_s,
                })
                .collect()
        })
        .collect();
    let drains: Vec<(usize, &[TagRecord])> = {
        let mut drains = Vec::new();
        let mut offsets = vec![0usize; portals];
        loop {
            let mut progressed = false;
            for (portal, records) in per_portal.iter().enumerate() {
                let at = offsets[portal];
                if at < records.len() {
                    let end = (at + 64).min(records.len());
                    drains.push((portal, &records[at..end]));
                    offsets[portal] = end;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        drains
    };
    let run = |per_record: bool| {
        let ingest = SharedIngest::new(&world.site, &world.registry, &world.adapters, 3600.0, 4);
        for portal in 0..portals {
            assert!(ingest.attach(portal).is_ok(), "fresh lane attaches");
        }
        let mut accepted = 0;
        for &(portal, records) in &drains {
            if per_record {
                for record in records {
                    accepted += ingest
                        .ingest_records(portal, std::slice::from_ref(record))
                        .accepted;
                }
            } else {
                accepted += ingest.ingest_records(portal, records).accepted;
            }
        }
        assert_eq!(accepted, reads.len(), "every recorded read is admitted");
    };
    let mut batched_s = f64::INFINITY;
    let mut per_record_s = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        run(false);
        batched_s = batched_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        run(true);
        per_record_s = per_record_s.min(start.elapsed().as_secs_f64());
    }
    IngestBatchMeasurement {
        events: reads.len(),
        batched_s,
        per_record_s,
    }
}

struct StoreMeasurement {
    records: usize,
    append_s: f64,
    queries: usize,
    location_at_p50_ms: f64,
    location_at_p99_ms: f64,
    recovery_s: f64,
}

impl StoreMeasurement {
    fn append_events_per_sec(&self) -> f64 {
        self.records as f64 / self.append_s
    }
}

/// Measures the durable zone-history store: append throughput over a
/// multi-segment log, `location_at` point-query latency against the
/// span index, and cold recovery (reopen + full replay). Correctness
/// gate: the replayed tracker must equal the tracker fed live during
/// the appends, bit for bit — the numbers only count for a run whose
/// recovery is exact.
fn measure_store(smoke: bool) -> Result<StoreMeasurement, String> {
    use rfid_sim::mix64;
    use rfid_track::store::Record;
    use rfid_track::{StoreConfig, ZoneHistoryStore, ZoneObservation};

    let records = if smoke { 20_000 } else { 200_000 };
    let queries = if smoke { 2_000 } else { 20_000 };
    let objects = 64usize;
    let zones = 8usize;
    let dir = std::env::temp_dir().join(format!("bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || -> Result<StoreMeasurement, String> {
        // Mint handles the supported way: a registry of `objects` cases.
        let mut registry = ObjectRegistry::new();
        let handles: Vec<_> = (0..objects)
            .map(|i| registry.register(format!("case-{i}")))
            .collect();
        let observation = |i: usize| ZoneObservation {
            object: handles[mix64(i as u64) as usize % objects],
            zone: mix64(i as u64 ^ 0xA5A5) as usize % zones,
            time_s: i as f64 * 1e-3,
            inferred: false,
        };

        let mut store = ZoneHistoryStore::open(&dir, StoreConfig::default())
            .map_err(|e| format!("store open: {e}"))?;
        let mut live = LocationTracker::new(1e9);
        let start = Instant::now();
        for i in 0..records {
            store
                .append(&Record::Observation(observation(i)))
                .map_err(|e| format!("append {i}: {e}"))?;
        }
        store.flush().map_err(|e| format!("flush: {e}"))?;
        let append_s = start.elapsed().as_secs_f64();
        for i in 0..records {
            live.observe(observation(i))
                .map_err(|e| format!("live observe {i}: {e}"))?;
        }

        // Point queries at pseudo-random times across the whole span.
        let horizon = records as f64 * 1e-3;
        let mut latencies_s = Vec::with_capacity(queries);
        for q in 0..queries {
            let at_s = (mix64(q as u64 ^ 0x5EED) % 1_000_000) as f64 / 1e6 * horizon;
            let object = handles[mix64(q as u64 ^ 0xF00D) as usize % objects];
            let begin = Instant::now();
            store
                .location_at(object, at_s)
                .map_err(|e| format!("location_at: {e}"))?;
            latencies_s.push(begin.elapsed().as_secs_f64());
        }
        latencies_s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        // Cold recovery: reopen the directory and replay into a fresh
        // tracker; gate on bit-exact equality with the live tracker.
        drop(store);
        let start = Instant::now();
        let reopened = ZoneHistoryStore::open(&dir, StoreConfig::default())
            .map_err(|e| format!("store reopen: {e}"))?;
        let stream = reopened
            .observations()
            .map_err(|e| format!("replay stream: {e}"))?;
        let mut replayed = LocationTracker::new(1e9);
        replayed
            .observe_all(stream)
            .map_err(|e| format!("replay observe: {e}"))?;
        let recovery_s = start.elapsed().as_secs_f64();
        if reopened.len() != records as u64 {
            return Err(format!(
                "recovery lost records: {} of {records}",
                reopened.len()
            ));
        }
        if replayed != live {
            return Err("store replay diverged from the live tracker".to_owned());
        }

        Ok(StoreMeasurement {
            records,
            append_s,
            queries,
            location_at_p50_ms: percentile_ms(&latencies_s, 0.50),
            location_at_p99_ms: percentile_ms(&latencies_s, 0.99),
            recovery_s,
        })
    };
    let result = run();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

struct FleetMeasurement {
    spec_name: &'static str,
    seed: u64,
    instances: u64,
    trials: u64,
    objects: u64,
    elapsed_s: f64,
    peak_accumulator_bytes: usize,
    digest: u64,
}

impl FleetMeasurement {
    fn objects_per_sec(&self) -> f64 {
        self.objects as f64 / self.elapsed_s
    }
}

/// Drives the campaign engine over a full procedural spec and reports
/// objects/second plus the peak live accumulator bytes. Two gates run
/// before the numbers count:
///
/// * **streaming ≡ batch** — the first compiled instance is folded
///   through the streaming plane and again from materialized outputs;
///   the accumulators must be bit-identical.
/// * **kill + resume** — a checkpointed run halted halfway, then
///   resumed, must reach the exact state digest of the uninterrupted
///   timed run.
fn measure_fleet_campaign(smoke: bool, fleet: bool) -> Result<FleetMeasurement, String> {
    let seed = 0xF1EE7;
    let (spec_name, spec) = if fleet {
        ("fleet", CampaignSpec::fleet(seed))
    } else if smoke {
        ("smoke", CampaignSpec::smoke(seed))
    } else {
        ("standard", CampaignSpec::standard(seed))
    };
    let executor = TrialExecutor::new();

    // Gate: the streaming fold equals a materialized batch fold.
    let first = ScenarioCompiler::new(&spec)
        .next()
        .ok_or("the campaign spec compiled no instances")?;
    let streamed = run_instance(&executor, &first);
    let outputs = executor.run_scenario_trials(&first.scenario, first.trials, first.base_seed);
    let mut batch = CampaignAccumulator::new();
    for output in &outputs {
        batch.fold_trial(output, first.tags);
    }
    if streamed != batch {
        return Err(format!(
            "streaming fold diverged from the batch fold on {}",
            first.label
        ));
    }
    drop(outputs);

    // The timed run: stream every instance into O(deployments) state,
    // tracking the peak live accumulator footprint as we go.
    let mut state = CampaignState::new(&spec);
    let mut peak_accumulator_bytes = state.state_bytes();
    let start = Instant::now();
    for instance in ScenarioCompiler::new(&spec) {
        let acc = run_instance(&executor, &instance);
        peak_accumulator_bytes =
            peak_accumulator_bytes.max(state.state_bytes() + acc.state_bytes());
        state.apply_instance(instance.deployment, &acc);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    peak_accumulator_bytes = peak_accumulator_bytes.max(state.state_bytes());

    // Gate: a run killed at the halfway checkpoint and resumed reaches
    // the exact digest of the uninterrupted run above.
    let path = std::env::temp_dir().join(format!("bench-campaign-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let halt = CampaignRunConfig {
        halt_after: Some(spec.total_instances() / 2),
    };
    let resume = (|| -> Result<_, String> {
        let halted = run_campaign_checkpointed(&executor, &spec, &path, halt)
            .map_err(|e| format!("halted run: {e}"))?;
        if halted.completed {
            return Err("the halt hook did not interrupt the run".to_owned());
        }
        run_campaign_checkpointed(&executor, &spec, &path, CampaignRunConfig::default())
            .map_err(|e| format!("resumed run: {e}"))
    })();
    let _ = std::fs::remove_file(&path);
    let resumed = resume?;
    if !resumed.completed || resumed.resumed_from != spec.total_instances() / 2 {
        return Err(format!(
            "resume picked up at instance {} of {} and completed={}",
            resumed.resumed_from,
            spec.total_instances(),
            resumed.completed
        ));
    }
    if resumed.state.digest() != state.digest() {
        return Err("kill+resume digest diverged from the uninterrupted run".to_owned());
    }

    if fleet && state.total.objects < 100_000 {
        return Err(format!(
            "fleet campaign simulated only {} objects (< 100k)",
            state.total.objects
        ));
    }
    Ok(FleetMeasurement {
        spec_name,
        seed,
        instances: state.instances_done,
        trials: state.total.trials,
        objects: state.total.objects,
        elapsed_s,
        peak_accumulator_bytes,
        digest: state.digest(),
    })
}

/// Raises the server shutdown flag when dropped, so an error return
/// from the load scope unwinds the daemon instead of deadlocking.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

struct SiteServerMeasurement {
    portals: usize,
    tags: usize,
    events: usize,
    ingest_s: f64,
    queries: usize,
    query_p50_ms: f64,
    query_p99_ms: f64,
}

impl SiteServerMeasurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.ingest_s
    }
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() as f64 * p).ceil() as usize).saturating_sub(1);
    sorted[index.min(sorted.len() - 1)] * 1e3
}

/// Boots a live site server on ephemeral ports, dials in `portals`
/// concurrent reader sessions replaying a recorded set of `tags`
/// crossing every zone, and measures sustained ingest plus query
/// latency from a real TCP query client. Correctness gate: the drained
/// tracker must equal the batch replay bit for bit.
fn measure_site_server(smoke: bool) -> Result<SiteServerMeasurement, String> {
    let portals = 4;
    let tags = 8;
    let steps = if smoke { 40 } else { 400 };
    let query_count = if smoke { 50 } else { 500 };
    let world = synthetic_world(portals, tags);
    let reads = recorded_reads(portals, tags, steps);
    let per_portal: Vec<Vec<ReadEvent>> = (0..portals)
        .map(|p| reads.iter().copied().filter(|r| r.reader == p).collect())
        .collect();
    let token = "bench-token";
    let config = ServerConfig::new(token);
    let staleness_s = config.staleness_s;
    let server = SiteServer::new(&world.site, &world.registry, &world.adapters, config);
    let reader_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind reader port: {e}"))?;
    let query_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind query port: {e}"))?;
    let reader_addr = reader_listener
        .local_addr()
        .map_err(|e| format!("reader addr: {e}"))?;
    let query_addr = query_listener
        .local_addr()
        .map_err(|e| format!("query addr: {e}"))?;
    let shutdown = AtomicBool::new(false);

    let (report, ingest_s, mut latencies_s) = std::thread::scope(|scope| -> Result<_, String> {
        let _guard = RaiseOnDrop(&shutdown);
        let daemon = scope.spawn(|| server.run(&reader_listener, &query_listener, &shutdown));
        let start = Instant::now();
        let portal_threads: Vec<_> = (0..portals)
            .map(|p| {
                let chunk = &per_portal[p];
                scope.spawn(move || run_portal(reader_addr, p, chunk, Duration::ZERO))
            })
            .collect();
        let mut client =
            QueryClient::connect(query_addr, token).map_err(|e| format!("query connect: {e}"))?;
        let total = reads.len() as u64;
        let mut ingested = 0;
        let mut ingest_s = 0.0;
        for _ in 0..20_000 {
            ingested = client
                .counter("events_ingested")
                .map_err(|e| format!("counters query: {e}"))?;
            ingest_s = start.elapsed().as_secs_f64();
            if ingested == total {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if ingested != total {
            return Err(format!("ingest stalled at {ingested}/{total}"));
        }
        // Query latency under a drained-but-live server: sequential
        // location_of round-trips spread across the tag population.
        let mut latencies_s = Vec::with_capacity(query_count);
        for q in 0..query_count {
            let epc = world.epcs[q % tags].to_string();
            let begin = Instant::now();
            client
                .location_of(&epc)
                .map_err(|e| format!("location_of: {e}"))?;
            latencies_s.push(begin.elapsed().as_secs_f64());
        }
        client
            .shutdown()
            .map_err(|e| format!("shutdown rpc: {e}"))?;
        for (p, handle) in portal_threads.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(format!("portal {p}: {e}")),
                Err(_) => return Err(format!("portal {p} thread panicked")),
            }
        }
        match daemon.join() {
            Ok(Ok(report)) => Ok((report, ingest_s, latencies_s)),
            Ok(Err(e)) => Err(format!("server run: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    })?;

    // Correctness gate: load numbers only count for a bit-exact run.
    let mut batch = LocationTracker::new(staleness_s);
    batch
        .observe_all(world.site.observations(&world.registry, &reads))
        .map_err(|e| format!("batch replay: {e}"))?;
    if report.tracker != batch {
        return Err("site server diverged from the batch replay under load".to_owned());
    }
    if report.counters.session_errors != 0 {
        return Err(format!(
            "{} session errors under load",
            report.counters.session_errors
        ));
    }
    latencies_s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(SiteServerMeasurement {
        portals,
        tags,
        events: reads.len(),
        ingest_s,
        queries: query_count,
        query_p50_ms: percentile_ms(&latencies_s, 0.50),
        query_p99_ms: percentile_ms(&latencies_s, 0.99),
    })
}

fn main() -> std::process::ExitCode {
    let mut out_path = None;
    let mut smoke = false;
    let mut fleet = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--fleet" => fleet = true,
            other if out_path.is_none() => out_path = Some(other.to_string()),
            other => {
                eprintln!("bench_snapshot: unexpected argument: {other}");
                eprintln!("usage: bench_snapshot [OUT_PATH] [--smoke] [--fleet]");
                return std::process::ExitCode::FAILURE;
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_snapshot.json".to_string());
    let (moving_trials, static_trials) = if smoke { (1, 2) } else { (16, 48) };
    let repeats = if smoke { 1 } else { 5 };

    let cal = Calibration::default();
    let cases = [
        Case {
            name: "moving_cart_pass",
            scenario: object_pass_scenario(&cal, &ObjectPassConfig::single(BoxFace::Front)).0,
            trials: moving_trials,
            repeats,
        },
        Case {
            name: "static_read_range",
            scenario: read_range_scenario(&cal, 3.0),
            trials: static_trials,
            repeats,
        },
    ];

    let measurements: Vec<Measurement> = cases.iter().map(measure).collect();
    let streaming = measure_streaming_cases(smoke);
    let ingest_batching = measure_ingest_batching(smoke);
    let site_server = match measure_site_server(smoke) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_snapshot: site_server load section failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let store = match measure_store(smoke) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_snapshot: store section failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let fleet_campaign = match measure_fleet_campaign(smoke, fleet) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_snapshot: fleet_campaign section failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };

    let mut json =
        String::from("{\n  \"benchmark\": \"memoized hot path vs unmemoized reference\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n  \"cases\": [\n"));
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"trials\": {}, \"memoized_s\": {}, \
             \"unmemoized_s\": {}, \"speedup\": {}}}{}\n",
            m.name,
            m.trials,
            json_f64(m.memoized_s),
            json_f64(m.unmemoized_s),
            json_f64(m.speedup()),
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"streaming\": [\n");
    for (i, m) in streaming.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"outputs\": {}, \
             \"elapsed_s\": {}, \"events_per_sec\": {}}}{}\n",
            m.name,
            m.events,
            m.outputs,
            json_f64(m.elapsed_s),
            json_f64(m.events_per_sec()),
            if i + 1 < streaming.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"site_server\": {{\"portals\": {}, \"tags\": {}, \"events\": {}, \
         \"ingest_s\": {}, \"events_per_sec\": {}, \"queries\": {}, \
         \"query_p50_ms\": {}, \"query_p99_ms\": {}, \
         \"ingest_batched_events_per_sec\": {}, \
         \"ingest_per_record_events_per_sec\": {}, \
         \"ingest_batch_speedup\": {}}},\n",
        site_server.portals,
        site_server.tags,
        site_server.events,
        json_f64(site_server.ingest_s),
        json_f64(site_server.events_per_sec()),
        site_server.queries,
        json_f64(site_server.query_p50_ms),
        json_f64(site_server.query_p99_ms),
        json_f64(ingest_batching.batched_events_per_sec()),
        json_f64(ingest_batching.per_record_events_per_sec()),
        json_f64(ingest_batching.per_record_s / ingest_batching.batched_s),
    ));
    json.push_str(&format!(
        "  \"store\": {{\"records\": {}, \"append_s\": {}, \
         \"append_events_per_sec\": {}, \"queries\": {}, \
         \"location_at_p50_ms\": {}, \"location_at_p99_ms\": {}, \
         \"recovery_s\": {}}},\n",
        store.records,
        json_f64(store.append_s),
        json_f64(store.append_events_per_sec()),
        store.queries,
        json_f64(store.location_at_p50_ms),
        json_f64(store.location_at_p99_ms),
        json_f64(store.recovery_s),
    ));
    json.push_str(&format!(
        "  \"fleet_campaign\": {{\"spec\": \"{}\", \"seed\": {}, \"instances\": {}, \
         \"trials\": {}, \"objects\": {}, \"elapsed_s\": {}, \"objects_per_sec\": {}, \
         \"peak_accumulator_bytes\": {}, \"streaming_matches_batch\": true, \
         \"resume_digest_matches\": true, \"state_digest\": \"{:#018x}\"}}\n",
        fleet_campaign.spec_name,
        fleet_campaign.seed,
        fleet_campaign.instances,
        fleet_campaign.trials,
        fleet_campaign.objects,
        json_f64(fleet_campaign.elapsed_s),
        json_f64(fleet_campaign.objects_per_sec()),
        fleet_campaign.peak_accumulator_bytes,
        fleet_campaign.digest,
    ));
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_snapshot: cannot write {out_path}: {e}");
        return std::process::ExitCode::FAILURE;
    }

    for m in &measurements {
        println!(
            "{}: {} trials, memoized {:.3} s, unmemoized {:.3} s, speedup {:.2}x",
            m.name,
            m.trials,
            m.memoized_s,
            m.unmemoized_s,
            m.speedup(),
        );
    }
    for m in &streaming {
        println!(
            "{}: {} events -> {} outputs in {:.3} s ({:.0} events/s)",
            m.name,
            m.events,
            m.outputs,
            m.elapsed_s,
            m.events_per_sec(),
        );
    }
    println!(
        "ingest batching: {} events, batched {:.0} events/s vs per-record {:.0} events/s \
         ({:.2}x)",
        ingest_batching.events,
        ingest_batching.batched_events_per_sec(),
        ingest_batching.per_record_events_per_sec(),
        ingest_batching.per_record_s / ingest_batching.batched_s,
    );
    println!(
        "site_server: {} portals x {} tags, {} events ingested in {:.3} s \
         ({:.0} events/s), {} queries p50 {:.3} ms p99 {:.3} ms",
        site_server.portals,
        site_server.tags,
        site_server.events,
        site_server.ingest_s,
        site_server.events_per_sec(),
        site_server.queries,
        site_server.query_p50_ms,
        site_server.query_p99_ms,
    );
    println!(
        "store: {} records appended in {:.3} s ({:.0} events/s), {} location_at \
         queries p50 {:.4} ms p99 {:.4} ms, recovery {:.3} s",
        store.records,
        store.append_s,
        store.append_events_per_sec(),
        store.queries,
        store.location_at_p50_ms,
        store.location_at_p99_ms,
        store.recovery_s,
    );
    println!(
        "fleet_campaign [{}]: {} instances, {} trials, {} objects in {:.3} s \
         ({:.0} objects/s), peak accumulator bytes {}, digest {:#018x}",
        fleet_campaign.spec_name,
        fleet_campaign.instances,
        fleet_campaign.trials,
        fleet_campaign.objects,
        fleet_campaign.elapsed_s,
        fleet_campaign.objects_per_sec(),
        fleet_campaign.peak_accumulator_bytes,
        fleet_campaign.digest,
    );
    println!("wrote {out_path}");
    std::process::ExitCode::SUCCESS
}
