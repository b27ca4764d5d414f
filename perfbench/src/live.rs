//! `live_site`: the tracking daemon in memory mode, fed by one emulated
//! portal over loopback TCP and queried over one JSON-RPC connection.
//!
//! Phase A offers reads and `location_of` queries on a fixed open-loop
//! schedule well below capacity; every 16th read moves an object to a
//! new zone and the query stream watches for that move.
//! Phase B hands the portal backlogs that the daemon drains at a fixed
//! tag-list cap per `get_tags`, with no queries. The untraced run enters
//! the daemon through `SiteServer::run`; the traced run makes the calls
//! the daemon makes itself (`ReaderClient::get_tags` over
//! `TcpTransport`, `SharedIngest::ingest_records`,
//! `SharedIngest::location_of`) with a span around each.

use crate::env;
use crate::plane::{
    ingest_metrics, moves, other_zone, split_ingest, world, Read, World, ZIPF_EXPONENT,
};
use crate::report::{Metric, Outcome};
use crate::stats::{aggregate_rate, median, ms, unit_rates, us, Digest, Rng, Samples, Zipf};
use crate::trace::{durations, Span, SpanId, Tracer};
use crate::Config;
use rfid_readerapi::{
    ReaderClient, ReaderEmulator, Request, TagRecord, TcpTransport, Transport, TransportError,
};
use rfid_sim::ReadEvent;
use rfid_site_server::{Json, ServerConfig, ServerReport, SharedIngest, SiteServer};
use rfid_track::LocationTracker;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

/// Zones the portal's antennas map to, one antenna per zone.
const ZONES: usize = 16;
/// Most records one `get_tags` drain returns.
const TAG_LIST_CAP: usize = 1000;
const TOKEN: &str = "perfbench";
/// A probe not visible this long after its read is counted as failed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
/// No object is probed twice within this long, so a watch query can
/// only see the move it waits for.
const PROBE_GAP_NS: u64 = 200_000_000;
/// A backlog not queryable this long after it was offered fails the run.
const BACKLOG_TIMEOUT: Duration = Duration::from_secs(120);

struct Sizes {
    objects: usize,
    phase_a_s: f64,
    reads_per_s: f64,
    probe_every: usize,
    queries_per_s: f64,
    backlog: usize,
    backlogs: usize,
    setups: usize,
}

fn sizes(config: &Config) -> Sizes {
    if config.smoke {
        Sizes {
            objects: 1024,
            phase_a_s: 1.2,
            reads_per_s: 4000.0,
            probe_every: 4,
            queries_per_s: 4000.0,
            backlog: 20_000,
            backlogs: 2,
            setups: 3,
        }
    } else {
        let seconds = config.seconds as f64;
        Sizes {
            objects: 4096,
            phase_a_s: 0.3 * seconds,
            reads_per_s: 4000.0,
            probe_every: 16,
            queries_per_s: 1000.0,
            backlog: 150_000,
            backlogs: (config.seconds as usize / 5).max(2),
            setups: 100,
        }
    }
}

struct Probe {
    object: u32,
    zone: usize,
    due_ns: u64,
}

struct Schedule {
    reads: Vec<Read>,
    /// Due offsets from the start of phase A, for the phase-A reads.
    due_ns: Vec<u64>,
    /// End index (exclusive) in `reads` of each phase-B backlog.
    backlog_ends: Vec<usize>,
    probes: Vec<Probe>,
    /// `(due offset, object)` of each phase-A query.
    queries: Vec<(u64, u32)>,
}

impl Schedule {
    fn empty() -> Self {
        Self {
            reads: Vec::new(),
            due_ns: Vec::new(),
            backlog_ends: Vec::new(),
            probes: Vec::new(),
            queries: Vec::new(),
        }
    }

    fn phase_a(&self) -> usize {
        self.due_ns.len()
    }

    fn generate(seed: u64, sizes: &Sizes) -> Self {
        let mut rng = Rng::new(seed, 0x11fe);
        let zipf = Zipf::new(sizes.objects, ZIPF_EXPONENT, &mut rng);
        let mut zone_of: Vec<u8> = (0..sizes.objects).map(|_| rng.below(ZONES) as u8).collect();
        let mut probed_at: Vec<Option<u64>> = vec![None; sizes.objects];
        let phase_a_ns = (sizes.phase_a_s * 1e9) as u64;
        let reads_a = (sizes.phase_a_s * sizes.reads_per_s) as usize;
        let mut schedule = Self::empty();
        for k in 0..reads_a {
            let due_ns = (k as f64 * 1e9 / sizes.reads_per_s) as u64;
            let probe_slot =
                k % sizes.probe_every == sizes.probe_every - 1 && due_ns + 200_000_000 < phase_a_ns;
            let mut object = zipf.pick(&mut rng);
            if probe_slot {
                object = rng.below(sizes.objects);
                while probed_at[object].is_some_and(|at| due_ns < at + PROBE_GAP_NS) {
                    object = (object + 1) % sizes.objects;
                }
                zone_of[object] = other_zone(zone_of[object], ZONES, &mut rng);
                probed_at[object] = Some(due_ns);
                schedule.probes.push(Probe {
                    object: object as u32,
                    zone: usize::from(zone_of[object]),
                    due_ns,
                });
            }
            schedule.reads.push(Read {
                time_s: due_ns as f64 / 1e9,
                object: object as u32,
                zone: zone_of[object],
            });
            schedule.due_ns.push(due_ns);
        }
        let queries = (sizes.phase_a_s * sizes.queries_per_s) as usize;
        schedule.queries = (0..queries)
            .map(|j| {
                let due_ns = (j as f64 * 1e9 / sizes.queries_per_s) as u64;
                (due_ns, zipf.pick(&mut rng) as u32)
            })
            .collect();
        let backlog_start_s = sizes.phase_a_s + 1.0;
        for i in 0..sizes.backlog * sizes.backlogs {
            let object = zipf.pick(&mut rng);
            if moves(&mut rng) {
                zone_of[object] = other_zone(zone_of[object], ZONES, &mut rng);
            }
            schedule.reads.push(Read {
                time_s: backlog_start_s + i as f64 * 1e-5,
                object: object as u32,
                zone: zone_of[object],
            });
            if (i + 1) % sizes.backlog == 0 {
                schedule.backlog_ends.push(schedule.reads.len());
            }
        }
        schedule
    }

    fn digests(&self) -> (u64, u64) {
        let mut reads = Digest::default();
        for (i, read) in self.reads.iter().enumerate() {
            reads.real(read.time_s);
            reads.word(u64::from(read.object) << 8 | u64::from(read.zone));
            reads.word(self.due_ns.get(i).copied().unwrap_or(u64::MAX));
        }
        let mut queries = Digest::default();
        for &(due_ns, object) in &self.queries {
            queries.word(due_ns);
            queries.word(u64::from(object));
        }
        for probe in &self.probes {
            queries.word(probe.due_ns);
        }
        (reads.value(), queries.value())
    }
}

/// What the portal hands over, and when: phase-A reads once due,
/// backlog reads once the controller raises `backlog_limit`.
struct Feed<'a> {
    schedule: &'a Schedule,
    world: &'a World,
    phase_start: OnceLock<Instant>,
    backlog_limit: AtomicUsize,
}

impl<'a> Feed<'a> {
    fn new(schedule: &'a Schedule, world: &'a World) -> Self {
        Self {
            schedule,
            world,
            phase_start: OnceLock::new(),
            backlog_limit: AtomicUsize::new(0),
        }
    }

    /// How many reads (a prefix of the schedule) exist by now.
    fn available(&self, due_cursor: &mut usize) -> usize {
        let phase_a = self.schedule.phase_a();
        if let Some(elapsed) = self
            .phase_start
            .get()
            .and_then(|start| Instant::now().checked_duration_since(*start))
        {
            let elapsed = elapsed.as_nanos() as u64;
            while *due_cursor < phase_a && self.schedule.due_ns[*due_cursor] <= elapsed {
                *due_cursor += 1;
            }
        }
        if *due_cursor == phase_a {
            self.backlog_limit.load(SeqCst).max(phase_a)
        } else {
            *due_cursor
        }
    }
}

#[derive(Debug, Default)]
struct PortalStats {
    drains: u64,
    empty_drains: u64,
    records: u64,
    encode_ns: u64,
}

/// The emulated portal: on the connection it dialed to the daemon,
/// serves the XML reader protocol through `ReaderEmulator::handle_xml`,
/// handing over at most [`TAG_LIST_CAP`] of the reads that exist by
/// each request.
fn serve_portal(
    stream: TcpStream,
    feed: &Feed<'_>,
    tracer: Option<&Tracer>,
) -> io::Result<PortalStats> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut emulator = ReaderEmulator::with_reader_id(0);
    let _ = emulator.handle(&Request::StartBuffered);
    let get_tags = Request::GetTags.to_xml();
    let mut stats = PortalStats::default();
    let (mut due_cursor, mut fed, mut request) = (0usize, 0usize, 0u64);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(stats);
        }
        let available = feed.available(&mut due_cursor);
        while fed < available && emulator.buffered() < TAG_LIST_CAP {
            emulator.feed(feed.schedule.reads[fed].record(feed.world, ZONES));
            fed += 1;
        }
        let buffered = emulator.buffered() as u64;
        let drain = line.trim_end() == get_tags;
        let started = tracer.map(Tracer::now_ns);
        let mut reply = emulator.handle_xml(line.trim_end());
        if let (Some(tracer), Some(start_ns)) = (tracer, started) {
            let end_ns = tracer.now_ns();
            tracer.record(Span {
                name: "readerapi.handle_xml",
                start_ns,
                end_ns,
                parent: None,
                request,
            });
            if drain {
                stats.encode_ns += end_ns - start_ns;
            }
        }
        if drain {
            stats.drains += 1;
            stats.records += buffered;
            stats.empty_drains += u64::from(buffered == 0);
        }
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        request += 1;
    }
}

/// The query side of a run: the JSON-RPC client (untraced) or direct
/// calls into the ingest plane (traced).
trait Queries {
    /// The zone the system reports for the object, if any.
    fn location_of(&mut self, epc: &str) -> Result<Option<usize>, String>;
    /// Events released past the merge, hence queryable.
    fn released(&mut self) -> Result<u64, String>;
    fn pause(&mut self, duration: Duration) {
        thread::sleep(duration);
    }
}

/// The query connection: one JSON request line out, one response line
/// back, in the protocol `QueryClient` speaks. It counts the bytes of
/// every `location_of` response line the daemon wrote.
struct Rpc {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    location_responses: u64,
    location_bytes: u64,
}

impl Rpc {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            location_responses: 0,
            location_bytes: 0,
        })
    }

    /// One call: its result, and the length of the response line.
    fn call(&mut self, method: &str, params: Vec<(String, Json)>) -> Result<(Json, usize), String> {
        let mut request = Json::Obj(vec![
            ("token".into(), Json::Str(TOKEN.into())),
            ("method".into(), Json::Str(method.into())),
            ("params".into(), Json::Obj(params)),
        ])
        .to_json()
        .map_err(|err| err.to_string())?;
        request.push('\n');
        self.writer
            .write_all(request.as_bytes())
            .map_err(|err| format!("{method}: {err}"))?;
        let mut response = String::new();
        let bytes = self
            .reader
            .read_line(&mut response)
            .map_err(|err| format!("{method}: {err}"))?;
        let doc = Json::parse(response.trim_end()).map_err(|err| format!("{method}: {err}"))?;
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok((doc.get("result").cloned().unwrap_or(Json::Null), bytes)),
            _ => Err(format!("{method} refused: {}", response.trim_end())),
        }
    }

    fn counter(&mut self, name: &str) -> Result<u64, String> {
        let (counters, _) = self.call("counters", Vec::new())?;
        Ok(counters.get(name).and_then(Json::as_f64).unwrap_or(0.0) as u64)
    }
}

impl Queries for Rpc {
    fn location_of(&mut self, epc: &str) -> Result<Option<usize>, String> {
        let params = vec![("epc".into(), Json::Str(epc.to_owned()))];
        let (result, bytes) = self.call("location_of", params)?;
        self.location_responses += 1;
        self.location_bytes += bytes as u64;
        match result {
            Json::Null => Ok(None),
            found => found
                .get("zone")
                .and_then(Json::as_f64)
                .map(|zone| Some(zone as usize))
                .ok_or_else(|| "a location without a zone".to_owned()),
        }
    }

    fn released(&mut self) -> Result<u64, String> {
        self.counter("events_released")
    }
}

struct LocalQueries<'a, 'w> {
    ingest: &'a SharedIngest<'w>,
    tracer: &'a Tracer,
    root: SpanId,
}

impl Queries for LocalQueries<'_, '_> {
    fn location_of(&mut self, epc: &str) -> Result<Option<usize>, String> {
        let found = self
            .tracer
            .span("site_server.location_of", Some(self.root), 0, || {
                self.ingest.location_of(epc)
            })?;
        Ok(found.map(|(zone, _)| zone))
    }

    fn released(&mut self) -> Result<u64, String> {
        Ok(self.ingest.counters().events_released)
    }

    fn pause(&mut self, duration: Duration) {
        self.tracer
            .span("idle", Some(self.root), 0, || thread::sleep(duration));
    }
}

#[derive(Debug, Default)]
struct Phases {
    visible_ms: Samples,
    location_us: Samples,
    late_ms: Samples,
    /// `(reads, seconds)` of each phase-B backlog.
    backlogs: Vec<(f64, f64)>,
    queries: u64,
    query_errors: u64,
    probe_timeouts: u64,
    backlog_timeouts: u64,
}

/// Watches probes in order: each step queries the oldest probe whose
/// read is due, and records its visibility once the answer reflects
/// the move.
struct Watch<'s> {
    schedule: &'s Schedule,
    world: &'s World,
    start: Instant,
    next_probe: usize,
}

impl Watch<'_> {
    fn pending(&self) -> bool {
        self.next_probe < self.schedule.probes.len()
    }

    /// Issues one `location_of`: for the oldest due probe, else for
    /// `fallback`. Returns false when there was nothing to ask.
    fn step(
        &mut self,
        queries: &mut impl Queries,
        fallback: Option<u32>,
        out: &mut Phases,
    ) -> bool {
        let since_start = Instant::now()
            .saturating_duration_since(self.start)
            .as_nanos() as u64;
        let watch = self
            .schedule
            .probes
            .get(self.next_probe)
            .filter(|probe| probe.due_ns <= since_start);
        let Some(target) = watch.map(|p| p.object).or(fallback) else {
            return false;
        };
        out.queries += 1;
        let answer = queries.location_of(&self.world.epc_text[target as usize]);
        let done = Instant::now();
        out.query_errors += u64::from(answer.is_err());
        if let Some(probe) = watch {
            let waited =
                done.saturating_duration_since(self.start + Duration::from_nanos(probe.due_ns));
            if answer.is_ok_and(|zone| zone == Some(probe.zone)) {
                out.visible_ms.push(ms(waited));
                self.next_probe += 1;
            } else if waited > PROBE_TIMEOUT {
                out.probe_timeouts += 1;
                self.next_probe += 1;
            }
        }
        true
    }
}

/// Runs phase A (open-loop reads and queries with probe watches) and
/// phase B (backlogs drained with no queries) against a running system.
fn drive(feed: &Feed<'_>, queries: &mut impl Queries) -> Phases {
    let schedule = feed.schedule;
    let mut out = Phases::default();
    let start = Instant::now() + Duration::from_millis(20);
    let _ = feed.phase_start.set(start);
    let mut watch = Watch {
        schedule,
        world: feed.world,
        start,
        next_probe: 0,
    };
    for &(due_ns, object) in &schedule.queries {
        let due = start + Duration::from_nanos(due_ns);
        let now = Instant::now();
        if due > now {
            queries.pause(due - now);
        }
        out.late_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        watch.step(queries, Some(object), &mut out);
        out.location_us
            .push(us(Instant::now().saturating_duration_since(due)));
    }
    // Probes still unseen when the query schedule ends: keep watching.
    while watch.pending() && watch.step(queries, None, &mut out) {
        queries.pause(Duration::from_micros(250));
    }
    let mut offered = schedule.phase_a();
    for &end in &schedule.backlog_ends {
        // Every read but the newest is releasable: the merge holds the
        // newest until a later read (or shutdown) passes its time.
        let target = end as u64 - 1;
        let began = Instant::now();
        feed.backlog_limit.store(end, SeqCst);
        loop {
            queries.pause(Duration::from_millis(5));
            match queries.released() {
                Ok(released) if released >= target => break,
                Ok(_) => {}
                Err(_) => out.query_errors += 1,
            }
            if began.elapsed() > BACKLOG_TIMEOUT {
                out.backlog_timeouts += 1;
                break;
            }
        }
        out.backlogs
            .push(((end - offered) as f64, began.elapsed().as_secs_f64()));
        offered = end;
    }
    out
}

/// Raises the shutdown flag when dropped, so an early error return
/// inside a thread scope stops the daemon instead of deadlocking the
/// scope's join.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, SeqCst);
    }
}

struct DaemonRun {
    setup_s: f64,
    report: ServerReport,
    phases: Option<Phases>,
    /// `(responses, bytes)` of the phase-A `location_of` answers.
    location_bytes: (u64, u64),
}

fn io_err(context: &str) -> impl Fn(io::Error) -> String + '_ {
    move |err| format!("{context}: {err}")
}

/// Boots `SiteServer::run` with deployment defaults, attaches the
/// portal, answers a first RPC (the set-up time), optionally drives the
/// phases, then shuts down over RPC and returns the drained report.
fn daemon_run(world: &World, schedule: &Schedule, measure: bool) -> Result<DaemonRun, String> {
    let shutdown = AtomicBool::new(false);
    let feed = Feed::new(schedule, world);
    let reader_listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("bind"))?;
    let query_listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("bind"))?;
    // Portal and client dial before the daemon starts, as readers that
    // keep redialing a restarting site would, so set-up does not depend
    // on which thread the scheduler runs first.
    let portal_stream = TcpStream::connect(reader_listener.local_addr().map_err(io_err("addr"))?)
        .map_err(io_err("portal connect"))?;
    let mut rpc = Rpc::connect(query_listener.local_addr().map_err(io_err("addr"))?)
        .map_err(io_err("connect"))?;
    thread::scope(|scope| {
        let _guard = RaiseOnDrop(&shutdown);
        let began = Instant::now();
        let server = SiteServer::new(
            &world.site,
            &world.registry,
            &world.adapters,
            ServerConfig::new(TOKEN),
        );
        let (readers, queriers, shutdown) = (&reader_listener, &query_listener, &shutdown);
        let daemon = scope.spawn(move || server.run(readers, queriers, shutdown));
        let portal = scope.spawn(|| serve_portal(portal_stream, &feed, None));
        loop {
            if rpc.counter("sessions_attached")? >= 1 {
                break;
            }
            if began.elapsed() > Duration::from_secs(30) {
                return Err("the portal session never attached".to_owned());
            }
        }
        let setup_s = began.elapsed().as_secs_f64();
        let phases = measure.then(|| drive(&feed, &mut rpc));
        rpc.call("shutdown", Vec::new())?;
        let report = daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?
            .map_err(io_err("daemon"))?;
        portal
            .join()
            .map_err(|_| "portal thread panicked".to_owned())?
            .map_err(io_err("portal"))?;
        Ok(DaemonRun {
            setup_s,
            report,
            phases,
            location_bytes: (rpc.location_responses, rpc.location_bytes),
        })
    })
}

fn phase_metrics(out: &mut Outcome, setups: &[f64], phases: &Phases) {
    out.e2e.push(Metric::new(
        "setup_s",
        "s",
        median(setups).unwrap_or(0.0),
        setups.len(),
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
        "location_of_p50_us",
        "us",
        &phases.location_us,
        5000,
    ));
    out.e2e.push(Metric::percentile(
        "location_of_p99_us",
        "us",
        &phases.location_us,
        9900,
    ));
}

fn check_report(out: &mut Outcome, world: &World, schedule: &Schedule, report: &ServerReport) {
    let counters = &report.counters;
    out.failed += counters.adapter_rejects
        + counters.merge_rejects
        + counters.session_errors
        + counters.rpc_errors;
    out.gate(
        "all_reads_ingested",
        counters.events_ingested == schedule.reads.len() as u64,
        format!(
            "{} of {} reads ingested",
            counters.events_ingested,
            schedule.reads.len()
        ),
    );
    out.gate(
        "session_errors_zero",
        counters.session_errors == 0,
        format!("session_errors={}", counters.session_errors),
    );
    let reads: Vec<ReadEvent> = schedule
        .reads
        .iter()
        .map(|read| read.event(world, ZONES))
        .collect();
    let mut batch = LocationTracker::new(ServerConfig::new(TOKEN).staleness_s);
    let replayed = batch.observe_all(world.site.observations(&world.registry, &reads));
    out.gate(
        "tracker_equals_batch_replay",
        replayed.is_ok() && report.tracker == batch,
        format!(
            "shutdown tracker vs batch replay of {} accepted reads",
            reads.len()
        ),
    );
}

fn inputs(out: &mut Outcome, seed: u64, sizes: &Sizes) -> (World, Schedule) {
    let world = world(seed, 1, ZONES, sizes.objects);
    let schedule = Schedule::generate(seed, sizes);
    let (reads, queries) = schedule.digests();
    out.fact("inputs.read_schedule", format!("{reads:#018x}"));
    out.fact("inputs.query_schedule", format!("{queries:#018x}"));
    out.fact("inputs.objects", sizes.objects);
    out.fact("inputs.reads", schedule.reads.len());
    out.fact("inputs.probes", schedule.probes.len());
    out.fact("inputs.queries", schedule.queries.len());
    out.fact("inputs.backlogs", schedule.backlog_ends.len());
    out.fact("inputs.tag_list_cap", TAG_LIST_CAP);
    out.gen_threads = 2;
    out.gen_connections = 2;
    (world, schedule)
}

/// The untraced run.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let sizes = sizes(config);
    let mut out = Outcome::default();
    let (world, schedule) = inputs(&mut out, config.seed, &sizes);
    let empty = Schedule::empty();
    let mut setups = Vec::new();
    let mut boot = |out: &mut Outcome| -> Result<(), String> {
        let run = daemon_run(&world, &empty, false)?;
        out.failed += run.report.counters.session_errors;
        setups.push(run.setup_s);
        Ok(())
    };
    // Half the idle boots come before the measured run and half after,
    // so their median samples the whole run.
    for _ in 1..sizes.setups / 2 {
        boot(&mut out)?;
    }
    let cpu_before = env::cpu_seconds();
    let main = daemon_run(&world, &schedule, true)?;
    let cpu_s = env::cpu_seconds() - cpu_before;
    let peak_rss_mb = env::peak_rss_mb();
    for _ in sizes.setups / 2..sizes.setups {
        boot(&mut out)?;
    }
    setups.push(main.setup_s);
    let phases = main.phases.expect("the measured run drives the phases");
    let (responses, bytes) = main.location_bytes;
    out.layers.push(Metric::new(
        "site_server.rpc_bytes_per_response",
        "B",
        bytes as f64 / responses.max(1) as f64,
        responses as usize,
    ));
    out.fact(
        "phase_b.events_per_s",
        format!("{:.0?}", unit_rates(&phases.backlogs)),
    );
    phase_metrics(&mut out, &setups, &phases);
    out.e2e
        .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb, 1));
    out.layers.push(Metric::new(
        "process.cpu_us_per_event",
        "us",
        cpu_s * 1e6 / schedule.reads.len().max(1) as f64,
        schedule.reads.len(),
    ));
    out.late_ms = phases.late_ms;
    // Reads, queries and daemon boots.
    out.attempted = schedule.reads.len() as u64 + phases.queries + setups.len() as u64;
    out.failed += phases.query_errors + phases.probe_timeouts + phases.backlog_timeouts;
    out.gate(
        "phases_completed",
        phases.probe_timeouts == 0 && phases.backlog_timeouts == 0,
        format!(
            "probe_timeouts={} backlog_timeouts={}",
            phases.probe_timeouts, phases.backlog_timeouts
        ),
    );
    check_report(&mut out, &world, &schedule, &main.report);
    Ok(out)
}

/// A [`Transport`] that records a `readerapi.exchange` span per wire
/// exchange, numbered by request so the portal's spans join it.
struct SpanTransport<'t> {
    inner: TcpTransport,
    tracer: &'t Tracer,
    parent: Option<SpanId>,
    exchanges: u64,
    drain_bytes: u64,
}

impl Transport for SpanTransport<'_> {
    fn exchange(&mut self, request_xml: &str) -> Result<String, TransportError> {
        let id = self
            .tracer
            .open("readerapi.exchange", self.parent, self.exchanges);
        let reply = self.inner.exchange(request_xml);
        self.tracer.close(id);
        self.exchanges += 1;
        if let (Ok(reply), Some(_)) = (&reply, self.parent) {
            self.drain_bytes += reply.len() as u64 + 1;
        }
        reply
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.inner.reset()
    }
}

struct SessionTrace {
    /// `(lane, records)` of every drain.
    drains: Vec<(usize, Vec<TagRecord>)>,
    drain_bytes: u64,
    errors: u64,
}

/// The daemon's session loop (`drive_session`), made with spans: drain
/// with `get_tags`, ingest the drain, sleep `poll` after an empty one;
/// on `stop`, one final drain.
fn session_loop(
    mut client: ReaderClient<SpanTransport<'_>>,
    ingest: &SharedIngest<'_>,
    session: usize,
    stop: &AtomicBool,
    poll: Duration,
    tracer: &Tracer,
) -> SessionTrace {
    let root = tracer.open("session", None, 0);
    let mut trace = SessionTrace {
        drains: Vec::new(),
        drain_bytes: 0,
        errors: 0,
    };
    loop {
        let last = stop.load(SeqCst);
        let get = tracer.open("readerapi.get_tags", Some(root), 0);
        client.transport_mut().parent = Some(get);
        let drained = client.get_tags();
        client.transport_mut().parent = None;
        tracer.close(get);
        let Ok(records) = drained else {
            trace.errors += 1;
            break;
        };
        tracer.span("site_server.ingest_records", Some(root), 0, || {
            ingest.ingest_records(session, &records)
        });
        let empty = records.is_empty();
        trace.drains.push((session, records));
        if last {
            break;
        }
        if empty {
            tracer.span("idle", Some(root), 0, || thread::sleep(poll));
        }
    }
    tracer.close(root);
    trace.drain_bytes = client.transport_mut().drain_bytes;
    trace
}

/// The traced run.
pub fn run_traced(config: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let sizes = sizes(config);
    let mut out = Outcome::default();
    let (world, schedule) = inputs(&mut out, config.seed, &sizes);
    let server = ServerConfig::new(TOKEN);
    let feed = Feed::new(&schedule, &world);
    let stop = AtomicBool::new(false);
    let cpu_before = env::cpu_seconds();
    let began = Instant::now();
    let ingest = SharedIngest::new(
        &world.site,
        &world.registry,
        &world.adapters,
        server.staleness_s,
        server.shards,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("bind"))?;
    let portal_stream = TcpStream::connect(listener.local_addr().map_err(io_err("addr"))?)
        .map_err(io_err("portal connect"))?;
    let (setup_s, phases, session, portal) = thread::scope(|scope| {
        let portal = scope.spawn(|| serve_portal(portal_stream, &feed, Some(tracer)));
        let (stream, _) = listener.accept().map_err(io_err("accept"))?;
        let transport = TcpTransport::from_accepted(stream, Some(server.session_deadline))
            .map_err(io_err("transport"))?;
        let mut client = ReaderClient::new(SpanTransport {
            inner: transport,
            tracer,
            parent: None,
            exchanges: 0,
            drain_bytes: 0,
        });
        let lane = client.identify().map_err(|err| err.to_string())?;
        ingest.attach(lane).map_err(|err| err.to_string())?;
        client.start_buffered().map_err(|err| err.to_string())?;
        ingest.location_of(&world.epc_text[0])?;
        let setup_s = began.elapsed().as_secs_f64();
        let ingest = &ingest;
        let stop = &stop;
        let session =
            scope.spawn(move || session_loop(client, ingest, lane, stop, server.poll, tracer));
        let root = tracer.open("queries", None, 0);
        let phases = drive(
            &feed,
            &mut LocalQueries {
                ingest,
                tracer,
                root,
            },
        );
        tracer.close(root);
        stop.store(true, SeqCst);
        let session = session
            .join()
            .map_err(|_| "session thread panicked".to_owned())?;
        ingest.detach(lane);
        let portal = portal
            .join()
            .map_err(|_| "portal thread panicked".to_owned())?
            .map_err(io_err("portal"))?;
        Ok::<_, String>((setup_s, phases, session, portal))
    })?;
    let cpu_s = env::cpu_seconds() - cpu_before;
    let peak_rss_mb = env::peak_rss_mb();
    ingest.finish();
    let counters = ingest.counters();
    let shard_counters = ingest.shard_counters();
    let report = ingest.into_report();
    phase_metrics(&mut out, &[setup_s], &phases);
    out.e2e
        .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb, 1));
    out.late_ms = phases.late_ms;
    out.attempted = schedule.reads.len() as u64 + phases.queries;
    out.failed +=
        phases.query_errors + phases.probe_timeouts + phases.backlog_timeouts + session.errors;
    out.gate(
        "phases_completed",
        phases.probe_timeouts == 0 && phases.backlog_timeouts == 0,
        format!(
            "probe_timeouts={} backlog_timeouts={}",
            phases.probe_timeouts, phases.backlog_timeouts
        ),
    );
    check_report(&mut out, &world, &schedule, &report);

    tracer.link_by_request("readerapi.handle_xml", "readerapi.exchange");
    let split = split_ingest(&world, &session.drains, 1, None, tracer)?;
    let location_root = tracer.open("tracker_queries", None, 0);
    let now_s = schedule.reads.last().map_or(0.0, |r| r.time_s);
    let handles: Vec<_> = schedule
        .queries
        .iter()
        .filter_map(|&(_, object)| world.registry.object_of(world.epcs[object as usize]))
        .collect();
    tracer.span("track.tracker_location_of", Some(location_root), 0, || {
        for &handle in &handles {
            std::hint::black_box(split.tracker.location_of(handle, now_s));
        }
    });
    tracer.close(location_root);
    let spans = tracer.snapshot();
    let records = counters.records_drained;
    let events = counters.events_released;
    let drains = session.drains.len() as u64;
    let get_tags = durations(&spans, "readerapi.get_tags").scaled(1e-3);
    let local_location = durations(&spans, "site_server.location_of");
    let per = |total: f64, count: u64| total / count.max(1) as f64;
    let layers = &mut out.layers;
    layers.extend([
        Metric::percentile("readerapi.get_tags_us_p50", "us", &get_tags, 5000),
        Metric::percentile("readerapi.get_tags_us_p99", "us", &get_tags, 9900),
        Metric::new(
            "readerapi.records_per_drain",
            "count",
            per(records as f64, drains),
            drains as usize,
        ),
        Metric::new(
            "readerapi.xml_bytes_per_record",
            "B",
            per(session.drain_bytes as f64, records),
            records as usize,
        ),
        Metric::new(
            "readerapi.empty_drain_ratio",
            "ratio",
            per(portal.empty_drains as f64, portal.drains),
            portal.drains as usize,
        ),
        Metric::new(
            "readerapi.encode_ns_per_record",
            "ns",
            per(portal.encode_ns as f64, portal.records),
            portal.records as usize,
        ),
    ]);
    ingest_metrics(layers, &spans, &counters, &shard_counters, split.held_max);
    if let (Some(untraced), Some(local)) = (
        config.untraced_value("location_of_p50_us"),
        local_location.percentile(5000),
    ) {
        layers.push(Metric::new(
            "site_server.rpc_overhead_us_p50",
            "us",
            untraced - local / 1e3,
            local_location.len(),
        ));
    }
    // Only the untraced run speaks JSON-RPC; its response bytes carry over.
    layers.extend(
        config
            .untraced_layer("site_server.rpc_bytes_per_response")
            .cloned(),
    );
    layers.extend([
        Metric::new(
            "track.tracker_observe_ns_per_event",
            "ns",
            per(durations(&spans, "track.tracker").sum(), events),
            events as usize,
        ),
        Metric::new("track.tracker_evict_ms", "ms", 0.0, 0),
        Metric::new(
            "track.tracker_location_of_ns",
            "ns",
            per(
                durations(&spans, "track.tracker_location_of").sum(),
                handles.len() as u64,
            ),
            handles.len(),
        ),
        Metric::count(
            "track.tracker_history_len",
            split.tracker.history_len() as u64,
        ),
        Metric::new(
            "process.cpu_us_per_event",
            "us",
            cpu_s * 1e6 / schedule.reads.len().max(1) as f64,
            schedule.reads.len(),
        ),
    ]);
    Ok(out)
}
