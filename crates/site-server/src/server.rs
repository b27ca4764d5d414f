//! The site-server daemon: accept loops, session threads, graceful
//! shutdown.
//!
//! One [`SiteServer`] run owns two listeners. Portals dial the reader
//! port and serve the XML wire protocol; each accepted connection gets
//! a scoped thread running [`crate::session::drive_session`] into the
//! shared ingest plane. Clients dial the query port and speak the
//! line-delimited JSON RPC from [`crate::rpc`]. A `shutdown` RPC (or
//! an external raise of the shutdown flag) stops the accept loops,
//! lets every session take one final drain, joins all threads, and
//! flushes the merge — so the returned [`ServerReport`] holds exactly
//! the state a batch replay of the same recorded sessions produces.

use crate::ingest::{ServerReport, SharedIngest};
use crate::rpc::{self, Disposition};
use crate::session::{drive_session, SessionEnd};
use rfid_readerapi::{ReaderClient, TcpTransport, WireEventAdapter};
use rfid_track::{ObjectRegistry, Site, StoreConfig, ZoneHistoryStore};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// Tunables for one server run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shared secret every query request must carry.
    pub auth_token: String,
    /// Tracker staleness horizon (seconds of silence before
    /// `location_of` stops answering for an object).
    pub staleness_s: f64,
    /// How long a session thread sleeps when a drain comes back empty.
    pub poll: Duration,
    /// Per-exchange deadline on reader transports.
    pub session_deadline: Duration,
    /// Parallel application shards in the ingest plane; `0` selects
    /// the machine's available parallelism. Any value yields the same
    /// report `tracker`, `transitions` and `counters`, bit for bit;
    /// `shard_counters` has one entry per shard.
    pub shards: usize,
    /// Directory for the durable zone-history store. `None` keeps the
    /// run in-memory; `Some` opens (or recovers) a
    /// [`rfid_track::ZoneHistoryStore`] there, appends every released
    /// observation, and resumes the tracker from any prior contents
    /// before accepting connections.
    pub store_dir: Option<std::path::PathBuf>,
}

impl ServerConfig {
    /// A config with the given auth token and deployment defaults.
    #[must_use]
    pub fn new(auth_token: &str) -> Self {
        Self {
            auth_token: auth_token.to_owned(),
            staleness_s: 3600.0,
            poll: Duration::from_millis(2),
            session_deadline: Duration::from_secs(5),
            shards: 0,
            store_dir: None,
        }
    }
}

/// The long-running site tracking daemon. Borrows the site model, the
/// tag registry, and one [`WireEventAdapter`] per portal for the
/// duration of a run.
pub struct SiteServer<'a> {
    site: &'a Site,
    registry: &'a ObjectRegistry,
    adapters: &'a [WireEventAdapter],
    config: ServerConfig,
}

impl<'a> SiteServer<'a> {
    /// Builds a server over a site model. `adapters[r]` validates and
    /// converts the wire records of portal `r`.
    #[must_use]
    pub fn new(
        site: &'a Site,
        registry: &'a ObjectRegistry,
        adapters: &'a [WireEventAdapter],
        config: ServerConfig,
    ) -> Self {
        Self {
            site,
            registry,
            adapters,
            config,
        }
    }

    /// Runs the daemon until shutdown, then returns the drained state.
    ///
    /// Blocks the calling thread. Shutdown triggers: the `shutdown`
    /// RPC, or an external `shutdown.store(true)`. On shutdown the
    /// accept loops close, every live session takes a final drain and
    /// detaches, all threads join, and the merge flushes through the
    /// streaming chain.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] if
    /// [`ServerConfig::staleness_s`] is not strictly positive (zero,
    /// negative or `NaN`), returned before the listeners are touched or
    /// any thread is spawned. Propagates listener configuration and
    /// store recovery failures. Per-connection failures never abort the
    /// run; they are counted in the report.
    pub fn run(
        &self,
        reader_listener: &TcpListener,
        query_listener: &TcpListener,
        shutdown: &AtomicBool,
    ) -> io::Result<ServerReport> {
        if self.config.staleness_s.is_nan() || self.config.staleness_s <= 0.0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "staleness must be positive, not {}",
                    self.config.staleness_s
                ),
            ));
        }
        reader_listener.set_nonblocking(true)?;
        query_listener.set_nonblocking(true)?;
        let ingest = match &self.config.store_dir {
            Some(dir) => {
                let store = ZoneHistoryStore::open(dir, StoreConfig::default())
                    .map_err(|err| io::Error::other(err.to_string()))?;
                SharedIngest::with_store(
                    self.site,
                    self.registry,
                    self.adapters,
                    self.config.staleness_s,
                    self.config.shards,
                    store,
                )
                .map_err(|err| io::Error::other(err.to_string()))?
            }
            None => SharedIngest::new(
                self.site,
                self.registry,
                self.adapters,
                self.config.staleness_s,
                self.config.shards,
            ),
        };
        thread::scope(|scope| {
            while !shutdown.load(Ordering::SeqCst) {
                let mut idle = true;
                match reader_listener.accept() {
                    Ok((stream, _)) => {
                        idle = false;
                        let ingest = &ingest;
                        scope.spawn(move || self.reader_session(stream, ingest, shutdown));
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => {
                        // Transient accept failure: back off, keep serving.
                    }
                }
                match query_listener.accept() {
                    Ok((stream, _)) => {
                        idle = false;
                        let ingest = &ingest;
                        scope.spawn(move || self.query_session(stream, ingest, shutdown));
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
                if idle {
                    thread::sleep(Duration::from_millis(2));
                }
            }
            // Scope exit joins every session and query thread: each
            // session has taken its final drain and detached.
        });
        ingest.finish();
        Ok(ingest.into_report())
    }

    fn reader_session(&self, stream: TcpStream, ingest: &SharedIngest<'_>, shutdown: &AtomicBool) {
        match TcpTransport::from_accepted(stream, Some(self.config.session_deadline)) {
            Ok(transport) => {
                let mut client = ReaderClient::new(transport);
                let _ = drive_session(
                    &mut client,
                    ingest,
                    shutdown,
                    self.config.poll,
                    SessionEnd::OnShutdown,
                );
            }
            Err(_) => ingest.record_session_error(),
        }
    }

    fn query_session(&self, stream: TcpStream, ingest: &SharedIngest<'_>, shutdown: &AtomicBool) {
        // Short read timeout so the handler notices shutdown promptly
        // even on an idle connection.
        if stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
            || stream.set_nodelay(true).is_err()
        {
            return;
        }
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let mut writer = write_half;
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        loop {
            // `read_until` may return WouldBlock mid-line; the partial
            // bytes stay in `line`, so retrying continues the frame. The
            // `take` stops a line one byte past the cap, so a client
            // that never sends a newline holds at most that much.
            let room = rpc::MAX_REQUEST_BYTES + 1 - line.len();
            match reader
                .by_ref()
                .take(room as u64)
                .read_until(b'\n', &mut line)
            {
                Ok(0) => return, // client hung up
                Ok(_) => {
                    if line.len() > rpc::MAX_REQUEST_BYTES && line.last() != Some(&b'\n') {
                        ingest.record_rpc_error();
                        let mut frame = rpc::fail(format!(
                            "request line exceeds {} bytes",
                            rpc::MAX_REQUEST_BYTES
                        ));
                        frame.push('\n');
                        let _ = writer.write_all(frame.as_bytes());
                        return;
                    }
                    let (mut frame, disposition) = match std::str::from_utf8(&line) {
                        Ok(text) => {
                            let request = text.trim_end_matches(['\r', '\n']);
                            if request.is_empty() {
                                line.clear();
                                continue;
                            }
                            rpc::dispatch(request, ingest, &self.config.auth_token)
                        }
                        // Like unparseable JSON: an error frame, and the
                        // connection keeps serving.
                        Err(_) => {
                            ingest.record_rpc_error();
                            (
                                rpc::fail("malformed request: line is not UTF-8"),
                                Disposition::Continue,
                            )
                        }
                    };
                    line.clear();
                    frame.push('\n');
                    if writer.write_all(frame.as_bytes()).is_err() {
                        return;
                    }
                    match disposition {
                        Disposition::Continue => {}
                        Disposition::Close => return,
                        Disposition::Shutdown => {
                            shutdown.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                }
                Err(err)
                    if matches!(
                        err.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::portal::run_portal;
    use crate::rpc::QueryClient;
    use rfid_gen2::Epc96;
    use rfid_sim::ReadEvent;

    /// Raises the shutdown flag when dropped, so a failing assertion
    /// inside the test scope unwinds the daemon instead of deadlocking
    /// the scope join.
    struct RaiseOnDrop<'a>(&'a AtomicBool);

    impl Drop for RaiseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_non_positive_staleness_is_rejected_before_serving() {
        let site = Site::new();
        let registry = ObjectRegistry::new();
        let reader_listener = TcpListener::bind("127.0.0.1:0").expect("bind reader");
        let query_listener = TcpListener::bind("127.0.0.1:0").expect("bind query");
        // A raised flag means a run that got past validation would drain
        // at once instead of serving forever (and panic building its
        // trackers).
        let shutdown = AtomicBool::new(true);
        for staleness_s in [0.0, -0.0, -5.0, f64::NAN, f64::NEG_INFINITY] {
            let mut config = ServerConfig::new("token");
            config.staleness_s = staleness_s;
            let server = SiteServer::new(&site, &registry, &[], config);
            let err = server
                .run(&reader_listener, &query_listener, &shutdown)
                .expect_err("a non-positive staleness must not serve");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{staleness_s}");
        }
    }

    #[test]
    fn an_overlong_request_line_gets_one_error_frame_and_eof() {
        let site = Site::new();
        let registry = ObjectRegistry::new();
        let server = SiteServer::new(&site, &registry, &[], ServerConfig::new("token"));
        let reader_listener = TcpListener::bind("127.0.0.1:0").expect("bind reader");
        let query_listener = TcpListener::bind("127.0.0.1:0").expect("bind query");
        let query_addr = query_listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);
        thread::scope(|scope| {
            let _guard = RaiseOnDrop(&shutdown);
            let daemon = scope.spawn(|| server.run(&reader_listener, &query_listener, &shutdown));
            // One byte over the cap and no newline: an uncapped reader
            // would wait for the rest of the line forever.
            let stream = TcpStream::connect(query_addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            (&stream)
                .write_all(&vec![b'x'; rpc::MAX_REQUEST_BYTES + 1])
                .expect("send");
            let mut reader = BufReader::new(&stream);
            let mut frame = String::new();
            reader.read_line(&mut frame).expect("an error frame");
            assert!(frame.starts_with(r#"{"ok":false"#), "got: {frame}");
            frame.clear();
            let eof = reader.read_line(&mut frame).expect("a closed connection");
            assert_eq!(eof, 0, "got: {frame}");
            // The daemon still serves, and counted the refusal.
            let mut client = QueryClient::connect(query_addr, "token").expect("connect");
            assert_eq!(client.counter("rpc_errors").expect("counters"), 1);
            client.shutdown().expect("shutdown rpc");
            daemon.join().expect("daemon thread").expect("server run");
        });
    }

    #[test]
    fn a_non_utf8_request_line_gets_an_error_frame_and_the_connection_serves_on() {
        let site = Site::new();
        let registry = ObjectRegistry::new();
        let server = SiteServer::new(&site, &registry, &[], ServerConfig::new("token"));
        let reader_listener = TcpListener::bind("127.0.0.1:0").expect("bind reader");
        let query_listener = TcpListener::bind("127.0.0.1:0").expect("bind query");
        let query_addr = query_listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);
        thread::scope(|scope| {
            let _guard = RaiseOnDrop(&shutdown);
            let daemon = scope.spawn(|| server.run(&reader_listener, &query_listener, &shutdown));
            let stream = TcpStream::connect(query_addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            (&stream)
                .write_all(b"\xff\xfe{\"token\":\"token\",\"method\":\"counters\"}\n")
                .expect("send");
            (&stream)
                .write_all(b"{\"token\":\"token\",\"method\":\"counters\"}\n")
                .expect("send");
            let mut reader = BufReader::new(&stream);
            let mut frame = String::new();
            reader.read_line(&mut frame).expect("an error frame");
            assert!(frame.starts_with(r#"{"ok":false"#), "got: {frame}");
            frame.clear();
            reader.read_line(&mut frame).expect("a served response");
            let doc = Json::parse(frame.trim_end()).expect("a JSON frame");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{frame}");
            let rpc_errors = doc.get("result").and_then(|r| r.get("rpc_errors"));
            assert_eq!(rpc_errors.and_then(Json::as_f64), Some(1.0), "{frame}");
            let mut client = QueryClient::connect(query_addr, "token").expect("connect");
            client.shutdown().expect("shutdown rpc");
            daemon.join().expect("daemon thread").expect("server run");
        });
    }

    #[test]
    fn two_portals_end_to_end_with_queries_and_shutdown() {
        let mut site = Site::new();
        let dock = site.add_zone("dock");
        let aisle = site.add_zone("aisle");
        site.assign_portal(0, 0, dock);
        site.assign_portal(1, 0, aisle);
        let mut registry = ObjectRegistry::new();
        let epc = Epc96::from_u128(0xBEEF);
        let case = registry.register("case");
        registry.attach_tag(case, epc);
        let adapters: Vec<_> = (0..2).map(|r| WireEventAdapter::new(r, [epc])).collect();
        let mut config = ServerConfig::new("hunter2");
        config.shards = 3;
        let server = SiteServer::new(&site, &registry, &adapters, config);
        let reader_listener = TcpListener::bind("127.0.0.1:0").expect("bind reader");
        let query_listener = TcpListener::bind("127.0.0.1:0").expect("bind query");
        let reader_addr = reader_listener.local_addr().expect("addr");
        let query_addr = query_listener.local_addr().expect("addr");
        let shutdown = AtomicBool::new(false);
        // The case crosses dock (t=0,1) then aisle (t=2,3).
        let read = |time_s: f64, reader: usize| ReadEvent {
            time_s,
            reader,
            antenna: 0,
            tag: 0,
            epc,
        };
        let dock_reads = vec![read(0.0, 0), read(1.0, 0)];
        let aisle_reads = vec![read(2.0, 1), read(3.0, 1)];

        let report = thread::scope(|scope| {
            let _guard = RaiseOnDrop(&shutdown);
            let daemon = scope.spawn(|| server.run(&reader_listener, &query_listener, &shutdown));
            let dock_portal =
                scope.spawn(|| run_portal(reader_addr, 0, &dock_reads, Duration::ZERO));
            let aisle_portal =
                scope.spawn(|| run_portal(reader_addr, 1, &aisle_reads, Duration::ZERO));
            let mut client = QueryClient::connect(query_addr, "hunter2").expect("connect");
            // Wait until everything both portals fed has been ingested.
            let mut ingested = 0;
            for _ in 0..500 {
                ingested = client.counter("events_ingested").expect("counters");
                if ingested == 4 {
                    break;
                }
                thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(ingested, 4, "both portal feeds fully ingested");
            // Watermarks: dock lane 1.0, aisle lane 3.0 → floor 1.0, so
            // the t=0 dock read is released and answerable live.
            let location = client.location_of(&epc.to_string()).expect("query");
            assert_eq!(location, Some((0, "dock".to_owned())));
            // Wrong token: one error response, then the server closes.
            let mut intruder = QueryClient::connect(query_addr, "wrong").expect("connect");
            assert!(matches!(
                intruder.location_of(&epc.to_string()),
                Err(crate::rpc::RpcError::Denied(_))
            ));
            client.shutdown().expect("shutdown rpc");
            dock_portal
                .join()
                .expect("portal thread")
                .expect("portal io");
            aisle_portal
                .join()
                .expect("portal thread")
                .expect("portal io");
            daemon.join().expect("daemon thread")
        })
        .expect("server run");
        let reads: Vec<ReadEvent> = dock_reads
            .iter()
            .chain(aisle_reads.iter())
            .copied()
            .collect();

        assert_eq!(report.counters.events_ingested, 4);
        assert_eq!(
            report.counters.events_released, 4,
            "shutdown flushed the merge"
        );
        assert_eq!(report.counters.sessions_attached, 2);
        assert_eq!(report.counters.sessions_detached, 2);
        assert_eq!(report.counters.auth_failures, 1);
        assert_eq!(report.counters.session_errors, 0);
        // The drained tracker equals a batch replay of the same reads.
        let mut batch = rfid_track::LocationTracker::new(3600.0);
        batch
            .observe_all(site.observations(&registry, &reads))
            .expect("finite times");
        assert_eq!(report.tracker, batch);
    }
}
