//! Durability acceptance for `--store-dir` mode: a daemon run that
//! appends every released observation to a `ZoneHistoryStore` drains
//! to the same state a batch replay produces, a *restarted* daemon
//! recovers that state from disk alone, and the `location_at` query
//! surface answers history — without any of it being panicable from
//! the wire.

use rfid_gen2::Epc96;
use rfid_readerapi::WireEventAdapter;
use rfid_sim::ReadEvent;
use rfid_site_server::{run_portal, QueryClient, RpcError, ServerConfig, SiteServer};
use rfid_track::store::Record;
use rfid_track::stream::Operator;
use rfid_track::{
    LocationTracker, ObjectRegistry, Site, StoreConfig, ZoneHistoryStore, ZoneObservation,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// Raises the shutdown flag when dropped, so a failed assertion in the
/// test scope unwinds the daemon instead of deadlocking the join.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

struct World {
    site: Site,
    registry: ObjectRegistry,
    adapters: Vec<WireEventAdapter>,
    epc: Epc96,
}

/// One case, two portals: reader 0 is the dock, reader 1 the aisle.
fn world() -> World {
    let mut site = Site::new();
    let dock = site.add_zone("dock");
    let aisle = site.add_zone("aisle");
    site.assign_portal(0, 0, dock);
    site.assign_portal(1, 0, aisle);
    let mut registry = ObjectRegistry::new();
    let epc = Epc96::from_u128(0xC0FFEE);
    let case = registry.register("case");
    registry.attach_tag(case, epc);
    let adapters = (0..2).map(|r| WireEventAdapter::new(r, [epc])).collect();
    World {
        site,
        registry,
        adapters,
        epc,
    }
}

fn read(epc: Epc96, time_s: f64, reader: usize) -> ReadEvent {
    ReadEvent {
        time_s,
        reader,
        antenna: 0,
        tag: 0,
        epc,
    }
}

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("store-replay-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one durable daemon over per-portal feeds, returning the
/// drained report after `check` ran against the live query surface.
fn durable_run(
    world: &World,
    dir: &std::path::Path,
    feeds: &[Vec<ReadEvent>],
    check: impl FnOnce(&mut QueryClient) + Send,
) -> rfid_site_server::ServerReport {
    let mut config = ServerConfig::new("store-token");
    config.staleness_s = 3600.0;
    config.shards = 2;
    config.store_dir = Some(dir.to_path_buf());
    let server = SiteServer::new(&world.site, &world.registry, &world.adapters, config);
    let reader_listener = TcpListener::bind("127.0.0.1:0").expect("bind reader port");
    let query_listener = TcpListener::bind("127.0.0.1:0").expect("bind query port");
    let reader_addr = reader_listener.local_addr().expect("reader addr");
    let query_addr = query_listener.local_addr().expect("query addr");
    let shutdown = AtomicBool::new(false);
    let total: u64 = feeds.iter().map(|f| f.len() as u64).sum();

    thread::scope(|scope| {
        let _guard = RaiseOnDrop(&shutdown);
        let daemon = scope.spawn(|| server.run(&reader_listener, &query_listener, &shutdown));
        let portals: Vec<_> = feeds
            .iter()
            .enumerate()
            .map(|(p, chunk)| {
                scope.spawn(move || run_portal(reader_addr, p, chunk, Duration::ZERO))
            })
            .collect();
        let mut client = QueryClient::connect(query_addr, "store-token").expect("connect");
        let mut ingested = 0;
        for _ in 0..1000 {
            ingested = client.counter("events_ingested").expect("counters rpc");
            if ingested == total {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ingested, total, "every feed read reaches the merge");
        check(&mut client);
        client.shutdown().expect("shutdown rpc");
        for portal in portals {
            portal
                .join()
                .expect("portal thread")
                .expect("portal session");
        }
        daemon.join().expect("daemon thread")
    })
    .expect("server run")
}

#[test]
fn a_durable_run_drains_to_the_batch_state_and_replays_from_disk_alone() {
    let world = world();
    let dir = store_dir("replay");
    // The case crosses dock (t=0,1) then aisle (t=2,3); distinct times
    // keep the canonical merge order unambiguous across lanes.
    let feeds = vec![
        vec![read(world.epc, 0.0, 0), read(world.epc, 1.0, 0)],
        vec![read(world.epc, 2.0, 1), read(world.epc, 3.0, 1)],
    ];
    let epc_text = world.epc.to_string();
    let report = durable_run(&world, &dir, &feeds, |client| {
        // The released prefix is queryable back in time while live.
        let at_dock = client.location_at(&epc_text, 1.5).expect("location_at rpc");
        assert_eq!(at_dock, Some((0, "dock".to_owned())));
    });

    // The batch reference over the same reads in canonical order.
    let reads: Vec<ReadEvent> = feeds.concat();
    let mut batch = LocationTracker::new(3600.0);
    batch
        .observe_all(world.site.observations(&world.registry, &reads))
        .expect("finite times");
    assert_eq!(
        report.tracker, batch,
        "durable drain equals the batch replay bit for bit"
    );
    assert_eq!(report.counters.store_appends, 4);
    assert_eq!(report.counters.store_errors, 0);
    assert_eq!(report.counters.store_recovered, 0, "the store began empty");

    // Replay from disk alone — no daemon, no sessions — reaches the
    // identical tracker: recovery IS the report path.
    let store = ZoneHistoryStore::open(&dir, StoreConfig::default()).expect("reopen store");
    assert_eq!(store.len(), 4);
    let mut replayed = LocationTracker::new(3600.0);
    replayed
        .observe_all(store.observations().expect("replay stream"))
        .expect("stored times are finite");
    assert_eq!(replayed, batch, "disk replay equals the live run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restarted_daemon_recovers_the_store_and_continues_the_history() {
    let world = world();
    let dir = store_dir("restart");
    let epc_text = world.epc.to_string();

    // Run 1: dock at t=0,1 and aisle at t=2,3.
    let first = vec![
        vec![read(world.epc, 0.0, 0), read(world.epc, 1.0, 0)],
        vec![read(world.epc, 2.0, 1), read(world.epc, 3.0, 1)],
    ];
    durable_run(&world, &dir, &first, |_| {});

    // Run 2, same directory: the case returns to the dock at t=4,5.
    // `with_store` must recover the four stored observations before
    // accepting connections, and the history must answer across the
    // restart boundary.
    let second = vec![
        vec![read(world.epc, 4.0, 0), read(world.epc, 5.0, 0)],
        Vec::new(),
    ];
    let report = durable_run(&world, &dir, &second, |client| {
        let before_restart = client.location_at(&epc_text, 2.5).expect("location_at rpc");
        assert_eq!(
            before_restart,
            Some((1, "aisle".to_owned())),
            "history from the previous run answers after the restart"
        );
        // The counter holds this run's transitions only: the return to
        // the dock once t=4 is released, none of run 1's.
        let released = client.counter("events_released").expect("counters rpc");
        let transitions = client.counter("transitions").expect("counters rpc");
        assert_eq!(
            transitions,
            u64::from(released > 0),
            "released = {released}"
        );
    });

    assert_eq!(report.counters.store_recovered, 4, "run 1's observations");
    assert_eq!(report.counters.transitions, 1, "run 2's return to the dock");
    assert_eq!(report.counters.store_appends, 2, "run 2's observations");
    assert_eq!(report.counters.store_errors, 0);

    // The drained state equals one batch over BOTH runs' reads.
    let reads: Vec<ReadEvent> = first.concat().into_iter().chain(second.concat()).collect();
    let mut batch = LocationTracker::new(3600.0);
    batch
        .observe_all(world.site.observations(&world.registry, &reads))
        .expect("finite times");
    assert_eq!(
        report.tracker, batch,
        "restart + continuation equals one uninterrupted run"
    );
    let batch_transitions =
        LocationTracker::new(3600.0).run_batch(world.site.observations(&world.registry, &reads));
    assert_eq!(batch_transitions.len(), 3, "dock, aisle, dock again");
    assert_eq!(
        report.transitions, batch_transitions,
        "the report carries both runs' transitions"
    );

    // And the store now holds the full six-observation history.
    let store = ZoneHistoryStore::open(&dir, StoreConfig::default()).expect("reopen store");
    assert_eq!(store.len(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_query_times_are_errors_not_panics() {
    let world = world();
    let dir = store_dir("hostile");
    let feeds = [
        vec![read(world.epc, 0.0, 0), read(world.epc, 1.0, 0)],
        vec![read(world.epc, 2.0, 1), read(world.epc, 3.0, 1)],
    ];
    let epc_text = world.epc.to_string();

    let mut config = ServerConfig::new("store-token");
    config.staleness_s = 3600.0;
    config.store_dir = Some(dir.clone());
    let server = SiteServer::new(&world.site, &world.registry, &world.adapters, config);
    let reader_listener = TcpListener::bind("127.0.0.1:0").expect("bind reader port");
    let query_listener = TcpListener::bind("127.0.0.1:0").expect("bind query port");
    let reader_addr = reader_listener.local_addr().expect("reader addr");
    let query_addr = query_listener.local_addr().expect("query addr");
    let shutdown = AtomicBool::new(false);

    thread::scope(|scope| {
        let _guard = RaiseOnDrop(&shutdown);
        let daemon = scope.spawn(|| server.run(&reader_listener, &query_listener, &shutdown));
        let portals: Vec<_> = feeds
            .iter()
            .enumerate()
            .map(|(p, chunk)| {
                scope.spawn(move || run_portal(reader_addr, p, chunk, Duration::ZERO))
            })
            .collect();
        let mut client = QueryClient::connect(query_addr, "store-token").expect("connect");
        let mut ingested = 0;
        for _ in 0..1000 {
            ingested = client.counter("events_ingested").expect("counters rpc");
            if ingested == 4 {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ingested, 4);

        // The typed client refuses to put a non-finite time on the wire.
        assert!(matches!(
            client.location_at(&epc_text, f64::NAN),
            Err(RpcError::Protocol(_))
        ));

        // A raw connection smuggling `1e999` (infinite once parsed) in
        // `time_s` gets a typed error frame, and the connection — and
        // the daemon — survive to answer the next request.
        let stream = TcpStream::connect(query_addr).expect("raw connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut lines = BufReader::new(stream);
        let hostile = format!(
            "{{\"token\":\"store-token\",\"method\":\"location_at\",\
             \"params\":{{\"epc\":\"{epc_text}\",\"time_s\":1e999}}}}\n"
        );
        writer.write_all(hostile.as_bytes()).expect("send hostile");
        let mut response = String::new();
        lines.read_line(&mut response).expect("hostile response");
        assert!(
            response.contains("\"ok\":false"),
            "hostile time must be a typed error frame, got: {response}"
        );
        // Watermark floor is the dock lane's 1.0, so t=0 is released
        // (and stored) for sure; query inside that prefix.
        let followup = format!(
            "{{\"token\":\"store-token\",\"method\":\"location_at\",\
             \"params\":{{\"epc\":\"{epc_text}\",\"time_s\":0.5}}}}\n"
        );
        writer
            .write_all(followup.as_bytes())
            .expect("send followup");
        response.clear();
        lines.read_line(&mut response).expect("followup response");
        assert!(
            response.contains("\"ok\":true") && response.contains("dock"),
            "the connection answers normally after the hostile frame, got: {response}"
        );

        client.shutdown().expect("shutdown rpc");
        for portal in portals {
            portal
                .join()
                .expect("portal thread")
                .expect("portal session");
        }
        daemon.join().expect("daemon thread")
    })
    .expect("server run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Segment bytes are hostile input: a CRC-valid observation may name a
/// zone the daemon's site does not have, and every query about its
/// object would then panic naming it. A daemon booted on such a store
/// must refuse it, naming the segment and the zone, before it serves.
#[test]
fn a_store_with_a_zone_the_site_lacks_is_refused_at_boot() {
    let world = world();
    let dir = store_dir("unknown-zone");
    let case = world.registry.object_of(world.epc).expect("registered");
    let mut store = ZoneHistoryStore::open(
        &dir,
        StoreConfig {
            records_per_segment: 2,
        },
    )
    .expect("open store");
    // Segment 0 holds the dock and the aisle; segment 1 holds zone 7.
    for (zone, time_s) in [(0, 0.0), (1, 1.0), (7, 2.0)] {
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
    drop(store);
    // Recovery accepts every frame: the store is sound, but not this
    // site's.
    let reopened = ZoneHistoryStore::open(&dir, StoreConfig::default()).expect("reopen store");
    assert_eq!(reopened.len(), 3);
    drop(reopened);

    let mut config = ServerConfig::new("store-token");
    config.store_dir = Some(dir.clone());
    let server = SiteServer::new(&world.site, &world.registry, &world.adapters, config);
    let reader_listener = TcpListener::bind("127.0.0.1:0").expect("bind reader port");
    let query_listener = TcpListener::bind("127.0.0.1:0").expect("bind query port");
    // Raised before the run: a daemon that boots drains at once.
    let shutdown = AtomicBool::new(true);
    let booted = server.run(&reader_listener, &query_listener, &shutdown);
    let refused = booted.expect_err("the daemon must not boot on the store");
    assert_eq!(
        refused.to_string(),
        "segment 1 holds zone 7, which the site does not have"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
