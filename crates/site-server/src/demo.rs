//! A self-contained demonstration run: synthetic portals, a live
//! server, real TCP, and a batch-equivalence check at the end.
//!
//! [`self_drive`] is what `rfid-site-server --self-drive` and the CI
//! smoke stage execute: build a synthetic site, boot the daemon on
//! ephemeral ports, dial in one portal process per dock door, drive
//! queries over the JSON surface, shut down gracefully, and verify the
//! drained tracker is **bit-identical** to a batch replay of the same
//! recorded reads. The synthetic world builders are public so the
//! daemon's serve mode and the integration tests can load the same
//! topology at other sizes.

use crate::counters::IngestCounters;
use crate::portal::run_portal;
use crate::rpc::QueryClient;
use crate::server::{ServerConfig, SiteServer};
use rfid_gen2::Epc96;
use rfid_readerapi::WireEventAdapter;
use rfid_sim::ReadEvent;
use rfid_track::{LocationTracker, ObjectRegistry, Site};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// Raises the shutdown flag when dropped, so every early-error return
/// out of the demo scope unwinds the daemon and the portal threads
/// instead of deadlocking the scope join.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A synthetic site: `portals` dock doors, each its own zone, and
/// `tags` registered cases with deterministic EPCs.
pub struct SyntheticWorld {
    /// The site model (zone per portal).
    pub site: Site,
    /// The tag registry (one object per tag).
    pub registry: ObjectRegistry,
    /// EPC of each tag, indexed by tag number.
    pub epcs: Vec<Epc96>,
    /// One wire adapter per portal.
    pub adapters: Vec<WireEventAdapter>,
}

/// Builds the deterministic demo topology.
#[must_use]
pub fn synthetic_world(portals: usize, tags: usize) -> SyntheticWorld {
    let mut site = Site::new();
    for p in 0..portals {
        let zone = site.add_zone(format!("zone-{p}"));
        site.assign_portal(p, 0, zone);
    }
    let mut registry = ObjectRegistry::new();
    let epcs: Vec<Epc96> = (0..tags)
        .map(|t| Epc96::from_u128(0xC0DE_0000 + t as u128))
        .collect();
    for (t, epc) in epcs.iter().enumerate() {
        let object = registry.register(format!("case-{t}"));
        registry.attach_tag(object, *epc);
    }
    let adapters: Vec<WireEventAdapter> = (0..portals)
        .map(|p| WireEventAdapter::new(p, epcs.iter().copied()))
        .collect();
    SyntheticWorld {
        site,
        registry,
        epcs,
        adapters,
    }
}

/// The recorded session set: at step `s`, tag `t` is read at portal
/// `(s + t) % portals` — every tag crosses every zone, so transitions
/// fire constantly. Times are globally unique and strictly increasing,
/// and each portal's subsequence is time-ordered, as a real recorded
/// session is.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn recorded_reads(portals: usize, tags: usize, steps: usize) -> Vec<ReadEvent> {
    let mut reads = Vec::with_capacity(steps * tags);
    for s in 0..steps {
        for t in 0..tags {
            reads.push(ReadEvent {
                time_s: (s * tags + t) as f64 * 1e-3,
                reader: (s + t) % portals.max(1),
                antenna: 0,
                tag: t,
                epc: Epc96::from_u128(0xC0DE_0000 + t as u128),
            });
        }
    }
    reads
}

/// What a demo run proved.
#[derive(Debug, Clone)]
pub struct DemoReport {
    /// Portals that connected, fed, and drained.
    pub portals: usize,
    /// Reads recorded and ingested.
    pub events: usize,
    /// Zone transitions the streaming tracker emitted.
    pub transitions: usize,
    /// Final server counters.
    pub counters: IngestCounters,
}

/// Runs the full demonstration; see the module docs for the plot.
///
/// # Errors
///
/// Returns a human-readable description of the first failure — socket
/// errors, a stalled ingest, or (the one that matters) a streamed
/// tracker state that differs from the batch replay.
pub fn self_drive(portals: usize, tags: usize, steps: usize) -> Result<DemoReport, String> {
    let portals = portals.max(1);
    let tags = tags.max(1);
    let steps = steps.max(1);
    let world = synthetic_world(portals, tags);
    let reads = recorded_reads(portals, tags, steps);
    let per_portal: Vec<Vec<ReadEvent>> = (0..portals)
        .map(|p| reads.iter().copied().filter(|r| r.reader == p).collect())
        .collect();

    let token = "self-drive-demo";
    let mut config = ServerConfig::new(token);
    // Exercise the sharded application plane even on small hosts: the
    // batch-equivalence assertion below gates its bit-replayability.
    config.shards = 4;
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

    let report = thread::scope(|scope| -> Result<_, String> {
        let _guard = RaiseOnDrop(&shutdown);
        let daemon = scope.spawn(|| server.run(&reader_listener, &query_listener, &shutdown));
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
        for _ in 0..3000 {
            ingested = client
                .counter("events_ingested")
                .map_err(|e| format!("counters query: {e}"))?;
            if ingested == total {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        if ingested != total {
            return Err(format!("ingest stalled at {ingested}/{total} events"));
        }
        // Exercise the query surface on a few tags.
        for t in 0..tags.min(3) {
            let epc = world.epcs[t].to_string();
            client
                .location_of(&epc)
                .map_err(|e| format!("location_of({epc}): {e}"))?;
            let history = client
                .zone_history(&epc)
                .map_err(|e| format!("zone_history({epc}): {e}"))?;
            if history.is_empty() && steps > 1 {
                return Err(format!("tag {t} has an empty zone history"));
            }
        }
        client
            .shutdown()
            .map_err(|e| format!("shutdown rpc: {e}"))?;
        for (p, handle) in portal_threads.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(format!("portal {p} failed: {e}")),
                Err(_) => return Err(format!("portal {p} thread panicked")),
            }
        }
        match daemon.join() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(format!("server run failed: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    })?;

    // The acceptance bar: the live daemon's final state is the batch
    // pipeline's state, bit for bit.
    let mut batch = LocationTracker::new(staleness_s);
    batch
        .observe_all(world.site.observations(&world.registry, &reads))
        .map_err(|e| format!("batch replay: {e}"))?;
    if report.tracker != batch {
        return Err("streamed tracker state diverged from the batch replay".to_owned());
    }

    Ok(DemoReport {
        portals,
        events: reads.len(),
        transitions: report.transitions.len(),
        counters: report.counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_demo_proves_batch_equivalence_over_real_tcp() {
        let report = self_drive(2, 3, 10).expect("demo run");
        assert_eq!(report.events, 30);
        assert_eq!(report.counters.events_ingested, 30);
        assert_eq!(report.counters.events_released, 30);
        assert!(report.transitions > 0, "tags moved between zones");
        assert_eq!(
            report.counters.sessions_attached,
            report.counters.sessions_detached
        );
    }
}
