//! What the two daemon workloads share: the site model, the generated
//! reads and their traffic shape, the traced split of
//! `SharedIngest::ingest_records` into the public parts it is built from,
//! and the ingest-plane metrics that split yields.

use crate::report::Metric;
use crate::stats::Rng;
use crate::trace::{durations, Span, Tracer};
use rfid_gen2::Epc96;
use rfid_readerapi::{TagRecord, WireEventAdapter};
use rfid_sim::{mix64, ReadEvent};
use rfid_site_server::{IngestCounters, ServerConfig};
use rfid_track::store::Record;
use rfid_track::stream::{ObservationStream, Operator, SessionMerge, ShardCounters};
use rfid_track::{LocationTracker, ObjectRegistry, Site, ZoneHistoryStore, ZoneObservation};

/// Skew of how often each object is read: rank `k` is read with weight
/// `k^-ZIPF_EXPONENT`. 0.99 is the default Zipfian constant of the YCSB
/// benchmark; no RFID read trace backs it.
pub const ZIPF_EXPONENT: f64 = 0.99;

/// One read in this many moves its object to another zone. Unmeasured:
/// chosen so that most reads confirm a known location while zone
/// histories still hold many transitions.
pub const MOVE_ONE_IN: usize = 32;

/// Whether the next read moves its object.
pub fn moves(rng: &mut Rng) -> bool {
    rng.below(MOVE_ONE_IN) == 0
}

/// One of `zones` zones other than `zone`, uniformly.
pub fn other_zone(zone: u8, zones: usize, rng: &mut Rng) -> u8 {
    ((usize::from(zone) + 1 + rng.below(zones - 1)) % zones) as u8
}

/// The site model the daemon serves: readers whose antennas each watch
/// one zone, and one tag per object.
pub struct World {
    pub site: Site,
    pub registry: ObjectRegistry,
    pub epcs: Vec<Epc96>,
    pub epc_text: Vec<String>,
    pub adapters: Vec<WireEventAdapter>,
}

/// Builds a site with `readers` readers of `antennas` antennas each
/// (antenna `a` of reader `r` watches zone `r * antennas + a`) and
/// `objects` tagged objects whose EPCs derive from `seed`.
pub fn world(seed: u64, readers: usize, antennas: usize, objects: usize) -> World {
    let mut site = Site::new();
    for reader in 0..readers {
        for antenna in 0..antennas {
            let zone = site.add_zone(format!("zone-{}", reader * antennas + antenna));
            site.assign_portal(reader, antenna, zone);
        }
    }
    let prefix = u128::from(mix64(seed) & 0xFFFF_FFFF) << 64;
    let epcs: Vec<Epc96> = (0..objects)
        .map(|i| Epc96::from_u128(prefix | i as u128))
        .collect();
    let mut registry = ObjectRegistry::new();
    for (i, epc) in epcs.iter().enumerate() {
        let object = registry.register(format!("object-{i}"));
        registry.attach_tag(object, *epc);
    }
    World {
        site,
        registry,
        epc_text: epcs.iter().map(ToString::to_string).collect(),
        adapters: (0..readers)
            .map(|reader| WireEventAdapter::new(reader, epcs.iter().copied()))
            .collect(),
        epcs,
    }
}

/// One generated read: which object, seen in which zone, when.
#[derive(Debug, Clone, Copy)]
pub struct Read {
    pub time_s: f64,
    pub object: u32,
    pub zone: u8,
}

impl Read {
    /// The wire record a portal serves for this read (zone `z` is
    /// antenna port `z % antennas + 1` of reader `z / antennas`).
    pub fn record(&self, world: &World, antennas: usize) -> TagRecord {
        TagRecord {
            epc: world.epc_text[self.object as usize].clone(),
            antenna: (usize::from(self.zone) % antennas + 1) as u8,
            time_s: self.time_s,
        }
    }

    pub fn event(&self, world: &World, antennas: usize) -> ReadEvent {
        ReadEvent {
            time_s: self.time_s,
            reader: usize::from(self.zone) / antennas,
            antenna: usize::from(self.zone) % antennas,
            tag: self.object as usize,
            epc: world.epcs[self.object as usize],
        }
    }
}

/// The spans [`split_ingest`] records, one per stage per drain.
const SPLIT_STAGES: [&str; 7] = [
    "readerapi.convert",
    "track.merge",
    "track.observe",
    "track.store_append",
    "track.store_flush",
    "track.tracker",
    "track.tracker_evict_batch",
];

pub struct Split {
    pub tracker: LocationTracker,
    /// Most events the merge ever held back.
    pub held_max: u64,
}

/// Replays recorded drains, `(lane, records)`, stage by stage through
/// the public parts `ingest_records` is built from, one span per stage
/// per drain. With a store, each drain's observations are appended and
/// flushed and the tracker's history is evicted up to the drain's
/// newest read, as the durable plane does.
pub fn split_ingest(
    world: &World,
    drains: &[(usize, Vec<TagRecord>)],
    lanes: usize,
    mut store: Option<&mut ZoneHistoryStore>,
    tracer: &Tracer,
) -> Result<Split, String> {
    let root = tracer.open("ingest_split", None, 0);
    let durable = store.is_some();
    let mut merge: SessionMerge<ReadEvent> = SessionMerge::new(lanes);
    for lane in 0..lanes {
        let _ = merge.attach(lane);
    }
    let mut observe = ObservationStream::new(&world.site, &world.registry);
    let mut tracker = LocationTracker::new(ServerConfig::new("perfbench").staleness_s);
    let mut held_max = 0u64;
    for (lane, records) in drains {
        let adapter = &world.adapters[*lane];
        let events: Vec<ReadEvent> = tracer.span("readerapi.convert", Some(root), 0, || {
            records
                .iter()
                .filter_map(|r| adapter.convert(r).ok())
                .collect()
        });
        let released = tracer.span("track.merge", Some(root), 0, || {
            let mut high = None;
            for event in events {
                if merge.push(*lane, event).is_ok() {
                    high = Some(event.time_s);
                }
            }
            high.map_or_else(Vec::new, |h| merge.advance(*lane, h).unwrap_or_default())
        });
        held_max = held_max.max(merge.len() as u64);
        let observations: Vec<ZoneObservation> =
            tracer.span("track.observe", Some(root), 0, || {
                released
                    .iter()
                    .flat_map(|event| observe.push(*event))
                    .collect()
            });
        if let Some(store) = store.as_deref_mut() {
            tracer.span("track.store_append", Some(root), 0, || {
                for observation in &observations {
                    let _ = store.append(&Record::Observation(*observation));
                }
            });
            tracer
                .span("track.store_flush", Some(root), 0, || store.flush())
                .map_err(|e| e.to_string())?;
        }
        tracer.span("track.tracker", Some(root), 0, || {
            for observation in observations {
                let _ = tracker.push(observation);
            }
        });
        match released.last() {
            Some(high) if durable => {
                tracer.span("track.tracker_evict_batch", Some(root), 0, || {
                    tracker.evict_history_before(high.time_s);
                });
            }
            _ => {}
        }
    }
    tracer.close(root);
    Ok(Split { tracker, held_max })
}

/// The ingest-plane metrics both daemon workloads report, from the
/// `site_server.ingest_records` spans of the run, the [`split_ingest`]
/// spans and the plane's own counters.
pub fn ingest_metrics(
    layers: &mut Vec<Metric>,
    spans: &[Span],
    counters: &IngestCounters,
    shards: &[ShardCounters],
    held_max: u64,
) {
    let ingest = durations(spans, "site_server.ingest_records");
    let stage = |name: &str| durations(spans, name).sum();
    let covered: f64 = SPLIT_STAGES.iter().map(|name| stage(name)).sum();
    let records = counters.records_drained;
    let events = counters.events_released;
    let per = |total: f64, count: u64| total / count.max(1) as f64;
    layers.extend([
        Metric::new(
            "readerapi.convert_ns_per_record",
            "ns",
            per(stage("readerapi.convert"), records),
            records as usize,
        ),
        Metric::count("readerapi.adapter_rejects", counters.adapter_rejects),
        Metric::percentile(
            "site_server.ingest_records_us_p50",
            "us",
            &ingest.scaled(1e-3),
            5000,
        ),
        Metric::percentile(
            "site_server.ingest_records_us_p99",
            "us",
            &ingest.scaled(1e-3),
            9900,
        ),
        Metric::new(
            "site_server.ingest_ns_per_event",
            "ns",
            per(ingest.sum(), events),
            events as usize,
        ),
        Metric::new(
            "site_server.ingest_unattributed_share",
            "ratio",
            1.0 - covered / ingest.sum().max(1.0),
            ingest.len(),
        ),
        Metric::count(
            "site_server.shard_merge_holds",
            shards.iter().map(|c| c.merge_holds).sum(),
        ),
        Metric::count(
            "site_server.shard_max_queue_depth",
            shards.iter().map(|c| c.max_queue_depth).max().unwrap_or(0),
        ),
        Metric::new(
            "track.merge_ns_per_event",
            "ns",
            per(stage("track.merge"), records),
            records as usize,
        ),
        Metric::count("track.merge_held_events", held_max),
        Metric::new(
            "track.observe_ns_per_event",
            "ns",
            per(stage("track.observe"), events),
            events as usize,
        ),
    ]);
}
