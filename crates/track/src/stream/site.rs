//! Online zone mapping and location tracking.

use crate::constraints::ZoneObservation;
use crate::registry::{ObjectHandle, ObjectRegistry};
use crate::site::{LocationTracker, Site};
use crate::stream::smoothing::OrderGuard;
use crate::stream::Operator;
use rfid_sim::ReadEvent;
use serde::{Deserialize, Serialize};

/// An object's location estimate changing zone.
///
/// Emitted by the [`LocationTracker`] operator whenever an observation
/// moves an object's "last seen" zone — including the first time an
/// object is seen at all (`from` is `None`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoneTransition {
    /// The object that moved.
    pub object: ObjectHandle,
    /// The zone it was last estimated in, if it had ever been seen.
    pub from: Option<usize>,
    /// The zone it is now estimated in.
    pub to: usize,
    /// Time of the observation that caused the move.
    pub time_s: f64,
}

/// Maps time-ordered raw reads to [`ZoneObservation`]s: the incremental
/// engine behind [`Site::observations`].
///
/// Pure per-event mapping: reads from unassigned portals or unknown
/// tags are dropped, every other read becomes one observation at the
/// read's own time. The operator is watermark-preserving, so it can sit
/// upstream of windowed operators in a
/// [`Chain`](crate::stream::Chain) without weakening their flushes.
#[derive(Debug, Clone)]
pub struct ObservationStream<'a> {
    site: &'a Site,
    registry: &'a ObjectRegistry,
    guard: OrderGuard,
}

impl<'a> ObservationStream<'a> {
    /// Creates the mapping operator over a site and a tag registry.
    #[must_use]
    pub fn new(site: &'a Site, registry: &'a ObjectRegistry) -> Self {
        Self {
            site,
            registry,
            guard: OrderGuard::new(),
        }
    }
}

impl Operator for ObservationStream<'_> {
    type In = ReadEvent;
    type Out = ZoneObservation;

    fn push(&mut self, input: ReadEvent) -> Vec<ZoneObservation> {
        self.guard.admit(input.time_s);
        let mapped = self
            .site
            .zone_of_portal(input.reader, input.antenna)
            .and_then(|zone| {
                self.registry
                    .object_of(input.epc)
                    .map(|object| ZoneObservation {
                        object,
                        zone,
                        time_s: input.time_s,
                        inferred: false,
                    })
            });
        mapped.map_or_else(Vec::new, |obs| vec![obs])
    }

    fn advance_watermark(&mut self, watermark_s: f64) -> Vec<ZoneObservation> {
        self.guard.advance(watermark_s);
        Vec::new()
    }

    fn finish(&mut self) -> Vec<ZoneObservation> {
        Vec::new()
    }

    fn watermark_preserving(&self) -> bool {
        true
    }
}

/// [`LocationTracker`] consumes observations online and emits
/// [`ZoneTransition`]s the moment an object's estimate moves.
///
/// The tracker was always an online structure ([`LocationTracker::observe`]
/// tolerates out-of-order feeds); this impl adds the operator face so it
/// can terminate a streaming [`Chain`](crate::stream::Chain). A
/// transition fires when an observation at or after the object's latest
/// known time lands in a different zone (staleness affects queries, not
/// transitions). Late out-of-order observations are recorded in history
/// but never emit. An observation with a non-finite time is dropped
/// (the typed-error face is [`LocationTracker::observe`]; the operator
/// face must not panic mid-stream), emitting nothing.
impl Operator for LocationTracker {
    type In = ZoneObservation;
    type Out = ZoneTransition;

    fn push(&mut self, input: ZoneObservation) -> Vec<ZoneTransition> {
        let Ok(previous) = self.record(input) else {
            return Vec::new();
        };
        let moved = match previous {
            None => Some(None),
            Some((zone, time_s)) if input.time_s >= time_s && input.zone != zone => {
                Some(Some(zone))
            }
            Some(_) => None,
        };
        moved.map_or_else(Vec::new, |from| {
            vec![ZoneTransition {
                object: input.object,
                from,
                to: input.zone,
                time_s: input.time_s,
            }]
        })
    }

    fn advance_watermark(&mut self, _watermark_s: f64) -> Vec<ZoneTransition> {
        Vec::new()
    }

    fn finish(&mut self) -> Vec<ZoneTransition> {
        Vec::new()
    }

    fn watermark_preserving(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_gen2::Epc96;

    fn fixtures() -> (Site, ObjectRegistry, ObjectHandle) {
        let mut site = Site::new();
        let dock = site.add_zone("dock");
        let aisle = site.add_zone("aisle");
        site.assign_portal(0, 0, dock);
        site.assign_portal(1, 0, aisle);
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        registry.attach_tag(case, Epc96::from_u128(5));
        (site, registry, case)
    }

    fn read(time_s: f64, reader: usize) -> ReadEvent {
        ReadEvent {
            time_s,
            reader,
            antenna: 0,
            tag: 0,
            epc: Epc96::from_u128(5),
        }
    }

    #[test]
    fn observation_stream_matches_batch() {
        let (site, registry, _) = fixtures();
        let reads = vec![read(1.0, 0), read(2.0, 9), read(3.0, 1)];
        let batch = site.observations(&registry, &reads);
        let mut op = ObservationStream::new(&site, &registry);
        assert_eq!(op.run_batch(reads), batch);
    }

    #[test]
    fn tracker_emits_transitions_on_zone_change() {
        let (site, registry, case) = fixtures();
        let mut chain = ObservationStream::new(&site, &registry).then(LocationTracker::new(10.0));
        let first = chain.push(read(1.0, 0));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].from, None);
        assert_eq!(first[0].to, 0);
        assert!(chain.push(read(2.0, 0)).is_empty(), "same zone: no move");
        let moved = chain.push(read(3.0, 1));
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].from, Some(0));
        assert_eq!(moved[0].to, 1);
        assert_eq!(moved[0].object, case);
        assert!(chain.finish().is_empty());
        assert_eq!(chain.second().location_of(case, 3.5), Some(1));
    }

    #[test]
    fn late_observations_never_emit_transitions() {
        let mut tracker = LocationTracker::new(10.0);
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        let obs = |zone, time_s| ZoneObservation {
            object: case,
            zone,
            time_s,
            inferred: false,
        };
        assert_eq!(tracker.push(obs(1, 5.0)).len(), 1);
        assert!(tracker.push(obs(0, 2.0)).is_empty(), "stale: no transition");
        assert_eq!(tracker.location_of(case, 6.0), Some(1));
        assert_eq!(tracker.history_of(case).count(), 2, "still recorded");
    }

    #[test]
    fn non_finite_observations_are_dropped_not_panicked() {
        let mut tracker = LocationTracker::new(10.0);
        let mut registry = ObjectRegistry::new();
        let case = registry.register("case");
        let obs = |zone, time_s| ZoneObservation {
            object: case,
            zone,
            time_s,
            inferred: false,
        };
        assert_eq!(tracker.push(obs(1, 1.0)).len(), 1);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                tracker.push(obs(0, bad)).is_empty(),
                "{bad} must be dropped"
            );
        }
        assert_eq!(
            tracker.history_of(case).count(),
            1,
            "rejected, not recorded"
        );
        assert_eq!(tracker.location_of(case, 2.0), Some(1));
    }
}
