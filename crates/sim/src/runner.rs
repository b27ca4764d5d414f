//! The simulation loop: readers cycling inventory rounds over a moving
//! world.

use crate::channel::PortalChannel;
use crate::counters;
use crate::events::EventQueue;
use crate::precompute::ScenarioCache;
use crate::rng::RngStream;
use crate::scenario::Scenario;
use rfid_gen2::{Epc96, RoundLog, TagFsm};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::time::Instant;

/// One successful tag read, attributed to its reader and antenna.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadEvent {
    /// Simulation time of the read.
    pub time_s: f64,
    /// Reader index.
    pub reader: usize,
    /// Antenna port index on that reader.
    pub antenna: usize,
    /// Tag index in the world.
    pub tag: usize,
    /// The EPC read.
    pub epc: Epc96,
}

/// Statistics of one inventory round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundSummary {
    /// Reader index.
    pub reader: usize,
    /// Antenna port used for this round.
    pub antenna: usize,
    /// Round start time.
    pub start_s: f64,
    /// Round duration.
    pub duration_s: f64,
    /// Slots executed.
    pub slots: u32,
    /// Collided slots.
    pub collisions: u32,
    /// Empty slots.
    pub empties: u32,
    /// Successful reads this round.
    pub reads: u32,
}

/// Everything a simulation run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SimOutput {
    /// All reads in time order.
    pub reads: Vec<ReadEvent>,
    /// Per-round statistics in time order.
    pub rounds: Vec<RoundSummary>,
    /// The simulated duration.
    pub duration_s: f64,
}

impl SimOutput {
    /// Whether tag `tag` was read at least once by any reader/antenna.
    #[must_use]
    pub fn tag_was_read(&self, tag: usize) -> bool {
        self.reads.iter().any(|r| r.tag == tag)
    }

    /// Whether tag `tag` was read by the given reader/antenna pair.
    #[must_use]
    pub fn tag_was_read_by(&self, tag: usize, reader: usize, antenna: usize) -> bool {
        self.reads
            .iter()
            .any(|r| r.tag == tag && r.reader == reader && r.antenna == antenna)
    }

    /// The set of distinct tags read.
    #[must_use]
    pub fn tags_read(&self) -> BTreeSet<usize> {
        self.reads.iter().map(|r| r.tag).collect()
    }
}

/// One event from a streaming scenario run, in emission order.
///
/// The callback entry point [`run_scenario_streaming_with`] delivers
/// the simulation as a live event stream instead of a materialized
/// [`SimOutput`], so trials can drive incremental consumers (the
/// `rfid-track` streaming operators) without buffering every read.
///
/// Stream contract:
///
/// * `Watermark(t)` promises that every later event in the stream
///   carries a time `>= t`. Watermarks are non-decreasing (they are the
///   scheduler's event-queue pop times).
/// * `Read` events between two watermarks may interleave out of time
///   order — concurrent inventory rounds on different readers overlap —
///   but never run behind the last watermark. Feed them through a
///   reorder buffer keyed on the watermarks to recover global time
///   order.
/// * `Round` summaries arrive after the reads of their round, at the
///   round's start watermark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimStreamEvent {
    /// All later events have time at or after this.
    Watermark(f64),
    /// A successful tag read.
    Read(ReadEvent),
    /// A completed inventory round.
    Round(RoundSummary),
}

/// A scheduled reader round.
#[derive(Debug, Clone, Copy)]
struct RoundEvent {
    reader: usize,
    port: usize,
    round_no: u64,
}

/// Idle delay before re-checking an antenna that is in an outage window.
const OUTAGE_RETRY_S: f64 = 0.05;

/// Runs a scenario to completion.
///
/// Each reader cycles inventory rounds back to back, rotating through its
/// antenna ports (TDMA, as the paper's readers do); multiple readers run
/// concurrently and interfere per the channel's interference model. All
/// randomness derives from `seed`.
///
/// # Panics
///
/// Panics if the scenario's world fails validation.
#[must_use]
pub fn run_scenario(scenario: &Scenario, seed: u64) -> SimOutput {
    run_scenario_with(scenario, &ScenarioCache::new(scenario), seed)
}

/// [`run_scenario`] sharing a precomputed [`ScenarioCache`] — the batched
/// entry point used by [`crate::TrialExecutor`] so repeated trials of the
/// same scenario skip redundant static-geometry work. Results are
/// bit-identical to [`run_scenario`].
///
/// # Panics
///
/// Panics if the scenario's world fails validation.
#[must_use]
pub fn run_scenario_with(scenario: &Scenario, cache: &ScenarioCache, seed: u64) -> SimOutput {
    run_scenario_impl(scenario, Some(cache), seed)
}

/// The reference implementation of [`run_scenario`]: no [`ScenarioCache`]
/// and every [`PortalChannel`] memo layer disabled, so each channel query
/// re-evaluates geometry, link budget, and interference from scratch.
/// Bit-identical to the memoized paths by contract — property tests and
/// the executor benchmarks compare against it; production code should
/// never need it.
///
/// # Panics
///
/// Panics if the scenario's world fails validation.
#[must_use]
pub fn run_scenario_reference(scenario: &Scenario, seed: u64) -> SimOutput {
    run_scenario_impl(scenario, None, seed)
}

/// Shared scenario loop: `cache = Some` runs the memoized production
/// path, `cache = None` the naive reference path.
fn run_scenario_impl(scenario: &Scenario, cache: Option<&ScenarioCache>, seed: u64) -> SimOutput {
    let mut output = SimOutput {
        duration_s: scenario.duration_s,
        ..SimOutput::default()
    };
    run_scenario_core(scenario, cache, seed, &mut |event| match event {
        SimStreamEvent::Read(read) => output.reads.push(read),
        SimStreamEvent::Round(round) => output.rounds.push(round),
        SimStreamEvent::Watermark(_) => {}
    });
    output.reads.sort_by(|a, b| {
        a.time_s
            .partial_cmp(&b.time_s)
            .expect("read times are finite")
    });
    output
}

/// Runs a scenario as a live event stream: every read, round summary,
/// and scheduler watermark is handed to `sink` the moment it happens,
/// and nothing is buffered. See [`SimStreamEvent`] for the stream
/// contract. [`run_scenario_with`] is exactly this with a `Vec`-collecting
/// sink plus a final stable sort of the reads by time.
///
/// # Panics
///
/// Panics if the scenario's world fails validation.
pub fn run_scenario_streaming_with<F: FnMut(SimStreamEvent)>(
    scenario: &Scenario,
    cache: &ScenarioCache,
    seed: u64,
    mut sink: F,
) {
    run_scenario_core(scenario, Some(cache), seed, &mut sink);
}

/// The one true scenario loop, parameterized over the event sink.
fn run_scenario_core(
    scenario: &Scenario,
    cache: Option<&ScenarioCache>,
    seed: u64,
    sink: &mut dyn FnMut(SimStreamEvent),
) {
    scenario
        .world
        .validate()
        .expect("scenario world must be valid");
    // audit:allow(wall-clock, reason = "perf counter only: elapsed wall time is recorded for diagnostics and never steers the simulation")
    let started = Instant::now();
    counters::record_trial();
    let trial = RngStream::new(seed);
    let world = &scenario.world;

    let mut fsms: Vec<TagFsm> = world.tags.iter().map(|t| TagFsm::new(t.epc)).collect();
    let mut queue: EventQueue<RoundEvent> = EventQueue::new();
    for reader in 0..world.readers.len() {
        // Tiny stagger so co-portal readers do not start in lockstep.
        queue.schedule(
            reader as f64 * 0.003,
            RoundEvent {
                reader,
                port: 0,
                round_no: 0,
            },
        );
    }

    while let Some((t, ev)) = queue.pop() {
        if t >= scenario.duration_s {
            // Events pop in time order, so everything still queued fires
            // at or after `t`: stop instead of draining the queue.
            break;
        }
        // Pops are time-ordered and a round at `t` only produces reads at
        // or after `t`, so each pop time is a valid watermark.
        sink(SimStreamEvent::Watermark(t));
        let ports = world.readers[ev.reader].antennas.len();
        let next_port = (ev.port + 1) % ports;

        if world.readers[ev.reader].antennas[ev.port].is_out(t) {
            queue.schedule(
                t + OUTAGE_RETRY_S,
                RoundEvent {
                    reader: ev.reader,
                    port: next_port,
                    round_no: ev.round_no + 1,
                },
            );
            continue;
        }

        let mut channel = match cache {
            Some(cache) => PortalChannel::with_cache(
                world,
                ev.reader,
                ev.port,
                &scenario.channel,
                trial,
                cache,
            ),
            None => PortalChannel::new(world, ev.reader, ev.port, &scenario.channel, trial)
                .without_memo(),
        };
        let round_seed = trial.value(&[0x0F0F, ev.reader as u64, ev.round_no]);
        // audit:allow(wall-clock, reason = "perf counter only: elapsed wall time is recorded for diagnostics and never steers the simulation")
        let round_started = Instant::now();
        let log =
            scenario
                .engine
                .run_round(&mut fsms, &mut channel, scenario.session, t, round_seed);
        counters::record_round(log.reads.len() as u64, round_started.elapsed());
        for read in &log.reads {
            sink(SimStreamEvent::Read(ReadEvent {
                time_s: read.time_s,
                reader: ev.reader,
                antenna: ev.port,
                tag: read.tag_index,
                epc: read.epc,
            }));
        }
        sink(SimStreamEvent::Round(RoundSummary {
            reader: ev.reader,
            antenna: ev.port,
            start_s: t,
            duration_s: log.duration_s,
            slots: log.slots,
            collisions: log.collisions,
            empties: log.empties,
            reads: log.reads.len() as u32,
        }));

        queue.schedule(
            t + log.duration_s.max(1e-4),
            RoundEvent {
                reader: ev.reader,
                port: next_port,
                round_no: ev.round_no + 1,
            },
        );
    }

    counters::record_scenario_time(started.elapsed());
}

/// Runs exactly one inventory round on one antenna at time `t` — the
/// paper's Figure 2 methodology ("a single read was performed each time").
///
/// # Panics
///
/// Panics if the scenario's world fails validation or the indices are out
/// of range.
#[must_use]
pub fn run_single_round(
    scenario: &Scenario,
    reader: usize,
    port: usize,
    t: f64,
    seed: u64,
) -> RoundLog {
    run_single_round_with(
        scenario,
        &ScenarioCache::new(scenario),
        reader,
        port,
        t,
        seed,
    )
}

/// [`run_single_round`] sharing a precomputed [`ScenarioCache`] — the
/// batched entry point used by [`crate::TrialExecutor::run_round_trials`].
/// Results are bit-identical to [`run_single_round`].
///
/// # Panics
///
/// Panics if the scenario's world fails validation or the indices are out
/// of range.
#[must_use]
pub fn run_single_round_with(
    scenario: &Scenario,
    cache: &ScenarioCache,
    reader: usize,
    port: usize,
    t: f64,
    seed: u64,
) -> RoundLog {
    scenario
        .world
        .validate()
        .expect("scenario world must be valid");
    // audit:allow(wall-clock, reason = "perf counter only: elapsed wall time is recorded for diagnostics and never steers the simulation")
    let started = Instant::now();
    counters::record_trial();
    let trial = RngStream::new(seed);
    let mut fsms: Vec<TagFsm> = scenario
        .world
        .tags
        .iter()
        .map(|tag| TagFsm::new(tag.epc))
        .collect();
    let mut channel = PortalChannel::with_cache(
        &scenario.world,
        reader,
        port,
        &scenario.channel,
        trial,
        cache,
    );
    let log = scenario.engine.run_round(
        &mut fsms,
        &mut channel,
        scenario.session,
        t,
        trial.value(&[0x51, reader as u64, port as u64]),
    );
    counters::record_round(log.reads.len() as u64, started.elapsed());
    counters::record_scenario_time(started.elapsed());
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use crate::world::{SimObject, SimReader};
    use crate::{ChannelParams, Motion};
    use rfid_geom::{Pose, Rotation, Shape, Vec3};
    use rfid_phys::Material;

    /// A pass-by at 1 m/s, 1 m from a single portal antenna at z = 1 m.
    fn pass_by() -> ScenarioBuilder {
        let toward = Rotation::between(Vec3::Y, -Vec3::Y).expect("antiparallel");
        ScenarioBuilder::new()
            .duration_s(4.0)
            .portal_reader(Pose::from_translation(Vec3::new(0.0, 0.0, 1.0)), 1)
            .free_tag(Motion::linear(
                Pose::new(Vec3::new(-2.0, 1.0, 1.0), toward),
                Vec3::new(1.0, 0.0, 0.0),
                0.0,
                4.0,
            ))
    }

    #[test]
    fn unobstructed_pass_is_read() {
        let output = run_scenario(&pass_by().build(), 11);
        assert!(output.tag_was_read(0));
        assert!(!output.rounds.is_empty());
        assert!(output.reads.iter().all(|r| r.time_s <= 4.0 + 0.5));
    }

    #[test]
    fn runs_are_deterministic() {
        let scenario = pass_by().build();
        let a = run_scenario(&scenario, 42);
        let b = run_scenario(&scenario, 42);
        assert_eq!(a, b);
        let c = run_scenario(&scenario, 43);
        // Different seed: at minimum the round boundaries differ.
        assert!(a.rounds != c.rounds || a.reads != c.reads || a == c);
    }

    #[test]
    fn metal_wall_blocks_the_pass() {
        let scenario = pass_by()
            .object(SimObject {
                name: "steel wall".into(),
                shape: Shape::aabb(Vec3::new(3.0, 0.01, 2.0)),
                material: Material::Metal,
                motion: Motion::Static(Pose::from_translation(Vec3::new(0.0, 0.5, 1.0))),
            })
            .build();
        let output = run_scenario(&scenario, 11);
        assert!(!output.tag_was_read(0), "a metal wall must block all reads");
    }

    #[test]
    fn tdma_rotates_antenna_ports() {
        let scenario = ScenarioBuilder::new()
            .duration_s(2.0)
            .portal_reader(Pose::from_translation(Vec3::new(0.0, 0.0, 1.0)), 2)
            .free_tag(Motion::Static(Pose::from_translation(Vec3::new(
                0.0, 1.0, 1.0,
            ))))
            .build();
        let output = run_scenario(&scenario, 3);
        let ports: BTreeSet<usize> = output.rounds.iter().map(|r| r.antenna).collect();
        assert_eq!(ports, BTreeSet::from([0, 1]));
        // Strict alternation.
        for pair in output.rounds.windows(2) {
            assert_ne!(pair[0].antenna, pair[1].antenna);
        }
    }

    #[test]
    fn outage_skips_rounds_on_the_dead_antenna() {
        let mut scenario = pass_by().build();
        scenario.world.readers[0].antennas[0]
            .outages
            .push((0.0, 10.0));
        let output = run_scenario(&scenario, 5);
        assert!(output.rounds.is_empty());
        assert!(!output.tag_was_read(0));
    }

    #[test]
    fn single_round_reads_a_static_boresight_tag() {
        let toward = Rotation::between(Vec3::Y, -Vec3::Y).expect("antiparallel");
        let scenario = ScenarioBuilder::new()
            .portal_reader(Pose::from_translation(Vec3::new(0.0, 0.0, 1.0)), 1)
            .free_tag(Motion::Static(Pose::new(Vec3::new(0.0, 1.0, 1.0), toward)))
            .channel(ChannelParams {
                sigma_tag_db: 0.0,
                sigma_link_db: 0.0,
                rician_k_db: 60.0,
                ..ChannelParams::default()
            })
            .build();
        let log = run_single_round(&scenario, 0, 0, 0.0, 1);
        assert_eq!(log.reads.len(), 1);
    }

    #[test]
    fn two_legacy_readers_hurt_a_marginal_pass() {
        // One reader reads the pass fine; adding a second legacy reader on
        // the portal jams it (the paper's reader-redundancy result).
        let single = pass_by().build();
        let with_second = pass_by()
            .reader(SimReader::ar400(vec![crate::world::Antenna::portal(
                Pose::from_translation(Vec3::new(2.0, 0.0, 1.0)),
            )]))
            .build();
        let reads_single: usize = (0..8)
            .map(|s| usize::from(run_scenario(&single, s).tag_was_read(0)))
            .sum();
        let reads_double: usize = (0..8)
            .map(|s| usize::from(run_scenario(&with_second, s).tag_was_read(0)))
            .sum();
        assert!(
            reads_double < reads_single,
            "two legacy readers: {reads_double}/8 vs one: {reads_single}/8"
        );
    }

    #[test]
    fn streaming_events_rebuild_the_batch_output() {
        let scenario = pass_by().build();
        let batch = run_scenario(&scenario, 11);

        let mut streamed = SimOutput {
            duration_s: scenario.duration_s,
            ..SimOutput::default()
        };
        let mut last_watermark = f64::NEG_INFINITY;
        let cache = ScenarioCache::new(&scenario);
        run_scenario_streaming_with(&scenario, &cache, 11, |event| match event {
            SimStreamEvent::Watermark(t) => {
                assert!(t >= last_watermark, "watermarks must be non-decreasing");
                last_watermark = t;
            }
            SimStreamEvent::Read(read) => {
                assert!(
                    read.time_s >= last_watermark,
                    "read at {} behind watermark {last_watermark}",
                    read.time_s
                );
                streamed.reads.push(read);
            }
            SimStreamEvent::Round(round) => streamed.rounds.push(round),
        });
        streamed.reads.sort_by(|a, b| {
            a.time_s
                .partial_cmp(&b.time_s)
                .expect("read times are finite")
        });
        assert_eq!(streamed, batch);
        assert!(!streamed.reads.is_empty());
    }

    #[test]
    fn output_accessors_agree() {
        let output = run_scenario(&pass_by().build(), 11);
        assert_eq!(output.tags_read().contains(&0), output.tag_was_read(0));
        if output.tag_was_read(0) {
            assert!(output.tag_was_read_by(0, 0, 0));
        }
    }
}
