//! The reader-side inventory round: slotted ALOHA with the Q algorithm.

use crate::channel::AirChannel;
use crate::tag::{InventoriedFlag, Session, TagFsm};
use crate::timing::LinkTiming;
use crate::Epc96;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Safety cap on slots per round so a pathological configuration cannot
/// loop forever (the spec's Q is at most 15, i.e. 32768 slots).
const MAX_SLOTS_PER_ROUND: u32 = 1 << 16;

/// Parameters of the reader's Q-selection algorithm.
///
/// The floating-point Q value `Qfp` is nudged up on collisions and down on
/// empty slots; whenever `round(Qfp)` departs from the Q in use, the reader
/// issues a QueryAdjust, which also re-randomizes every arbitrating tag —
/// including those that collided earlier and would otherwise stay silent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QAlgorithm {
    /// Initial Q for each round.
    pub q0: u8,
    /// Step applied to `Qfp` per collision (up) or empty slot (down).
    /// The spec recommends `0.1 <= C < 0.5`.
    pub c: f64,
    /// Lower clamp for Q.
    pub min_q: u8,
    /// Upper clamp for Q.
    pub max_q: u8,
}

impl Default for QAlgorithm {
    fn default() -> Self {
        Self {
            q0: 4,
            c: 0.3,
            min_q: 0,
            max_q: 15,
        }
    }
}

/// One successful singulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagRead {
    /// Index of the tag in the population slice.
    pub tag_index: usize,
    /// The EPC that was read.
    pub epc: Epc96,
    /// Simulation time of the read, in seconds.
    pub time_s: f64,
    /// Slot number (within the round) where the read happened.
    pub slot: u32,
}

/// What happened in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotOutcome {
    /// No tag replied.
    Empty,
    /// Two or more tags replied; nothing decodable.
    Collision,
    /// Exactly one tag replied but the channel corrupted the exchange.
    SingleFailed,
    /// Exactly one tag replied and its EPC was read.
    Success,
}

/// The log of one inventory round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RoundLog {
    /// Successful reads, in slot order.
    pub reads: Vec<TagRead>,
    /// Total slots executed.
    pub slots: u32,
    /// Collided slots.
    pub collisions: u32,
    /// Empty slots.
    pub empties: u32,
    /// Slots where a lone reply was lost to the channel.
    pub singles_failed: u32,
    /// QueryAdjust commands issued.
    pub adjusts: u32,
    /// Wall-clock duration of the round in seconds (air time + overhead).
    pub duration_s: f64,
}

impl RoundLog {
    /// EPCs read this round, deduplicated in arrival order.
    #[must_use]
    pub fn unique_epcs(&self) -> Vec<Epc96> {
        let mut seen = std::collections::BTreeSet::new();
        self.reads
            .iter()
            .filter(|r| seen.insert(r.epc))
            .map(|r| r.epc)
            .collect()
    }
}

/// A Gen-2 reader's inventory engine for one antenna port.
///
/// # Examples
///
/// Collisions resolve across slots — start 20 tags in a round with a small
/// initial Q and watch the Q algorithm sort them out:
///
/// ```
/// use rfid_gen2::{Epc96, InventoryEngine, PerfectChannel, QAlgorithm, Session, TagFsm};
///
/// let mut tags: Vec<TagFsm> = (0..20).map(|i| TagFsm::new(Epc96::from_u128(i))).collect();
/// let mut engine = InventoryEngine::default();
/// engine.q_algo = QAlgorithm { q0: 1, ..QAlgorithm::default() };
/// let log = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, 1);
/// assert_eq!(log.reads.len(), 20);
/// assert!(log.collisions > 0, "Q=1 with 20 tags must collide first");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InventoryEngine {
    /// Link timing in force.
    pub timing: LinkTiming,
    /// Q-algorithm parameters.
    pub q_algo: QAlgorithm,
    /// Inventoried-flag value the rounds target (normally A).
    pub target: InventoriedFlag,
    /// Wall-clock budget for one round. A reader in buffered mode cycles
    /// rounds continuously; tags it could not resolve in this round rejoin
    /// at the next Query. The budget bounds pathological retry loops (a
    /// tag whose reply never decodes); it does not distort fading physics
    /// because the [`AirChannel`] is queried with the current time and
    /// fades evolve *within* a round.
    pub max_round_s: f64,
}

impl Default for InventoryEngine {
    fn default() -> Self {
        Self {
            timing: LinkTiming::default(),
            q_algo: QAlgorithm::default(),
            target: InventoriedFlag::A,
            max_round_s: 0.5,
        }
    }
}

impl InventoryEngine {
    /// Runs one full inventory round over `tags`, starting at
    /// `start_time_s`, using `channel` as RF truth and `seed` for the
    /// tags' slot/RN16 draws.
    ///
    /// Tags that cannot hear the opening Query (unpowered / out of range
    /// per the channel) sit the round out, like a dark passive tag.
    pub fn run_round<C: AirChannel + ?Sized>(
        &self,
        tags: &mut [TagFsm],
        channel: &mut C,
        session: Session,
        start_time_s: f64,
        seed: u64,
    ) -> RoundLog {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut log = RoundLog::default();
        let mut now = start_time_s;

        // Query: tags that hear it and match the target flag join.
        now += self.timing.query_s();
        let mut participating = Vec::new();
        for (i, tag) in tags.iter_mut().enumerate() {
            if channel.reader_to_tag_ok(i, now)
                && tag.begin_round(session, self.target, self.q_algo.q0, now, &mut rng)
            {
                participating.push(i);
            }
        }

        let mut q = self.q_algo.q0;
        let mut qfp = f64::from(q);
        let mut remaining: u32 = 1 << q;

        loop {
            if log.slots >= MAX_SLOTS_PER_ROUND
                || now - start_time_s > self.max_round_s
                || participating.iter().all(|&i| !tags[i].is_in_round())
            {
                break;
            }
            if remaining == 0 {
                // Slot pool exhausted with tags still unresolved: the
                // reader re-arms the round (QueryAdjust at the current Q),
                // which re-randomizes everyone still arbitrating.
                remaining = 1 << q;
                log.adjusts += 1;
                now += self.timing.query_rep_s();
                for &i in &participating {
                    tags[i].on_query_adjust(q, &mut rng);
                }
            }
            // Who is replying in this slot? The first two repliers
            // settle the slot; a collision NAKs every replier in a second
            // pass.
            let mut responders = participating
                .iter()
                .copied()
                .filter(|&i| tags[i].state() == crate::TagState::Reply);
            let (first, second) = (responders.next(), responders.next());

            let outcome = match (first, second) {
                (None, _) => {
                    now += self.timing.empty_slot_s();
                    qfp = (qfp - self.q_algo.c).max(f64::from(self.q_algo.min_q));
                    SlotOutcome::Empty
                }
                (Some(i), None) => {
                    // A full singulation queries the channel three times at
                    // the *same* (tag, now): RN16 backscatter, ACK command,
                    // EPC backscatter. `now` only advances once the slot's
                    // outcome is known, so channel implementations may (and
                    // `rfid_sim::PortalChannel` does) memoize per (tag, t)
                    // — the repeat queries are free, and the per-query RNG
                    // is addressed by identity so the answers are
                    // unchanged.
                    let rn16_ok = channel.tag_to_reader_ok(i, now);
                    if !rn16_ok {
                        now += self.timing.collision_slot_s();
                        tags[i].on_nak();
                        SlotOutcome::SingleFailed
                    } else {
                        // ACK handshake: tag must hear the ACK, then the
                        // reader must decode the EPC backscatter.
                        let ack_heard = channel.reader_to_tag_ok(i, now);
                        let rn16 = tags[i].rn16();
                        if ack_heard && tags[i].on_ack(rn16, now) {
                            let epc_ok = channel.tag_to_reader_ok(i, now);
                            now += self.timing.success_slot_s();
                            if epc_ok {
                                tags[i].on_singulated(now);
                                log.reads.push(TagRead {
                                    tag_index: i,
                                    epc: tags[i].epc(),
                                    time_s: now,
                                    slot: log.slots,
                                });
                                SlotOutcome::Success
                            } else {
                                tags[i].on_nak();
                                SlotOutcome::SingleFailed
                            }
                        } else {
                            now += self.timing.collision_slot_s();
                            tags[i].on_nak();
                            SlotOutcome::SingleFailed
                        }
                    }
                }
                (Some(_), Some(_)) => {
                    now += self.timing.collision_slot_s();
                    for &i in &participating {
                        if tags[i].state() == crate::TagState::Reply {
                            tags[i].on_nak();
                        }
                    }
                    qfp = (qfp + self.q_algo.c).min(f64::from(self.q_algo.max_q));
                    SlotOutcome::Collision
                }
            };

            log.slots += 1;
            remaining -= 1;
            match outcome {
                SlotOutcome::Empty => log.empties += 1,
                SlotOutcome::Collision => log.collisions += 1,
                SlotOutcome::SingleFailed => log.singles_failed += 1,
                SlotOutcome::Success => {}
            }

            // QueryAdjust if the rounded Qfp moved; this re-randomizes all
            // arbitrating tags (recovering earlier collision losers).
            let q_new = qfp.round() as u8;
            if q_new != q {
                q = q_new;
                remaining = 1 << q;
                log.adjusts += 1;
                now += self.timing.query_rep_s();
                for &i in &participating {
                    tags[i].on_query_adjust(q, &mut rng);
                }
            } else if remaining > 0 {
                // QueryRep opens the next slot (its air time is accounted
                // for in the per-slot costs above).
                for &i in &participating {
                    tags[i].on_query_rep();
                }
            }
        }

        log.duration_s = (now - start_time_s) + self.timing.reader_overhead_s;
        log
    }

    /// Runs rounds back to back until `deadline_s`, returning all logs.
    /// This is the reader's "buffered (continuous) read mode" from the
    /// paper's methodology.
    pub fn run_until<C: AirChannel + ?Sized>(
        &self,
        tags: &mut [TagFsm],
        channel: &mut C,
        session: Session,
        start_time_s: f64,
        deadline_s: f64,
        seed: u64,
    ) -> Vec<RoundLog> {
        let mut logs = Vec::new();
        let mut now = start_time_s;
        let mut round = 0u64;
        while now < deadline_s {
            let log = self.run_round(tags, channel, session, now, seed ^ round);
            now += log.duration_s.max(1e-6);
            logs.push(log);
            round += 1;
        }
        logs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ErasureChannel, PerfectChannel};

    fn population(n: usize) -> Vec<TagFsm> {
        (0..n)
            .map(|i| TagFsm::new(Epc96::from_u128(i as u128)))
            .collect()
    }

    #[test]
    fn perfect_channel_reads_everyone_exactly_once() {
        let mut tags = population(30);
        let engine = InventoryEngine::default();
        let log = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, 7);
        assert_eq!(log.reads.len(), 30);
        assert_eq!(log.unique_epcs().len(), 30);
        for tag in &tags {
            assert_eq!(tag.read_count(), 1);
        }
    }

    /// Records every `(tag, time_s)` query so we can assert the repeat
    /// pattern that channel-side memoization exploits.
    struct RecordingChannel {
        queries: Vec<(usize, u64)>,
    }

    impl AirChannel for RecordingChannel {
        fn reader_to_tag_ok(&mut self, tag: usize, time_s: f64) -> bool {
            self.queries.push((tag, time_s.to_bits()));
            true
        }
        fn tag_to_reader_ok(&mut self, tag: usize, time_s: f64) -> bool {
            self.queries.push((tag, time_s.to_bits()));
            true
        }
    }

    #[test]
    fn success_slot_queries_the_channel_thrice_at_one_instant() {
        // The contract the PortalChannel round memo relies on: a clean
        // singulation asks the channel three questions (RN16, ACK, EPC)
        // without advancing time between them.
        let mut tags = population(1);
        let engine = InventoryEngine::default();
        let mut channel = RecordingChannel {
            queries: Vec::new(),
        };
        let log = engine.run_round(&mut tags, &mut channel, Session::S1, 0.0, 7);
        assert_eq!(log.reads.len(), 1);
        // queries[0] is the opening Query energization check; the success
        // slot itself is the final three entries.
        let (tag, t_bits) = *channel.queries.last().expect("slot queries");
        assert_eq!(
            channel
                .queries
                .iter()
                .filter(|&&q| q == (tag, t_bits))
                .count(),
            3,
            "rn16 + ack + epc should share one (tag, t): {:?}",
            channel.queries
        );
    }

    #[test]
    fn read_tags_sit_out_the_next_round() {
        let mut tags = population(5);
        let engine = InventoryEngine::default();
        let first = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, 1);
        assert_eq!(first.reads.len(), 5);
        // Immediately afterwards (< persistence), all flags are B.
        let second = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.1, 2);
        assert!(second.reads.is_empty());
        // After the S1 persistence expires, they are readable again.
        let later = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 10.0, 3);
        assert_eq!(later.reads.len(), 5);
    }

    #[test]
    fn q_algorithm_resolves_undersized_initial_q() {
        let mut tags = population(25);
        let mut engine = InventoryEngine::default();
        engine.q_algo.q0 = 0;
        let log = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, 3);
        assert_eq!(log.reads.len(), 25, "Q must grow to resolve 25 tags");
        assert!(log.adjusts > 0);
        assert!(log.collisions > 0);
    }

    #[test]
    fn oversized_q_decays() {
        let mut tags = population(2);
        let mut engine = InventoryEngine::default();
        engine.q_algo.q0 = 8;
        let log = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, 3);
        assert_eq!(log.reads.len(), 2);
        assert!(log.adjusts > 0, "Q should shrink from 8");
    }

    #[test]
    fn dead_channel_reads_nothing() {
        let mut tags = population(10);
        let engine = InventoryEngine::default();
        let mut channel = ErasureChannel::new(0.0, 1.0, 5);
        let log = engine.run_round(&mut tags, &mut channel, Session::S1, 0.0, 9);
        assert!(log.reads.is_empty());
        // Nobody heard the Query: round collapses quickly.
        assert!(log.slots <= (1 << engine.q_algo.q0));
    }

    #[test]
    fn lossy_reverse_link_loses_some_tags() {
        let mut tags = population(20);
        let engine = InventoryEngine::default();
        // Both RN16 and EPC must survive, so p(read per try) = 0.09; the
        // round budget bounds the retries.
        let mut channel = ErasureChannel::new(1.0, 0.3, 11);
        let log = engine.run_round(&mut tags, &mut channel, Session::S1, 0.0, 13);
        assert!(log.reads.len() < 20, "read {} of 20", log.reads.len());
        assert!(log.singles_failed > 0);
        assert!(!log.reads.is_empty(), "p=0.3 should still read some");
    }

    #[test]
    fn round_budget_bounds_duration() {
        let mut tags = population(10);
        let engine = InventoryEngine::default();
        // Reverse link almost dead: without the budget the round would
        // retry indefinitely.
        let mut channel = ErasureChannel::new(1.0, 0.01, 3);
        let log = engine.run_round(&mut tags, &mut channel, Session::S1, 0.0, 5);
        assert!(
            log.duration_s < engine.max_round_s + engine.timing.reader_overhead_s + 0.05,
            "duration = {} s",
            log.duration_s
        );
    }

    #[test]
    fn continuous_mode_catches_stragglers() {
        let mut tags = population(20);
        let engine = InventoryEngine::default();
        // Harsh channel per round, but many rounds.
        let mut channel = ErasureChannel::new(0.9, 0.6, 17);
        let logs = engine.run_until(&mut tags, &mut channel, Session::S1, 0.0, 5.0, 23);
        assert!(logs.len() > 1, "several rounds should fit in 5 s");
        let unique: std::collections::HashSet<Epc96> = logs
            .iter()
            .flat_map(|l| l.reads.iter().map(|r| r.epc))
            .collect();
        assert_eq!(unique.len(), 20, "every tag is eventually read");
    }

    #[test]
    fn round_duration_scales_with_population() {
        let engine = InventoryEngine::default();
        let mut small = population(2);
        let mut large = population(40);
        let t_small = engine
            .run_round(&mut small, &mut PerfectChannel, Session::S1, 0.0, 1)
            .duration_s;
        let t_large = engine
            .run_round(&mut large, &mut PerfectChannel, Session::S1, 0.0, 1)
            .duration_s;
        assert!(t_large > t_small);
    }

    #[test]
    fn per_tag_time_is_near_twenty_ms_for_big_populations() {
        // Amortized per-tag time including overhead: the paper's ~0.02 s.
        let mut tags = population(50);
        let engine = InventoryEngine::default();
        let log = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, 2);
        let per_tag = log.duration_s / log.reads.len() as f64;
        assert!(
            (0.001..=0.03).contains(&per_tag),
            "per-tag amortized = {per_tag} s"
        );
    }

    #[test]
    fn logs_are_deterministic_given_seed() {
        let engine = InventoryEngine::default();
        let mut tags_a = population(15);
        let mut tags_b = population(15);
        let log_a = engine.run_round(&mut tags_a, &mut PerfectChannel, Session::S1, 0.0, 99);
        let log_b = engine.run_round(&mut tags_b, &mut PerfectChannel, Session::S1, 0.0, 99);
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn slot_accounting_adds_up() {
        let mut tags = population(12);
        let engine = InventoryEngine::default();
        let log = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, 4);
        assert_eq!(
            log.slots,
            log.empties + log.collisions + log.singles_failed + log.reads.len() as u32
        );
    }
}
