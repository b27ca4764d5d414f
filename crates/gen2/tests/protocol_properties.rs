//! Property tests over the Gen-2 protocol engine: arbitrary command
//! sequences never corrupt a tag's state machine, and inventory rounds
//! uphold their accounting invariants for arbitrary populations.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rfid_gen2::{
    Epc96, ErasureChannel, InventoriedFlag, InventoryEngine, PerfectChannel, QAlgorithm, Session,
    TagFsm, TagState,
};

/// One externally-drivable FSM stimulus.
#[derive(Debug, Clone)]
enum Stimulus {
    BeginRound { q: u8 },
    QueryRep,
    QueryAdjust { q: u8 },
    AckCorrect,
    AckWrong,
    Nak,
    PowerLoss,
    Singulate,
}

fn stimulus_strategy() -> impl Strategy<Value = Stimulus> {
    prop_oneof![
        (0u8..6).prop_map(|q| Stimulus::BeginRound { q }),
        Just(Stimulus::QueryRep),
        (0u8..6).prop_map(|q| Stimulus::QueryAdjust { q }),
        Just(Stimulus::AckCorrect),
        Just(Stimulus::AckWrong),
        Just(Stimulus::Nak),
        Just(Stimulus::PowerLoss),
        Just(Stimulus::Singulate),
    ]
}

proptest! {
    /// Any stimulus sequence: no panics, read counter monotone and only
    /// advanced by legitimate singulations, contending implies an
    /// arbitration state.
    #[test]
    fn fsm_survives_arbitrary_stimuli(
        seed in any::<u64>(),
        stimuli in proptest::collection::vec(stimulus_strategy(), 0..200),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tag = TagFsm::new(Epc96::from_u128(1));
        let mut reads = 0;
        let mut time = 0.0;
        for stimulus in stimuli {
            time += 0.01;
            let before_state = tag.state();
            match stimulus {
                Stimulus::BeginRound { q } => {
                    tag.begin_round(Session::S1, InventoriedFlag::A, q, time, &mut rng);
                }
                Stimulus::QueryRep => tag.on_query_rep(),
                Stimulus::QueryAdjust { q } => tag.on_query_adjust(q, &mut rng),
                Stimulus::AckCorrect => {
                    let rn = tag.rn16();
                    let accepted = tag.on_ack(rn, time);
                    prop_assert_eq!(
                        accepted,
                        before_state == TagState::Reply,
                        "ACK is accepted exactly in Reply"
                    );
                }
                Stimulus::AckWrong => {
                    let rn = tag.rn16().wrapping_add(1);
                    prop_assert!(!tag.on_ack(rn, time), "wrong RN16 never accepted");
                }
                Stimulus::Nak => tag.on_nak(),
                Stimulus::PowerLoss => {
                    tag.on_power_loss(time);
                    prop_assert_eq!(tag.state(), TagState::Ready);
                }
                Stimulus::Singulate => {
                    // Only meaningful after an accepted ACK; harmless glue
                    // used by the engine, but must never *decrease* reads.
                    if tag.state() == TagState::Acknowledged {
                        tag.on_singulated(time);
                        reads += 1;
                    }
                }
            }
            prop_assert!(tag.read_count() >= reads.min(tag.read_count()));
            if tag.is_contending() {
                prop_assert!(matches!(tag.state(), TagState::Reply | TagState::Arbitrate));
            }
        }
        prop_assert_eq!(tag.read_count(), reads, "reads advance only via singulation");
    }

    /// A perfect channel reads every tag exactly once per round, for any
    /// population size and initial Q.
    #[test]
    fn perfect_round_reads_everyone_once(population in 1usize..40, q0 in 0u8..9, seed in any::<u64>()) {
        let mut tags: Vec<TagFsm> = (0..population)
            .map(|i| TagFsm::new(Epc96::from_u128(i as u128)))
            .collect();
        let engine = InventoryEngine {
            q_algo: QAlgorithm { q0, ..QAlgorithm::default() },
            ..InventoryEngine::default()
        };
        let log = engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, seed);
        prop_assert_eq!(log.reads.len(), population);
        prop_assert_eq!(log.unique_epcs().len(), population);
        for tag in &tags {
            prop_assert_eq!(tag.read_count(), 1);
        }
        // Slot accounting always balances.
        prop_assert_eq!(
            log.slots,
            log.empties + log.collisions + log.singles_failed + log.reads.len() as u32
        );
    }

    /// A lossy channel never reads a tag twice in one round, never reads
    /// more tags than exist, and keeps the slot accounting balanced.
    #[test]
    fn lossy_round_invariants(
        population in 1usize..30,
        p_forward in 0.3f64..1.0,
        p_reverse in 0.1f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut tags: Vec<TagFsm> = (0..population)
            .map(|i| TagFsm::new(Epc96::from_u128(i as u128)))
            .collect();
        let engine = InventoryEngine::default();
        let mut channel = ErasureChannel::new(p_forward, p_reverse, seed);
        let log = engine.run_round(&mut tags, &mut channel, Session::S1, 0.0, seed ^ 0xABCD);
        prop_assert!(log.reads.len() <= population);
        prop_assert_eq!(log.unique_epcs().len(), log.reads.len(), "no double reads");
        prop_assert_eq!(
            log.slots,
            log.empties + log.collisions + log.singles_failed + log.reads.len() as u32
        );
        prop_assert!(log.duration_s > 0.0);
        prop_assert!(
            log.duration_s
                <= engine.max_round_s + engine.timing.reader_overhead_s + 0.1
        );
    }

    /// Round logs are a pure function of (population, seed, config).
    #[test]
    fn rounds_are_deterministic(population in 1usize..20, seed in any::<u64>()) {
        let run = || {
            let mut tags: Vec<TagFsm> = (0..population)
                .map(|i| TagFsm::new(Epc96::from_u128(i as u128)))
                .collect();
            let engine = InventoryEngine::default();
            engine.run_round(&mut tags, &mut PerfectChannel, Session::S1, 0.0, seed)
        };
        prop_assert_eq!(run(), run());
    }
}
