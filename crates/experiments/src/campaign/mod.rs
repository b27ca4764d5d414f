//! Fleet-scale campaign execution over the streaming statistics plane.
//!
//! A campaign folds every trial of every compiled instance into
//! fixed-size [`CampaignAccumulator`]s — no per-trial vectors anywhere —
//! so memory stays bounded no matter how many objects the fleet
//! simulates. All folding goes through
//! [`TrialExecutor::run_scenario_fold`], so results are bit-identical
//! for any thread count, and the accumulators' canonical encoding makes
//! "same bits" checkable with a single digest.

pub mod checkpoint;

use rfid_sim::{
    digest_bytes, CampaignSpec, CompiledInstance, ScenarioCompiler, SimOutput, TrialExecutor,
};
use rfid_stats::{StatsError, StreamSummary};

pub use checkpoint::{
    run_campaign_checkpointed, CampaignRunConfig, CampaignRunReport, CheckpointError,
};

/// Streaming per-deployment (or whole-campaign) metrics.
///
/// Everything here is O(1) in the number of trials: counters plus
/// [`StreamSummary`] accumulators whose merges are exactly associative,
/// so partial campaigns folded in any grouping produce the same bits.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignAccumulator {
    /// Trials folded in.
    pub trials: u64,
    /// Simulated objects: tags in the world, summed over trials.
    pub objects: u64,
    /// Tags detected at least once, summed over trials.
    pub detected: u64,
    /// Per-trial detection fraction (tags read / tags present).
    pub detection: StreamSummary,
    /// Per-trial mean reads per present tag.
    pub reads_per_tag: StreamSummary,
    /// Per-trial inventory-round count across all readers.
    pub rounds: StreamSummary,
}

impl CampaignAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one trial's simulation output in. `tags` is the number of
    /// tags in the compiled world.
    pub fn fold_trial(&mut self, output: &SimOutput, tags: u64) {
        self.trials += 1;
        self.objects += tags;
        let read = output.tags_read().len() as u64;
        self.detected += read;
        if tags > 0 {
            self.detection.push(read as f64 / tags as f64);
            self.reads_per_tag
                .push(output.reads.len() as f64 / tags as f64);
        }
        self.rounds.push(output.rounds.len() as f64);
    }

    /// Merges another accumulator in. Exactly associative and
    /// commutative in the multiset of folded trials.
    ///
    /// # Panics
    ///
    /// If a count overflows ([`CampaignAccumulator::can_merge`]), in
    /// every build profile.
    pub fn merge(&mut self, other: &CampaignAccumulator) {
        let add = |a: u64, b: u64| a.checked_add(b).expect("a merged count overflows u64");
        self.trials = add(self.trials, other.trials);
        self.objects = add(self.objects, other.objects);
        self.detected = add(self.detected, other.detected);
        self.detection.merge(&other.detection);
        self.reads_per_tag.merge(&other.reads_per_tag);
        self.rounds.merge(&other.rounds);
    }

    /// Whether [`CampaignAccumulator::merge`] can take `other` in
    /// without a count overflowing, its own or one of its summaries'.
    /// Folding trials cannot get near `u64::MAX`, but an accumulator
    /// decoded from a checkpoint may hold any count.
    #[must_use]
    pub fn can_merge(&self, other: &CampaignAccumulator) -> bool {
        [
            (self.trials, other.trials),
            (self.objects, other.objects),
            (self.detected, other.detected),
        ]
        .iter()
        .all(|(a, b)| a.checked_add(*b).is_some())
            && self.detection.can_merge(&other.detection)
            && self.reads_per_tag.can_merge(&other.reads_per_tag)
            && self.rounds.can_merge(&other.rounds)
    }

    /// Appends the canonical little-endian encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trials.to_le_bytes());
        out.extend_from_slice(&self.objects.to_le_bytes());
        out.extend_from_slice(&self.detected.to_le_bytes());
        self.detection.encode(out);
        self.reads_per_tag.encode(out);
        self.rounds.encode(out);
    }

    /// Decodes an accumulator from `buf` starting at `*cur`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadEncoding`] on malformed input.
    pub fn decode(buf: &[u8], cur: &mut usize) -> Result<Self, StatsError> {
        let mut word = |n: usize| -> Result<u64, StatsError> {
            let end = cur
                .checked_add(n)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| StatsError::BadEncoding {
                    reason: "campaign accumulator truncated".to_owned(),
                })?;
            let mut raw = [0u8; 8];
            raw[..n].copy_from_slice(&buf[*cur..end]);
            *cur = end;
            Ok(u64::from_le_bytes(raw))
        };
        let trials = word(8)?;
        let objects = word(8)?;
        let detected = word(8)?;
        Ok(Self {
            trials,
            objects,
            detected,
            detection: StreamSummary::decode(buf, cur)?,
            reads_per_tag: StreamSummary::decode(buf, cur)?,
            rounds: StreamSummary::decode(buf, cur)?,
        })
    }

    /// Bytes of live accumulator state (the fleet bench's bounded-memory
    /// proxy).
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        3 * 8
            + self.detection.state_bytes()
            + self.reads_per_tag.state_bytes()
            + self.rounds.state_bytes()
    }
}

/// The fewest bytes a [`CampaignAccumulator`] encodes to: its three
/// counters and three empty summaries.
const MIN_ACCUMULATOR_BYTES: usize = 426;

/// Full campaign progress: what a checkpoint persists.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignState {
    /// Digest of the spec this state belongs to; resume refuses a
    /// mismatch.
    pub spec_digest: u64,
    /// Instances completed, in the global compilation order.
    pub instances_done: u64,
    /// One accumulator per deployment in the spec.
    pub per_deployment: Vec<CampaignAccumulator>,
    /// Everything folded together.
    pub total: CampaignAccumulator,
}

impl CampaignState {
    /// Fresh state for `spec`.
    #[must_use]
    pub fn new(spec: &CampaignSpec) -> Self {
        Self {
            spec_digest: spec.digest(),
            instances_done: 0,
            per_deployment: vec![CampaignAccumulator::new(); spec.deployments.len()],
            total: CampaignAccumulator::new(),
        }
    }

    /// Folds one completed instance's accumulator in.
    ///
    /// # Panics
    ///
    /// Panics if `deployment` is out of range for the spec this state
    /// was created from, or if a count would overflow
    /// ([`CampaignState::can_apply`]), in every build profile.
    pub fn apply_instance(&mut self, deployment: usize, acc: &CampaignAccumulator) {
        self.per_deployment[deployment].merge(acc);
        self.total.merge(acc);
        self.instances_done += 1;
    }

    /// Whether [`CampaignState::apply_instance`] can fold `acc` into
    /// `deployment` without a count overflowing, for a `deployment` in
    /// range.
    #[must_use]
    pub fn can_apply(&self, deployment: usize, acc: &CampaignAccumulator) -> bool {
        self.per_deployment[deployment].can_merge(acc) && self.total.can_merge(acc)
    }

    /// Canonical little-endian encoding.
    #[must_use]
    pub fn encode_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.spec_digest.to_le_bytes());
        out.extend_from_slice(&self.instances_done.to_le_bytes());
        out.extend_from_slice(&(self.per_deployment.len() as u32).to_le_bytes());
        for acc in &self.per_deployment {
            acc.encode(&mut out);
        }
        self.total.encode(&mut out);
        out
    }

    /// Decodes a state from the canonical encoding.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadEncoding`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, StatsError> {
        let bad = |reason: &str| StatsError::BadEncoding {
            reason: reason.to_owned(),
        };
        let mut cur = 0usize;
        let word = |n: usize, cur: &mut usize| -> Result<u64, StatsError> {
            let end = cur
                .checked_add(n)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| bad("campaign state truncated"))?;
            let mut raw = [0u8; 8];
            raw[..n].copy_from_slice(&buf[*cur..end]);
            *cur = end;
            Ok(u64::from_le_bytes(raw))
        };
        let spec_digest = word(8, &mut cur)?;
        let instances_done = word(8, &mut cur)?;
        let deployments = word(4, &mut cur)? as usize;
        // The count is untrusted: reserve for it only if the bytes left
        // can hold that many accumulators and the total after them.
        if deployments >= (buf.len() - cur) / MIN_ACCUMULATOR_BYTES {
            return Err(bad("more deployments than the bytes can hold"));
        }
        let mut per_deployment = Vec::with_capacity(deployments);
        for _ in 0..deployments {
            per_deployment.push(CampaignAccumulator::decode(buf, &mut cur)?);
        }
        let total = CampaignAccumulator::decode(buf, &mut cur)?;
        if cur != buf.len() {
            return Err(bad("trailing bytes after campaign state"));
        }
        Ok(Self {
            spec_digest,
            instances_done,
            per_deployment,
            total,
        })
    }

    /// A digest of the canonical encoding: two campaign runs reached the
    /// same state iff their digests match.
    #[must_use]
    pub fn digest(&self) -> u64 {
        digest_bytes(&self.encode_vec())
    }

    /// Live accumulator bytes across the whole state.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        let mut bytes = 2 * 8 + 4 + self.total.state_bytes();
        for acc in &self.per_deployment {
            bytes += acc.state_bytes();
        }
        bytes
    }
}

/// Runs one compiled instance's trials through the fold plane.
///
/// Bit-identical for any thread count: the fold goes through
/// [`TrialExecutor::run_scenario_fold`], whose fixed-block merge
/// discipline does not depend on parallelism.
#[must_use]
pub fn run_instance(executor: &TrialExecutor, instance: &CompiledInstance) -> CampaignAccumulator {
    let tags = instance.tags;
    executor.run_scenario_fold(
        &instance.scenario,
        instance.trials,
        instance.base_seed,
        CampaignAccumulator::new,
        |mut acc, output| {
            acc.fold_trial(&output, tags);
            acc
        },
        |mut a, b| {
            a.merge(&b);
            a
        },
    )
}

/// Runs a whole campaign start to finish, no checkpointing.
#[must_use]
pub fn run_campaign(executor: &TrialExecutor, spec: &CampaignSpec) -> CampaignState {
    let mut state = CampaignState::new(spec);
    for instance in ScenarioCompiler::new(spec) {
        let acc = run_instance(executor, &instance);
        state.apply_instance(instance.deployment, &acc);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accumulator_roundtrips_through_codec() {
        let spec = CampaignSpec::smoke(21);
        let executor = TrialExecutor::with_threads(1);
        let state = run_campaign(&executor, &spec);
        assert_eq!(state.instances_done, spec.total_instances());
        assert!(state.total.trials > 0);
        assert!(state.total.objects > 0);

        let bytes = state.encode_vec();
        let back = CampaignState::decode(&bytes).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.digest(), state.digest());
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let spec = CampaignSpec::smoke(22);
        let serial = run_campaign(&TrialExecutor::with_threads(1), &spec);
        let parallel = run_campaign(&TrialExecutor::with_threads(4), &spec);
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn streaming_fold_matches_batch_collection() {
        let spec = CampaignSpec::smoke(23);
        let executor = TrialExecutor::with_threads(2);
        for instance in ScenarioCompiler::new(&spec) {
            let streamed = run_instance(&executor, &instance);
            // Batch path: materialize every output, fold serially.
            let outputs = executor.run_scenario_trials(
                &instance.scenario,
                instance.trials,
                instance.base_seed,
            );
            let mut batch = CampaignAccumulator::new();
            for output in &outputs {
                batch.fold_trial(output, instance.tags);
            }
            assert_eq!(streamed, batch, "{}", instance.label);
        }
    }

    #[test]
    fn the_empty_accumulator_is_the_shortest_encoding() {
        let mut out = Vec::new();
        CampaignAccumulator::new().encode(&mut out);
        assert_eq!(out.len(), MIN_ACCUMULATOR_BYTES);
    }

    #[test]
    fn decode_rejects_corruption() {
        let spec = CampaignSpec::smoke(24);
        let state = CampaignState::new(&spec);
        let mut bytes = state.encode_vec();
        assert!(CampaignState::decode(&bytes[..bytes.len() - 1]).is_err());
        bytes.push(0);
        assert!(CampaignState::decode(&bytes).is_err(), "trailing byte");
    }

    /// Each count an accumulator merge adds, its own three and each
    /// summary's sample count, refuses to overflow instead of wrapping.
    #[test]
    fn accumulator_merges_refuse_counts_that_would_overflow() {
        fn full(summary: &StreamSummary) -> StreamSummary {
            let mut bytes = summary.encode_vec();
            bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
            StreamSummary::decode(&bytes, &mut 0).unwrap()
        }
        let spec = CampaignSpec::smoke(25);
        let instance = ScenarioCompiler::new(&spec).next().unwrap();
        let one = run_instance(&TrialExecutor::with_threads(1), &instance);
        assert!(one.detected > 0 && one.can_merge(&one));
        type Edit = (&'static str, fn(&mut CampaignAccumulator));
        let edits: [Edit; 6] = [
            ("trials", |acc| acc.trials = u64::MAX),
            ("objects", |acc| acc.objects = u64::MAX),
            ("detected", |acc| acc.detected = u64::MAX),
            ("detection", |acc| acc.detection = full(&acc.detection)),
            ("reads_per_tag", |acc| {
                acc.reads_per_tag = full(&acc.reads_per_tag)
            }),
            ("rounds", |acc| acc.rounds = full(&acc.rounds)),
        ];
        for (name, edit) in edits {
            let mut acc = one.clone();
            edit(&mut acc);
            assert!(!acc.can_merge(&one), "{name}: can_merge");
            let merged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                acc.merge(&one);
            }));
            assert!(merged.is_err(), "{name}: the merge did not panic");
        }
    }

    fn summary() -> impl Strategy<Value = StreamSummary> {
        let sample = prop_oneof![-1e6f64..1e6, Just(0.0), Just(f64::NAN), Just(f64::INFINITY)];
        proptest::collection::vec(sample, 0..8).prop_map(|data| StreamSummary::from_samples(&data))
    }

    fn accumulator() -> impl Strategy<Value = CampaignAccumulator> {
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            summary(),
            summary(),
            summary(),
        )
            .prop_map(
                |(trials, objects, detected, detection, reads_per_tag, rounds)| {
                    CampaignAccumulator {
                        trials,
                        objects,
                        detected,
                        detection,
                        reads_per_tag,
                        rounds,
                    }
                },
            )
    }

    fn state() -> impl Strategy<Value = CampaignState> {
        let per_deployment = proptest::collection::vec(accumulator(), 0..3);
        (any::<u64>(), any::<u64>(), per_deployment, accumulator()).prop_map(
            |(spec_digest, instances_done, per_deployment, total)| CampaignState {
                spec_digest,
                instances_done,
                per_deployment,
                total,
            },
        )
    }

    /// Whether `bytes` decode to a state or to `BadEncoding`.
    fn decodes_or_is_bad(bytes: &[u8]) -> bool {
        matches!(
            CampaignState::decode(bytes),
            Ok(_) | Err(StatsError::BadEncoding { .. })
        )
    }

    proptest! {
        #[test]
        fn state_codec_round_trips(state in state()) {
            prop_assert_eq!(CampaignState::decode(&state.encode_vec()), Ok(state));
        }

        /// Arbitrary bytes decode to a state or `BadEncoding`, never a
        /// panic.
        #[test]
        fn state_decode_survives_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            prop_assert!(decodes_or_is_bad(&bytes));
        }

        /// A valid encoding with any one 8-byte word overwritten, at
        /// every offset, decodes to a state or `BadEncoding`, never a
        /// panic.
        #[test]
        fn state_decode_survives_an_overwritten_word(
            state in state(),
            word in prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
        ) {
            let buf = state.encode_vec();
            for offset in 0..=buf.len() - 8 {
                let mut hostile = buf.clone();
                hostile[offset..offset + 8].copy_from_slice(&word.to_le_bytes());
                prop_assert!(decodes_or_is_bad(&hostile), "offset {}", offset);
            }
        }
    }
}
