//! Bridges from raw simulator output to tracking outcomes.
//!
//! The paper distinguishes *read* reliability (one tag, one antenna) from
//! *tracking* reliability (the system identifies the object while it is in
//! the designated area, via any of its tags at any antenna). These helpers
//! apply those definitions to a [`SimOutput`].

use rfid_sim::{Scenario, SimOutput, TrialExecutor};

/// Whether the system tracked an object: at least one of `object_tags`
/// (world tag indices) was read by any reader/antenna.
///
/// # Examples
///
/// ```no_run
/// # let scenario: rfid_sim::Scenario = unimplemented!();
/// let output = rfid_sim::run_scenario(&scenario, 1);
/// // The object carries tags 0 and 1 (front and side).
/// let tracked = rfid_core::tracking_outcome(&output, &[0, 1]);
/// ```
#[must_use]
pub fn tracking_outcome(output: &SimOutput, object_tags: &[usize]) -> bool {
    object_tags.iter().any(|&tag| output.tag_was_read(tag))
}

/// Runs `trials` passes of `scenario` on the executor's threads and
/// counts, per object, the passes that tracked it: entry `k` is the
/// number of passes in which [`tracking_outcome`] holds for `objects[k]`,
/// a list of world tag indices. Pass `i` has seed `seed.wrapping_add(i)`
/// and every pass shares one [`rfid_sim::ScenarioCache`], so the counts
/// are the same for any thread count. This is the count behind every R_M.
///
/// # Panics
///
/// Panics if the scenario is invalid.
#[must_use]
pub fn tracked_counts<T: AsRef<[usize]> + Sync>(
    executor: &TrialExecutor,
    scenario: &Scenario,
    trials: u64,
    seed: u64,
    objects: &[T],
) -> Vec<u64> {
    executor.run_scenario_fold(
        scenario,
        trials,
        seed,
        || vec![0u64; objects.len()],
        |mut counts, output| {
            for (count, tags) in counts.iter_mut().zip(objects) {
                *count += u64::from(tracking_outcome(&output, tags.as_ref()));
            }
            counts
        },
        |mut a, b| {
            for (count, more) in a.iter_mut().zip(b) {
                *count += more;
            }
            a
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::{Pose, Rotation, Vec3};
    use rfid_sim::{Motion, ScenarioBuilder};

    fn facing() -> Rotation {
        Rotation::between(Vec3::Y, -Vec3::Y).expect("antiparallel")
    }

    /// Tag 0 passes close (readable); tag 1 is far out of range.
    fn pass_builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
            .duration_s(3.0)
            .portal_reader(Pose::from_translation(Vec3::new(0.0, 0.0, 1.0)), 1)
            .free_tag(Motion::linear(
                Pose::new(Vec3::new(-1.5, 1.0, 1.0), facing()),
                Vec3::new(1.0, 0.0, 0.0),
                0.0,
                3.0,
            ))
            .free_tag(Motion::Static(Pose::new(
                Vec3::new(0.0, 40.0, 1.0),
                facing(),
            )))
    }

    fn two_tag_pass() -> Scenario {
        pass_builder().build()
    }

    #[test]
    fn any_tag_identifies_the_object() {
        let output = rfid_sim::run_scenario(&two_tag_pass(), 5);
        assert!(output.tag_was_read(0));
        assert!(!output.tag_was_read(1));
        // Object carrying both tags is tracked through tag 0 alone.
        assert!(tracking_outcome(&output, &[0, 1]));
        // An object carrying only the unreadable tag is missed.
        assert!(!tracking_outcome(&output, &[1]));
        // An untagged object is never tracked.
        assert!(!tracking_outcome(&output, &[]));
    }

    #[test]
    fn estimation_over_trials_is_deterministic_and_sane() {
        let scenario = two_tag_pass();
        let executor = TrialExecutor::serial();
        let counts = tracked_counts(&executor, &scenario, 10, 100, &[[0], [1]]);
        assert_eq!(
            counts,
            tracked_counts(&executor, &scenario, 10, 100, &[[0], [1]])
        );
        assert!(counts[0] > 5, "close pass should mostly read: {counts:?}");
        assert_eq!(counts[1], 0);
    }

    #[test]
    fn parallel_estimation_matches_serial_for_any_thread_count() {
        let scenario = two_tag_pass();
        let serial = tracked_counts(&TrialExecutor::serial(), &scenario, 10, 100, &[[0]]);
        for threads in [1, 2, 5] {
            let executor = TrialExecutor::with_threads(threads);
            let parallel = tracked_counts(&executor, &scenario, 10, 100, &[[0]]);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    /// [`two_tag_pass`] plus tag 2, which passes at the edge of the read
    /// zone, so whether it is read depends on the pass's seed.
    fn three_tag_pass() -> Scenario {
        pass_builder()
            .free_tag(Motion::linear(
                Pose::new(Vec3::new(-1.5, 8.0, 1.0), facing()),
                Vec3::new(1.0, 0.0, 0.0),
                0.0,
                3.0,
            ))
            .build()
    }

    #[test]
    fn tracked_counts_match_a_hand_count_of_each_pass() {
        // The close tag, an object carrying the close and marginal tags,
        // the unreadable tag, the marginal tag, and an untagged object.
        let objects: [&[usize]; 5] = [&[0], &[0, 2], &[1], &[2], &[]];
        let scenario = three_tag_pass();
        // Seeds wrap past zero: pass `i` has seed `seed + i` modulo 2^64.
        let (trials, seed) = (12, u64::MAX - 5);
        let outputs = TrialExecutor::serial().run_scenario_trials(&scenario, trials, seed);
        for (i, output) in (0..).zip(&outputs) {
            assert_eq!(
                *output,
                rfid_sim::run_scenario(&scenario, seed.wrapping_add(i))
            );
        }
        let hand = |passes: &[SimOutput]| -> Vec<u64> {
            objects
                .iter()
                .map(|tags| passes.iter().filter(|o| tracking_outcome(o, tags)).count() as u64)
                .collect()
        };
        let all = hand(&outputs);
        assert_eq!((all[2], all[4]), (0, 0), "{all:?}");
        assert!(all[3] > 0 && all[3] < trials, "seed-dependent: {all:?}");
        for executor in [TrialExecutor::serial(), TrialExecutor::with_threads(3)] {
            // Each prefix of the fold counts the same passes as the
            // prefix of the hand count, so its pass `i` is pass `i`.
            for k in 1..=trials {
                assert_eq!(
                    tracked_counts(&executor, &scenario, k, seed, &objects),
                    hand(&outputs[..k as usize]),
                    "first {k} passes on {} thread(s)",
                    executor.threads()
                );
            }
        }
    }

    #[test]
    fn counts_add_across_fold_blocks() {
        // Enough short passes that the fold merges two blocks.
        let scenario = pass_builder().duration_s(0.05).build();
        let trials = rfid_sim::FOLD_BLOCK + 3;
        let executor = TrialExecutor::with_threads(3);
        let outputs = executor.run_scenario_trials(&scenario, trials, 9);
        let read = outputs.iter().filter(|o| o.tag_was_read(0)).count() as u64;
        assert!(read > 3 && read < trials, "{read}");
        assert_eq!(
            tracked_counts(&executor, &scenario, trials, 9, &[[0], [1]]),
            [read, 0]
        );
    }
}
