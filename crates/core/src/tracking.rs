//! Bridges from raw simulator output to tracking outcomes.
//!
//! The paper distinguishes *read* reliability (one tag, one antenna) from
//! *tracking* reliability (the system identifies the object while it is in
//! the designated area, via any of its tags at any antenna). These helpers
//! apply those definitions to a [`SimOutput`].

use crate::ReliabilityEstimate;
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

/// Runs `trials` independent simulations of `scenario` (seeds
/// `seed0, seed0+1, ...`) on the executor's threads, with one
/// [`rfid_sim::ScenarioCache`] shared by every trial, and estimates the
/// probability that `outcome` holds: the generic engine behind an R_M.
/// Results are identical for any thread count.
///
/// # Panics
///
/// Panics if `trials == 0` or the scenario is invalid.
#[must_use]
pub fn estimate_over_trials<F>(
    executor: &TrialExecutor,
    scenario: &Scenario,
    trials: u64,
    seed0: u64,
    outcome: F,
) -> ReliabilityEstimate
where
    F: Fn(&SimOutput) -> bool + Sync,
{
    let cache = rfid_sim::ScenarioCache::new(scenario);
    ReliabilityEstimate::from_trials(executor, trials, |i| {
        let output = rfid_sim::run_scenario_with(scenario, &cache, seed0.wrapping_add(i));
        outcome(&output)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::{Pose, Rotation, Vec3};
    use rfid_sim::{Motion, ScenarioBuilder};

    fn facing() -> Rotation {
        Rotation::between(Vec3::Y, -Vec3::Y).expect("antiparallel")
    }

    fn two_tag_pass() -> Scenario {
        // Tag 0 passes close (readable); tag 1 is far out of range.
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
            .build()
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
        let estimate = |tags: &[usize]| {
            estimate_over_trials(&executor, &scenario, 10, 100, |o| tracking_outcome(o, tags))
        };
        let est_a = estimate(&[0]);
        let est_b = estimate(&[0]);
        assert_eq!(est_a, est_b);
        assert!(est_a.point().value() > 0.5, "close pass should mostly read");
        let miss = estimate(&[1]);
        assert_eq!(miss.point().value(), 0.0);
    }

    #[test]
    fn parallel_estimation_matches_serial_for_any_thread_count() {
        let scenario = two_tag_pass();
        let serial = estimate_over_trials(&TrialExecutor::serial(), &scenario, 10, 100, |o| {
            tracking_outcome(o, &[0])
        });
        for threads in [1, 2, 5] {
            let executor = TrialExecutor::with_threads(threads);
            let parallel =
                estimate_over_trials(&executor, &scenario, 10, 100, |o| tracking_outcome(o, &[0]));
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }
}
