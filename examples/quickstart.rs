//! Quickstart: build a portal, pass a tagged object through it, and
//! compare the measured tracking reliability against the paper's
//! analytical model.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rfid_repro::core::{combined_reliability, tracked_counts, Probability, ReliabilityEstimate};
use rfid_repro::geom::{Pose, Rotation, Vec3};
use rfid_repro::sim::{Motion, ScenarioBuilder, TrialExecutor};

fn main() {
    // A portal: one antenna at 1 m height, boresight across the lane.
    // One tag rides past at 1 m/s, 1 m from the antenna, facing it.
    let facing = Rotation::between(Vec3::Y, -Vec3::Y).expect("y and -y are antiparallel");
    let scenario = ScenarioBuilder::new()
        .duration_s(5.0)
        .portal_reader(Pose::from_translation(Vec3::new(0.0, 0.0, 1.0)), 1)
        .free_tag(Motion::linear(
            Pose::new(Vec3::new(-2.5, 1.0, 1.0), facing),
            Vec3::new(1.0, 0.0, 0.0),
            0.0,
            5.0,
        ))
        .build();

    // Measure single-tag tracking reliability over 40 independent passes,
    // spread over the machine's cores (the estimate is the same on any
    // number of threads).
    let executor = TrialExecutor::new();
    let measure = |scenario, object_tags: &[usize]| {
        let tracked = tracked_counts(&executor, scenario, 40, 1, &[object_tags])[0];
        ReliabilityEstimate::from_counts(tracked, 40).expect("40 passes were run")
    };
    let single = measure(&scenario, &[0]);
    println!("single tag, single antenna: {single}");

    // The paper's model: a second, independent read opportunity.
    let p = single.point();
    let predicted_two = combined_reliability([p, p]);
    println!(
        "paper's model predicts two independent opportunities reach: {}",
        predicted_two
    );

    // Verify with a second tag on the pass (spaced far beyond coupling).
    let two_tag_scenario = ScenarioBuilder::new()
        .duration_s(5.0)
        .portal_reader(Pose::from_translation(Vec3::new(0.0, 0.0, 1.0)), 1)
        .free_tag(Motion::linear(
            Pose::new(Vec3::new(-2.5, 1.0, 1.0), facing),
            Vec3::new(1.0, 0.0, 0.0),
            0.0,
            5.0,
        ))
        .free_tag(Motion::linear(
            Pose::new(Vec3::new(-2.5, 1.0, 1.3), facing),
            Vec3::new(1.0, 0.0, 0.0),
            0.0,
            5.0,
        ))
        .build();
    let double = measure(&two_tag_scenario, &[0, 1]);
    println!("two tags, measured:         {double}");

    let gap = (double.point().value() - predicted_two.value()).abs();
    println!(
        "model vs measurement gap: {:.1} points — {}",
        gap * 100.0,
        if gap < 0.1 {
            "tag redundancy behaves like independent opportunities, as the paper found"
        } else {
            "correlated failures dominate here"
        }
    );
    let _: Probability = predicted_two;
}
