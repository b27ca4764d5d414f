//! Mechanism ablations: which modeled physical effect produces which of
//! the paper's findings.
//!
//! Each ablation removes one mechanism from the full model and re-runs
//! the Table 1 object experiment. The deltas attribute the paper's
//! per-location spread to its causes: mounting detuning makes the Top
//! row bad, occlusion makes the far side bad, and fading/shadowing
//! spread the rest.

use crate::report::{percent, shape_check_line};
use crate::scenarios::{object_pass_scenario, BoxFace, ObjectPassConfig, BOX_COUNT};
use crate::Calibration;
use rfid_core::tracking_outcome;
use rfid_phys::Mounting;
use rfid_sim::{Scenario, TrialExecutor};
use rfid_stats::{Align, Table};

/// The ablatable mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// The full model (no ablation).
    Full,
    /// Remove mounting (metal-backing) detuning.
    NoMounting,
    /// Make obstacles fully opaque (no scattering fill-in).
    OpaqueObstacles,
    /// Remove obstacles from the line of sight entirely.
    NoOcclusion,
    /// Freeze fading and shadowing (deterministic channel).
    NoFading,
}

impl Mechanism {
    /// All ablations, full model first.
    pub const ALL: [Mechanism; 5] = [
        Mechanism::Full,
        Mechanism::NoMounting,
        Mechanism::OpaqueObstacles,
        Mechanism::NoOcclusion,
        Mechanism::NoFading,
    ];

    /// Display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::Full => "full model",
            Mechanism::NoMounting => "no mounting detuning",
            Mechanism::OpaqueObstacles => "opaque obstacles (no fill-in)",
            Mechanism::NoOcclusion => "no occlusion",
            Mechanism::NoFading => "no fading/shadowing",
        }
    }

    /// Applies the ablation to a built scenario.
    fn apply(&self, scenario: &mut Scenario) {
        match self {
            Mechanism::Full => {}
            Mechanism::NoMounting => {
                for tag in &mut scenario.world.tags {
                    tag.mounting = Mounting::free_space();
                }
            }
            Mechanism::OpaqueObstacles => {
                scenario.channel.conductor_obstruction_cap_db = 1.0e9;
                scenario.channel.absorber_obstruction_cap_db = 1.0e9;
            }
            Mechanism::NoOcclusion => {
                // Obstacles become RF-transparent: model them as cardboard
                // boxes of air by clearing materials' effect via the cap.
                scenario.channel.conductor_obstruction_cap_db = 0.0;
                scenario.channel.absorber_obstruction_cap_db = 0.0;
            }
            Mechanism::NoFading => {
                scenario.channel.sigma_tag_db = 0.0;
                scenario.channel.sigma_link_db = 0.0;
                scenario.channel.rician_k_db = 60.0;
            }
        }
    }
}

/// Per-ablation Table-1-style reliabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Rows: (mechanism, per-face reliability in `BoxFace::ALL` order).
    pub rows: Vec<(Mechanism, [f64; 4])>,
    /// Passes per cell.
    pub trials: u64,
}

impl AblationResult {
    /// Reliability for (mechanism, face).
    #[must_use]
    pub fn reliability(&self, mechanism: Mechanism, face: BoxFace) -> Option<f64> {
        let idx = BoxFace::ALL.iter().position(|&f| f == face)?;
        self.rows
            .iter()
            .find(|(m, _)| *m == mechanism)
            .map(|(_, values)| values[idx])
    }

    /// The causal attributions the model claims:
    /// * removing mounting detuning rescues the Top location,
    /// * making obstacles opaque kills the far side,
    /// * removing occlusion rescues the far side.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        let get = |m, f| self.reliability(m, f).unwrap_or(0.0);
        let top_fixed =
            get(Mechanism::NoMounting, BoxFace::Top) > get(Mechanism::Full, BoxFace::Top) + 0.3;
        let far_killed = get(Mechanism::OpaqueObstacles, BoxFace::SideFarther)
            < get(Mechanism::Full, BoxFace::SideFarther) - 0.2;
        let far_rescued = get(Mechanism::NoOcclusion, BoxFace::SideFarther)
            > get(Mechanism::Full, BoxFace::SideFarther) + 0.15;
        top_fixed && far_killed && far_rescued
    }
}

/// Runs every ablation over the Table 1 workload.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> AblationResult {
    assert!(trials > 0, "at least one trial is required");
    let rows = Mechanism::ALL
        .iter()
        .map(|&mechanism| {
            let mut values = [0.0f64; 4];
            for (fi, &face) in BoxFace::ALL.iter().enumerate() {
                let (mut scenario, box_tags) =
                    object_pass_scenario(cal, &ObjectPassConfig::single(face));
                mechanism.apply(&mut scenario);
                let hits = executor.run_scenario_fold(
                    &scenario,
                    trials,
                    seed,
                    || 0u64,
                    |acc, output| {
                        acc + box_tags
                            .iter()
                            .filter(|tags| tracking_outcome(&output, tags))
                            .count() as u64
                    },
                    |a, b| a + b,
                );
                values[fi] = hits as f64 / (trials * BOX_COUNT as u64) as f64;
            }
            (mechanism, values)
        })
        .collect();
    AblationResult { rows, trials }
}

/// Renders the ablation matrix.
#[must_use]
pub fn render(result: &AblationResult) -> String {
    let mut table = Table::new(vec![
        "mechanism".into(),
        "Front".into(),
        "Side (closer)".into(),
        "Side (farther)".into(),
        "Top".into(),
    ]);
    for col in 1..5 {
        table.align(col, Align::Right);
    }
    for (mechanism, values) in &result.rows {
        let mut cells = vec![mechanism.label().to_owned()];
        cells.extend(values.iter().map(|&v| percent(v)));
        table.row(cells);
    }
    format!(
        "Mechanism ablations on the Table 1 workload ({} passes per cell)\n{table}\
         attribution: Top is a *mounting* effect, the far side is an *occlusion* \
         effect, fading spreads everything\n{}",
        result.trials,
        shape_check_line("each mechanism owns its finding", result.shape_holds())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanisms_own_their_findings() {
        let result = run(&Calibration::default(), 4, 17, &TrialExecutor::serial());
        assert!(
            result.shape_holds(),
            "{:#?}",
            result
                .rows
                .iter()
                .map(|(m, v)| (m.label(), *v))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn full_model_row_matches_table1_magnitudes() {
        let result = run(&Calibration::default(), 4, 17, &TrialExecutor::serial());
        let front = result.reliability(Mechanism::Full, BoxFace::Front).unwrap();
        let top = result.reliability(Mechanism::Full, BoxFace::Top).unwrap();
        assert!(front > 0.6 && top < 0.5);
    }

    #[test]
    fn render_emits_the_matrix() {
        let result = run(&Calibration::default(), 2, 3, &TrialExecutor::serial());
        let text = render(&result);
        for mechanism in Mechanism::ALL {
            assert!(text.contains(mechanism.label()));
        }
    }
}
