//! Transmit-power sweep: the reliability / false-positive trade-off.
//!
//! Section 2.1: "false positives can typically be eliminated by
//! increasing the distance between antennas and/or by decreasing the
//! power output of the readers". The paper asserts the lever without
//! measuring its cost; this experiment does both sides: as power drops,
//! out-of-zone ("false positive") reads vanish — and so, eventually,
//! does in-zone reliability.

use crate::report::{percent, shape_check_line};
use crate::scenarios::{antenna_poses, orient_tag};
use crate::Calibration;
use rfid_core::tracked_counts;
use rfid_phys::{Dbm, Mounting};
use rfid_sim::{Attachment, Motion, Scenario, ScenarioBuilder, SimTag, TrialExecutor};
use rfid_stats::{Align, Table};

/// Conducted powers swept, dBm (30 is the paper's default and the FCC
/// limit).
pub const POWERS_DBM: [f64; 5] = [18.0, 21.0, 24.0, 27.0, 30.0];

/// Distance of the bystander tag (in a staging area the portal must NOT
/// report) from the antenna, m.
pub const BYSTANDER_DISTANCE_M: f64 = 3.0;

/// One power level's result.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerRow {
    /// Conducted power.
    pub power_dbm: f64,
    /// Fraction of passes where the legitimate (passing) tag was read.
    pub in_zone_reliability: f64,
    /// Fraction of passes where the out-of-zone bystander tag was read —
    /// the false positive the paper wants suppressed.
    pub false_positive_rate: f64,
}

/// The power sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerResult {
    /// One row per power.
    pub rows: Vec<PowerRow>,
    /// Passes per power.
    pub trials: u64,
}

impl PowerResult {
    /// The paper's claimed trade-off: lowering power monotonically
    /// suppresses the bystander reads; full power has a measurable false
    /// positive rate; and some reduced power still keeps legitimate
    /// reliability high while (near-)eliminating false positives.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        let fp_nonincreasing = self
            .rows
            .windows(2)
            .all(|pair| pair[0].false_positive_rate <= pair[1].false_positive_rate + 0.1);
        let full_power_fp = self.rows.last().map_or(0.0, |r| r.false_positive_rate);
        let sweet_spot = self.rows.iter().any(|row| {
            row.in_zone_reliability >= 0.9 && row.false_positive_rate <= full_power_fp / 2.0
        });
        fp_nonincreasing && full_power_fp > 0.3 && sweet_spot
    }
}

/// The portal with a legitimate passing tag (tag 0) and a bystander tag
/// parked in a staging area beyond the lane (tag 1).
fn portal_with_bystander(cal: &Calibration, power_dbm: f64) -> Scenario {
    let facing = orient_tag(rfid_geom::Vec3::X, -rfid_geom::Vec3::Y);
    let duration = cal.pass_duration_s();
    let mut reader = cal.reader(&antenna_poses(cal, 1, 2.0));
    reader.tx_power = Dbm::new(power_dbm);
    ScenarioBuilder::new()
        .frequency_hz(cal.frequency_hz)
        .duration_s(duration)
        .channel(cal.channel_params())
        .reader(reader)
        .tag(SimTag {
            epc: rfid_gen2::Epc96::from_u128(0x600D),
            attachment: Attachment::Free(Motion::linear(
                rfid_geom::Pose::new(
                    rfid_geom::Vec3::new(
                        -cal.pass_half_length_m,
                        cal.lane_distance_m,
                        cal.antenna_height_m,
                    ),
                    facing,
                ),
                rfid_geom::Vec3::new(cal.speed_mps, 0.0, 0.0),
                0.0,
                duration,
            )),
            chip: cal.chip(),
            mounting: Mounting::free_space(),
        })
        .tag(SimTag {
            epc: rfid_gen2::Epc96::from_u128(0xFA15E),
            attachment: Attachment::Free(Motion::Static(rfid_geom::Pose::new(
                rfid_geom::Vec3::new(0.0, BYSTANDER_DISTANCE_M, cal.antenna_height_m),
                facing,
            ))),
            chip: cal.chip(),
            mounting: Mounting::free_space(),
        })
        .build()
}

/// Runs the sweep. Trial `i` has seed `seed.wrapping_add(i)`, so results
/// are identical for any thread count.
///
/// # Panics
///
/// Panics if `trials == 0`.
#[must_use]
pub fn run(cal: &Calibration, trials: u64, seed: u64, executor: &TrialExecutor) -> PowerResult {
    assert!(trials > 0, "at least one trial is required");
    let rows = POWERS_DBM
        .iter()
        .map(|&power_dbm| {
            let scenario = portal_with_bystander(cal, power_dbm);
            // The passing tag and the bystander are one-tag objects.
            let hits = tracked_counts(executor, &scenario, trials, seed, &[[0], [1]]);
            PowerRow {
                power_dbm,
                in_zone_reliability: hits[0] as f64 / trials as f64,
                false_positive_rate: hits[1] as f64 / trials as f64,
            }
        })
        .collect();
    PowerResult { rows, trials }
}

/// Renders the sweep.
#[must_use]
pub fn render(result: &PowerResult) -> String {
    let mut table = Table::new(vec![
        "tx power".into(),
        "passing-tag reliability".into(),
        "bystander read (false +)".into(),
    ]);
    table.align(1, Align::Right).align(2, Align::Right);
    for row in &result.rows {
        table.row(vec![
            format!("{:.0} dBm", row.power_dbm),
            percent(row.in_zone_reliability),
            percent(row.false_positive_rate),
        ]);
    }
    format!(
        "Power sweep — the Section 2.1 false-positive lever, measured \
         (bystander parked {BYSTANDER_DISTANCE_M} m away in a staging area; \
         {} passes per power; 30 dBm is the paper's setting)\n{table}{}",
        result.trials,
        shape_check_line(
            "lower power kills out-of-zone reads before in-zone reliability",
            result.shape_holds()
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tradeoff_has_a_sweet_spot() {
        let result = run(&Calibration::default(), 10, 2007, &TrialExecutor::serial());
        assert!(
            result.shape_holds(),
            "{:?}",
            result
                .rows
                .iter()
                .map(|r| (r.power_dbm, r.in_zone_reliability, r.false_positive_rate))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn full_power_reads_reliably_in_zone() {
        let result = run(&Calibration::default(), 6, 5, &TrialExecutor::serial());
        let full = result.rows.last().expect("five powers");
        assert!(full.in_zone_reliability > 0.9);
    }

    #[test]
    fn render_lists_all_powers() {
        let result = run(&Calibration::default(), 2, 3, &TrialExecutor::serial());
        let text = render(&result);
        for power in POWERS_DBM {
            assert!(text.contains(&format!("{power:.0} dBm")));
        }
    }
}
