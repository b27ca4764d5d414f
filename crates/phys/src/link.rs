//! The end-to-end link budget for one reader-antenna/tag pair.

use crate::antenna::{Pattern, Polarization};
use crate::{path_loss, Db, Dbm, Material, TagChip};
use rfid_geom::{Pose, Vec3};
use serde::{Deserialize, Serialize};

/// A reader antenna, placed in the world and driven by a reader port.
///
/// Frame convention: boresight along local `+y`, up along local `+z`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReaderAntenna {
    /// World pose of the antenna.
    pub pose: Pose,
    /// Radiation pattern.
    pub pattern: Pattern,
    /// Polarization (commercial portal antennas are circular).
    pub polarization: Polarization,
    /// Conducted transmit power at the reader port.
    pub tx_power: Dbm,
    /// One-way loss of the cable between reader and antenna.
    pub cable_loss: Db,
    /// Receiver sensitivity for decoding tag backscatter.
    pub sensitivity: Dbm,
}

impl ReaderAntenna {
    /// A typical portal setup: 6 dBi circular patch, 30 dBm (1 W, the
    /// paper's reader default and the FCC conducted limit), 1 dB of cable,
    /// -80 dBm receive sensitivity.
    #[must_use]
    pub fn portal_default(pose: Pose) -> Self {
        Self {
            pose,
            pattern: Pattern::patch(6.0),
            polarization: Polarization::Circular,
            tx_power: Dbm::new(30.0),
            cable_loss: Db::new(1.0),
            sensitivity: Dbm::new(-80.0),
        }
    }
}

/// A tag antenna placed in the world.
///
/// Frame convention: dipole axis along local `+x`, face normal along
/// local `+y`. The radiation pattern is a half-wave dipole.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagAntenna {
    /// World pose of the tag.
    pub pose: Pose,
    /// Chip electrical parameters.
    pub chip: TagChip,
}

impl TagAntenna {
    /// The tag's dipole axis in world coordinates.
    #[must_use]
    pub fn axis_world(&self) -> Vec3 {
        self.pose.transform_dir(Vec3::X)
    }

    /// The tag's face normal in world coordinates.
    #[must_use]
    pub fn normal_world(&self) -> Vec3 {
        self.pose.transform_dir(Vec3::Y)
    }
}

/// A slab of material on the line of sight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Obstruction {
    /// The material.
    pub material: Material,
    /// Path length through the material, in meters.
    pub thickness_m: f64,
    /// Characteristic size of the obstructing object (bounding-sphere
    /// diameter), in meters. Channel models use it to decide whether
    /// diffraction around the object can fill in its shadow.
    pub extent_m: f64,
}

impl Obstruction {
    /// Creates an obstruction whose extent equals its thickness (an
    /// isolated slab).
    #[must_use]
    pub fn new(material: Material, thickness_m: f64) -> Self {
        Self {
            material,
            thickness_m,
            extent_m: thickness_m,
        }
    }

    /// One-way bulk loss of this obstruction (uncapped).
    #[must_use]
    pub fn loss(&self) -> Db {
        self.material.penetration_loss(self.thickness_m)
    }
}

/// Link-budget calculator for a fixed carrier frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    frequency_hz: f64,
}

impl LinkBudget {
    /// Creates a calculator for the given carrier frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    #[must_use]
    pub fn new(frequency_hz: f64) -> Self {
        assert!(frequency_hz > 0.0, "frequency must be positive");
        Self { frequency_hz }
    }

    /// The carrier frequency in Hz.
    #[must_use]
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_hz
    }

    /// Evaluates the full forward and reverse budget.
    ///
    /// `extra_loss` carries the situational one-way losses computed by the
    /// simulator: mounting detuning, inter-tag coupling, shadowing, and
    /// fast fading (gains enter as negative losses). It is applied on both
    /// the forward and reverse paths, as those mechanisms are reciprocal.
    #[must_use]
    pub fn evaluate(
        &self,
        reader: &ReaderAntenna,
        tag: &TagAntenna,
        obstructions: &[Obstruction],
        extra_loss: Db,
    ) -> LinkReport {
        let reader_pos = reader.pose.translation();
        let tag_pos = tag.pose.translation();
        let distance = reader_pos.distance(tag_pos);
        let los = (tag_pos - reader_pos).normalized().unwrap_or(Vec3::Y);

        // Antenna gains toward each other.
        let reader_gain = reader.pattern.gain(reader.pose.inverse_transform_dir(los));
        let tag_gain = tag
            .chip
            .antenna_pattern
            .gain(tag.pose.inverse_transform_dir(-los));

        // Polarization mismatch between reader field and tag antenna.
        // A dual-dipole tag captures both transverse polarization
        // components through its orthogonal elements, so it sees the
        // fixed ~3 dB combining split against any reader polarization
        // rather than the single-dipole projection loss.
        let pol_loss = if tag.chip.antenna_pattern == Pattern::DualDipole {
            Db::new(3.0)
        } else {
            let reader_axis_world = match reader.polarization {
                Polarization::Linear { axis } => reader.pose.transform_dir(axis),
                Polarization::Circular => reader.pose.transform_dir(Vec3::Z),
            };
            reader
                .polarization
                .mismatch_loss(los, reader_axis_world, tag.axis_world())
        };

        let obstruction_loss: Db = obstructions.iter().map(Obstruction::loss).sum();
        let one_way = reader_gain + tag_gain
            - pol_loss
            - path_loss(self.frequency_hz, distance)
            - obstruction_loss
            - extra_loss;

        let forward_power = reader.tx_power - reader.cable_loss + one_way;
        let backscatter_power =
            forward_power - tag.chip.backscatter_loss + one_way - reader.cable_loss;

        LinkReport {
            distance_m: distance,
            forward_power,
            forward_margin: forward_power - tag.chip.sensitivity,
            backscatter_power,
            reverse_margin: backscatter_power - reader.sensitivity,
            one_way_gain: one_way,
        }
    }
}

/// The outcome of a link-budget evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkReport {
    /// Reader-to-tag distance in meters.
    pub distance_m: f64,
    /// Power delivered to the tag chip.
    pub forward_power: Dbm,
    /// Forward power above chip sensitivity (negative: tag stays dark).
    pub forward_margin: Db,
    /// Backscatter power arriving at the reader receiver.
    pub backscatter_power: Dbm,
    /// Backscatter power above reader sensitivity.
    pub reverse_margin: Db,
    /// Total one-way gain (negative), for diagnostics.
    pub one_way_gain: Db,
}

impl LinkReport {
    /// Whether the tag powers up *and* its reply is decodable: the binding
    /// margin is the smaller of the two.
    #[must_use]
    pub fn responds(&self) -> bool {
        self.forward_margin.value() >= 0.0 && self.reverse_margin.value() >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Rotation;
    use std::f64::consts::FRAC_PI_2;

    const F: f64 = 915.0e6;

    fn boresight_tag(distance: f64) -> TagAntenna {
        // Tag straight ahead of the antenna (boresight +y), dipole along x
        // (broadside to the line of sight), facing back toward the antenna.
        TagAntenna {
            pose: Pose::from_translation(Vec3::new(0.0, distance, 0.0)),
            chip: TagChip::default(),
        }
    }

    #[test]
    fn close_tag_responds_far_tag_does_not() {
        let budget = LinkBudget::new(F);
        let reader = ReaderAntenna::portal_default(Pose::IDENTITY);
        let near = budget.evaluate(&reader, &boresight_tag(1.0), &[], Db::ZERO);
        assert!(near.responds(), "margin at 1 m: {}", near.forward_margin);
        let far = budget.evaluate(&reader, &boresight_tag(50.0), &[], Db::ZERO);
        assert!(!far.responds());
    }

    #[test]
    fn free_space_read_range_is_a_few_meters() {
        // The paper's Figure 2 shows reliable reads out to a couple of
        // meters and a gradual decline to ~9 m. The deterministic (no
        // fading) crossover should sit inside 2-9 m.
        let budget = LinkBudget::new(F);
        let reader = ReaderAntenna::portal_default(Pose::IDENTITY);
        let mut crossover = None;
        for tenths in 10..120 {
            let d = tenths as f64 / 10.0;
            if !budget
                .evaluate(&reader, &boresight_tag(d), &[], Db::ZERO)
                .responds()
            {
                crossover = Some(d);
                break;
            }
        }
        let crossover = crossover.expect("range should be finite");
        assert!(
            (2.0..=9.0).contains(&crossover),
            "deterministic range = {crossover} m"
        );
    }

    #[test]
    fn forward_link_limits_passive_tags() {
        let budget = LinkBudget::new(F);
        let reader = ReaderAntenna::portal_default(Pose::IDENTITY);
        let report = budget.evaluate(&reader, &boresight_tag(3.0), &[], Db::ZERO);
        assert!(
            report.forward_margin < report.reverse_margin,
            "forward {} vs reverse {}",
            report.forward_margin,
            report.reverse_margin
        );
    }

    #[test]
    fn end_on_tag_loses_badly() {
        let budget = LinkBudget::new(F);
        let reader = ReaderAntenna::portal_default(Pose::IDENTITY);
        let broadside = budget.evaluate(&reader, &boresight_tag(1.0), &[], Db::ZERO);
        // Rotate the tag so its dipole axis points along the line of sight.
        let end_on = TagAntenna {
            pose: Pose::new(
                Vec3::new(0.0, 1.0, 0.0),
                Rotation::from_axis_angle(Vec3::Z, FRAC_PI_2).unwrap(),
            ),
            chip: TagChip::default(),
        };
        let report = budget.evaluate(&reader, &end_on, &[], Db::ZERO);
        assert!(
            report.forward_power.value() < broadside.forward_power.value() - 20.0,
            "end-on should cost tens of dB"
        );
    }

    #[test]
    fn obstructions_and_extra_losses_stack() {
        let budget = LinkBudget::new(F);
        let reader = ReaderAntenna::portal_default(Pose::IDENTITY);
        let clear = budget.evaluate(&reader, &boresight_tag(1.0), &[], Db::ZERO);
        let blocked = budget.evaluate(
            &reader,
            &boresight_tag(1.0),
            &[Obstruction::new(Material::Flesh, 0.3)],
            Db::new(5.0),
        );
        let expected_drop = Material::Flesh.penetration_loss(0.3) + Db::new(5.0);
        let actual_drop = clear.forward_power - blocked.forward_power;
        assert!((actual_drop.value() - expected_drop.value()).abs() < 1e-9);
        // The reverse path pays the obstruction twice (out and back).
        let reverse_drop = clear.backscatter_power - blocked.backscatter_power;
        assert!((reverse_drop.value() - 2.0 * expected_drop.value()).abs() < 1e-9);
    }

    #[test]
    fn fading_gain_can_rescue_a_marginal_link() {
        let budget = LinkBudget::new(F);
        let reader = ReaderAntenna::portal_default(Pose::IDENTITY);
        // Find a distance with a slightly negative margin.
        let d = (10..100)
            .map(|t| t as f64 / 10.0)
            .find(|&d| {
                let m = budget
                    .evaluate(&reader, &boresight_tag(d), &[], Db::ZERO)
                    .forward_margin;
                m.value() < 0.0 && m.value() > -3.0
            })
            .expect("some distance has a small negative margin");
        let faded_up = budget.evaluate(&reader, &boresight_tag(d), &[], Db::new(-4.0));
        assert!(faded_up.responds(), "a +4 dB fade should rescue the link");
    }

    #[test]
    fn dual_dipole_ignores_linear_reader_polarization() {
        // A cross-polarized single dipole loses the cross-pol floor; a
        // dual-dipole tag in the same attitude captures the field through
        // its other element and pays only the ~3 dB split.
        let budget = LinkBudget::new(F);
        let mut reader = ReaderAntenna::portal_default(Pose::IDENTITY);
        reader.polarization = Polarization::linear_vertical();
        // Tag dipole along world x (cross-polarized to the vertical reader).
        let pose = Pose::new(
            Vec3::new(0.0, 1.0, 0.0),
            Rotation::from_axis_angle(Vec3::Y, std::f64::consts::PI).unwrap(),
        );
        let single = budget.evaluate(
            &reader,
            &TagAntenna {
                pose,
                chip: TagChip::default(),
            },
            &[],
            Db::ZERO,
        );
        let dual = budget.evaluate(
            &reader,
            &TagAntenna {
                pose,
                chip: TagChip::dual_dipole(),
            },
            &[],
            Db::ZERO,
        );
        assert!(
            dual.forward_power.value() > single.forward_power.value() + 15.0,
            "dual {} vs single {}",
            dual.forward_power,
            single.forward_power
        );
        assert!(dual.responds(), "dual-dipole must survive a linear reader");
    }

    #[test]
    fn doubling_distance_costs_twelve_db_on_reverse() {
        let budget = LinkBudget::new(F);
        let reader = ReaderAntenna::portal_default(Pose::IDENTITY);
        let at1 = budget.evaluate(&reader, &boresight_tag(1.0), &[], Db::ZERO);
        let at2 = budget.evaluate(&reader, &boresight_tag(2.0), &[], Db::ZERO);
        let forward_drop = at1.forward_power - at2.forward_power;
        let reverse_drop = at1.backscatter_power - at2.backscatter_power;
        assert!((forward_drop.value() - 6.02).abs() < 0.3);
        assert!((reverse_drop.value() - 12.04).abs() < 0.6);
    }
}
