//! Rigid-body poses (rotation + translation).

use crate::{Rotation, Vec3};
use serde::{Deserialize, Serialize};
use std::ops::Mul;

/// A rigid transform from a local frame into the world frame.
///
/// Objects, antennas, and tags each carry a pose; tags attached to a moving
/// object compose the object's world pose with their mount pose.
///
/// # Examples
///
/// ```
/// use rfid_geom::{Pose, Rotation, Vec3};
/// use std::f64::consts::FRAC_PI_2;
///
/// let object = Pose::new(
///     Vec3::new(10.0, 0.0, 0.0),
///     Rotation::from_axis_angle(Vec3::Z, FRAC_PI_2).unwrap(),
/// );
/// let tag_mount = Pose::from_translation(Vec3::new(1.0, 0.0, 0.0));
/// let tag_world = object * tag_mount;
/// assert!((tag_world.translation() - Vec3::new(10.0, 1.0, 0.0)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Pose {
    translation: Vec3,
    rotation: Rotation,
}

impl Pose {
    /// The identity pose.
    pub const IDENTITY: Pose = Pose {
        translation: Vec3::ZERO,
        rotation: Rotation::IDENTITY,
    };

    /// Creates a pose from translation and rotation.
    #[must_use]
    pub const fn new(translation: Vec3, rotation: Rotation) -> Self {
        Self {
            translation,
            rotation,
        }
    }

    /// A pure translation.
    #[must_use]
    pub const fn from_translation(translation: Vec3) -> Self {
        Self {
            translation,
            rotation: Rotation::IDENTITY,
        }
    }

    /// Translation component.
    #[must_use]
    pub fn translation(&self) -> Vec3 {
        self.translation
    }

    /// Rotation component.
    #[must_use]
    pub fn rotation(&self) -> Rotation {
        self.rotation
    }

    /// Maps a point from the local frame to the world frame.
    #[must_use]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation.apply(p) + self.translation
    }

    /// Maps a direction from the local frame to the world frame
    /// (no translation).
    #[must_use]
    pub fn transform_dir(&self, d: Vec3) -> Vec3 {
        self.rotation.apply(d)
    }

    /// Maps a world-frame point into the local frame.
    #[must_use]
    pub fn inverse_transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation.inverse().apply(p - self.translation)
    }

    /// Maps a world-frame direction into the local frame.
    #[must_use]
    pub fn inverse_transform_dir(&self, d: Vec3) -> Vec3 {
        self.rotation.inverse().apply(d)
    }

    /// The inverse pose.
    #[must_use]
    pub fn inverse(&self) -> Pose {
        let inv_rot = self.rotation.inverse();
        Pose {
            translation: -inv_rot.apply(self.translation),
            rotation: inv_rot,
        }
    }
}

impl Mul for Pose {
    type Output = Pose;

    /// Composition: `(a * b).transform_point(p) == a.transform_point(b.transform_point(p))`.
    fn mul(self, rhs: Pose) -> Pose {
        Pose {
            translation: self.transform_point(rhs.translation),
            rotation: self.rotation * rhs.rotation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn identity_round_trip() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(Pose::IDENTITY.transform_point(p), p);
        assert_eq!(Pose::IDENTITY.inverse_transform_point(p), p);
    }

    #[test]
    fn translation_then_rotation_ordering() {
        let pose = Pose::new(
            Vec3::new(5.0, 0.0, 0.0),
            Rotation::from_axis_angle(Vec3::Z, FRAC_PI_2).unwrap(),
        );
        // Local x is rotated to world y, then translated.
        let p = pose.transform_point(Vec3::X);
        assert!((p - Vec3::new(5.0, 1.0, 0.0)).norm() < 1e-12);
        // Directions ignore translation.
        let d = pose.transform_dir(Vec3::X);
        assert!((d - Vec3::Y).norm() < 1e-12);
    }

    #[test]
    fn inverse_pose_composes_to_identity() {
        let pose = Pose::new(
            Vec3::new(1.0, -2.0, 0.5),
            Rotation::from_yaw_pitch_roll(0.3, -1.1, 2.0),
        );
        let id = pose * pose.inverse();
        let p = Vec3::new(3.0, 1.0, -7.0);
        assert!((id.transform_point(p) - p).norm() < 1e-9);
    }

    proptest! {
        #[test]
        fn inverse_transform_undoes_transform(
            tx in -10.0f64..10.0, ty in -10.0f64..10.0, tz in -10.0f64..10.0,
            yaw in -3.0f64..3.0, pitch in -3.0f64..3.0, roll in -3.0f64..3.0,
            px in -10.0f64..10.0, py in -10.0f64..10.0, pz in -10.0f64..10.0,
        ) {
            let pose = Pose::new(
                Vec3::new(tx, ty, tz),
                Rotation::from_yaw_pitch_roll(yaw, pitch, roll),
            );
            let p = Vec3::new(px, py, pz);
            let back = pose.inverse_transform_point(pose.transform_point(p));
            prop_assert!((back - p).norm() < 1e-8);
            let d_back = pose.inverse_transform_dir(pose.transform_dir(p));
            prop_assert!((d_back - p).norm() < 1e-8);
        }

        #[test]
        fn composition_matches_sequential(
            t1 in -5.0f64..5.0, a1 in -3.0f64..3.0,
            t2 in -5.0f64..5.0, a2 in -3.0f64..3.0,
            px in -5.0f64..5.0,
        ) {
            let pa = Pose::new(Vec3::new(t1, 0.0, 0.0),
                               Rotation::from_axis_angle(Vec3::Z, a1).unwrap());
            let pb = Pose::new(Vec3::new(0.0, t2, 0.0),
                               Rotation::from_axis_angle(Vec3::X, a2).unwrap());
            let p = Vec3::new(px, 1.0, -1.0);
            let composed = (pa * pb).transform_point(p);
            let sequential = pa.transform_point(pb.transform_point(p));
            prop_assert!((composed - sequential).norm() < 1e-9);
        }

        #[test]
        fn pose_transform_preserves_distances(
            tx in -10.0f64..10.0, yaw in -3.0f64..3.0,
            ax in -5.0f64..5.0, ay in -5.0f64..5.0,
            bx in -5.0f64..5.0, by in -5.0f64..5.0,
        ) {
            let pose = Pose::new(Vec3::new(tx, 2.0, -1.0),
                                 Rotation::from_yaw_pitch_roll(yaw, 0.4, -0.2));
            let a = Vec3::new(ax, ay, 0.0);
            let b = Vec3::new(bx, by, 1.0);
            let before = a.distance(b);
            let after = pose.transform_point(a).distance(pose.transform_point(b));
            prop_assert!((before - after).abs() < 1e-8);
        }
    }
}
