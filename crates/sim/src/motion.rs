//! Analytic motion paths.

use rfid_geom::{Pose, Vec3};
use serde::{Deserialize, Serialize};

/// The motion of an object (or free tag) as an analytic function of time.
///
/// Paths are clamped outside their active window, so an object "parks" at
/// its start pose before motion begins and at its end pose afterwards —
/// exactly how the paper's cart and walking-subject trials work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Motion {
    /// No motion.
    Static(Pose),
    /// Constant-velocity translation with fixed orientation.
    Linear {
        /// Pose at `t_start`.
        start: Pose,
        /// Velocity in meters per second (world frame).
        velocity: Vec3,
        /// Time at which motion starts.
        t_start: f64,
        /// Time at which motion ends.
        t_end: f64,
    },
}

impl Motion {
    /// Convenience constructor for linear motion.
    ///
    /// # Panics
    ///
    /// Panics if `t_end < t_start`.
    #[must_use]
    pub fn linear(start: Pose, velocity: Vec3, t_start: f64, t_end: f64) -> Motion {
        assert!(t_end >= t_start, "motion must not end before it starts");
        Motion::Linear {
            start,
            velocity,
            t_start,
            t_end,
        }
    }

    /// The pose at time `t`.
    #[must_use]
    pub fn pose_at(&self, t: f64) -> Pose {
        match self {
            Motion::Static(pose) => *pose,
            Motion::Linear {
                start,
                velocity,
                t_start,
                t_end,
            } => {
                let dt = t.clamp(*t_start, *t_end) - t_start;
                Pose::new(start.translation() + *velocity * dt, start.rotation())
            }
        }
    }
}

impl Default for Motion {
    fn default() -> Self {
        Motion::Static(Pose::IDENTITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_motion_never_moves() {
        let pose = Pose::from_translation(Vec3::new(1.0, 2.0, 3.0));
        let m = Motion::Static(pose);
        assert_eq!(m.pose_at(-5.0), pose);
        assert_eq!(m.pose_at(100.0), pose);
    }

    #[test]
    fn linear_motion_tracks_velocity() {
        let m = Motion::linear(
            Pose::from_translation(Vec3::new(-2.0, 1.0, 0.0)),
            Vec3::new(1.0, 0.0, 0.0),
            0.0,
            4.0,
        );
        assert_eq!(m.pose_at(0.0).translation(), Vec3::new(-2.0, 1.0, 0.0));
        assert_eq!(m.pose_at(2.0).translation(), Vec3::new(0.0, 1.0, 0.0));
        // Clamped outside the window.
        assert_eq!(m.pose_at(-1.0).translation(), Vec3::new(-2.0, 1.0, 0.0));
        assert_eq!(m.pose_at(9.0).translation(), Vec3::new(2.0, 1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "must not end before it starts")]
    fn linear_validates_window() {
        let _ = Motion::linear(Pose::IDENTITY, Vec3::X, 2.0, 1.0);
    }
}
