//! Three-component vectors.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-D vector (or point) with `f64` components.
///
/// The simulator's convention is right-handed with `z` up; portals usually
/// put the antenna plane in `xz` and motion along `x`.
///
/// # Examples
///
/// ```
/// use rfid_geom::Vec3;
///
/// let a = Vec3::new(1.0, 0.0, 0.0);
/// let b = Vec3::new(0.0, 1.0, 0.0);
/// assert_eq!(a.dot(b), 0.0);
/// assert_eq!(a.cross(b), Vec3::new(0.0, 0.0, 1.0));
/// assert_eq!((a + b).norm(), 2f64.sqrt());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along x.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit vector along y.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit vector along z.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    #[must_use]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Dot product.
    #[must_use]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product (right-handed).
    #[must_use]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean length.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared length (cheaper than [`Vec3::norm`]).
    #[must_use]
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Unit vector in the same direction, or `None` for (near-)zero vectors.
    #[must_use]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Distance between two points.
    #[must_use]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Squared distance between two points (no square root — for
    /// threshold comparisons in hot loops).
    #[must_use]
    pub fn distance_squared(self, other: Vec3) -> f64 {
        let d = self - other;
        d.dot(d)
    }

    /// Component-wise absolute value.
    #[must_use]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Whether all components are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f64; 3] {
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_vec() -> impl Strategy<Value = Vec3> {
        (-100.0f64..100.0, -100.0f64..100.0, -100.0f64..100.0)
            .prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    #[test]
    fn basis_cross_products() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert_eq!(Vec3::ZERO.normalized(), None);
        assert_eq!(Vec3::new(1e-13, 0.0, 0.0).normalized(), None);
    }

    #[test]
    fn array_round_trip() {
        let v = Vec3::new(1.0, -2.0, 3.5);
        let arr: [f64; 3] = v.into();
        assert_eq!(Vec3::from(arr), v);
    }

    proptest! {
        #[test]
        fn cross_is_orthogonal(a in arb_vec(), b in arb_vec()) {
            let c = a.cross(b);
            prop_assert!(c.dot(a).abs() < 1e-6 * (1.0 + a.norm() * b.norm() * a.norm()));
            prop_assert!(c.dot(b).abs() < 1e-6 * (1.0 + a.norm() * b.norm() * b.norm()));
        }

        #[test]
        fn normalization_gives_unit_length(v in arb_vec()) {
            if let Some(u) = v.normalized() {
                prop_assert!((u.norm() - 1.0).abs() < 1e-9);
                // Same direction: u x v == 0 and u . v >= 0.
                prop_assert!(u.cross(v).norm() < 1e-6 * (1.0 + v.norm()));
                prop_assert!(u.dot(v) >= 0.0);
            }
        }

        #[test]
        fn triangle_inequality(a in arb_vec(), b in arb_vec()) {
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        }

        #[test]
        fn dot_is_symmetric(a in arb_vec(), b in arb_vec()) {
            prop_assert!((a.dot(b) - b.dot(a)).abs() < 1e-9);
        }
    }
}
