//! Decibel quantity newtypes.
//!
//! Two distinct types keep absolute power levels ([`Dbm`]) from being
//! confused with relative gains/losses ([`Db`]) — adding two absolute powers
//! in decibel space is a bug the type system rules out.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A relative power ratio in decibels (gain when positive, loss when
/// negative, by convention of the using site).
///
/// # Examples
///
/// ```
/// use rfid_phys::{Db, Dbm};
///
/// let tx = Dbm::new(30.0);
/// let path = Db::new(-41.7);
/// let gain = Db::new(6.0);
/// let rx = tx + path + gain;
/// assert!((rx.value() - (-5.7)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Db(f64);

impl Db {
    /// Zero decibels (unity ratio).
    pub const ZERO: Db = Db(0.0);

    /// Creates a ratio from a decibel value.
    #[must_use]
    pub const fn new(db: f64) -> Self {
        Db(db)
    }

    /// The decibel value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to a linear power ratio.
    #[must_use]
    pub fn ratio(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Clamps the decibel value into `[min, max]`.
    #[must_use]
    pub fn clamp(self, min: f64, max: f64) -> Self {
        Db(self.0.clamp(min, max))
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl SubAssign for Db {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Mul<f64> for Db {
    type Output = Db;
    fn mul(self, s: f64) -> Db {
        Db(self.0 * s)
    }
}

impl Sum for Db {
    fn sum<I: Iterator<Item = Db>>(iter: I) -> Db {
        Db(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

/// An absolute power level in decibel-milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Dbm(f64);

impl Dbm {
    /// Creates a power level from a dBm value.
    #[must_use]
    pub const fn new(dbm: f64) -> Self {
        Dbm(dbm)
    }

    /// The dBm value.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }
}

/// Applying a gain/loss to an absolute level yields an absolute level.
impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.value())
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.value())
    }
}

/// The difference of two absolute levels is a ratio.
impl Sub for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db::new(self.0 - rhs.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn three_db_is_a_factor_of_two() {
        assert!((Db::new(3.0103).ratio() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn level_arithmetic() {
        let margin = (Dbm::new(-5.0) + Db::new(2.0)) - Dbm::new(-13.0);
        assert!((margin.value() - 10.0).abs() < 1e-12);
        let attenuated = Dbm::new(0.0) - Db::new(7.0);
        assert!((attenuated.value() + 7.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_losses() {
        let total: Db = [Db::new(1.0), Db::new(2.5), Db::new(-0.5)]
            .into_iter()
            .sum();
        assert!((total.value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Db::new(-3.25).to_string(), "-3.2 dB");
        assert_eq!(Dbm::new(30.0).to_string(), "30.0 dBm");
    }

    proptest! {
        #[test]
        fn adding_db_adds_linearly(dbm in -50.0f64..50.0, db in -50.0f64..50.0) {
            // A level in dBm is decibels above one milliwatt.
            let milliwatts = |level: Dbm| Db::new(level.value()).ratio();
            let out = Dbm::new(dbm) + Db::new(db);
            let linear = milliwatts(Dbm::new(dbm)) * Db::new(db).ratio();
            prop_assert!((milliwatts(out) - linear).abs() / linear < 1e-9);
        }
    }
}
