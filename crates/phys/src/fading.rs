//! Shadowing and small-scale fading.
//!
//! Two stochastic components sit on top of the deterministic link budget:
//!
//! * **Log-normal shadowing** — slow, per-pass gain offsets from the large
//!   scale environment (cart load, exact mounting, room clutter). Sampled
//!   once per (tag, pass) and *shared* across a reader's antennas, which is
//!   what makes antenna-level redundancy fall short of the independence
//!   model in the paper's Table 3.
//! * **Rician fast fading** — multipath self-interference that decorrelates
//!   roughly every half wavelength of motion. [`FadingProcess`] exposes it
//!   as a deterministic piecewise-constant function of time, so that a tag
//!   moving through a portal sees a realistic, finite number of independent
//!   fades rather than a fresh draw per protocol slot.

use crate::Db;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Log-normal shadowing with the given standard deviation in dB.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Shadowing {
    /// Standard deviation of the gain offset, in dB.
    pub sigma_db: f64,
}

impl Shadowing {
    /// Creates a shadowing model.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_db` is negative.
    #[must_use]
    pub fn new(sigma_db: f64) -> Self {
        assert!(sigma_db >= 0.0, "sigma must be non-negative");
        Self { sigma_db }
    }

    /// Draws one shadowing offset (zero-mean normal in dB).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Db {
        Db::new(self.sigma_db * standard_normal(rng))
    }
}

/// A deterministic Rician fast-fading process, piecewise-constant over
/// coherence intervals.
///
/// The value at time `t` depends only on the seed and the interval index
/// `floor(t / coherence_s)`, so simulations are reproducible and two
/// queries inside one coherence interval see the same fade — the property
/// that keeps a marginal tag from being "saved" by thousands of protocol
/// retries within one fade.
///
/// # Examples
///
/// ```
/// use rfid_phys::FadingProcess;
///
/// // 1 m/s motion at 915 MHz decorrelates about every 0.16 s.
/// let fading = FadingProcess::new(6.0, 0.16, 42);
/// let a = fading.value_at(0.05);
/// let b = fading.value_at(0.10);      // same coherence interval
/// let c = fading.value_at(0.30);      // different interval
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FadingProcess {
    /// Rician K-factor in dB (ratio of line-of-sight to scattered power).
    pub k_factor_db: f64,
    /// Coherence time in seconds.
    pub coherence_s: f64,
    /// Process seed; different links should use different seeds.
    pub seed: u64,
}

impl FadingProcess {
    /// Creates a fading process.
    ///
    /// # Panics
    ///
    /// Panics if `coherence_s` is not strictly positive.
    #[must_use]
    pub fn new(k_factor_db: f64, coherence_s: f64, seed: u64) -> Self {
        assert!(coherence_s > 0.0, "coherence time must be positive");
        Self {
            k_factor_db,
            coherence_s,
            seed,
        }
    }

    /// Coherence time for motion at `speed_mps` and carrier `frequency_hz`
    /// (half-wavelength decorrelation distance).
    ///
    /// # Panics
    ///
    /// Panics if the speed is not strictly positive.
    #[must_use]
    pub fn coherence_from_speed(speed_mps: f64, frequency_hz: f64) -> f64 {
        assert!(speed_mps > 0.0, "speed must be positive");
        crate::wavelength(frequency_hz) / 2.0 / speed_mps
    }

    /// The fading gain (dB, usually negative) at time `t` seconds.
    #[must_use]
    pub fn value_at(&self, t: f64) -> Db {
        let interval = (t / self.coherence_s).floor() as i64;
        self.value_in_interval(interval)
    }

    /// The fading gain in a specific coherence interval.
    #[must_use]
    pub fn value_in_interval(&self, interval: i64) -> Db {
        let mut state = splitmix(self.seed ^ (interval as u64).wrapping_mul(0x9E37_79B9));
        let u1 = next_unit(&mut state);
        let u2 = next_unit(&mut state);
        let u3 = next_unit(&mut state);
        let u4 = next_unit(&mut state);
        Db::new(rician_power_db(self.k_factor_db, u1, u2, u3, u4))
    }
}

/// Rician power fade relative to the mean, in dB, from four uniforms.
///
/// The complex envelope is `nu + X + jY` with `X, Y ~ N(0, sigma^2)`,
/// `K = nu^2 / (2 sigma^2)`, normalized so the mean power is one.
fn rician_power_db(k_factor_db: f64, u1: f64, u2: f64, u3: f64, u4: f64) -> f64 {
    let k = 10f64.powf(k_factor_db / 10.0);
    let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
    let nu = (k / (k + 1.0)).sqrt();
    let x = nu + sigma * box_muller(u1, u2);
    let y = sigma * box_muller(u3, u4);
    let power = x * x + y * y;
    10.0 * power.max(1e-12).log10()
}

fn box_muller(u1: f64, u2: f64) -> f64 {
    let r = (-2.0 * u1.max(1e-12).ln()).sqrt();
    r * (2.0 * std::f64::consts::PI * u2).cos()
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    box_muller(rng.gen::<f64>(), rng.gen::<f64>())
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn next_unit(state: &mut u64) -> f64 {
    *state = splitmix(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn shadowing_is_zero_mean_with_right_spread() {
        let model = Shadowing::new(4.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| model.sample(&mut rng).value())
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!(mean.abs() < 0.15, "mean = {mean}");
        assert!((var.sqrt() - 4.0).abs() < 0.15, "std = {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let model = Shadowing::new(0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(model.sample(&mut rng), Db::ZERO);
    }

    #[test]
    fn fading_is_deterministic_per_seed() {
        let a = FadingProcess::new(6.0, 0.1, 99);
        let b = FadingProcess::new(6.0, 0.1, 99);
        for i in 0..10 {
            assert_eq!(a.value_in_interval(i), b.value_in_interval(i));
        }
        let c = FadingProcess::new(6.0, 0.1, 100);
        assert_ne!(a.value_in_interval(0), c.value_in_interval(0));
    }

    #[test]
    fn fading_is_constant_within_an_interval() {
        let f = FadingProcess::new(6.0, 0.25, 5);
        assert_eq!(f.value_at(0.01), f.value_at(0.24));
        assert_ne!(f.value_at(0.01), f.value_at(0.26));
    }

    #[test]
    fn mean_fade_power_is_near_unity() {
        let f = FadingProcess::new(6.0, 1.0, 3);
        let mean_power: f64 = (0..20_000)
            .map(|i| Db::new(f.value_in_interval(i).value()).ratio())
            .sum::<f64>()
            / 20_000.0;
        assert!((mean_power - 1.0).abs() < 0.05, "mean power = {mean_power}");
    }

    #[test]
    fn high_k_fades_less_deeply() {
        let spread = |k: f64| {
            let f = FadingProcess::new(k, 1.0, 11);
            let vals: Vec<f64> = (0..5000).map(|i| f.value_in_interval(i).value()).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        assert!(
            spread(12.0) < spread(0.0),
            "LOS-dominated fading is shallower"
        );
    }

    #[test]
    fn coherence_from_speed_matches_half_wavelength() {
        let coherence = FadingProcess::coherence_from_speed(1.0, 915.0e6);
        assert!((coherence - 0.1638).abs() < 1e-3, "coherence = {coherence}");
        // Faster motion decorrelates sooner.
        assert!(FadingProcess::coherence_from_speed(2.0, 915.0e6) < coherence);
    }

    #[test]
    #[should_panic(expected = "coherence time must be positive")]
    fn zero_coherence_panics() {
        let _ = FadingProcess::new(6.0, 0.0, 0);
    }
}
