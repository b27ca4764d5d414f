//! Bulk material attenuation at UHF.
//!
//! Per-meter attenuation constants are representative values for the
//! 860-960 MHz band. Exact numbers vary with density and water content; the
//! reproduction only needs the ordering the paper relies on: cardboard and
//! plastic are nearly transparent, bodies and liquids are strongly lossy,
//! and metal is effectively opaque.

use crate::Db;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A bulk material a line of sight can pass through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Material {
    /// Free space / air: no attenuation.
    Air,
    /// Corrugated cardboard packaging.
    Cardboard,
    /// Solid plastic.
    Plastic,
    /// Wood (pallets).
    Wood,
    /// Human or animal tissue — the dominant blocker in the paper's human
    /// tracking experiments.
    Flesh,
    /// Water-based liquids (bottled goods).
    Liquid,
    /// Sheet or bulk metal — blocks the signal and, when close behind a tag,
    /// detunes it (see [`crate::mounting_loss`]).
    Metal,
}

impl Material {
    /// One-way attenuation per meter of material thickness.
    #[must_use]
    pub fn attenuation_per_meter(&self) -> Db {
        let db_per_m = match self {
            Material::Air => 0.0,
            // Averaged over a carton: thin corrugate walls + air + packing
            // material, not solid pressed board.
            Material::Cardboard => 1.5,
            Material::Plastic => 6.0,
            Material::Wood => 12.0,
            Material::Flesh => 90.0,
            Material::Liquid => 70.0,
            Material::Metal => 2000.0,
        };
        Db::new(db_per_m)
    }

    /// Additional fixed loss at each air-material interface (reflection).
    #[must_use]
    pub fn surface_loss(&self) -> Db {
        let db = match self {
            Material::Air => 0.0,
            Material::Cardboard => 0.1,
            Material::Plastic => 0.3,
            Material::Wood => 0.5,
            Material::Flesh => 3.0,
            Material::Liquid => 3.0,
            Material::Metal => 20.0,
        };
        Db::new(db)
    }

    /// Total one-way penetration loss through the given thickness.
    ///
    /// # Panics
    ///
    /// Panics if `thickness_m` is negative.
    #[must_use]
    pub fn penetration_loss(&self, thickness_m: f64) -> Db {
        assert!(thickness_m >= 0.0, "thickness must be non-negative");
        if thickness_m == 0.0 {
            return Db::ZERO;
        }
        self.attenuation_per_meter() * thickness_m + self.surface_loss()
    }

    /// Whether the material significantly reflects UHF energy, making nearby
    /// objects of it act as scatterers (the paper's "reflections off the
    /// farther subject").
    #[must_use]
    pub fn is_reflective(&self) -> bool {
        matches!(self, Material::Metal | Material::Flesh | Material::Liquid)
    }
}

impl fmt::Display for Material {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Material::Air => "air",
            Material::Cardboard => "cardboard",
            Material::Plastic => "plastic",
            Material::Wood => "wood",
            Material::Flesh => "flesh",
            Material::Liquid => "liquid",
            Material::Metal => "metal",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Material; 7] = [
        Material::Air,
        Material::Cardboard,
        Material::Plastic,
        Material::Wood,
        Material::Flesh,
        Material::Liquid,
        Material::Metal,
    ];

    #[test]
    fn air_is_transparent() {
        assert_eq!(Material::Air.penetration_loss(10.0), Db::ZERO);
    }

    #[test]
    fn ordering_matches_physics() {
        let loss = |m: Material| m.penetration_loss(0.1).value();
        assert!(loss(Material::Cardboard) < loss(Material::Wood));
        assert!(loss(Material::Wood) < loss(Material::Flesh));
        assert!(loss(Material::Flesh) < loss(Material::Metal));
    }

    #[test]
    fn a_torso_thickness_of_flesh_blocks_the_link() {
        // 30 cm of tissue: tens of dB — enough to defeat a passive tag's
        // single-digit link margins, matching the paper's 10% far-side reads.
        let loss = Material::Flesh.penetration_loss(0.3);
        assert!(loss.value() > 25.0, "loss = {loss}");
    }

    #[test]
    fn metal_is_effectively_opaque() {
        let loss = Material::Metal.penetration_loss(0.001);
        assert!(loss.value() > 20.0);
    }

    #[test]
    fn zero_thickness_is_free() {
        for m in ALL {
            assert_eq!(m.penetration_loss(0.0), Db::ZERO);
        }
    }

    #[test]
    fn losses_are_monotone_in_thickness() {
        for m in ALL {
            assert!(m.penetration_loss(0.2) >= m.penetration_loss(0.1));
        }
    }

    #[test]
    fn conductors_and_reflectors() {
        assert!(Material::Metal.is_reflective());
        assert!(Material::Flesh.is_reflective());
        assert!(!Material::Cardboard.is_reflective());
    }

    #[test]
    #[should_panic(expected = "thickness must be non-negative")]
    fn negative_thickness_panics() {
        let _ = Material::Wood.penetration_loss(-0.1);
    }

    #[test]
    fn display_is_lowercase() {
        for m in ALL {
            let s = m.to_string();
            assert_eq!(s, s.to_lowercase());
        }
    }
}
