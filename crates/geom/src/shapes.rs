//! Solid shapes and ray intersection.
//!
//! Shapes are defined in their local frame, centered at the origin; a
//! [`Solid`] pairs a shape with a world [`Pose`]. The key query is
//! [`Solid::chord`]: how much of a line of sight passes *through* the solid.
//! That chord length, multiplied by a material's attenuation per meter, is
//! the blockage term of the RF link budget — e.g. a human torso between tag
//! and antenna in the paper's two-subject experiments.

use crate::{Pose, Ray, Vec3};
use serde::{Deserialize, Serialize};

/// A convex solid in its local frame, centered at the origin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Shape {
    /// Axis-aligned box with the given half-extents.
    Aabb {
        /// Half-width along each local axis.
        half_extents: Vec3,
    },
    /// Cylinder along the local z axis.
    Cylinder {
        /// Cylinder radius.
        radius: f64,
        /// Half the cylinder height.
        half_height: f64,
    },
    /// Sphere of the given radius.
    Sphere {
        /// Sphere radius.
        radius: f64,
    },
}

impl Shape {
    /// Convenience constructor for a box.
    ///
    /// # Panics
    ///
    /// Panics if any half-extent is not strictly positive.
    #[must_use]
    pub fn aabb(half_extents: Vec3) -> Shape {
        assert!(
            half_extents.x > 0.0 && half_extents.y > 0.0 && half_extents.z > 0.0,
            "box half-extents must be positive"
        );
        Shape::Aabb { half_extents }
    }

    /// Convenience constructor for a z-axis cylinder (e.g. a human torso).
    ///
    /// # Panics
    ///
    /// Panics if radius or half-height is not strictly positive.
    #[must_use]
    pub fn cylinder(radius: f64, half_height: f64) -> Shape {
        assert!(
            radius > 0.0 && half_height > 0.0,
            "cylinder dimensions must be positive"
        );
        Shape::Cylinder {
            radius,
            half_height,
        }
    }

    /// Convenience constructor for a sphere.
    ///
    /// # Panics
    ///
    /// Panics if the radius is not strictly positive.
    #[must_use]
    pub fn sphere(radius: f64) -> Shape {
        assert!(radius > 0.0, "sphere radius must be positive");
        Shape::Sphere { radius }
    }

    /// The characteristic size of the shape: the diameter of its bounding
    /// sphere. Used to decide whether an obstacle is small enough for
    /// diffraction/scattering to fill in behind it.
    #[must_use]
    pub fn max_extent(&self) -> f64 {
        match *self {
            Shape::Aabb { half_extents } => 2.0 * half_extents.norm(),
            Shape::Cylinder {
                radius,
                half_height,
            } => 2.0 * (radius * radius + half_height * half_height).sqrt(),
            Shape::Sphere { radius } => 2.0 * radius,
        }
    }

    /// Intersects a *local-frame* ray with the shape.
    ///
    /// Returns the entry/exit parameters `(t_enter, t_exit)` with
    /// `t_enter <= t_exit`, unclipped (either may be negative if the origin
    /// is inside or past the solid), or `None` if the line misses.
    #[must_use]
    pub fn intersect_local(&self, ray: &Ray) -> Option<(f64, f64)> {
        match *self {
            Shape::Aabb { half_extents } => intersect_aabb(ray, half_extents),
            Shape::Cylinder {
                radius,
                half_height,
            } => intersect_cylinder(ray, radius, half_height),
            Shape::Sphere { radius } => intersect_sphere(ray, radius),
        }
    }

    /// Whether a *local-frame* point lies inside (or on) the shape.
    #[must_use]
    pub fn contains_local(&self, p: Vec3) -> bool {
        match *self {
            Shape::Aabb { half_extents } => {
                p.x.abs() <= half_extents.x
                    && p.y.abs() <= half_extents.y
                    && p.z.abs() <= half_extents.z
            }
            Shape::Cylinder {
                radius,
                half_height,
            } => p.z.abs() <= half_height && (p.x * p.x + p.y * p.y) <= radius * radius,
            Shape::Sphere { radius } => p.norm_squared() <= radius * radius,
        }
    }
}

/// A shape placed in the world by a pose.
///
/// # Examples
///
/// ```
/// use rfid_geom::{Shape, Solid, Pose, Ray, Vec3};
///
/// // A torso-like cylinder standing 2 m along y.
/// let body = Solid::new(
///     Shape::cylinder(0.15, 0.9),
///     Pose::from_translation(Vec3::new(0.0, 2.0, 0.9)),
/// );
/// // A waist-height line of sight passing through the body center.
/// let ray = Ray::between(Vec3::new(0.0, 0.0, 0.9), Vec3::new(0.0, 4.0, 0.9)).unwrap();
/// let through = body.chord(&ray, 4.0);
/// assert!((through - 0.3).abs() < 1e-9); // two radii
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Solid {
    shape: Shape,
    pose: Pose,
}

impl Solid {
    /// Places `shape` at `pose`.
    #[must_use]
    pub const fn new(shape: Shape, pose: Pose) -> Self {
        Self { shape, pose }
    }

    /// The local-frame shape.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The world pose.
    #[must_use]
    pub fn pose(&self) -> Pose {
        self.pose
    }

    /// Intersects a world-frame ray, returning unclipped `(t_enter, t_exit)`.
    #[must_use]
    pub fn intersect(&self, ray: &Ray) -> Option<(f64, f64)> {
        self.shape.intersect_local(&ray.to_local(&self.pose))
    }

    /// Radius of the bounding sphere around the solid's center.
    #[must_use]
    pub fn bounding_radius(&self) -> f64 {
        self.shape.max_extent() / 2.0
    }

    /// Length of the ray segment `[0, max_t]` that lies inside the solid.
    ///
    /// This is the material thickness a signal traveling from `ray.origin()`
    /// to `ray.point_at(max_t)` must penetrate.
    #[must_use]
    pub fn chord(&self, ray: &Ray, max_t: f64) -> f64 {
        // Cheap exact-conservative reject before the full local-frame
        // intersection: the shape is inscribed in its bounding sphere, so
        // if the query segment stays clear of the sphere (with a generous
        // slack for rounding) the chord is exactly 0. Occlusion sweeps
        // test every object against every line of sight, and most pairs
        // miss — this test is a dot product and a clamp instead of a pose
        // inverse-transform.
        let center = self.pose.translation();
        let along = (center - ray.origin())
            .dot(ray.direction())
            .clamp(0.0, max_t);
        let radius = self.bounding_radius() + 1e-9;
        if ray.point_at(along).distance_squared(center) > radius * radius {
            return 0.0;
        }
        match self.intersect(ray) {
            Some((t0, t1)) => {
                let enter = t0.max(0.0);
                let exit = t1.min(max_t);
                (exit - enter).max(0.0)
            }
            None => 0.0,
        }
    }

    /// Whether a world-frame point lies inside the solid.
    #[must_use]
    pub fn contains(&self, p: Vec3) -> bool {
        self.shape
            .contains_local(self.pose.inverse_transform_point(p))
    }
}

fn intersect_aabb(ray: &Ray, half: Vec3) -> Option<(f64, f64)> {
    let mut t_enter = f64::NEG_INFINITY;
    let mut t_exit = f64::INFINITY;
    let o: [f64; 3] = ray.origin().into();
    let d: [f64; 3] = ray.direction().into();
    let h: [f64; 3] = half.into();
    for axis in 0..3 {
        if d[axis].abs() < 1e-12 {
            if o[axis].abs() > h[axis] {
                return None;
            }
            continue;
        }
        let inv = 1.0 / d[axis];
        let mut t0 = (-h[axis] - o[axis]) * inv;
        let mut t1 = (h[axis] - o[axis]) * inv;
        if t0 > t1 {
            std::mem::swap(&mut t0, &mut t1);
        }
        t_enter = t_enter.max(t0);
        t_exit = t_exit.min(t1);
        if t_enter > t_exit {
            return None;
        }
    }
    Some((t_enter, t_exit))
}

fn intersect_sphere(ray: &Ray, radius: f64) -> Option<(f64, f64)> {
    // |o + t d|^2 = r^2 with |d| = 1.
    let o = ray.origin();
    let d = ray.direction();
    let b = o.dot(d);
    let c = o.norm_squared() - radius * radius;
    let disc = b * b - c;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    Some((-b - sq, -b + sq))
}

fn intersect_cylinder(ray: &Ray, radius: f64, half_height: f64) -> Option<(f64, f64)> {
    let o = ray.origin();
    let d = ray.direction();

    // Lateral surface: project onto xy.
    let a = d.x * d.x + d.y * d.y;
    let (mut t_enter, mut t_exit);
    if a < 1e-12 {
        // Ray parallel to the axis: inside the circle or a miss.
        if o.x * o.x + o.y * o.y > radius * radius {
            return None;
        }
        t_enter = f64::NEG_INFINITY;
        t_exit = f64::INFINITY;
    } else {
        let b = o.x * d.x + o.y * d.y;
        let c = o.x * o.x + o.y * o.y - radius * radius;
        let disc = b * b - a * c;
        if disc < 0.0 {
            return None;
        }
        let sq = disc.sqrt();
        t_enter = (-b - sq) / a;
        t_exit = (-b + sq) / a;
    }

    // Clip by the cap planes z = +-half_height.
    if d.z.abs() < 1e-12 {
        if o.z.abs() > half_height {
            return None;
        }
    } else {
        let inv = 1.0 / d.z;
        let mut tz0 = (-half_height - o.z) * inv;
        let mut tz1 = (half_height - o.z) * inv;
        if tz0 > tz1 {
            std::mem::swap(&mut tz0, &mut tz1);
        }
        t_enter = t_enter.max(tz0);
        t_exit = t_exit.min(tz1);
        if t_enter > t_exit {
            return None;
        }
    }
    Some((t_enter, t_exit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rotation;
    use proptest::prelude::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn ray_through_box_center() {
        let solid = Solid::new(Shape::aabb(Vec3::new(1.0, 2.0, 3.0)), Pose::IDENTITY);
        let ray = Ray::new(Vec3::new(-5.0, 0.0, 0.0), Vec3::X).unwrap();
        let (t0, t1) = solid.intersect(&ray).unwrap();
        assert!((t0 - 4.0).abs() < 1e-12);
        assert!((t1 - 6.0).abs() < 1e-12);
        assert!((solid.chord(&ray, 100.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ray_missing_box() {
        let solid = Solid::new(Shape::aabb(Vec3::new(1.0, 1.0, 1.0)), Pose::IDENTITY);
        let ray = Ray::new(Vec3::new(-5.0, 3.0, 0.0), Vec3::X).unwrap();
        assert!(solid.intersect(&ray).is_none());
        assert_eq!(solid.chord(&ray, 100.0), 0.0);
    }

    #[test]
    fn ray_parallel_to_box_face_inside_slab() {
        let solid = Solid::new(Shape::aabb(Vec3::new(1.0, 1.0, 1.0)), Pose::IDENTITY);
        // Parallel to x, at y=0.5, z=0.5: passes through.
        let ray = Ray::new(Vec3::new(-5.0, 0.5, 0.5), Vec3::X).unwrap();
        assert!(solid.intersect(&ray).is_some());
        // Parallel to x but outside the y slab: misses.
        let ray = Ray::new(Vec3::new(-5.0, 1.5, 0.0), Vec3::X).unwrap();
        assert!(solid.intersect(&ray).is_none());
    }

    #[test]
    fn chord_clips_to_segment() {
        let solid = Solid::new(Shape::aabb(Vec3::new(1.0, 1.0, 1.0)), Pose::IDENTITY);
        let ray = Ray::new(Vec3::new(-2.0, 0.0, 0.0), Vec3::X).unwrap();
        // Segment ends in the middle of the box (t_max = 1.5 reaches x = -0.5).
        assert!((solid.chord(&ray, 1.5) - 0.5).abs() < 1e-12);
        // Segment ends before the box.
        assert_eq!(solid.chord(&ray, 0.5), 0.0);
    }

    #[test]
    fn chord_with_origin_inside() {
        let solid = Solid::new(Shape::aabb(Vec3::new(1.0, 1.0, 1.0)), Pose::IDENTITY);
        let ray = Ray::new(Vec3::ZERO, Vec3::X).unwrap();
        assert!((solid.chord(&ray, 100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chord_grazing_the_bounding_sphere_is_not_rejected() {
        // A ray tangent to the box's corner region passes inside the
        // bounding sphere but may still hit; the fast reject must only
        // fire on guaranteed misses. Ray skims the +y face exactly.
        let solid = Solid::new(Shape::aabb(Vec3::new(1.0, 1.0, 1.0)), Pose::IDENTITY);
        let graze = Ray::new(Vec3::new(-5.0, 1.0, 0.0), Vec3::X).unwrap();
        let (t0, t1) = solid
            .intersect(&graze)
            .expect("face-grazing line reports an interval");
        assert!((solid.chord(&graze, 100.0) - (t1 - t0).min(100.0)).abs() < 1e-12);
        // Just past the bounding sphere: rejected, and genuinely a miss.
        let radius = solid.bounding_radius();
        let miss = Ray::new(Vec3::new(-5.0, radius + 1e-6, 0.0), Vec3::X).unwrap();
        assert_eq!(solid.chord(&miss, 100.0), 0.0);
        assert!(solid.intersect(&miss).is_none());
    }

    proptest! {
        /// The bounding-sphere early-out in `chord` must be invisible:
        /// identical to the unfiltered clip of `intersect`.
        #[test]
        fn chord_prefilter_matches_full_intersection(
            ox in -6.0f64..6.0, oy in -6.0f64..6.0, oz in -6.0f64..6.0,
            tx in -6.0f64..6.0, ty in -6.0f64..6.0, tz in -6.0f64..6.0,
            px in -2.0f64..2.0, py in -2.0f64..2.0, pz in -2.0f64..2.0,
            max_t in 0.0f64..12.0,
        ) {
            let origin = Vec3::new(ox, oy, oz);
            let toward = Vec3::new(tx, ty, tz);
            prop_assume!((toward - origin).norm() > 1e-6);
            let ray = Ray::between(origin, toward).unwrap();
            for shape in [
                Shape::aabb(Vec3::new(0.4, 0.3, 0.5)),
                Shape::cylinder(0.3, 0.6),
                Shape::sphere(0.5),
            ] {
                let solid = Solid::new(shape, Pose::from_translation(Vec3::new(px, py, pz)));
                let expected = match solid.intersect(&ray) {
                    Some((t0, t1)) => (t1.min(max_t) - t0.max(0.0)).max(0.0),
                    None => 0.0,
                };
                prop_assert_eq!(solid.chord(&ray, max_t), expected);
            }
        }
    }

    #[test]
    fn sphere_intersection() {
        let solid = Solid::new(
            Shape::sphere(1.0),
            Pose::from_translation(Vec3::new(0.0, 3.0, 0.0)),
        );
        let ray = Ray::new(Vec3::ZERO, Vec3::Y).unwrap();
        let (t0, t1) = solid.intersect(&ray).unwrap();
        assert!((t0 - 2.0).abs() < 1e-12);
        assert!((t1 - 4.0).abs() < 1e-12);
        // Tangent-ish ray misses.
        let miss = Ray::new(Vec3::new(2.0, 0.0, 0.0), Vec3::Y).unwrap();
        assert!(solid.intersect(&miss).is_none());
    }

    #[test]
    fn cylinder_side_and_axis_rays() {
        let body = Solid::new(Shape::cylinder(0.5, 1.0), Pose::IDENTITY);
        // Through the side.
        let ray = Ray::new(Vec3::new(-3.0, 0.0, 0.0), Vec3::X).unwrap();
        let (t0, t1) = body.intersect(&ray).unwrap();
        assert!((t0 - 2.5).abs() < 1e-12);
        assert!((t1 - 3.5).abs() < 1e-12);
        // Along the axis.
        let axial = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z).unwrap();
        let (t0, t1) = body.intersect(&axial).unwrap();
        assert!((t0 - 4.0).abs() < 1e-12);
        assert!((t1 - 6.0).abs() < 1e-12);
        // Axis-parallel but outside the radius.
        let outside = Ray::new(Vec3::new(1.0, 0.0, -5.0), Vec3::Z).unwrap();
        assert!(body.intersect(&outside).is_none());
        // Above the caps, perpendicular.
        let above = Ray::new(Vec3::new(-3.0, 0.0, 2.0), Vec3::X).unwrap();
        assert!(body.intersect(&above).is_none());
    }

    #[test]
    fn posed_solid_intersection() {
        // A box rotated 90 degrees about z: its local x half-extent (2.0) now
        // spans world y.
        let solid = Solid::new(
            Shape::aabb(Vec3::new(2.0, 1.0, 1.0)),
            Pose::new(
                Vec3::new(0.0, 5.0, 0.0),
                Rotation::from_axis_angle(Vec3::Z, FRAC_PI_2).unwrap(),
            ),
        );
        let ray = Ray::new(Vec3::ZERO, Vec3::Y).unwrap();
        let chord = solid.chord(&ray, 100.0);
        assert!((chord - 4.0).abs() < 1e-9, "chord = {chord}");
    }

    #[test]
    fn contains_agrees_with_geometry() {
        let body = Solid::new(
            Shape::cylinder(0.5, 1.0),
            Pose::from_translation(Vec3::new(1.0, 1.0, 0.0)),
        );
        assert!(body.contains(Vec3::new(1.0, 1.0, 0.5)));
        assert!(!body.contains(Vec3::new(1.0, 1.0, 1.5)));
        assert!(!body.contains(Vec3::new(1.6, 1.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn constructors_validate() {
        let _ = Shape::aabb(Vec3::new(1.0, 0.0, 1.0));
    }

    proptest! {
        #[test]
        fn chord_never_exceeds_segment_or_diameter(
            ox in -10.0f64..10.0, oy in -10.0f64..10.0, oz in -10.0f64..10.0,
            dx in -1.0f64..1.0, dy in -1.0f64..1.0, dz in -1.0f64..1.0,
            max_t in 0.0f64..30.0,
        ) {
            let dir = Vec3::new(dx, dy, dz);
            prop_assume!(dir.norm() > 1e-6);
            let ray = Ray::new(Vec3::new(ox, oy, oz), dir).unwrap();
            let shapes = [
                Shape::aabb(Vec3::new(1.0, 2.0, 0.5)),
                Shape::cylinder(1.0, 2.0),
                Shape::sphere(1.5),
            ];
            // Largest possible chord: box diagonal, cylinder diagonal, sphere diameter.
            let diameters = [
                2.0 * Vec3::new(1.0, 2.0, 0.5).norm(),
                (4.0f64 + 16.0).sqrt(),
                3.0,
            ];
            for (shape, diameter) in shapes.iter().zip(diameters) {
                let solid = Solid::new(*shape, Pose::IDENTITY);
                let chord = solid.chord(&ray, max_t);
                prop_assert!(chord >= 0.0);
                prop_assert!(chord <= max_t + 1e-9);
                prop_assert!(chord <= diameter + 1e-9);
            }
        }

        #[test]
        fn intersection_entry_exit_points_lie_on_surface_of_sphere(
            ox in -10.0f64..10.0, oy in -10.0f64..10.0,
            dx in -1.0f64..1.0, dy in -1.0f64..1.0,
        ) {
            let dir = Vec3::new(dx, dy, 0.1);
            prop_assume!(dir.norm() > 1e-6);
            let ray = Ray::new(Vec3::new(ox, oy, 0.0), dir).unwrap();
            let solid = Solid::new(Shape::sphere(2.0), Pose::IDENTITY);
            if let Some((t0, t1)) = solid.intersect(&ray) {
                prop_assert!(t0 <= t1);
                prop_assert!((ray.point_at(t0).norm() - 2.0).abs() < 1e-6);
                prop_assert!((ray.point_at(t1).norm() - 2.0).abs() < 1e-6);
            }
        }

        #[test]
        fn midpoint_of_chord_is_inside(
            ox in -10.0f64..10.0, oy in -10.0f64..10.0, oz in -3.0f64..3.0,
            dx in -1.0f64..1.0, dy in -1.0f64..1.0, dz in -1.0f64..1.0,
        ) {
            let dir = Vec3::new(dx, dy, dz);
            prop_assume!(dir.norm() > 1e-6);
            let ray = Ray::new(Vec3::new(ox, oy, oz), dir).unwrap();
            for shape in [Shape::aabb(Vec3::new(1.0, 1.0, 1.0)),
                          Shape::cylinder(1.0, 1.0),
                          Shape::sphere(1.0)] {
                let solid = Solid::new(shape, Pose::IDENTITY);
                if let Some((t0, t1)) = solid.intersect(&ray) {
                    if t1 - t0 > 1e-6 {
                        let mid = ray.point_at((t0 + t1) / 2.0);
                        prop_assert!(solid.contains(mid), "{shape:?} mid {mid:?}");
                    }
                }
            }
        }
    }
}
