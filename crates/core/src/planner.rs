//! Redundancy planning: pick the cheapest configuration that meets a
//! reliability target.
//!
//! The paper evaluates three redundancy levers — tags per object, antennas
//! per portal, readers per portal — and finds tag-level redundancy the most
//! effective, antenna-level second, and reader-level *harmful* without
//! dense-reader mode. The planner encodes those semantics: reader
//! redundancy contributes opportunities only when dense mode is available.

use crate::{combined_reliability, Probability};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A redundancy configuration for one tracking portal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RedundancyPlan {
    /// Tags attached to each object.
    pub tags_per_object: usize,
    /// Antennas per portal (driven by one reader in TDMA).
    pub antennas_per_portal: usize,
    /// Readers per portal.
    pub readers_per_portal: usize,
    /// Whether the readers support dense-reader mode.
    pub dense_reader_mode: bool,
}

impl RedundancyPlan {
    /// The paper's baseline: one tag, one antenna, one legacy reader.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            tags_per_object: 1,
            antennas_per_portal: 1,
            readers_per_portal: 1,
            dense_reader_mode: false,
        }
    }

    /// Number of *effective* read opportunities per object.
    ///
    /// Every (tag, antenna) pair is an opportunity; additional readers
    /// multiply opportunities only in dense mode. Without dense mode extra
    /// readers are worse than useless, which we model conservatively as
    /// zero effective opportunities beyond none at all — see
    /// [`RedundancyPlan::is_self_defeating`].
    #[must_use]
    pub fn opportunities(&self) -> usize {
        let readers = if self.dense_reader_mode {
            self.readers_per_portal
        } else {
            1
        };
        self.tags_per_object * self.antennas_per_portal * readers
    }

    /// Whether the plan actively harms reliability: multiple legacy
    /// (non-dense) readers jam each other, the paper's Section 4 finding.
    #[must_use]
    pub fn is_self_defeating(&self) -> bool {
        self.readers_per_portal > 1 && !self.dense_reader_mode
    }

    /// Predicted reliability with distinct per-placement reliabilities:
    /// tag `i` uses `placements[i]`, and every antenna (and dense-mode
    /// reader) replicates each tag's opportunity.
    ///
    /// # Panics
    ///
    /// Panics if `placements` has fewer entries than `tags_per_object`.
    #[must_use]
    pub fn predicted_reliability_with(&self, placements: &[Probability]) -> Probability {
        assert!(
            placements.len() >= self.tags_per_object,
            "need a reliability for each tag placement"
        );
        if self.is_self_defeating() {
            let best = placements[..self.tags_per_object]
                .iter()
                .map(|p| p.value())
                .fold(0.0, f64::max);
            return Probability::clamped(best * 0.3);
        }
        let readers = if self.dense_reader_mode {
            self.readers_per_portal
        } else {
            1
        };
        let replicas = self.antennas_per_portal * readers;
        let opportunities = placements[..self.tags_per_object]
            .iter()
            .flat_map(|&p| std::iter::repeat_n(p, replicas));
        combined_reliability(opportunities)
    }
}

impl fmt::Display for RedundancyPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tag(s), {} antenna(s), {} reader(s){}",
            self.tags_per_object,
            self.antennas_per_portal,
            self.readers_per_portal,
            if self.dense_reader_mode {
                ", dense mode"
            } else {
                ""
            }
        )
    }
}

/// Unit costs for plan search.
///
/// Defaults reflect the paper's era: tags are nearly free ("$0.05 per EPC
/// Gen 2 tag in volumes"), antennas cost real money, readers much more.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost per tag *per object* — scale by expected object volume.
    pub tag_cost: f64,
    /// Cost per portal antenna.
    pub antenna_cost: f64,
    /// Cost per reader.
    pub reader_cost: f64,
    /// Number of objects that will be tagged (amortizes tag cost).
    pub objects: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            tag_cost: 0.05,
            antenna_cost: 200.0,
            reader_cost: 1500.0,
            objects: 2_000,
        }
    }
}

impl CostModel {
    /// Total cost of a plan.
    #[must_use]
    pub fn cost(&self, plan: &RedundancyPlan) -> f64 {
        self.tag_cost * plan.tags_per_object as f64 * self.objects as f64
            + self.antenna_cost * plan.antennas_per_portal as f64
            + self.reader_cost * plan.readers_per_portal as f64
    }
}

/// Search bounds for [`cheapest_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanLimits {
    /// Maximum tags per object (placement spots are finite).
    pub max_tags: usize,
    /// Maximum antennas per portal (the AR400 drives four).
    pub max_antennas: usize,
    /// Maximum readers per portal.
    pub max_readers: usize,
    /// Whether dense-reader-mode hardware is available to the deployment.
    pub dense_mode_available: bool,
}

impl Default for PlanLimits {
    fn default() -> Self {
        Self {
            max_tags: 4,
            max_antennas: 4,
            max_readers: 2,
            dense_mode_available: false,
        }
    }
}

/// Finds the least-cost plan whose predicted reliability (from per-placement
/// reliabilities, best placements first) meets `target`.
///
/// Returns `None` if no plan within `limits` reaches the target.
/// Self-defeating plans (multiple legacy readers) are never selected.
///
/// # Examples
///
/// ```
/// use rfid_core::{cheapest_plan, CostModel, PlanLimits, Probability};
///
/// // Placements measured like the paper's Table 1 (best first).
/// let placements = [
///     Probability::new(0.87).unwrap(),
///     Probability::new(0.83).unwrap(),
///     Probability::new(0.63).unwrap(),
///     Probability::new(0.29).unwrap(),
/// ];
/// let plan = cheapest_plan(
///     Probability::new(0.99).unwrap(),
///     &placements,
///     &CostModel::default(),
///     &PlanLimits::default(),
/// ).expect("a plan exists");
/// // Tags are cheap relative to antennas at this volume, so the plan
/// // leans on tag redundancy.
/// assert!(plan.tags_per_object >= 2);
/// ```
#[must_use]
pub fn cheapest_plan(
    target: Probability,
    placements: &[Probability],
    costs: &CostModel,
    limits: &PlanLimits,
) -> Option<RedundancyPlan> {
    let mut best: Option<(f64, RedundancyPlan)> = None;
    let max_tags = limits.max_tags.min(placements.len());
    for tags in 1..=max_tags {
        for antennas in 1..=limits.max_antennas {
            for readers in 1..=limits.max_readers {
                for dense in [false, true] {
                    if dense && !limits.dense_mode_available {
                        continue;
                    }
                    let plan = RedundancyPlan {
                        tags_per_object: tags,
                        antennas_per_portal: antennas,
                        readers_per_portal: readers,
                        dense_reader_mode: dense,
                    };
                    if plan.is_self_defeating() {
                        continue;
                    }
                    if plan.predicted_reliability_with(placements).value() < target.value() {
                        continue;
                    }
                    let cost = costs.cost(&plan);
                    if best.is_none_or(|(c, _)| cost < c) {
                        best = Some((cost, plan));
                    }
                }
            }
        }
    }
    best.map(|(_, plan)| plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn baseline_has_one_opportunity() {
        let plan = RedundancyPlan::baseline();
        assert_eq!(plan.opportunities(), 1);
        assert!(!plan.is_self_defeating());
        assert_eq!(plan.predicted_reliability_with(&[p(0.8)]).value(), 0.8);
    }

    #[test]
    fn paper_configurations() {
        let two_tags = RedundancyPlan {
            tags_per_object: 2,
            ..RedundancyPlan::baseline()
        };
        // 1 - 0.2^2 = 0.96 for p = 0.8.
        assert!((two_tags.predicted_reliability_with(&[p(0.8); 2]).value() - 0.96).abs() < 1e-12);

        let two_by_two = RedundancyPlan {
            tags_per_object: 2,
            antennas_per_portal: 2,
            ..RedundancyPlan::baseline()
        };
        assert_eq!(two_by_two.opportunities(), 4);
        assert!(two_by_two.predicted_reliability_with(&[p(0.8); 2]).value() > 0.998);
    }

    #[test]
    fn legacy_reader_redundancy_is_self_defeating() {
        let plan = RedundancyPlan {
            readers_per_portal: 2,
            ..RedundancyPlan::baseline()
        };
        assert!(plan.is_self_defeating());
        assert!(
            plan.predicted_reliability_with(&[p(0.8)]).value() < 0.8,
            "two legacy readers must score below the single-reader baseline"
        );
        let dense = RedundancyPlan {
            dense_reader_mode: true,
            ..plan
        };
        assert!(!dense.is_self_defeating());
        assert_eq!(dense.opportunities(), 2);
    }

    #[test]
    fn placement_aware_prediction_uses_best_first() {
        let plan = RedundancyPlan {
            tags_per_object: 2,
            ..RedundancyPlan::baseline()
        };
        let rc = plan.predicted_reliability_with(&[p(0.87), p(0.83)]);
        assert!((rc.value() - 0.9779).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "need a reliability for each tag placement")]
    fn placement_count_is_validated() {
        let plan = RedundancyPlan {
            tags_per_object: 3,
            ..RedundancyPlan::baseline()
        };
        let _ = plan.predicted_reliability_with(&[p(0.9)]);
    }

    #[test]
    fn cheapest_plan_prefers_cheap_tags_at_volume() {
        let placements = [p(0.87), p(0.83), p(0.63), p(0.29)];
        let plan = cheapest_plan(
            p(0.99),
            &placements,
            &CostModel::default(),
            &PlanLimits::default(),
        )
        .expect("achievable");
        assert!(plan.tags_per_object >= 2);
        assert_eq!(plan.readers_per_portal, 1);
    }

    #[test]
    fn expensive_tags_shift_to_antennas() {
        // If tags were absurdly expensive per object (e.g. hard-case
        // mounting), antennas win.
        let placements = [p(0.87), p(0.83)];
        let costs = CostModel {
            tag_cost: 50.0,
            antenna_cost: 200.0,
            objects: 2_000,
            ..CostModel::default()
        };
        let plan = cheapest_plan(p(0.98), &placements, &costs, &PlanLimits::default())
            .expect("achievable");
        assert_eq!(plan.tags_per_object, 1);
        assert!(plan.antennas_per_portal >= 2);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let placements = [p(0.1)];
        let limits = PlanLimits {
            max_tags: 1,
            max_antennas: 1,
            max_readers: 1,
            dense_mode_available: false,
        };
        assert_eq!(
            cheapest_plan(p(0.999), &placements, &CostModel::default(), &limits),
            None
        );
    }

    #[test]
    fn dense_mode_unlocks_reader_redundancy() {
        let placements = [p(0.6)];
        let limits = PlanLimits {
            max_tags: 1,
            max_antennas: 1,
            max_readers: 3,
            dense_mode_available: true,
        };
        // Only reader redundancy can reach the target here.
        let plan = cheapest_plan(p(0.9), &placements, &CostModel::default(), &limits)
            .expect("achievable with dense readers");
        assert!(plan.dense_reader_mode);
        assert!(plan.readers_per_portal >= 2);
    }

    #[test]
    fn display_is_informative() {
        let plan = RedundancyPlan {
            tags_per_object: 2,
            antennas_per_portal: 2,
            readers_per_portal: 1,
            dense_reader_mode: false,
        };
        assert_eq!(plan.to_string(), "2 tag(s), 2 antenna(s), 1 reader(s)");
    }
}
