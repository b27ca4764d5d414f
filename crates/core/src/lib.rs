//! Reliability techniques for RFID-based object tracking — the primary
//! contribution of the DSN 2007 paper, as a reusable library.
//!
//! The paper's central idea is small: a tracked object is identified if
//! *any one* of its **read opportunities** succeeds, where a read
//! opportunity is one (tag, antenna) combination in the same portal. Under
//! an independence assumption the expected tracking reliability is
//!
//! ```text
//! R_C = 1 - (1 - P_1)(1 - P_2) ... (1 - P_n)
//! ```
//!
//! and redundancy — more tags per object, more antennas per portal — adds
//! opportunities. The library packages that model plus everything needed
//! to *use* it against measurements:
//!
//! * [`Probability`], [`ReadOpportunity`], [`combined_reliability`] — the
//!   analytical model itself,
//! * [`ReliabilityEstimate`] — Bernoulli estimation with Wilson intervals
//!   from repeated trials, and [`ModelComparison`] for the paper's
//!   R_M-vs-R_C tables,
//! * [`RedundancyPlan`] / [`cheapest_plan`] — search for the least-cost
//!   redundancy configuration meeting a target reliability,
//! * [`PlacementAdvisor`] — rank tag placements, avoid the worst locations
//!   (the paper's Table 1 guidance),
//! * [`min_safe_spacing`] — the minimum inter-tag distance from a measured
//!   spacing-reliability curve (the paper's Figure 4 guidance),
//! * [`tracking_outcome`] and [`tracked_counts`] — the paper's tracking
//!   rule (any tag at any antenna) applied to one simulated pass, and
//!   folded over repeated passes into per-object tracked counts: the
//!   count behind every measured R_M.
//!
//! # Examples
//!
//! ```
//! use rfid_core::{combined_reliability, Probability};
//!
//! // Table 3: one tag read at 80%; two tags (front 87%, side 83%)
//! // predict 1 - 0.13 * 0.17 = 97.8%.
//! let front = Probability::new(0.87)?;
//! let side = Probability::new(0.83)?;
//! let r_c = combined_reliability([front, side]);
//! assert!((r_c.value() - 0.9779).abs() < 1e-4);
//! # Ok::<(), rfid_core::ProbabilityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod correlation;
mod estimate;
mod model;
mod placement;
mod planner;
mod probability;
mod spacing;
mod tracking;

pub use correlation::{CommonCauseModel, JointOutcomes};
pub use estimate::{ModelComparison, ReliabilityEstimate};
pub use model::{combined_reliability, ReadOpportunity};
pub use placement::{PlacementAdvisor, PlacementReport};
pub use planner::{cheapest_plan, CostModel, PlanLimits, RedundancyPlan};
pub use probability::{Probability, ProbabilityError};
pub use spacing::min_safe_spacing;
pub use tracking::{tracked_counts, tracking_outcome};
