//! A discrete-event simulator for RFID tracking portals.
//!
//! This is the "lab" of the reproduction: it stands in for the physical
//! testbed of the DSN 2007 study (carts, boxes with routers inside, walking
//! volunteers, portal antennas, a Matrix AR400 reader). A [`World`] holds
//! moving [`SimObject`]s, [`SimTag`]s attached to them, and [`SimReader`]s
//! with one or more antennas; [`run_scenario`] plays the world forward,
//! letting each reader run Gen-2 inventory rounds whose RF truth comes from
//! the full `rfid-phys` link budget evaluated against the instantaneous
//! geometry — including occlusion ray-casting through every object between
//! antenna and tag.
//!
//! Randomness is decomposed the way portal physics demands:
//!
//! * a per-trial, per-tag slow **shadowing** offset shared by all antennas
//!   (the reason the paper's antenna redundancy underperforms the
//!   independence model),
//! * a per-link shadowing component,
//! * per-(tag, antenna) **fast fading** with a motion-derived coherence
//!   time (the reason dwell time in the read zone matters).
//!
//! Everything is deterministic given the trial seed — and, because
//! randomness is addressed by identity rather than by draw order, batches
//! of trials parallelize over threads with bit-identical results via
//! [`TrialExecutor`], with static link-budget terms hoisted out of the
//! trial loop by [`ScenarioCache`].
//!
//! # Examples
//!
//! ```
//! use rfid_geom::{Pose, Vec3};
//! use rfid_sim::{Motion, Scenario, ScenarioBuilder};
//!
//! // One tag carted past one portal antenna at 1 m/s, 1 m away.
//! let scenario = ScenarioBuilder::new()
//!     .duration_s(4.0)
//!     .portal_reader(Pose::from_translation(Vec3::new(0.0, 0.0, 1.0)), 1)
//!     .free_tag(Motion::linear(
//!         Pose::from_translation(Vec3::new(-2.0, 1.0, 1.0)),
//!         Vec3::new(1.0, 0.0, 0.0),
//!         0.0,
//!         4.0,
//!     ))
//!     .build();
//! let output = rfid_sim::run_scenario(&scenario, 7);
//! assert!(output.tag_was_read(0), "an unobstructed pass at 1 m should read");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod channel;
pub mod counters;
mod events;
mod executor;
mod motion;
mod precompute;
mod rng;
mod runner;
mod scenario;
mod world;

pub use campaign::{
    digest_bytes, CampaignSpec, CompiledInstance, Deployment, DeploymentKind, ScenarioCompiler,
};
pub use channel::{ChannelParams, PortalChannel};
pub use counters::CountersSnapshot;
pub use events::EventQueue;
pub use executor::{TrialExecutor, FOLD_BLOCK, THREADS_ENV};
pub use motion::Motion;
pub use precompute::ScenarioCache;
pub use rng::{mix64, RngStream};
pub use runner::{
    run_scenario, run_scenario_reference, run_scenario_streaming_with, run_scenario_with,
    run_single_round, run_single_round_with, ReadEvent, RoundSummary, SimOutput, SimStreamEvent,
};
pub use scenario::{Scenario, ScenarioBuilder};
pub use world::{Antenna, Attachment, SimObject, SimReader, SimTag, World, WorldError};
