//! The experiment harness: one module per table/figure of the paper.
//!
//! Every result in the DSN 2007 paper's evaluation maps to a function
//! here that builds the corresponding scenario, runs it for a number of
//! trials, and renders the same rows/series the paper reports, side by
//! side with the paper's published values.
//! [`experiments::EXPERIMENTS`] lists every one with the `repro`
//! subcommands that select it and the paper's trial count; DESIGN.md §3
//! maps each to the paper's result.
//!
//! [`calibration::Calibration`] holds the handful of physical constants
//! tuned (once) so the *single-opportunity* reliabilities land near the
//! paper's Tables 1-2; every redundancy result is emergent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod campaign;
pub mod experiments;
pub mod report;
pub mod scenarios;

pub use calibration::Calibration;
