//! Descriptive statistics, interval estimates, and plain-text rendering
//! utilities used throughout the RFID reliability reproduction.
//!
//! The DSN 2007 paper reports its results as *means with upper and lower
//! quartiles* (Figures 2 and 4) and as *success proportions* (Tables 1-5).
//! This crate provides exactly those estimators, plus the supporting pieces a
//! measurement harness needs: a streaming summary whose merge is exactly
//! associative, batch quantiles, an order-fixed sum, and table/bar-chart
//! renderers for terminal reports.
//!
//! # Examples
//!
//! ```
//! use rfid_stats::{Proportion, StreamSummary};
//!
//! let tags_read = [20.0, 19.0, 20.0, 18.0, 20.0];
//! let summary = StreamSummary::from_samples(&tags_read);
//! assert_eq!(summary.max(), 20.0);
//! assert!(summary.mean() > 19.0);
//! let quartiles = summary.quartiles().unwrap();
//! assert!(quartiles.lower <= quartiles.median && quartiles.median <= quartiles.upper);
//!
//! let detection = Proportion::new(58, 60).unwrap();
//! assert!(detection.point() > 0.9);
//! let ci = detection.wilson_interval(0.95);
//! assert!(ci.low <= detection.point() && detection.point() <= ci.high);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chart;
mod error;
mod proportion;
mod quantile;
mod stream;
mod sum;
mod table;

pub use chart::BarChart;
pub use error::StatsError;
pub use proportion::{Interval, Proportion};
pub use quantile::{median, quantile, quantile_sorted, quartiles, Quartiles};
pub use stream::{
    ExactSum, QuantileSketch, StreamSummary, MAX_TRACKED_ABS, MIN_TRACKED_ABS, QUANTILE_ALPHA,
};
pub use sum::ordered_sum;
pub use table::{Align, Table};
