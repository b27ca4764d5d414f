//! The streaming data plane: incremental read-processing operators with
//! bounded memory.
//!
//! Every batch API in this crate is a thin wrapper over an operator in
//! this module tree: [`crate::SmoothingWindow`] over
//! [`SmoothingStream`], [`crate::AdaptiveSmoother`] over
//! [`AdaptiveStream`], [`crate::SightingPipeline`] over
//! [`SightingStream`], [`crate::Site::observations`] over
//! [`ObservationStream`], and the constraint checkers over
//! [`RouteStream`] / [`AccompanyStream`]. Live deployments drive the
//! operators directly — push events as they arrive off the wire,
//! advance the watermark as time passes, and receive results the moment
//! their windows close — with working memory bounded by the portal's
//! concurrency (open windows, out-of-order horizon, live objects), not
//! by the stream length.
//!
//! See the [`Operator`] trait for the time/ordering/watermark contract,
//! and DESIGN.md §12 for the batch-equivalence guarantee that the
//! property tests in `tests/stream_equivalence.rs` pin down.

mod constraints;
mod merge;
mod operator;
mod reorder;
mod shard;
mod sightings;
mod site;
pub(crate) mod smoothing;

pub use constraints::{AccompanyStream, RouteStream};
pub use merge::{MergeError, SessionMerge};
pub use operator::{Chain, Operator};
pub use reorder::{ReorderBuffer, Timestamped};
pub use shard::{shard_of, ShardCounters};
pub use sightings::SightingStream;
pub use site::{ObservationStream, ZoneTransition};
pub use smoothing::{AdaptiveStream, SmoothingStream};
