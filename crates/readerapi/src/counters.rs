//! Global wire-path counters: requests, retries, timeouts, faults.
//!
//! The transport stack tallies a small set of process-wide counters as
//! it runs, in the same style as `rfid_sim::counters`: cumulative
//! relaxed atomics with a [`snapshot`]/`since` discipline so
//! soak tests and deployments can see how hard the wire worked —
//! how many exchanges the application asked for, how many attempts the
//! retry layer spent getting them through, and what failure classes it
//! rode out.
//!
//! Unlike the simulator's per-evaluation counters, wire events fire at
//! most a handful of times per reader exchange — nowhere near the
//! channel hot path — so these update the shared atomics directly with
//! no thread-local staging.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static REQUESTS: AtomicU64 = AtomicU64::new(0);
static RETRIES: AtomicU64 = AtomicU64::new(0);
static TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static MALFORMED_FRAMES: AtomicU64 = AtomicU64::new(0);
static TRUNCATIONS: AtomicU64 = AtomicU64::new(0);
static DISCONNECTS: AtomicU64 = AtomicU64::new(0);
static FAULTS_INJECTED: AtomicU64 = AtomicU64::new(0);
static CONNECTIONS: AtomicU64 = AtomicU64::new(0);
static CONNECTION_ERRORS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn record_request() {
    REQUESTS.fetch_add(1, Relaxed);
}

pub(crate) fn record_retry() {
    RETRIES.fetch_add(1, Relaxed);
}

pub(crate) fn record_timeout() {
    TIMEOUTS.fetch_add(1, Relaxed);
}

pub(crate) fn record_malformed_frame() {
    MALFORMED_FRAMES.fetch_add(1, Relaxed);
}

pub(crate) fn record_truncation() {
    TRUNCATIONS.fetch_add(1, Relaxed);
}

pub(crate) fn record_disconnect() {
    DISCONNECTS.fetch_add(1, Relaxed);
}

pub(crate) fn record_fault_injected() {
    FAULTS_INJECTED.fetch_add(1, Relaxed);
}

pub(crate) fn record_connection() {
    CONNECTIONS.fetch_add(1, Relaxed);
}

pub(crate) fn record_connection_error() {
    CONNECTION_ERRORS.fetch_add(1, Relaxed);
}

/// A point-in-time copy of the wire counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireCounters {
    /// Transport exchanges attempted (every attempt counts, including
    /// retries of the same logical request).
    pub requests: u64,
    /// Attempts beyond the first spent by a retrying transport.
    pub retries: u64,
    /// Exchanges that ended in a deadline or OS-level timeout.
    pub timeouts: u64,
    /// Frames that arrived but failed wire-format validation
    /// (client-side garbled responses and server-side garbled requests).
    pub malformed_frames: u64,
    /// Frames cut mid-line by a peer dying while writing, on either
    /// side of the wire (also tallied under `malformed_frames` for the
    /// client path, which predates this counter).
    pub truncations: u64,
    /// Peers that vanished abortively (reset, broken pipe) or closed
    /// while a response was owed.
    pub disconnects: u64,
    /// Faults a chaos transport injected on purpose.
    pub faults_injected: u64,
    /// Connections accepted by a serve loop.
    pub connections: u64,
    /// Connections that ended in an I/O error rather than a clean
    /// disconnect (isolated per connection; the loop keeps serving).
    pub connection_errors: u64,
}

impl WireCounters {
    /// Counter deltas accumulated since an earlier snapshot.
    ///
    /// Saturates at zero if `earlier` was taken after `self`.
    #[must_use]
    pub const fn since(&self, earlier: &WireCounters) -> WireCounters {
        WireCounters {
            requests: self.requests.saturating_sub(earlier.requests),
            retries: self.retries.saturating_sub(earlier.retries),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            malformed_frames: self
                .malformed_frames
                .saturating_sub(earlier.malformed_frames),
            truncations: self.truncations.saturating_sub(earlier.truncations),
            disconnects: self.disconnects.saturating_sub(earlier.disconnects),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            connections: self.connections.saturating_sub(earlier.connections),
            connection_errors: self
                .connection_errors
                .saturating_sub(earlier.connection_errors),
        }
    }
}

impl std::fmt::Display for WireCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests ({} retries), {} timeouts, {} malformed frames, \
             {} truncations, {} disconnects, {} faults injected, \
             {} connections ({} errored)",
            self.requests,
            self.retries,
            self.timeouts,
            self.malformed_frames,
            self.truncations,
            self.disconnects,
            self.faults_injected,
            self.connections,
            self.connection_errors,
        )
    }
}

/// Reads the current counter values.
#[must_use]
pub fn snapshot() -> WireCounters {
    WireCounters {
        requests: REQUESTS.load(Relaxed),
        retries: RETRIES.load(Relaxed),
        timeouts: TIMEOUTS.load(Relaxed),
        malformed_frames: MALFORMED_FRAMES.load(Relaxed),
        truncations: TRUNCATIONS.load(Relaxed),
        disconnects: DISCONNECTS.load(Relaxed),
        faults_injected: FAULTS_INJECTED.load(Relaxed),
        connections: CONNECTIONS.load(Relaxed),
        connection_errors: CONNECTION_ERRORS.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters are process-global and tests run in parallel threads, so
    // assertions are relative to deltas each test produced itself.

    #[test]
    fn snapshot_reflects_recorded_events() {
        let before = snapshot();
        record_request();
        record_retry();
        record_timeout();
        record_malformed_frame();
        record_truncation();
        record_disconnect();
        record_fault_injected();
        record_connection();
        record_connection_error();
        let delta = snapshot().since(&before);
        assert!(delta.requests >= 1);
        assert!(delta.retries >= 1);
        assert!(delta.timeouts >= 1);
        assert!(delta.malformed_frames >= 1);
        assert!(delta.truncations >= 1);
        assert!(delta.disconnects >= 1);
        assert!(delta.faults_injected >= 1);
        assert!(delta.connections >= 1);
        assert!(delta.connection_errors >= 1);
    }

    #[test]
    fn since_saturates_rather_than_wrapping() {
        let newer = WireCounters {
            requests: 1,
            ..WireCounters::default()
        };
        let older = WireCounters {
            requests: 9,
            ..WireCounters::default()
        };
        assert_eq!(newer.since(&older).requests, 0);
    }

    #[test]
    fn display_mentions_the_key_figures() {
        let snap = WireCounters {
            requests: 120,
            retries: 17,
            timeouts: 9,
            malformed_frames: 5,
            truncations: 3,
            disconnects: 2,
            faults_injected: 31,
            connections: 4,
            connection_errors: 1,
        };
        let text = snap.to_string();
        assert!(text.contains("120 requests"));
        assert!(text.contains("17 retries"));
        assert!(text.contains("9 timeouts"));
        assert!(text.contains("5 malformed frames"));
        assert!(text.contains("3 truncations"));
        assert!(text.contains("2 disconnects"));
        assert!(text.contains("31 faults injected"));
        assert!(text.contains("4 connections (1 errored)"));
    }
}
