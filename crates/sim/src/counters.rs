//! Global simulation counters: per-stage timing and trial/read tallies.
//!
//! The simulator increments a small set of process-wide counters as it
//! runs — trials executed, inventory rounds, successful reads, link
//! evaluations, round-memo hits, and geometry-cache traffic — plus
//! wall-clock time spent inside scenarios and inventory rounds.
//! Experiment runners surface a [`snapshot`] in their reports so
//! regeneration cost stays visible.
//!
//! # Overhead discipline
//!
//! The per-*trial* counters (trials, rounds, reads, timing) fire a few
//! times per scenario and update relaxed process-wide atomics directly.
//! The per-*evaluation* counters (link evaluations, memo hits, geometry
//! traffic) fire on every channel query — millions of times per sweep —
//! so they accumulate in plain thread-local cells (one unsynchronized add
//! each) and are flushed into the shared atomics once per trial, at
//! `record_scenario_time`. A relaxed `fetch_add` is cheap but still a
//! locked RMW on the coherence fabric; with many worker threads hammering
//! one cache line it becomes measurable, and the hot path should spend
//! its cycles on physics. Flushing at trial boundaries keeps totals exact
//! once workers have joined, which is when reports read them.
//!
//! Counters are cumulative for the process; call [`reset`] at the start
//! of a measurement window. [`snapshot`] flushes the *calling* thread's
//! pending tallies first, so single-threaded callers always see their own
//! work; a snapshot taken while worker threads are mid-trial may lag by
//! those threads' unflushed tallies, and totals become exact after the
//! executor joins its workers.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

static TRIALS: AtomicU64 = AtomicU64::new(0);
static ROUNDS: AtomicU64 = AtomicU64::new(0);
static READS: AtomicU64 = AtomicU64::new(0);
static LINK_EVALS: AtomicU64 = AtomicU64::new(0);
static LINK_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static GEOMETRY_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static GEOMETRY_EVALS: AtomicU64 = AtomicU64::new(0);
static SCENARIO_NANOS: AtomicU64 = AtomicU64::new(0);
static ROUND_NANOS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-evaluation tallies accumulated locally and flushed per trial.
    static PENDING_LINK_EVALS: Cell<u64> = const { Cell::new(0) };
    static PENDING_LINK_MEMO_HITS: Cell<u64> = const { Cell::new(0) };
    static PENDING_GEOMETRY_CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    static PENDING_GEOMETRY_EVALS: Cell<u64> = const { Cell::new(0) };
}

fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>) {
    cell.with(|c| c.set(c.get() + 1));
}

/// Moves the calling thread's pending per-evaluation tallies into the
/// shared atomics.
fn flush_thread() {
    for (cell, counter) in [
        (&PENDING_LINK_EVALS, &LINK_EVALS),
        (&PENDING_LINK_MEMO_HITS, &LINK_MEMO_HITS),
        (&PENDING_GEOMETRY_CACHE_HITS, &GEOMETRY_CACHE_HITS),
        (&PENDING_GEOMETRY_EVALS, &GEOMETRY_EVALS),
    ] {
        let pending = cell.with(Cell::take);
        if pending > 0 {
            counter.fetch_add(pending, Relaxed);
        }
    }
}

pub(crate) fn record_trial() {
    TRIALS.fetch_add(1, Relaxed);
}

pub(crate) fn record_round(reads: u64, elapsed: Duration) {
    ROUNDS.fetch_add(1, Relaxed);
    READS.fetch_add(reads, Relaxed);
    ROUND_NANOS.fetch_add(elapsed.as_nanos() as u64, Relaxed);
}

pub(crate) fn record_link_eval() {
    bump(&PENDING_LINK_EVALS);
}

pub(crate) fn record_link_memo_hit() {
    bump(&PENDING_LINK_MEMO_HITS);
}

pub(crate) fn record_geometry_cache_hit() {
    bump(&PENDING_GEOMETRY_CACHE_HITS);
}

pub(crate) fn record_geometry_eval() {
    bump(&PENDING_GEOMETRY_EVALS);
}

/// Records trial wall-clock time — and, as the end-of-trial boundary,
/// flushes this thread's pending per-evaluation tallies.
pub(crate) fn record_scenario_time(elapsed: Duration) {
    SCENARIO_NANOS.fetch_add(elapsed.as_nanos() as u64, Relaxed);
    flush_thread();
}

/// A point-in-time copy of the global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CountersSnapshot {
    /// Scenario/single-round trials executed.
    pub trials: u64,
    /// Inventory rounds executed.
    pub rounds: u64,
    /// Successful tag reads.
    pub reads: u64,
    /// Full link-budget evaluations (memo misses — real physics work).
    pub link_evals: u64,
    /// Channel queries answered by the round-scoped `(tag, t)` memo
    /// without re-evaluating the link budget or interference scan.
    pub link_memo_hits: u64,
    /// Instant-geometry lookups (tag poses, coupling entries, occluder
    /// solids, static tag antennas) served from a
    /// [`crate::ScenarioCache`] or the channel's per-`t` geometry memo.
    pub geometry_cache_hits: u64,
    /// Instant-geometry recomputations (cache misses or no cache).
    pub geometry_evals: u64,
    /// Nanoseconds spent inside scenario runs (summed across threads).
    pub scenario_nanos: u64,
    /// Nanoseconds spent inside inventory rounds (summed across threads).
    pub round_nanos: u64,
}

impl CountersSnapshot {
    /// Wall-clock time spent inside scenario runs, summed across threads.
    #[must_use]
    pub const fn scenario_time(&self) -> Duration {
        Duration::from_nanos(self.scenario_nanos)
    }

    /// Wall-clock time spent inside inventory rounds, summed across
    /// threads.
    #[must_use]
    pub const fn round_time(&self) -> Duration {
        Duration::from_nanos(self.round_nanos)
    }

    /// Counter deltas accumulated since an earlier snapshot.
    ///
    /// Saturates at zero if `earlier` was taken after `self` (or after a
    /// [`reset`]).
    #[must_use]
    pub const fn since(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            trials: self.trials.saturating_sub(earlier.trials),
            rounds: self.rounds.saturating_sub(earlier.rounds),
            reads: self.reads.saturating_sub(earlier.reads),
            link_evals: self.link_evals.saturating_sub(earlier.link_evals),
            link_memo_hits: self.link_memo_hits.saturating_sub(earlier.link_memo_hits),
            geometry_cache_hits: self
                .geometry_cache_hits
                .saturating_sub(earlier.geometry_cache_hits),
            geometry_evals: self.geometry_evals.saturating_sub(earlier.geometry_evals),
            scenario_nanos: self.scenario_nanos.saturating_sub(earlier.scenario_nanos),
            round_nanos: self.round_nanos.saturating_sub(earlier.round_nanos),
        }
    }
}

impl std::fmt::Display for CountersSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trials, {} rounds, {} reads, {} link evals + {} memo hits, \
             geometry cache {} hits / {} misses, \
             sim time {:.1} ms (rounds {:.1} ms)",
            self.trials,
            self.rounds,
            self.reads,
            self.link_evals,
            self.link_memo_hits,
            self.geometry_cache_hits,
            self.geometry_evals,
            self.scenario_time().as_secs_f64() * 1e3,
            self.round_time().as_secs_f64() * 1e3,
        )
    }
}

/// Reads the current counter values, flushing the calling thread's
/// pending tallies first.
#[must_use]
pub fn snapshot() -> CountersSnapshot {
    flush_thread();
    CountersSnapshot {
        trials: TRIALS.load(Relaxed),
        rounds: ROUNDS.load(Relaxed),
        reads: READS.load(Relaxed),
        link_evals: LINK_EVALS.load(Relaxed),
        link_memo_hits: LINK_MEMO_HITS.load(Relaxed),
        geometry_cache_hits: GEOMETRY_CACHE_HITS.load(Relaxed),
        geometry_evals: GEOMETRY_EVALS.load(Relaxed),
        scenario_nanos: SCENARIO_NANOS.load(Relaxed),
        round_nanos: ROUND_NANOS.load(Relaxed),
    }
}

/// Zeroes every counter, including the calling thread's pending tallies
/// (start of a measurement window).
pub fn reset() {
    for cell in [
        &PENDING_LINK_EVALS,
        &PENDING_LINK_MEMO_HITS,
        &PENDING_GEOMETRY_CACHE_HITS,
        &PENDING_GEOMETRY_EVALS,
    ] {
        cell.with(|c| c.set(0));
    }
    TRIALS.store(0, Relaxed);
    ROUNDS.store(0, Relaxed);
    READS.store(0, Relaxed);
    LINK_EVALS.store(0, Relaxed);
    LINK_MEMO_HITS.store(0, Relaxed);
    GEOMETRY_CACHE_HITS.store(0, Relaxed);
    GEOMETRY_EVALS.store(0, Relaxed);
    SCENARIO_NANOS.store(0, Relaxed);
    ROUND_NANOS.store(0, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-global, and the test harness runs tests in
    // parallel threads, so these tests only assert monotonic/relative
    // behavior on values they produced themselves.

    #[test]
    fn snapshot_reflects_recorded_events() {
        let before = snapshot();
        record_trial();
        record_round(3, Duration::from_micros(5));
        record_link_eval();
        record_link_memo_hit();
        record_geometry_cache_hit();
        record_geometry_eval();
        record_scenario_time(Duration::from_micros(9));
        let delta = snapshot().since(&before);
        assert!(delta.trials >= 1);
        assert!(delta.rounds >= 1);
        assert!(delta.reads >= 3);
        assert!(delta.link_evals >= 1);
        assert!(delta.link_memo_hits >= 1);
        assert!(delta.geometry_cache_hits >= 1);
        assert!(delta.geometry_evals >= 1);
        assert!(delta.scenario_nanos >= 9_000);
        assert!(delta.round_nanos >= 5_000);
    }

    #[test]
    fn snapshot_flushes_this_threads_pending_tallies() {
        // Per-evaluation records go to thread-local cells; a snapshot on
        // the same thread must still observe them without an intervening
        // trial boundary.
        let before = snapshot();
        record_link_eval();
        record_link_memo_hit();
        let delta = snapshot().since(&before);
        assert!(delta.link_evals >= 1);
        assert!(delta.link_memo_hits >= 1);
    }

    #[test]
    fn since_saturates_rather_than_wrapping() {
        let newer = CountersSnapshot {
            trials: 1,
            ..CountersSnapshot::default()
        };
        let older = CountersSnapshot {
            trials: 5,
            ..CountersSnapshot::default()
        };
        assert_eq!(newer.since(&older).trials, 0);
    }

    #[test]
    fn display_mentions_the_key_figures() {
        let snap = CountersSnapshot {
            trials: 7,
            rounds: 21,
            reads: 14,
            link_evals: 400,
            link_memo_hits: 800,
            geometry_cache_hits: 390,
            geometry_evals: 10,
            scenario_nanos: 2_000_000,
            round_nanos: 1_500_000,
        };
        let text = snap.to_string();
        assert!(text.contains("7 trials"));
        assert!(text.contains("21 rounds"));
        assert!(text.contains("800 memo hits"));
        assert!(text.contains("390 hits"));
        assert!(text.contains("2.0 ms"));
    }
}
