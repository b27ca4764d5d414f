//! Deterministic merge of many concurrent reader sessions into one
//! canonical event order.
//!
//! A site server ingests one event stream per portal session, each
//! internally time-ordered but mutually interleaved by thread
//! scheduling. [`SessionMerge`] is the synchronization point that makes
//! the interleaving irrelevant: every session owns a fixed *lane*,
//! events queue per lane, and an event is released only once **every**
//! lane's watermark has passed it — popped in `(time, lane)` order, a
//! k-way merge of the sorted lanes. Because only events below the
//! minimum watermark are ever released, and each lane promises never to
//! push below its own watermark, the released sequence is a pure
//! function of the per-lane inputs: any thread schedule yields the same
//! canonical order, which is what lets a live multi-session server
//! prove its final tracker state bit-identical to a batch replay.
//!
//! Unlike the panicking single-producer [`ReorderBuffer`]
//! (crate-internal discipline), every misuse here is a typed
//! [`MergeError`] — session input crosses a trust boundary and a
//! daemon must count and drop, never die.
//!
//! [`ReorderBuffer`]: crate::stream::ReorderBuffer

use crate::stream::Timestamped;
use std::collections::VecDeque;
use std::fmt;

/// Why the merge rejected a call. Every variant names the offending
/// session so a daemon can attribute the fault to one connection.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The session index names no lane (lanes are fixed at
    /// construction).
    UnknownSession(usize),
    /// `attach` on a lane that already has a live session.
    SessionBusy(usize),
    /// `push`/`advance`/`detach` on a lane with no attached session.
    NotAttached(usize),
    /// An event or watermark time was `NaN` or infinite.
    NonFiniteTime {
        /// The offending session.
        session: usize,
        /// The offending value, rendered as text.
        time: String,
    },
    /// An event arrived behind its own lane's previous event — the
    /// session broke its internal time-order promise.
    OutOfOrder {
        /// The offending session.
        session: usize,
        /// The event's time.
        time_s: f64,
        /// The lane's highest accepted time.
        highest_s: f64,
    },
    /// An event arrived behind its own lane's watermark — the session
    /// broke its completeness promise.
    LateEvent {
        /// The offending session.
        session: usize,
        /// The event's time.
        time_s: f64,
        /// The lane's watermark.
        watermark_s: f64,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::UnknownSession(session) => {
                write!(f, "session {session} names no merge lane")
            }
            MergeError::SessionBusy(session) => {
                write!(f, "session {session} already has a live attachment")
            }
            MergeError::NotAttached(session) => {
                write!(f, "session {session} is not attached")
            }
            MergeError::NonFiniteTime { session, time } => {
                write!(f, "session {session} supplied non-finite time {time}")
            }
            MergeError::OutOfOrder {
                session,
                time_s,
                highest_s,
            } => write!(
                f,
                "session {session} pushed {time_s} s behind its own {highest_s} s"
            ),
            MergeError::LateEvent {
                session,
                time_s,
                watermark_s,
            } => write!(
                f,
                "session {session} pushed {time_s} s behind its watermark {watermark_s} s"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

#[derive(Debug, Clone)]
struct Lane<T> {
    queue: VecDeque<T>,
    watermark_s: f64,
    highest_s: f64,
    attached: bool,
}

impl<T> Lane<T> {
    fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            watermark_s: f64::NEG_INFINITY,
            highest_s: f64::NEG_INFINITY,
            attached: false,
        }
    }
}

/// Watermark-keyed k-way merge over a fixed set of session lanes.
///
/// * Lanes are created up front ([`SessionMerge::new`]) so a portal
///   that connects late cannot have events released out from under it:
///   until a lane reports a watermark, nothing anywhere releases.
/// * [`attach`](SessionMerge::attach) /
///   [`detach`](SessionMerge::detach) track session occupancy across
///   reconnects; detaching keeps the lane's queue and watermark.
/// * [`push`](SessionMerge::push) accepts events per lane in
///   nondecreasing time order, at or after the lane's watermark.
/// * [`advance`](SessionMerge::advance) raises one lane's watermark and
///   releases every queued event with `time < min(lane watermarks)`,
///   in `(time, lane)` order.
/// * [`finish`](SessionMerge::finish) ends every lane and drains the
///   rest in the same canonical order.
///
/// # Examples
///
/// ```
/// use rfid_track::stream::SessionMerge;
///
/// let mut merge: SessionMerge<f64> = SessionMerge::new(2);
/// merge.attach(0).unwrap();
/// merge.attach(1).unwrap();
/// merge.push(0, 1.0).unwrap();
/// merge.push(1, 0.5).unwrap();
/// // Lane 0 alone cannot release anything...
/// assert!(merge.advance(0, 2.0).unwrap().is_empty());
/// // ...the *minimum* watermark is what licenses release.
/// assert_eq!(merge.advance(1, 2.0).unwrap(), vec![0.5, 1.0]);
/// assert!(merge.finish().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SessionMerge<T> {
    lanes: Vec<Lane<T>>,
}

impl<T: Timestamped> SessionMerge<T> {
    /// Creates a merge with `sessions` fixed lanes, none attached.
    #[must_use]
    pub fn new(sessions: usize) -> Self {
        Self {
            lanes: (0..sessions).map(|_| Lane::new()).collect(),
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.lanes.len()
    }

    /// Events currently queued across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|lane| lane.queue.len()).sum()
    }

    /// Whether no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|lane| lane.queue.is_empty())
    }

    /// The release floor: the minimum watermark over every lane.
    #[must_use]
    pub fn watermark_s(&self) -> f64 {
        self.lanes
            .iter()
            .map(|lane| lane.watermark_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Claims a lane for a live session.
    ///
    /// # Errors
    ///
    /// [`MergeError::UnknownSession`] or [`MergeError::SessionBusy`].
    pub fn attach(&mut self, session: usize) -> Result<(), MergeError> {
        let lane = self.lane_mut(session)?;
        if lane.attached {
            return Err(MergeError::SessionBusy(session));
        }
        lane.attached = true;
        Ok(())
    }

    /// Releases a lane's session slot, keeping its queue and watermark
    /// so a reconnecting session resumes where it left off.
    ///
    /// # Errors
    ///
    /// [`MergeError::UnknownSession`] or [`MergeError::NotAttached`].
    pub fn detach(&mut self, session: usize) -> Result<(), MergeError> {
        let lane = self.lane_mut(session)?;
        if !lane.attached {
            return Err(MergeError::NotAttached(session));
        }
        lane.attached = false;
        Ok(())
    }

    /// Queues one event on a session's lane.
    ///
    /// # Errors
    ///
    /// [`MergeError::UnknownSession`], [`MergeError::NotAttached`],
    /// [`MergeError::NonFiniteTime`], [`MergeError::OutOfOrder`], or
    /// [`MergeError::LateEvent`]. A rejected event leaves the merge
    /// unchanged.
    pub fn push(&mut self, session: usize, item: T) -> Result<(), MergeError> {
        let time_s = item.time_s();
        let lane = self.lane_mut(session)?;
        if !lane.attached {
            return Err(MergeError::NotAttached(session));
        }
        if !time_s.is_finite() {
            return Err(MergeError::NonFiniteTime {
                session,
                time: format!("{time_s}"),
            });
        }
        if time_s < lane.watermark_s {
            return Err(MergeError::LateEvent {
                session,
                time_s,
                watermark_s: lane.watermark_s,
            });
        }
        if time_s < lane.highest_s {
            return Err(MergeError::OutOfOrder {
                session,
                time_s,
                highest_s: lane.highest_s,
            });
        }
        lane.highest_s = time_s;
        lane.queue.push_back(item);
        Ok(())
    }

    /// Raises a session's watermark (never regresses) and releases
    /// every event now complete, in `(time, lane)` order.
    ///
    /// # Errors
    ///
    /// [`MergeError::UnknownSession`], [`MergeError::NotAttached`], or
    /// [`MergeError::NonFiniteTime`] for a `NaN` watermark (`+inf` is
    /// allowed: it is a session's end-of-stream promise).
    pub fn advance(&mut self, session: usize, watermark_s: f64) -> Result<Vec<T>, MergeError> {
        if watermark_s.is_nan() {
            return Err(MergeError::NonFiniteTime {
                session,
                time: format!("{watermark_s}"),
            });
        }
        let lane = self.lane_mut(session)?;
        if !lane.attached {
            return Err(MergeError::NotAttached(session));
        }
        lane.watermark_s = lane.watermark_s.max(watermark_s);
        Ok(self.release())
    }

    /// Ends every lane (watermarks to `+inf`) and drains every queued
    /// event in `(time, lane)` order.
    pub fn finish(&mut self) -> Vec<T> {
        for lane in &mut self.lanes {
            lane.watermark_s = f64::INFINITY;
        }
        self.release()
    }

    /// Pops queued events below the minimum watermark, earliest
    /// `(time, lane)` first. Lanes are sorted queues, so this is a
    /// k-way merge scanning lane heads; k is the portal count.
    fn release(&mut self) -> Vec<T> {
        let floor = self.watermark_s();
        let mut out = Vec::new();
        loop {
            let mut best: Option<(f64, usize)> = None;
            for (index, lane) in self.lanes.iter().enumerate() {
                if let Some(head) = lane.queue.front() {
                    let time_s = head.time_s();
                    if time_s < floor && best.is_none_or(|(t, _)| time_s < t) {
                        best = Some((time_s, index));
                    }
                }
            }
            let Some((_, index)) = best else { break };
            if let Some(item) = self.lanes[index].queue.pop_front() {
                out.push(item);
            }
        }
        out
    }

    fn lane_mut(&mut self, session: usize) -> Result<&mut Lane<T>, MergeError> {
        self.lanes
            .get_mut(session)
            .ok_or(MergeError::UnknownSession(session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attached(sessions: usize) -> SessionMerge<f64> {
        let mut merge = SessionMerge::new(sessions);
        for session in 0..sessions {
            merge.attach(session).expect("fresh lane");
        }
        merge
    }

    #[test]
    fn releases_only_below_the_minimum_watermark() {
        let mut merge = attached(3);
        merge.push(0, 1.0).unwrap();
        merge.push(1, 2.0).unwrap();
        merge.push(2, 0.5).unwrap();
        assert!(merge.advance(0, 10.0).unwrap().is_empty());
        assert!(merge.advance(1, 10.0).unwrap().is_empty());
        assert_eq!(merge.watermark_s(), f64::NEG_INFINITY, "lane 2 silent");
        assert_eq!(merge.advance(2, 1.5).unwrap(), vec![0.5, 1.0]);
        assert_eq!(merge.watermark_s(), 1.5);
        assert_eq!(merge.finish(), vec![2.0]);
        assert!(merge.is_empty());
    }

    #[test]
    fn equal_times_release_in_lane_order() {
        let mut merge = attached(3);
        // Push in reverse lane order: arrival must not matter.
        merge.push(2, 1.0).unwrap();
        merge.push(1, 1.0).unwrap();
        merge.push(0, 1.0).unwrap();
        for session in 0..3 {
            merge.advance(session, 5.0).unwrap();
        }
        // f64 items carry no lane label, so re-run with labels via
        // (time, lane) encoded in the fraction.
        let mut labeled = attached(3);
        for lane in [2usize, 1, 0] {
            labeled.push(lane, 1.0 + (lane as f64) * 1e-12).unwrap();
        }
        let mut out = Vec::new();
        for session in 0..3 {
            out.extend(labeled.advance(session, 5.0).unwrap());
        }
        assert_eq!(out, vec![1.0, 1.0 + 1e-12, 1.0 + 2e-12]);
    }

    #[test]
    fn release_order_is_invariant_to_call_interleaving() {
        // Two schedules of the same per-lane inputs: lane-0-first vs
        // interleaved. The released sequence must be identical.
        let inputs: [&[f64]; 2] = [&[0.1, 0.4, 0.9], &[0.2, 0.3, 1.1]];
        let run = |schedule: &[(usize, usize)]| -> Vec<f64> {
            let mut merge = attached(2);
            let mut out = Vec::new();
            for &(lane, index) in schedule {
                merge.push(lane, inputs[lane][index]).unwrap();
                out.extend(merge.advance(lane, inputs[lane][index]).unwrap());
            }
            out.extend(merge.finish());
            out
        };
        let sequential = run(&[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        let interleaved = run(&[(0, 0), (1, 0), (1, 1), (0, 1), (1, 2), (0, 2)]);
        assert_eq!(sequential, interleaved);
        assert_eq!(sequential, vec![0.1, 0.2, 0.3, 0.4, 0.9, 1.1]);
    }

    #[test]
    fn detach_keeps_the_lane_and_reattach_resumes() {
        let mut merge = attached(2);
        merge.push(0, 1.0).unwrap();
        merge.advance(0, 2.0).unwrap();
        merge.detach(0).unwrap();
        assert_eq!(
            merge.push(0, 3.0),
            Err(MergeError::NotAttached(0)),
            "a detached lane accepts nothing"
        );
        merge.attach(0).unwrap();
        merge.push(0, 3.0).unwrap();
        assert_eq!(
            merge.push(0, 1.5),
            Err(MergeError::LateEvent {
                session: 0,
                time_s: 1.5,
                watermark_s: 2.0,
            }),
            "the watermark survives the reconnect"
        );
        let mut out = merge.advance(1, 10.0).unwrap();
        out.extend(merge.advance(0, 10.0).unwrap());
        assert_eq!(out, vec![1.0, 3.0]);
    }

    #[test]
    fn typed_errors_for_every_misuse() {
        let mut merge: SessionMerge<f64> = SessionMerge::new(1);
        assert_eq!(merge.attach(3), Err(MergeError::UnknownSession(3)));
        assert_eq!(merge.push(0, 1.0), Err(MergeError::NotAttached(0)));
        assert_eq!(merge.detach(0), Err(MergeError::NotAttached(0)));
        merge.attach(0).unwrap();
        assert_eq!(merge.attach(0), Err(MergeError::SessionBusy(0)));
        assert!(matches!(
            merge.push(0, f64::NAN),
            Err(MergeError::NonFiniteTime { session: 0, .. })
        ));
        assert!(matches!(
            merge.push(0, f64::INFINITY),
            Err(MergeError::NonFiniteTime { session: 0, .. })
        ));
        assert!(matches!(
            merge.advance(0, f64::NAN),
            Err(MergeError::NonFiniteTime { session: 0, .. })
        ));
        merge.push(0, 5.0).unwrap();
        assert_eq!(
            merge.push(0, 4.0),
            Err(MergeError::OutOfOrder {
                session: 0,
                time_s: 4.0,
                highest_s: 5.0,
            })
        );
        // A rejected push leaves the merge intact.
        assert_eq!(merge.len(), 1);
        assert_eq!(merge.finish(), vec![5.0]);
        for error in [
            MergeError::UnknownSession(3),
            MergeError::SessionBusy(0),
            MergeError::NotAttached(0),
            MergeError::NonFiniteTime {
                session: 0,
                time: "NaN".into(),
            },
            MergeError::OutOfOrder {
                session: 0,
                time_s: 4.0,
                highest_s: 5.0,
            },
            MergeError::LateEvent {
                session: 0,
                time_s: 1.5,
                watermark_s: 2.0,
            },
        ] {
            assert!(error.to_string().contains('0') || error.to_string().contains('3'));
        }
    }

    #[test]
    fn a_silent_lane_blocks_release_until_finish() {
        let mut merge = attached(2);
        merge.push(0, 0.5).unwrap();
        assert!(
            merge.advance(0, 100.0).unwrap().is_empty(),
            "lane 1 has made no completeness promise yet"
        );
        assert_eq!(merge.finish(), vec![0.5]);
    }

    #[test]
    fn infinite_watermark_is_a_lanes_end_of_stream() {
        let mut merge = attached(2);
        merge.push(0, 1.0).unwrap();
        merge.advance(0, f64::INFINITY).unwrap();
        merge.detach(0).unwrap();
        merge.push(1, 2.0).unwrap();
        assert_eq!(merge.advance(1, 3.0).unwrap(), vec![1.0, 2.0]);
    }
}
