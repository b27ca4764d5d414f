//! Watermark-driven reordering of slightly out-of-order event streams.
//!
//! Portal read streams are not globally time-sorted at the source: two
//! readers run inventory rounds concurrently, so reads interleave
//! within a bounded horizon (one round duration). [`ReorderBuffer`]
//! absorbs that disorder: events are held until the producer's
//! watermark proves their time range complete, then released in
//! `(time, arrival)` order — exactly the order a stable sort by time
//! of the full batch would produce.

use crate::stream::Operator;
use rfid_sim::EventQueue;

/// An event carrying an event time, usable with [`ReorderBuffer`].
pub trait Timestamped {
    /// The event time in seconds.
    fn time_s(&self) -> f64;
}

impl Timestamped for f64 {
    fn time_s(&self) -> f64 {
        *self
    }
}

impl Timestamped for rfid_sim::ReadEvent {
    fn time_s(&self) -> f64 {
        self.time_s
    }
}

impl Timestamped for crate::ZoneObservation {
    fn time_s(&self) -> f64 {
        self.time_s
    }
}

impl Timestamped for crate::stream::ZoneTransition {
    fn time_s(&self) -> f64 {
        self.time_s
    }
}

impl Timestamped for crate::Sighting {
    /// A sighting is timestamped by its *first* read: that is the
    /// order [`crate::stream::SightingStream`] emits in (first-seen
    /// time, object index).
    fn time_s(&self) -> f64 {
        self.first_s
    }
}

/// Buffers out-of-order events and releases them in time order as the
/// watermark advances.
///
/// * `push` accepts events in any order at or after the current
///   watermark (an event *behind* the watermark violates the
///   producer's promise and panics).
/// * `advance_watermark(t)` releases every held event with time `< t`,
///   sorted by `(time, arrival)`.
/// * `finish` drains the rest in the same order.
///
/// Memory is bounded by the stream's out-of-order horizon: the number
/// of events that can arrive between a time `t` and the watermark
/// passing `t`.
///
/// # Examples
///
/// ```
/// use rfid_track::stream::{Operator, ReorderBuffer};
///
/// let mut buf = ReorderBuffer::new();
/// assert!(buf.push(2.0f64).is_empty());
/// assert!(buf.push(1.0f64).is_empty());
/// assert_eq!(buf.advance_watermark(2.0), vec![1.0]);
/// assert_eq!(buf.finish(), vec![2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffer<T> {
    /// Held events in `(time, arrival)` order: the queue's FIFO
    /// tie-break is the stable sort's.
    queue: EventQueue<T>,
    watermark_s: f64,
}

impl<T> Default for ReorderBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReorderBuffer<T> {
    /// Creates an empty buffer with the watermark at `-inf`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            watermark_s: f64::NEG_INFINITY,
        }
    }

    /// Events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The current watermark.
    #[must_use]
    pub fn watermark_s(&self) -> f64 {
        self.watermark_s
    }
}

impl<T: Timestamped> Operator for ReorderBuffer<T> {
    type In = T;
    type Out = T;

    fn push(&mut self, input: T) -> Vec<T> {
        let time_s = input.time_s();
        assert!(!time_s.is_nan(), "event time must not be NaN");
        assert!(
            time_s >= self.watermark_s,
            "event at {time_s} s arrived behind the watermark {} s",
            self.watermark_s
        );
        self.queue.schedule(time_s, input);
        Vec::new()
    }

    fn advance_watermark(&mut self, watermark_s: f64) -> Vec<T> {
        assert!(!watermark_s.is_nan(), "watermark must not be NaN");
        self.watermark_s = self.watermark_s.max(watermark_s);
        let mut out = Vec::new();
        while self
            .queue
            .peek_time()
            .is_some_and(|time_s| time_s < self.watermark_s)
        {
            out.push(self.queue.pop().expect("peeked entry exists").1);
        }
        out
    }

    fn finish(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some((_, item)) = self.queue.pop() {
            out.push(item);
        }
        out
    }

    fn watermark_preserving(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Timestamped for (f64, &'static str) {
        fn time_s(&self) -> f64 {
            self.0
        }
    }

    #[test]
    fn releases_in_time_order_with_arrival_tiebreak() {
        let mut buf: ReorderBuffer<(f64, &'static str)> = ReorderBuffer::new();
        buf.push((3.0, "late"));
        buf.push((1.0, "a"));
        buf.push((1.0, "b"));
        buf.push((2.0, "mid"));
        let released = buf.advance_watermark(2.5);
        let names: Vec<&str> = released.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["a", "b", "mid"]);
        assert_eq!(buf.len(), 1);
        let rest: Vec<&str> = buf.finish().iter().map(|(_, n)| *n).collect();
        assert_eq!(rest, vec!["late"]);
    }

    #[test]
    fn watermark_boundary_is_exclusive() {
        let mut buf = ReorderBuffer::new();
        buf.push(1.0f64);
        // An event AT the watermark may still gain same-time siblings,
        // so it is not released.
        assert!(buf.advance_watermark(1.0).is_empty());
        buf.push(1.0f64);
        assert_eq!(buf.advance_watermark(1.5), vec![1.0, 1.0]);
    }

    #[test]
    fn watermarks_never_regress() {
        let mut buf: ReorderBuffer<f64> = ReorderBuffer::new();
        buf.advance_watermark(5.0);
        buf.advance_watermark(1.0); // clamped
        assert_eq!(buf.watermark_s(), 5.0);
    }

    #[test]
    #[should_panic(expected = "behind the watermark")]
    fn late_events_panic() {
        let mut buf = ReorderBuffer::new();
        buf.advance_watermark(5.0);
        buf.push(1.0f64);
    }
}
