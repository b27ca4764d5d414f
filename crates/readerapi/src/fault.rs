//! Seed-deterministic fault injection for reader transports.
//!
//! [`FaultTransport`] sits between a client and any inner [`Transport`]
//! and injects the failure classes a flaky reader link produces in the
//! field: dropped exchanges (timeout), peer disconnects, garbled
//! frames, frames truncated mid-line, and delayed responses. Which
//! fault (if any) fires on a given exchange is decided by hashing the
//! exchange ordinal with an [`RngStream`] — the same addressed-RNG
//! discipline as `sim::rng` — so a seed fully determines the fault
//! schedule and a failing soak run replays bit-identically.
//!
//! # Fault model
//!
//! All faults except `delay` fire *before* the inner transport sees the
//! request: the wire ate the exchange, the reader's state machine never
//! observed it. This is the conservative at-most-once model under which
//! a retry is loss-free even for non-idempotent commands (`get-tags`
//! drains the buffer — a retry of an exchange the reader already
//! processed would silently discard reads). A real TCP link can also
//! fail *after* the server processed a request; surviving that for
//! draining commands needs sequence numbers above the transport, which
//! is out of scope here and called out in DESIGN.md.

use crate::client::Transport;
use crate::counters;
use crate::error::TransportError;
use rfid_sim::RngStream;
use std::time::Duration;

/// Per-exchange fault probabilities (each in `[0, 1]`, summing to at
/// most 1; the remainder is the clean-exchange probability).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Exchange vanishes: the client observes a timeout.
    pub drop: f64,
    /// Peer closes the connection: the client observes a disconnect.
    pub disconnect: f64,
    /// The response frame is replaced with deterministic junk.
    pub garble: f64,
    /// The response frame is cut mid-line.
    pub truncate: f64,
    /// The exchange goes through, but only after `delay_for`.
    pub delay: f64,
    /// How long a delayed exchange is held back.
    pub delay_for: Duration,
}

impl Default for FaultPlan {
    /// No faults at all — a transparent wrapper.
    fn default() -> Self {
        Self {
            drop: 0.0,
            disconnect: 0.0,
            garble: 0.0,
            truncate: 0.0,
            delay: 0.0,
            delay_for: Duration::ZERO,
        }
    }
}

impl FaultPlan {
    /// A noisy-link preset: every fault class active, ~30% of
    /// exchanges faulted overall. Delays are microsecond-scale so soak
    /// tests stay fast.
    #[must_use]
    pub const fn noisy() -> Self {
        Self {
            drop: 0.08,
            disconnect: 0.06,
            garble: 0.06,
            truncate: 0.05,
            delay: 0.05,
            delay_for: Duration::from_micros(50),
        }
    }

    /// Total probability that an exchange is faulted (delay included).
    #[must_use]
    pub fn fault_probability(&self) -> f64 {
        self.drop + self.disconnect + self.garble + self.truncate + self.delay
    }

    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("disconnect", self.disconnect),
            ("garble", self.garble),
            ("truncate", self.truncate),
            ("delay", self.delay),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability {name} = {p} outside [0, 1]"
            );
        }
        assert!(
            self.fault_probability() <= 1.0 + 1e-12,
            "fault probabilities sum to {} > 1",
            self.fault_probability()
        );
    }
}

/// Per-instance tallies of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Exchanges dropped (surfaced as timeouts).
    pub drops: u64,
    /// Exchanges ended by an injected disconnect.
    pub disconnects: u64,
    /// Responses replaced with junk.
    pub garbles: u64,
    /// Responses cut mid-line.
    pub truncates: u64,
    /// Exchanges delayed but delivered.
    pub delays: u64,
    /// Exchanges passed through untouched.
    pub clean: u64,
}

impl FaultStats {
    /// Total faults injected (delays included; clean excluded).
    #[must_use]
    pub const fn total_faults(&self) -> u64 {
        self.drops + self.disconnects + self.garbles + self.truncates + self.delays
    }
}

/// A chaos wrapper over any [`Transport`].
#[derive(Debug, Clone)]
pub struct FaultTransport<T> {
    inner: T,
    plan: FaultPlan,
    rng: RngStream,
    exchanges: u64,
    stats: FaultStats,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`, injecting faults per `plan` on a schedule fully
    /// determined by `rng`'s seed.
    ///
    /// # Panics
    ///
    /// Panics if any probability in `plan` is outside `[0, 1]` or the
    /// probabilities sum past 1.
    #[must_use]
    pub fn new(inner: T, plan: FaultPlan, rng: RngStream) -> Self {
        plan.validate();
        Self {
            inner,
            plan,
            rng,
            exchanges: 0,
            stats: FaultStats::default(),
        }
    }

    /// Shared access to the wrapped transport.
    #[must_use]
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Exclusive access to the wrapped transport.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// What this instance has injected so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn exchange(&mut self, request_xml: &str) -> Result<String, TransportError> {
        let call = self.exchanges;
        self.exchanges += 1;
        let u = self.rng.uniform(&[call]);
        let p = &self.plan;

        let mut threshold = p.drop;
        if u < threshold {
            self.stats.drops += 1;
            counters::record_fault_injected();
            counters::record_timeout();
            return Err(TransportError::Timeout {
                deadline: Some(Duration::ZERO),
            });
        }
        threshold += p.disconnect;
        if u < threshold {
            self.stats.disconnects += 1;
            counters::record_fault_injected();
            return Err(TransportError::Disconnected);
        }
        threshold += p.garble;
        if u < threshold {
            self.stats.garbles += 1;
            counters::record_fault_injected();
            // Deterministic junk that can never parse as a wire
            // document (no leading '<').
            return Ok(format!("\u{1}garble {:016x}", self.rng.value(&[call, 1])));
        }
        threshold += p.truncate;
        if u < threshold {
            self.stats.truncates += 1;
            counters::record_fault_injected();
            // A plausible response cut mid-frame, length seed-varied.
            let frame = "<response><tags><tag><epc>AA00000000000000000000BB</epc>";
            let keep = 8 + (self.rng.value(&[call, 2]) as usize % (frame.len() - 8));
            return Ok(frame[..keep].to_owned());
        }
        threshold += p.delay;
        if u < threshold {
            self.stats.delays += 1;
            counters::record_fault_injected();
            if !p.delay_for.is_zero() {
                std::thread::sleep(p.delay_for);
            }
            return self.inner.exchange(request_xml);
        }
        self.stats.clean += 1;
        self.inner.exchange(request_xml)
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::InMemoryTransport;
    use crate::protocol::Response;
    use crate::server::ReaderEmulator;

    fn faulty(seed: u64, plan: FaultPlan) -> FaultTransport<InMemoryTransport> {
        FaultTransport::new(
            InMemoryTransport::new(ReaderEmulator::new()),
            plan,
            RngStream::new(seed),
        )
    }

    #[test]
    fn default_plan_is_transparent() {
        let mut transport = faulty(1, FaultPlan::default());
        for _ in 0..50 {
            let reply = transport.exchange("<request><status/></request>").unwrap();
            assert!(Response::from_xml(&reply).is_ok());
        }
        assert_eq!(transport.stats().clean, 50);
        assert_eq!(transport.stats().total_faults(), 0);
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        let plan = FaultPlan::noisy();
        let run = |seed| {
            let mut transport = faulty(seed, plan);
            for _ in 0..300 {
                let _ = transport.exchange("<request><status/></request>");
            }
            transport.stats()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
    }

    #[test]
    fn noisy_plan_exercises_every_fault_class() {
        let mut transport = faulty(7, FaultPlan::noisy());
        for _ in 0..500 {
            let _ = transport.exchange("<request><status/></request>");
        }
        let stats = transport.stats();
        assert!(stats.drops > 0, "{stats:?}");
        assert!(stats.disconnects > 0, "{stats:?}");
        assert!(stats.garbles > 0, "{stats:?}");
        assert!(stats.truncates > 0, "{stats:?}");
        assert!(stats.delays > 0, "{stats:?}");
        assert!(stats.clean > 250, "{stats:?}");
        let rate = stats.total_faults() as f64 / 500.0;
        assert!((rate - 0.3).abs() < 0.08, "fault rate {rate} far from plan");
    }

    #[test]
    fn garbled_and_truncated_frames_fail_wire_parsing() {
        let plan = FaultPlan {
            garble: 0.5,
            truncate: 0.5,
            ..FaultPlan::default()
        };
        let mut transport = faulty(3, plan);
        for _ in 0..100 {
            let reply = transport.exchange("<request><status/></request>").unwrap();
            assert!(
                Response::from_xml(&reply).is_err(),
                "injected frame must be malformed: {reply:?}"
            );
        }
        assert_eq!(transport.stats().clean, 0);
    }

    #[test]
    fn faults_fire_before_the_reader_sees_the_request() {
        // Every exchange faulted: the emulator must never observe a
        // request, so its state (polled mode) cannot change.
        let plan = FaultPlan {
            drop: 0.5,
            disconnect: 0.5,
            ..FaultPlan::default()
        };
        let mut transport = faulty(5, plan);
        for _ in 0..40 {
            assert!(transport
                .exchange("<request><start-buffered/></request>")
                .is_err());
        }
        assert_eq!(
            transport.inner().emulator().mode(),
            crate::protocol::ReaderMode::Polled,
            "faulted exchanges must not mutate reader state"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probabilities_are_rejected() {
        let plan = FaultPlan {
            drop: 1.5,
            ..FaultPlan::default()
        };
        let _ = faulty(1, plan);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn oversubscribed_probabilities_are_rejected() {
        let plan = FaultPlan {
            drop: 0.6,
            garble: 0.6,
            ..FaultPlan::default()
        };
        let _ = faulty(1, plan);
    }
}
