//! Bounded retry with deterministic exponential backoff.
//!
//! Jacobsen et al. ("Reliable Identification of RFID Tags Using
//! Multiple Independent Reader Sessions") treat *repeated independent
//! sessions* as the recovery primitive for an unreliable read channel;
//! [`RetryingTransport`] is that idea formalized at the wire layer: a
//! failed exchange is simply retried as a fresh, independent attempt,
//! up to a bounded budget, with exponential backoff between attempts.
//!
//! Backoff delays are *deterministic*: jitter comes from the same
//! hash-addressed [`RngStream`] discipline as `sim::rng`, keyed by
//! `(logical call, attempt)`, so a given seed always produces the same
//! retry schedule — soak tests replay bit-identically and a field
//! incident can be reproduced from its seed.

use crate::client::{ClientError, Transport};
use crate::counters;
use crate::error::TransportError;
use crate::protocol::Response;
use rfid_sim::RngStream;
use std::time::Duration;

/// A bounded exponential-backoff policy.
///
/// Attempt `n` (1-based; the first retry) waits
/// `min(cap, base * 2^(n-1))` scaled by a jitter factor in `[0.5, 1.0)`
/// drawn deterministically from the transport's [`RngStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Total attempts allowed per logical exchange (first try included).
    /// Clamped to at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff delay.
    pub cap: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(250),
        }
    }
}

impl BackoffPolicy {
    /// A policy that never waits between attempts — for tests and
    /// in-memory transports where backoff buys nothing.
    #[must_use]
    pub const fn immediate(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// The deterministic delay before retry `attempt` (1-based) of
    /// logical exchange `call`.
    ///
    /// Implements the documented `min(cap, base * 2^(attempt-1))`
    /// exactly for every attempt number: the exponent is grown by
    /// saturating doubling (never a shift), stopping as soon as it
    /// reaches `cap`, so `attempt > 20` cannot overflow and a `cap`
    /// below `base` clamps the very first retry. `attempt = 0` is
    /// treated as the first retry (`2^0`), so callers counting from
    /// either convention get a well-defined, bounded delay.
    #[must_use]
    pub fn delay(&self, rng: &RngStream, call: u64, attempt: u32) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let mut exp = self.base;
        let mut doublings = attempt.saturating_sub(1);
        while doublings > 0 && exp < self.cap {
            exp = exp.saturating_mul(2);
            doublings -= 1;
        }
        let exp = exp.min(self.cap);
        let jitter = 0.5 + 0.5 * rng.uniform(&[call, u64::from(attempt)]);
        exp.mul_f64(jitter)
    }
}

/// Wraps any [`Transport`] with bounded, seed-deterministic retry.
///
/// Each logical exchange is attempted up to `policy.max_attempts`
/// times. Between attempts the wrapper sleeps the policy's backoff and
/// asks the inner transport to [`Transport::reset`] (a `TcpTransport`
/// reconnects; in-memory transports are a no-op). A reply that arrives
/// but does not decode as a [`Response`] — garbled bytes, or
/// well-formed XML of the wrong shape — counts as a
/// [`TransportError::MalformedFrame`] and is retried too: a garbled
/// frame is a transport failure, not an application response. The
/// response that decoded is what [`Transport::exchange_response`]
/// returns, so a [`ReaderClient`](crate::ReaderClient) over this
/// transport decodes each reply once.
#[derive(Debug, Clone)]
pub struct RetryingTransport<T> {
    inner: T,
    policy: BackoffPolicy,
    rng: RngStream,
    calls: u64,
}

impl<T: Transport> RetryingTransport<T> {
    /// Wraps `inner` with `policy`, drawing jitter from `rng`.
    #[must_use]
    pub fn new(inner: T, policy: BackoffPolicy, rng: RngStream) -> Self {
        Self {
            inner,
            policy,
            rng,
            calls: 0,
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

    /// One logical exchange: attempts until a reply decodes as a
    /// [`Response`], returning the reply with its decoding, or the
    /// budget is spent.
    fn attempt(&mut self, request_xml: &str) -> Result<(String, Response), TransportError> {
        let call = self.calls;
        self.calls += 1;
        let attempts = self.policy.max_attempts.max(1);
        let mut last = TransportError::Disconnected;
        for attempt in 0..attempts {
            if attempt > 0 {
                counters::record_retry();
                let delay = self.policy.delay(&self.rng, call, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                if let Err(err) = self.inner.reset() {
                    last = err;
                    continue;
                }
            }
            match self.inner.exchange(request_xml) {
                Ok(reply) => match Response::from_xml(&reply) {
                    Ok(response) => return Ok((reply, response)),
                    Err(err) => {
                        counters::record_malformed_frame();
                        last = TransportError::MalformedFrame {
                            detail: err.to_string(),
                        };
                    }
                },
                Err(err) => last = err,
            }
        }
        Err(TransportError::RetriesExhausted {
            attempts,
            last: Box::new(last),
        })
    }
}

impl<T: Transport> Transport for RetryingTransport<T> {
    fn exchange(&mut self, request_xml: &str) -> Result<String, TransportError> {
        self.attempt(request_xml).map(|(reply, _)| reply)
    }

    fn exchange_response(&mut self, request_xml: &str) -> Result<Response, ClientError> {
        Ok(self.attempt(request_xml)?.1)
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails `failures` times (cycling drop kinds), then succeeds.
    struct Flaky {
        failures: u32,
        exchanges: u32,
        resets: u32,
    }

    impl Transport for Flaky {
        fn exchange(&mut self, _request_xml: &str) -> Result<String, TransportError> {
            self.exchanges += 1;
            if self.exchanges <= self.failures {
                return match self.exchanges % 3 {
                    0 => Err(TransportError::Disconnected),
                    1 => Err(TransportError::Timeout { deadline: None }),
                    _ => Ok("<<garbled".to_owned()),
                };
            }
            Ok("<response><ok/></response>".to_owned())
        }

        fn reset(&mut self) -> Result<(), TransportError> {
            self.resets += 1;
            Ok(())
        }
    }

    fn retrying(failures: u32, max_attempts: u32) -> RetryingTransport<Flaky> {
        RetryingTransport::new(
            Flaky {
                failures,
                exchanges: 0,
                resets: 0,
            },
            BackoffPolicy::immediate(max_attempts),
            RngStream::new(7),
        )
    }

    #[test]
    fn rides_out_transient_failures() {
        let mut transport = retrying(3, 5);
        let reply = transport.exchange("<request><status/></request>");
        assert_eq!(reply.unwrap(), "<response><ok/></response>");
        assert_eq!(transport.inner().exchanges, 4, "3 failures + 1 success");
        assert_eq!(transport.inner().resets, 3, "reset before every retry");
    }

    #[test]
    fn exhausts_and_reports_the_last_error() {
        let mut transport = retrying(100, 4);
        let err = transport.exchange("<request><status/></request>");
        match err.unwrap_err() {
            TransportError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 4);
                assert!(last.is_retryable());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(transport.inner().exchanges, 4);
    }

    #[test]
    fn exchange_response_returns_the_reply_that_decoded() {
        let mut transport = retrying(2, 4);
        let response = transport.exchange_response("<request><status/></request>");
        assert_eq!(response, Ok(Response::Ok));
        assert_eq!(transport.inner().exchanges, 3, "2 failures + 1 success");
        let mut transport = retrying(100, 2);
        assert!(matches!(
            transport.exchange_response("<request><status/></request>"),
            Err(ClientError::Transport(TransportError::RetriesExhausted {
                attempts: 2,
                ..
            }))
        ));
    }

    #[test]
    fn garbled_frames_are_retried_as_transport_failures() {
        // failures=2 with the cycle above yields one timeout and one
        // garbled (non-XML) success-shaped reply; both must burn
        // attempts, not surface to the caller.
        let mut transport = retrying(2, 4);
        assert!(transport.exchange("<request><status/></request>").is_ok());
        assert_eq!(transport.inner().exchanges, 3);
    }

    /// Answers every exchange with the same reply.
    struct Fixed(&'static str, u32);

    impl Transport for Fixed {
        fn exchange(&mut self, _request_xml: &str) -> Result<String, TransportError> {
            self.1 += 1;
            Ok(self.0.to_owned())
        }
    }

    #[test]
    fn well_formed_replies_that_are_no_response_are_retried() {
        // Well-formed XML that is no response burns every attempt like
        // any garbled frame, rather than reach the client as bad wire.
        let bogus = Fixed("<response><bogus/></response>", 0);
        let mut transport =
            RetryingTransport::new(bogus, BackoffPolicy::immediate(3), RngStream::new(7));
        match transport.exchange("<request><get-tags/></request>") {
            Err(TransportError::RetriesExhausted { attempts: 3, last }) => assert!(
                matches!(*last, TransportError::MalformedFrame { .. }),
                "{last:?}"
            ),
            other => panic!("expected exhausted retries, got {other:?}"),
        }
        assert_eq!(transport.inner().1, 3);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = BackoffPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
        };
        let rng = RngStream::new(99);
        let schedule: Vec<Duration> = (1..6).map(|a| policy.delay(&rng, 3, a)).collect();
        let replay: Vec<Duration> = (1..6).map(|a| policy.delay(&rng, 3, a)).collect();
        assert_eq!(schedule, replay, "same seed, same schedule");
        for (i, delay) in schedule.iter().enumerate() {
            let exp = Duration::from_millis(10 << i).min(Duration::from_millis(80));
            assert!(*delay >= exp.mul_f64(0.5), "jitter floor at attempt {i}");
            assert!(*delay < exp, "jitter keeps delay under the raw exponent");
        }
        assert_ne!(
            policy.delay(&rng, 3, 1),
            policy.delay(&rng, 4, 1),
            "different calls draw different jitter"
        );
        assert_ne!(
            policy.delay(&RngStream::new(100), 3, 1),
            policy.delay(&rng, 3, 1),
            "different seeds draw different jitter"
        );
    }

    #[test]
    fn cap_below_base_clamps_every_retry() {
        let policy = BackoffPolicy {
            max_attempts: 4,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(4),
        };
        let rng = RngStream::new(11);
        for attempt in [0, 1, 2, 7, 40] {
            let delay = policy.delay(&rng, 0, attempt);
            let cap = policy.cap;
            assert!(
                delay >= cap.mul_f64(0.5) && delay < cap,
                "attempt {attempt}: min(cap, base*2^(n-1)) = cap when cap < base"
            );
        }
    }

    #[test]
    fn huge_attempt_numbers_cannot_overflow_the_exponent() {
        // attempt - 1 > 20 used to clamp the shift at 2^20; the doubling
        // loop honors the documented formula all the way to saturation.
        let policy = BackoffPolicy {
            max_attempts: u32::MAX,
            base: Duration::from_millis(1),
            cap: Duration::MAX,
        };
        let rng = RngStream::new(11);
        for attempt in [21, 64, 1_000, u32::MAX] {
            let delay = policy.delay(&rng, 1, attempt);
            assert!(delay <= policy.cap, "attempt {attempt} stays bounded");
        }
        // Past the old 2^20 clamp the formula keeps doubling: attempt 25
        // must wait jitter * base * 2^24, not jitter * base * 2^20.
        let exp = Duration::from_millis(1 << 24);
        let delay = policy.delay(&rng, 1, 25);
        assert!(
            delay >= exp.mul_f64(0.5) && delay < exp,
            "attempt 25 honors base*2^24 ({delay:?} vs {exp:?})"
        );
    }

    #[test]
    fn attempt_zero_is_well_defined() {
        let policy = BackoffPolicy::default();
        let rng = RngStream::new(11);
        let delay = policy.delay(&rng, 0, 0);
        assert!(
            delay >= policy.base.mul_f64(0.5) && delay < policy.base,
            "attempt 0 behaves as the first retry (2^0 exponent)"
        );
    }

    #[test]
    fn immediate_policy_never_sleeps() {
        let policy = BackoffPolicy::immediate(3);
        assert_eq!(policy.delay(&RngStream::new(1), 0, 1), Duration::ZERO);
        assert_eq!(policy.delay(&RngStream::new(1), 5, 9), Duration::ZERO);
    }

    #[test]
    fn zero_max_attempts_still_tries_once() {
        let mut transport = retrying(0, 0);
        assert!(transport.exchange("<request><status/></request>").is_ok());
        assert_eq!(transport.inner().exchanges, 1);
    }
}
