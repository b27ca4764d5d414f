use std::error::Error;
use std::fmt;

/// Error type for statistics construction and computation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StatsError {
    /// An operation that requires at least one sample was given none.
    EmptyInput,
    /// A proportion was constructed with more successes than trials.
    SuccessesExceedTrials {
        /// Number of successes supplied.
        successes: u64,
        /// Number of trials supplied.
        trials: u64,
    },
    /// A proportion was constructed with zero trials.
    ZeroTrials,
    /// A probability or quantile rank was outside `[0, 1]`.
    OutOfRange {
        /// The offending value, formatted for display.
        value: String,
    },
    /// A sample set contained NaN where a totally ordered computation
    /// (sorting-based quantiles) requires real values.
    NanSample,
    /// A serialized accumulator was truncated or malformed.
    BadEncoding {
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input sample set is empty"),
            StatsError::SuccessesExceedTrials { successes, trials } => {
                write!(f, "successes ({successes}) exceed trials ({trials})")
            }
            StatsError::ZeroTrials => write!(f, "proportion requires at least one trial"),
            StatsError::OutOfRange { value } => {
                write!(f, "value {value} is outside the unit interval")
            }
            StatsError::NanSample => {
                write!(f, "sample set contains NaN, which has no rank")
            }
            StatsError::BadEncoding { reason } => {
                write!(f, "malformed accumulator encoding: {reason}")
            }
        }
    }
}

impl Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = StatsError::SuccessesExceedTrials {
            successes: 5,
            trials: 3,
        };
        let msg = err.to_string();
        assert!(msg.contains('5') && msg.contains('3'));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<StatsError>();
    }
}
