//! 96-bit Electronic Product Codes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A 96-bit EPC identifier — the standard Gen-2 tag identity the paper's
/// tags carry ("typically a unique 96 bit identification code").
///
/// # Examples
///
/// ```
/// use rfid_gen2::Epc96;
///
/// let epc = Epc96::from_u128(0xABCD_0123);
/// let text = epc.to_string();
/// assert_eq!(text.len(), 24); // 24 hex digits
/// assert_eq!(text.parse::<Epc96>().unwrap(), epc);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Epc96([u8; 12]);

impl Epc96 {
    /// Creates an EPC from the low 96 bits of a `u128`.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in 96 bits.
    #[must_use]
    pub fn from_u128(value: u128) -> Self {
        assert!(value < (1u128 << 96), "value exceeds 96 bits");
        let bytes = value.to_be_bytes();
        let mut out = [0u8; 12];
        out.copy_from_slice(&bytes[4..]);
        Epc96(out)
    }

    /// The EPC as the low 96 bits of a `u128`.
    #[must_use]
    pub fn to_u128(self) -> u128 {
        let mut bytes = [0u8; 16];
        bytes[4..].copy_from_slice(&self.0);
        u128::from_be_bytes(bytes)
    }
}

impl fmt::Display for Epc96 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02X}")?;
        }
        Ok(())
    }
}

/// Error parsing an [`Epc96`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEpcError {
    reason: &'static str,
}

impl fmt::Display for ParseEpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid EPC: {}", self.reason)
    }
}

impl std::error::Error for ParseEpcError {}

impl FromStr for Epc96 {
    type Err = ParseEpcError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.len() != 24 {
            return Err(ParseEpcError {
                reason: "expected 24 hex digits",
            });
        }
        let mut bytes = [0u8; 12];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let text = std::str::from_utf8(chunk).map_err(|_| ParseEpcError {
                reason: "non-ASCII input",
            })?;
            bytes[i] = u8::from_str_radix(text, 16).map_err(|_| ParseEpcError {
                reason: "non-hex digit",
            })?;
        }
        Ok(Epc96(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn u128_round_trip() {
        for v in [0u128, 1, 0xDEAD_BEEF, (1u128 << 96) - 1] {
            assert_eq!(Epc96::from_u128(v).to_u128(), v);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 96 bits")]
    fn oversized_value_panics() {
        let _ = Epc96::from_u128(1u128 << 96);
    }

    #[test]
    fn display_and_parse_round_trip() {
        let epc = Epc96::from_u128(0x0123_4567_89AB_CDEF);
        let text = epc.to_string();
        assert_eq!(text.parse::<Epc96>().unwrap(), epc);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("123".parse::<Epc96>().is_err());
        assert!("ZZZZZZZZZZZZZZZZZZZZZZZZ".parse::<Epc96>().is_err());
        assert!("303132333435363738394041".parse::<Epc96>().is_ok());
    }

    proptest! {
        #[test]
        fn text_round_trip(v in 0u128..(1u128 << 96)) {
            let epc = Epc96::from_u128(v);
            prop_assert_eq!(epc.to_string().parse::<Epc96>().unwrap(), epc);
        }
    }
}
