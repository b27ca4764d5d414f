//! The `bench_snapshot` binary (`cargo run --release -p rfid-bench --bin
//! bench_snapshot -- BENCH_<date>.json`) times what no other tool
//! measures: the memoized hot path against the unmemoized reference on
//! a moving and a static scenario, events/second through the two online
//! operator chains, and the fleet campaign. Each case passes an
//! identity gate before it is timed, and the results are recorded as
//! JSON; `scripts/bench-snapshot.sh` wraps it with a dated default
//! filename. The daemon, wire and store are timed by `perfbench`.

/// Formats an `f64` as a JSON number that parses back to exactly the
/// same bits.
///
/// Rust's `{}` formatting for floats is the shortest decimal string
/// that round-trips, and its output (`-0`, `1`, `0.0000001`, …) is
/// always a valid JSON number — unlike fixed-precision `{:.6}`-style
/// formats, which silently truncate (`0.0000004` → `"0.000000"`) and
/// pad small integers with noise digits. Non-finite values have no
/// JSON number form and become `null`.
#[must_use]
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::json_f64;

    /// serialize → parse → serialize is the identity on every finite
    /// value, including the awkward ones fixed-precision formats mangle.
    #[test]
    fn serialize_parse_serialize_is_identity() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            2.0 / 3.0,
            1e-9,
            4.2e-7,
            123_456_789.123_456_78,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            std::f64::consts::PI,
        ];
        for &value in &cases {
            let text = json_f64(value);
            let parsed: f64 = text.parse().expect("json_f64 output must parse");
            assert_eq!(
                parsed.to_bits(),
                value.to_bits(),
                "{value:e} -> {text} -> {parsed:e} is not the identity"
            );
            assert_eq!(json_f64(parsed), text, "second serialize differs");
        }
    }

    /// A pseudo-random sweep across magnitudes: shortest-round-trip must
    /// hold everywhere, not just on hand-picked cases.
    #[test]
    fn round_trips_across_magnitudes() {
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            bits = bits
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            let value = f64::from_bits(bits >> 12) * (bits % 1024) as f64;
            if !value.is_finite() {
                continue;
            }
            let parsed: f64 = json_f64(value).parse().expect("must parse");
            assert_eq!(parsed.to_bits(), value.to_bits());
        }
    }

    /// Non-finite values are not JSON numbers; they map to `null`.
    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }

    /// The output is always a bare JSON number (or `null`): no exponent
    /// surprises, no `inf`/`NaN` tokens leaking into documents.
    #[test]
    fn output_is_valid_json_token() {
        for value in [0.0, -0.5, 1e300, 1e-300, 42.0, f64::NAN] {
            let text = json_f64(value);
            assert!(
                text == "null"
                    || text
                        .chars()
                        .all(|c| c.is_ascii_digit() || matches!(c, '-' | '.' | 'e' | 'E' | '+')),
                "{text:?} is not a JSON number"
            );
        }
    }
}
