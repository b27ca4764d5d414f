//! Streaming summary statistics with an associative, bit-reproducible
//! merge.
//!
//! The campaign engine folds millions of trial metrics without ever
//! materializing a per-trial `Vec`, and the fold must replay
//! bit-identically for any chunking of the sample stream and any shape
//! of the merge tree. Classic streaming estimators fail that bar:
//! Welford's running mean and variance with Chan's parallel merge is
//! order-sensitive in the last ulp, and compactor-based quantile
//! sketches (GK, KLL) make data-dependent compaction decisions that
//! differ between merge orders. This module therefore builds the
//! [`StreamSummary`] from two primitives whose merges are *exactly*
//! associative and commutative:
//!
//! - [`ExactSum`]: a fixed-point superaccumulator holding the exact
//!   (error-free) sum of every pushed `f64`. Push and merge are integer
//!   additions; [`ExactSum::value`] rounds the exact total to the
//!   nearest `f64` once, so the result depends only on the *multiset*
//!   of pushed values — not on chunking, merge shape, or thread count.
//! - [`QuantileSketch`]: a log-binned sketch in the DDSketch family.
//!   A sample's bucket is a pure function of its value, and merging is
//!   unsigned bucket-count addition, so the sketch too depends only on
//!   the multiset of samples. Quantiles carry a proven relative error
//!   bound of [`QUANTILE_ALPHA`] inside the representable range.
//!
//! Both primitives count non-finite inputs in dedicated sticky
//! counters instead of poisoning internal state, so NaN/±inf handling
//! is documented and deterministic rather than accidental.

use crate::{Quartiles, StatsError};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// ExactSum
// ---------------------------------------------------------------------

/// Number of 32-bit limbs (stored one per `u64` so carries accumulate
/// lazily). Bit 0 of limb 0 has weight 2^-1088, so every finite `f64`
/// (down to the smallest subnormal at 2^-1074) lands at a non-negative
/// bit position, and the top of the array (bit 2240) leaves headroom
/// for 2^64 summands of the largest finite magnitude (< 2^1088 total,
/// i.e. bit 2176 biased).
const LIMBS: usize = 70;

/// Bias added to a value's binary exponent to get its limb-array bit
/// position: position = exponent + `BIAS_BITS`.
const BIAS_BITS: i64 = 1088;

/// Lazy-carry cadence: limbs are renormalized to `< 2^32` after this
/// many pushes, keeping every limb comfortably below `u64` overflow
/// (each push adds at most `2^32 - 1` per limb).
const CARRY_EVERY: u32 = 1 << 30;

/// An exact (error-free) accumulator for `f64` sums.
///
/// Internally a pair of multi-precision fixed-point magnitudes (one for
/// positive summands, one for negative), so pushing and merging are
/// exact integer additions and the represented total is the true
/// mathematical sum. [`ExactSum::value`] performs the one and only
/// rounding, making the result independent of summation order, merge
/// tree shape, and thread count — the property `ordered_sum` can only
/// provide by pinning a single canonical order.
///
/// Non-finite inputs never enter the fixed-point state: NaN and ±inf
/// pushes are counted in sticky counters, and [`ExactSum::value`]
/// reproduces IEEE semantics from the counts (any NaN ⇒ NaN, both
/// infinities ⇒ NaN, one infinity ⇒ that infinity).
///
/// An exactly-zero total returns `+0.0` even if every summand was
/// `-0.0` (the fixed-point form has a single zero); this is the one
/// documented divergence from a literal IEEE left fold.
///
/// # Examples
///
/// ```
/// use rfid_stats::ExactSum;
///
/// let mut a = ExactSum::new();
/// for x in [1e100, 1.0, -1e100] {
///     a.push(x);
/// }
/// // A naive f64 fold loses the 1.0; the exact sum does not.
/// assert_eq!(a.value(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ExactSum {
    pos: [u64; LIMBS],
    neg: [u64; LIMBS],
    pending: u32,
    pos_inf: u64,
    neg_inf: u64,
    nan: u64,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactSum {
    /// An empty accumulator (value `+0.0`).
    #[must_use]
    pub fn new() -> Self {
        Self {
            pos: [0; LIMBS],
            neg: [0; LIMBS],
            pending: 0,
            pos_inf: 0,
            neg_inf: 0,
            nan: 0,
        }
    }

    /// Adds one value, exactly.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        if x.is_infinite() {
            if x > 0.0 {
                self.pos_inf += 1;
            } else {
                self.neg_inf += 1;
            }
            return;
        }
        let bits = x.to_bits();
        let exp_field = ((bits >> 52) & 0x7FF) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, lsb_exp) = if exp_field == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), exp_field - 1075)
        };
        if mantissa == 0 {
            return; // ±0.0 contributes nothing.
        }
        let target = if bits >> 63 == 1 {
            &mut self.neg
        } else {
            &mut self.pos
        };
        // lsb_exp ∈ [-1074, 971] so the biased position is in [14, 2059]
        // and the 85-bit shifted mantissa fits below limb 66 of 70.
        let p = (lsb_exp + BIAS_BITS) as u64;
        let limb = (p / 32) as usize;
        let sh = (p % 32) as u32;
        let wide = u128::from(mantissa) << sh;
        target[limb] += (wide & 0xFFFF_FFFF) as u64;
        target[limb + 1] += ((wide >> 32) & 0xFFFF_FFFF) as u64;
        target[limb + 2] += (wide >> 64) as u64;
        self.pending += 1;
        if self.pending >= CARRY_EVERY {
            self.normalize();
        }
    }

    /// Merges another accumulator into this one. Exact, associative,
    /// and commutative: the result represents the combined multiset of
    /// pushed values.
    ///
    /// # Panics
    ///
    /// If a count or a magnitude overflows ([`ExactSum::can_merge`]),
    /// in every build profile.
    pub fn merge(&mut self, other: &ExactSum) {
        self.normalize();
        let mut o = other.clone();
        o.normalize();
        for i in 0..LIMBS {
            self.pos[i] += o.pos[i];
            self.neg[i] += o.neg[i];
        }
        self.normalize();
        self.pos_inf = merged_count(self.pos_inf, other.pos_inf);
        self.neg_inf = merged_count(self.neg_inf, other.neg_inf);
        self.nan = merged_count(self.nan, other.nan);
    }

    /// Whether [`ExactSum::merge`] can take `other` in: each non-finite
    /// count stays within `u64`, and each side's magnitude within the
    /// limbs. Pushes cannot get near either bound, but a decoded
    /// accumulator may hold any count and any limb.
    #[must_use]
    pub fn can_merge(&self, other: &ExactSum) -> bool {
        counts_fit([
            (self.pos_inf, other.pos_inf),
            (self.neg_inf, other.neg_inf),
            (self.nan, other.nan),
        ]) && magnitudes_fit(&self.pos, &other.pos)
            && magnitudes_fit(&self.neg, &other.neg)
    }

    /// Propagates lazy carries so every limb is `< 2^32` again.
    ///
    /// # Panics
    ///
    /// If a carry leaves the top limb, in every build profile.
    fn normalize(&mut self) {
        for arr in [&mut self.pos, &mut self.neg] {
            let mut carry = 0u64;
            for limb in arr.iter_mut() {
                let v = *limb + carry;
                *limb = v & 0xFFFF_FFFF;
                carry = v >> 32;
            }
            assert_eq!(carry, 0, "exact sum exceeded its limb range");
        }
        self.pending = 0;
    }

    /// The canonical signed difference `pos - neg`: `(sign, magnitude)`
    /// with sign ∈ {-1, 0, +1}. Depends only on the represented value,
    /// not on which side absorbed which summand.
    fn canonical(&self) -> (i8, [u64; LIMBS]) {
        let mut p = self.pos;
        let mut n = self.neg;
        carry_normalize(&mut p);
        carry_normalize(&mut n);
        match cmp_limbs(&p, &n) {
            std::cmp::Ordering::Equal => (0, [0; LIMBS]),
            std::cmp::Ordering::Greater => (1, sub_limbs(&p, &n)),
            std::cmp::Ordering::Less => (-1, sub_limbs(&n, &p)),
        }
    }

    /// The exact total, rounded once to the nearest `f64` (ties to
    /// even). This is the *only* rounding in the accumulator's life.
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.nan > 0 || (self.pos_inf > 0 && self.neg_inf > 0) {
            return f64::NAN;
        }
        if self.pos_inf > 0 {
            return f64::INFINITY;
        }
        if self.neg_inf > 0 {
            return f64::NEG_INFINITY;
        }
        let (sign, mag) = self.canonical();
        if sign == 0 {
            return 0.0;
        }
        let h = highest_bit(&mag).expect("nonzero canonical magnitude has a set bit");
        if h - BIAS_BITS > 1023 {
            // The exact total overflows f64 range (requires ~2^53
            // max-magnitude summands); saturate like IEEE would.
            return if sign > 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        // Mantissa window: the 53 bits below the leader, floored at the
        // subnormal base (biased bit 14 == 2^-1074). Below the floor
        // nothing can be set, so guard/sticky are exact.
        let lo = (h - 52).max(14);
        let mut m = extract_bits(&mag, lo, h);
        let guard = lo > 14 && get_bit(&mag, lo - 1);
        let sticky = lo > 14 && any_bits_below(&mag, lo - 1);
        if guard && (sticky || (m & 1) == 1) {
            m += 1;
        }
        let val = compose(m, lo - BIAS_BITS);
        if sign > 0 {
            val
        } else {
            -val
        }
    }

    /// Serializes the canonical form (little-endian, deterministic).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let (sign, mag) = self.canonical();
        out.push(sign as u8);
        let nonzero: Vec<(u16, u32)> = mag
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (i as u16, v as u32))
            .collect();
        out.extend_from_slice(&(nonzero.len() as u16).to_le_bytes());
        for (idx, val) in nonzero {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&val.to_le_bytes());
        }
        for c in [self.pos_inf, self.neg_inf, self.nan] {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Decodes an accumulator previously written by [`ExactSum::encode`],
    /// advancing `cur` past the consumed bytes.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadEncoding`] on truncated or malformed
    /// input (never panics).
    pub fn decode(buf: &[u8], cur: &mut usize) -> Result<Self, StatsError> {
        let sign = take_u8(buf, cur)? as i8;
        if !(-1..=1).contains(&sign) {
            return Err(bad("exact-sum sign byte out of range"));
        }
        let k = take_u16(buf, cur)?;
        let mut mag = [0u64; LIMBS];
        for _ in 0..k {
            let idx = take_u16(buf, cur)? as usize;
            let val = take_u32(buf, cur)?;
            if idx >= LIMBS {
                return Err(bad("exact-sum limb index out of range"));
            }
            mag[idx] = u64::from(val);
        }
        if sign == 0 && mag.iter().any(|&v| v != 0) {
            return Err(bad("exact-sum zero sign with nonzero magnitude"));
        }
        let mut sum = ExactSum::new();
        match sign {
            1 => sum.pos = mag,
            -1 => sum.neg = mag,
            _ => {}
        }
        sum.pos_inf = take_u64(buf, cur)?;
        sum.neg_inf = take_u64(buf, cur)?;
        sum.nan = take_u64(buf, cur)?;
        Ok(sum)
    }
}

impl PartialEq for ExactSum {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
            && self.pos_inf == other.pos_inf
            && self.neg_inf == other.neg_inf
            && self.nan == other.nan
    }
}

/// Whether the sum of magnitudes `a` and `b` fits in the limbs.
fn magnitudes_fit(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> bool {
    let (mut a, mut b) = (*a, *b);
    carry_normalize(&mut a);
    carry_normalize(&mut b);
    let carry = a
        .iter()
        .zip(&b)
        .fold(0, |carry, (x, y)| (x + y + carry) >> 32);
    carry == 0
}

/// `a + b`, for a count a merge adds.
///
/// # Panics
///
/// If the sum overflows `u64`, in every build profile: a wrapped count
/// would corrupt the accumulator silently.
fn merged_count(a: u64, b: u64) -> u64 {
    a.checked_add(b).expect("a merged count overflows u64")
}

/// Whether every pair of counts sums within `u64`.
fn counts_fit(pairs: impl IntoIterator<Item = (u64, u64)>) -> bool {
    pairs.into_iter().all(|(a, b)| a.checked_add(b).is_some())
}

/// Carry-normalizes a copied limb array in place.
fn carry_normalize(arr: &mut [u64; LIMBS]) {
    let mut carry = 0u64;
    for limb in arr.iter_mut() {
        let v = *limb + carry;
        *limb = v & 0xFFFF_FFFF;
        carry = v >> 32;
    }
    debug_assert_eq!(carry, 0, "exact sum exceeded its limb range");
}

fn cmp_limbs(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> std::cmp::Ordering {
    for i in (0..LIMBS).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// `a - b` over carry-normalized limbs; requires `a >= b`.
fn sub_limbs(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; LIMBS] {
    let mut out = [0u64; LIMBS];
    let mut borrow = 0u64;
    for i in 0..LIMBS {
        let lhs = a[i];
        let rhs = b[i] + borrow;
        if lhs >= rhs {
            out[i] = lhs - rhs;
            borrow = 0;
        } else {
            out[i] = lhs + (1u64 << 32) - rhs;
            borrow = 1;
        }
    }
    debug_assert_eq!(borrow, 0, "sub_limbs requires a >= b");
    out
}

fn highest_bit(mag: &[u64; LIMBS]) -> Option<i64> {
    for i in (0..LIMBS).rev() {
        if mag[i] != 0 {
            return Some(i as i64 * 32 + (63 - i64::from(mag[i].leading_zeros())));
        }
    }
    None
}

fn get_bit(mag: &[u64; LIMBS], bit: i64) -> bool {
    let limb = (bit / 32) as usize;
    let sh = (bit % 32) as u32;
    (mag[limb] >> sh) & 1 == 1
}

/// Gathers bits `lo..=hi` (at most 53 of them) into a `u64`.
fn extract_bits(mag: &[u64; LIMBS], lo: i64, hi: i64) -> u64 {
    let mut out = 0u64;
    for b in lo..=hi {
        if get_bit(mag, b) {
            out |= 1 << (b - lo);
        }
    }
    out
}

/// Whether any bit strictly below `below` is set.
fn any_bits_below(mag: &[u64; LIMBS], below: i64) -> bool {
    if below <= 0 {
        return false;
    }
    let limb = (below / 32) as usize;
    let sh = (below % 32) as u32;
    if mag[..limb].iter().any(|&v| v != 0) {
        return true;
    }
    sh > 0 && (mag[limb] & ((1u64 << sh) - 1)) != 0
}

/// `m * 2^exp` exactly, for `m <= 2^53` and the exponents reachable
/// from the rounding window (`exp ∈ [-1074, 971]`).
fn compose(m: u64, exp: i64) -> f64 {
    let mf = m as f64; // exact: m <= 2^53
    if exp >= -1022 {
        mf * f64::from_bits(((exp + 1023) as u64) << 52)
    } else {
        // Subnormal scale: 2^exp itself is subnormal but exact, and the
        // window construction guarantees the product is representable.
        mf * f64::from_bits(1u64 << (exp + 1074))
    }
}

// ---------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------

/// Relative accuracy of [`QuantileSketch`]: a quantile estimate `q̂`
/// for true quantile `q` satisfies `|q̂ - q| <= QUANTILE_ALPHA * |q|`
/// whenever `|q|` lies in `[MIN_TRACKED_ABS, MAX_TRACKED_ABS]`.
pub const QUANTILE_ALPHA: f64 = 0.01;

/// Magnitudes at or below this collapse into the sketch's zero bucket
/// (estimate `0.0`, absolute error at most this bound).
pub const MIN_TRACKED_ABS: f64 = 1e-12;

/// Magnitudes above this saturate into the top bucket (estimates clamp
/// near this bound; the relative error guarantee stops applying).
pub const MAX_TRACKED_ABS: f64 = 1e12;

/// A deterministic log-binned quantile sketch with an exactly
/// associative merge.
///
/// A sample's bucket index is a pure function of its value
/// (`⌈ln|x| / ln γ⌉` with `γ = (1+α)/(1-α)`, mirrored for negatives,
/// with a dedicated zero bucket), and merging adds bucket counts, so —
/// unlike compactor sketches — the state depends only on the *multiset*
/// of pushed samples, never on push order or merge-tree shape. That is
/// the property the campaign engine's bit-replay contract needs, and
/// why the merge requires no order pinning at all (contrast
/// [`crate::ordered_sum`], which buys determinism by pinning order).
///
/// Size is bounded by the fixed index range (±⌈ln(10^12)·(1/ln γ)⌉ ≈
/// 1382 buckets per sign, ≈ 66 KiB absolute worst case; real metric
/// streams touch a few dozen buckets).
///
/// Quantiles use the nearest-rank convention (rank `⌈p·n⌉` of the
/// sorted multiset). NaN pushes are excluded from quantiles and held in
/// a sticky counter; ±inf sort to the extremes and are returned
/// verbatim when a rank lands on them. ±0.0 both land in the zero
/// bucket and are reported as `+0.0`.
///
/// # Examples
///
/// ```
/// use rfid_stats::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for i in 1..=1000 {
///     s.push(f64::from(i));
/// }
/// let p95 = s.quantile(0.95).unwrap();
/// assert!((p95 - 950.0).abs() <= 950.0 * rfid_stats::QUANTILE_ALPHA);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantileSketch {
    pos: BTreeMap<i32, u64>,
    neg: BTreeMap<i32, u64>,
    zero: u64,
    pos_inf: u64,
    neg_inf: u64,
    nan: u64,
    /// Finite + infinite samples (everything rankable; excludes NaN).
    count: u64,
}

/// `γ` for [`QUANTILE_ALPHA`]: adjacent bucket boundaries differ by
/// this factor.
fn gamma() -> f64 {
    (1.0 + QUANTILE_ALPHA) / (1.0 - QUANTILE_ALPHA)
}

/// Bucket index for a magnitude in `(MIN_TRACKED_ABS, ∞)`, clamped at
/// the top of the tracked range.
fn bucket_index(abs: f64) -> i32 {
    let g = gamma();
    let max_idx = (MAX_TRACKED_ABS.ln() / g.ln()).ceil() as i32;
    let idx = (abs.ln() / g.ln()).ceil();
    // The lower clamp is unreachable (abs > MIN_TRACKED_ABS routes to
    // the zero bucket before indexing) but keeps the range explicit.
    let min_idx = (MIN_TRACKED_ABS.ln() / g.ln()).ceil() as i32;
    (idx as i32).clamp(min_idx, max_idx)
}

/// Midpoint representative of bucket `i`: the value minimizing the
/// worst-case relative error over the bucket `(γ^(i-1), γ^i]`.
fn bucket_value(i: i32) -> f64 {
    let g = gamma();
    2.0 * g.powi(i) / (g + 1.0)
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        self.count += 1;
        if x == f64::INFINITY {
            self.pos_inf += 1;
            return;
        }
        if x == f64::NEG_INFINITY {
            self.neg_inf += 1;
            return;
        }
        let abs = x.abs();
        if abs <= MIN_TRACKED_ABS {
            self.zero += 1; // includes ±0.0
            return;
        }
        let idx = bucket_index(abs);
        let map = if x > 0.0 {
            &mut self.pos
        } else {
            &mut self.neg
        };
        *map.entry(idx).or_insert(0) += 1;
    }

    /// Merges another sketch into this one (bucket-count addition:
    /// exactly associative and commutative).
    ///
    /// # Panics
    ///
    /// If a count overflows ([`QuantileSketch::can_merge`]), in every
    /// build profile.
    pub fn merge(&mut self, other: &QuantileSketch) {
        // The bucket, zero and infinity counts sum to `count` on each
        // side, so none of them overflows once it fits.
        self.count = merged_count(self.count, other.count);
        self.nan = merged_count(self.nan, other.nan);
        for (&i, &c) in &other.pos {
            *self.pos.entry(i).or_insert(0) += c;
        }
        for (&i, &c) in &other.neg {
            *self.neg.entry(i).or_insert(0) += c;
        }
        self.zero += other.zero;
        self.pos_inf += other.pos_inf;
        self.neg_inf += other.neg_inf;
    }

    /// Whether [`QuantileSketch::merge`] can take `other` in without a
    /// count overflowing `u64`. Pushes keep every other count a part of
    /// the rankable count, and decode refuses a sketch whose parts do
    /// not sum to it, so the rankable and NaN counts decide.
    #[must_use]
    pub fn can_merge(&self, other: &QuantileSketch) -> bool {
        counts_fit([(self.count, other.count), (self.nan, other.nan)])
    }

    /// Rankable samples recorded (excludes NaN).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no rankable sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `p`-quantile estimate (nearest-rank over the sorted
    /// multiset), within [`QUANTILE_ALPHA`] relative error inside the
    /// tracked range.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] if no rankable sample was pushed;
    /// [`StatsError::OutOfRange`] if `p` is NaN or outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        if self.count == 0 {
            return Err(StatsError::EmptyInput);
        }
        if !(0.0..=1.0).contains(&p) {
            return Err(StatsError::OutOfRange {
                value: format!("{p}"),
            });
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        seen += self.neg_inf;
        if rank <= seen {
            return Ok(f64::NEG_INFINITY);
        }
        // Negative buckets: larger magnitude index = more negative, so
        // ascending value order walks indices downward.
        for (&i, &c) in self.neg.iter().rev() {
            seen += c;
            if rank <= seen {
                return Ok(-bucket_value(i));
            }
        }
        seen += self.zero;
        if rank <= seen {
            return Ok(0.0);
        }
        for (&i, &c) in &self.pos {
            seen += c;
            if rank <= seen {
                return Ok(bucket_value(i));
            }
        }
        Ok(f64::INFINITY)
    }

    /// Serializes the sketch (little-endian, deterministic: `BTreeMap`
    /// iteration is key-ordered).
    pub fn encode(&self, out: &mut Vec<u8>) {
        for c in [self.zero, self.pos_inf, self.neg_inf, self.nan, self.count] {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for map in [&self.pos, &self.neg] {
            out.extend_from_slice(&(map.len() as u32).to_le_bytes());
            for (&i, &c) in map {
                out.extend_from_slice(&i.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    /// Decodes a sketch written by [`QuantileSketch::encode`],
    /// advancing `cur`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadEncoding`] on truncated or malformed
    /// input (never panics).
    pub fn decode(buf: &[u8], cur: &mut usize) -> Result<Self, StatsError> {
        let zero = take_u64(buf, cur)?;
        let pos_inf = take_u64(buf, cur)?;
        let neg_inf = take_u64(buf, cur)?;
        let nan = take_u64(buf, cur)?;
        let count = take_u64(buf, cur)?;
        let mut maps = [BTreeMap::new(), BTreeMap::new()];
        for map in &mut maps {
            let k = take_u32(buf, cur)?;
            for _ in 0..k {
                let i = take_u32(buf, cur)? as i32;
                let c = take_u64(buf, cur)?;
                if map.insert(i, c).is_some() {
                    return Err(bad("duplicate sketch bucket"));
                }
            }
        }
        let [pos, neg] = maps;
        // Crafted counts can overflow the sum; that is malformed too.
        let bucketed = pos
            .values()
            .chain(neg.values())
            .chain([&zero, &pos_inf, &neg_inf])
            .try_fold(0u64, |sum, &c| sum.checked_add(c));
        if bucketed != Some(count) {
            return Err(bad("sketch bucket counts overflow or disagree with total"));
        }
        Ok(Self {
            pos,
            neg,
            zero,
            pos_inf,
            neg_inf,
            nan,
            count,
        })
    }
}

// ---------------------------------------------------------------------
// StreamSummary
// ---------------------------------------------------------------------

/// A mergeable streaming summary: count, exact mean/variance, exact
/// min/max, and sketched quantiles — the accumulator the campaign
/// engine folds trial metrics into instead of holding per-trial `Vec`s.
///
/// Every component merge is exactly associative and commutative
/// ([`ExactSum`] for the moments, [`QuantileSketch`] for quantiles,
/// `total_cmp` min/max, integer counts), so the summary state depends
/// only on the multiset of pushed samples: any chunking of the stream,
/// any merge-tree shape, and any thread count produce bit-identical
/// results. Equality compares that canonical state bitwise.
///
/// Non-finite inputs are deterministic, not poisonous: NaN samples are
/// counted in [`StreamSummary::len`] and excluded from every statistic;
/// infinities flow through the moments with IEEE semantics and sort to
/// the quantile extremes. Min/max order by IEEE `total_cmp`
/// (so `-0.0 < +0.0`); the empty summary reports `+inf`/`-inf`
/// sentinels, the identities of [`StreamSummary::min`] and
/// [`StreamSummary::max`].
///
/// # Examples
///
/// ```
/// use rfid_stats::StreamSummary;
///
/// let mut a = StreamSummary::new();
/// let mut b = StreamSummary::new();
/// for x in [1.0, 2.0] { a.push(x); }
/// for x in [3.0, 4.0] { b.push(x); }
/// a.merge(&b);
/// assert_eq!(a, StreamSummary::from_samples(&[1.0, 2.0, 3.0, 4.0]));
/// assert_eq!(a.mean(), 2.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    n: u64,
    nan: u64,
    sum: ExactSum,
    sum_sq: ExactSum,
    min: f64,
    max: f64,
    sketch: QuantileSketch,
}

impl StreamSummary {
    /// An empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            nan: 0,
            sum: ExactSum::new(),
            sum_sq: ExactSum::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sketch: QuantileSketch::new(),
        }
    }

    /// Summarizes a batch slice — the reference the streaming path is
    /// property-tested bit-identical against.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in samples {
            s.push(x);
        }
        s
    }

    /// Adds one sample. NaN is counted in [`StreamSummary::len`] and
    /// excluded from every statistic; all other values (including ±inf)
    /// flow through.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        self.sum.push(x);
        self.sum_sq.push(x * x);
        self.sketch.push(x);
        if x.total_cmp(&self.min).is_lt() {
            self.min = x;
        }
        if x.total_cmp(&self.max).is_gt() {
            self.max = x;
        }
    }

    /// Merges another summary into this one. Exactly associative and
    /// commutative; bit-identical to pushing the combined multiset.
    ///
    /// # Panics
    ///
    /// If a count overflows ([`StreamSummary::can_merge`]), in every
    /// build profile.
    pub fn merge(&mut self, other: &StreamSummary) {
        self.n = merged_count(self.n, other.n);
        self.nan = merged_count(self.nan, other.nan);
        self.sum.merge(&other.sum);
        self.sum_sq.merge(&other.sum_sq);
        self.sketch.merge(&other.sketch);
        if other.min.total_cmp(&self.min).is_lt() {
            self.min = other.min;
        }
        if other.max.total_cmp(&self.max).is_gt() {
            self.max = other.max;
        }
    }

    /// Whether [`StreamSummary::merge`] can take `other` in without a
    /// count of the summary, its exact sums or its sketch overflowing.
    /// Pushes cannot get near `u64::MAX`, but a decoded summary may hold
    /// any count, so a merge into one checks first.
    #[must_use]
    pub fn can_merge(&self, other: &StreamSummary) -> bool {
        counts_fit([(self.n, other.n), (self.nan, other.nan)])
            && self.sum.can_merge(&other.sum)
            && self.sum_sq.can_merge(&other.sum_sq)
            && self.sketch.can_merge(&other.sketch)
    }

    /// Samples pushed (including NaN).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no samples were pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The exact sum of all non-NaN samples, rounded once.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    /// Mean over non-NaN samples (`0.0` when there are none); the single
    /// rounded division of the exact sum.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let numeric = self.n - self.nan;
        if numeric == 0 {
            return 0.0;
        }
        self.sum.value() / numeric as f64
    }

    /// Sample variance (Bessel-corrected; `0.0` for fewer than two
    /// numeric samples), from the exactly-accumulated first and second
    /// moments, clamped at zero against final-rounding cancellation.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let numeric = self.n - self.nan;
        if numeric < 2 {
            return 0.0;
        }
        let n = numeric as f64;
        let s = self.sum.value();
        let q = self.sum_sq.value();
        ((q - s * s / n) / (n - 1.0)).max(0.0)
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest non-NaN sample by `total_cmp` (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest non-NaN sample by `total_cmp` (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sketched `p`-quantile (see [`QuantileSketch::quantile`]).
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] if no rankable sample was pushed;
    /// [`StatsError::OutOfRange`] if `p` is NaN or outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> Result<f64, StatsError> {
        self.sketch.quantile(p)
    }

    /// Sketched lower/median/upper quartiles.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] if no rankable sample was pushed.
    pub fn quartiles(&self) -> Result<Quartiles, StatsError> {
        Ok(Quartiles {
            lower: self.quantile(0.25)?,
            median: self.quantile(0.5)?,
            upper: self.quantile(0.75)?,
        })
    }

    /// Sketched median (p50).
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] if no rankable sample was pushed.
    pub fn p50(&self) -> Result<f64, StatsError> {
        self.quantile(0.50)
    }

    /// Sketched 99th percentile.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyInput`] if no rankable sample was pushed.
    pub fn p99(&self) -> Result<f64, StatsError> {
        self.quantile(0.99)
    }

    /// Serializes the summary's canonical state (little-endian,
    /// deterministic). Equal summaries produce byte-identical
    /// encodings, so this doubles as the bit-identity witness in the
    /// campaign checkpoints.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.nan.to_le_bytes());
        out.extend_from_slice(&self.min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.max.to_bits().to_le_bytes());
        self.sum.encode(out);
        self.sum_sq.encode(out);
        self.sketch.encode(out);
    }

    /// The encoding as a fresh buffer.
    #[must_use]
    pub fn encode_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a summary written by [`StreamSummary::encode`],
    /// advancing `cur`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::BadEncoding`] on truncated or malformed
    /// input (never panics).
    pub fn decode(buf: &[u8], cur: &mut usize) -> Result<Self, StatsError> {
        let n = take_u64(buf, cur)?;
        let nan = take_u64(buf, cur)?;
        let min = f64::from_bits(take_u64(buf, cur)?);
        let max = f64::from_bits(take_u64(buf, cur)?);
        let sum = ExactSum::decode(buf, cur)?;
        let sum_sq = ExactSum::decode(buf, cur)?;
        let sketch = QuantileSketch::decode(buf, cur)?;
        Ok(Self {
            n,
            nan,
            sum,
            sum_sq,
            min,
            max,
            sketch,
        })
    }

    /// Bytes of live accumulator state (the canonical encoding length):
    /// the campaign bench's peak-memory proxy.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.encode_vec().len()
    }
}

impl PartialEq for StreamSummary {
    fn eq(&self, other: &Self) -> bool {
        // Canonical-encoding equality is bitwise on min/max (so
        // -0.0 != +0.0 here, as bit-replay requires) and
        // representation-independent on the exact sums.
        self.encode_vec() == other.encode_vec()
    }
}

impl Extend<f64> for StreamSummary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for StreamSummary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = StreamSummary::new();
        s.extend(iter);
        s
    }
}

// ---------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------

fn bad(reason: &str) -> StatsError {
    StatsError::BadEncoding {
        reason: reason.to_owned(),
    }
}

fn take_u8(buf: &[u8], cur: &mut usize) -> Result<u8, StatsError> {
    let b = buf
        .get(*cur)
        .copied()
        .ok_or_else(|| bad("truncated input"))?;
    *cur += 1;
    Ok(b)
}

fn take_u16(buf: &[u8], cur: &mut usize) -> Result<u16, StatsError> {
    let end = cur.checked_add(2).ok_or_else(|| bad("cursor overflow"))?;
    let bytes = buf.get(*cur..end).ok_or_else(|| bad("truncated input"))?;
    *cur = end;
    Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
}

fn take_u32(buf: &[u8], cur: &mut usize) -> Result<u32, StatsError> {
    let end = cur.checked_add(4).ok_or_else(|| bad("cursor overflow"))?;
    let bytes = buf.get(*cur..end).ok_or_else(|| bad("truncated input"))?;
    *cur = end;
    Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

fn take_u64(buf: &[u8], cur: &mut usize) -> Result<u64, StatsError> {
    let end = cur.checked_add(8).ok_or_else(|| bad("cursor overflow"))?;
    let bytes = buf.get(*cur..end).ok_or_else(|| bad("truncated input"))?;
    *cur = end;
    let mut arr = [0u8; 8];
    arr.copy_from_slice(bytes);
    Ok(u64::from_le_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_sum_survives_catastrophic_cancellation() {
        let mut s = ExactSum::new();
        for x in [1e100, 1.0, -1e100, 1e-300, -1e-300] {
            s.push(x);
        }
        assert_eq!(s.value(), 1.0);
    }

    #[test]
    fn exact_sum_round_trips_single_values() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MAX,
            -f64::MAX,
            1.5e-310, // subnormal
            std::f64::consts::PI,
        ] {
            let mut s = ExactSum::new();
            s.push(x);
            let got = s.value();
            if x == 0.0 {
                // Documented: exact zero canonicalizes to +0.0.
                assert_eq!(got.to_bits(), 0.0f64.to_bits(), "x = {x:?}");
            } else {
                assert_eq!(got.to_bits(), x.to_bits(), "x = {x:?}");
            }
        }
    }

    #[test]
    fn exact_sum_rounds_to_nearest_even() {
        // 2^53 + 1 is exactly representable as a sum but not as an f64;
        // ties-to-even rounds it down to 2^53.
        let mut s = ExactSum::new();
        s.push(9007199254740992.0); // 2^53
        s.push(1.0);
        assert_eq!(s.value(), 9007199254740992.0);
        // 2^53 + 3 rounds up to 2^53 + 4.
        let mut s = ExactSum::new();
        s.push(9007199254740992.0);
        s.push(3.0);
        assert_eq!(s.value(), 9007199254740996.0);
    }

    #[test]
    fn exact_sum_handles_non_finite_counts() {
        let mut s = ExactSum::new();
        s.push(f64::INFINITY);
        s.push(1.0);
        assert_eq!(s.value(), f64::INFINITY);
        s.push(f64::NEG_INFINITY);
        assert!(s.value().is_nan());
        let mut t = ExactSum::new();
        t.push(f64::NAN);
        assert!(t.value().is_nan());
    }

    #[test]
    fn exact_sum_integer_sums_are_exact() {
        let mut s = ExactSum::new();
        for i in 0..10_000u64 {
            s.push(i as f64);
        }
        assert_eq!(s.value(), (10_000.0 * 9_999.0) / 2.0);
    }

    #[test]
    fn exact_sum_codec_round_trips() {
        let mut s = ExactSum::new();
        for x in [1e80, -2.5, 1e-200, f64::INFINITY] {
            s.push(x);
        }
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut cur = 0;
        let back = ExactSum::decode(&buf, &mut cur).unwrap();
        assert_eq!(cur, buf.len());
        assert_eq!(back, s);
        assert_eq!(back.value().to_bits(), s.value().to_bits());
    }

    #[test]
    fn exact_sum_decode_rejects_garbage() {
        assert!(ExactSum::decode(&[], &mut 0).is_err());
        assert!(ExactSum::decode(&[7], &mut 0).is_err()); // bad sign
        let mut s = ExactSum::new();
        s.push(1.0);
        let mut buf = Vec::new();
        s.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut cur = 0;
            // Every truncation is a typed error, never a panic.
            assert!(ExactSum::decode(&buf[..cut], &mut cur).is_err());
        }
    }

    #[test]
    fn sketch_meets_its_error_bound_on_a_known_stream() {
        let mut s = QuantileSketch::new();
        for i in 1..=10_000 {
            s.push(f64::from(i) * 0.01);
        }
        for p in [0.0f64, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let exact = (p * 10_000.0).ceil().max(1.0) * 0.01;
            let got = s.quantile(p).unwrap();
            assert!(
                (got - exact).abs() <= QUANTILE_ALPHA * exact + 1e-12,
                "p = {p}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn sketch_handles_signs_zero_and_non_finite() {
        let mut s = QuantileSketch::new();
        for x in [-100.0, -1.0, -0.0, 0.0, 1.0, 100.0, f64::NAN] {
            s.push(x);
        }
        assert_eq!(s.len(), 6);
        assert_eq!(s.quantile(0.5).unwrap(), 0.0); // rank 3 = -0.0 → zero bucket
        assert!(s.quantile(0.0).unwrap() < -99.0);
        assert!(s.quantile(1.0).unwrap() > 99.0);

        let mut inf = QuantileSketch::new();
        inf.push(f64::NEG_INFINITY);
        inf.push(0.0);
        inf.push(f64::INFINITY);
        assert_eq!(inf.quantile(0.0).unwrap(), f64::NEG_INFINITY);
        assert_eq!(inf.quantile(1.0).unwrap(), f64::INFINITY);
    }

    #[test]
    fn sketch_saturates_outside_the_tracked_range() {
        let mut s = QuantileSketch::new();
        s.push(1e15); // above MAX_TRACKED_ABS: clamps to top bucket
        s.push(1e-15); // below MIN_TRACKED_ABS: zero bucket
        assert_eq!(s.quantile(0.0).unwrap(), 0.0);
        let top = s.quantile(1.0).unwrap();
        assert!(top.is_finite() && top > MAX_TRACKED_ABS * 0.9);
    }

    #[test]
    fn sketch_codec_round_trips_and_rejects_truncation() {
        let mut s = QuantileSketch::new();
        for x in [-3.0, 0.0, 2.0, 2.0, 1e9, f64::NAN] {
            s.push(x);
        }
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut cur = 0;
        let back = QuantileSketch::decode(&buf, &mut cur).unwrap();
        assert_eq!(cur, buf.len());
        assert_eq!(back, s);
        for cut in 0..buf.len() {
            assert!(QuantileSketch::decode(&buf[..cut], &mut 0).is_err());
        }
    }

    /// Counts whose sum overflows `u64` are malformed: neither a panic
    /// nor a wrapped sum that happens to match the total.
    #[test]
    fn sketch_decode_rejects_counts_that_overflow() {
        let mut buf = Vec::new();
        // zero, pos_inf, neg_inf, nan, count; then two empty maps.
        for word in [0, u64::MAX, 1, 0, 0] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf.extend_from_slice(&[0; 8]);
        assert_eq!(buf.len(), 48);
        assert!(matches!(
            QuantileSketch::decode(&buf, &mut 0),
            Err(StatsError::BadEncoding { .. })
        ));
    }

    /// A named edit of an accumulator.
    type Edit<T> = (&'static str, fn(&mut T));

    /// For each edit that raises a count of `one` to `u64::MAX`, checks
    /// that the edited value cannot take `one` in and that merging it
    /// anyway panics, in every build profile, instead of wrapping.
    fn refuses_overflow<T: Clone>(
        one: &T,
        edits: &[Edit<T>],
        can_merge: fn(&T, &T) -> bool,
        merge: fn(&mut T, &T),
    ) {
        assert!(can_merge(one, one));
        for (name, edit) in edits {
            let mut full = one.clone();
            edit(&mut full);
            assert!(!can_merge(&full, one), "{name}: can_merge");
            let merged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                merge(&mut full, one);
            }));
            assert!(merged.is_err(), "{name}: the merge did not panic");
        }
    }

    /// Every count a merge adds refuses to overflow, as decoded
    /// accumulators may hold any count: each exact sum's infinity and
    /// NaN counts and its two magnitudes, the sketch's rankable and NaN
    /// counts, and the summary's sample and NaN counts over both.
    #[test]
    fn merges_refuse_counts_that_would_overflow() {
        let mut sum = ExactSum::new();
        for x in [1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            sum.push(x);
        }
        refuses_overflow(
            &sum,
            &[
                ("pos_inf", |s| s.pos_inf = u64::MAX),
                ("neg_inf", |s| s.neg_inf = u64::MAX),
                ("nan", |s| s.nan = u64::MAX),
                ("pos", |s| s.pos = [0xFFFF_FFFF; LIMBS]),
                ("neg", |s| s.neg = [0xFFFF_FFFF; LIMBS]),
            ],
            ExactSum::can_merge,
            ExactSum::merge,
        );

        let mut sketch = QuantileSketch::new();
        for x in [1.0, 0.0, f64::INFINITY, f64::NAN] {
            sketch.push(x);
        }
        refuses_overflow(
            &sketch,
            &[
                ("count", |s| {
                    s.zero += u64::MAX - s.count;
                    s.count = u64::MAX;
                }),
                ("nan", |s| s.nan = u64::MAX),
            ],
            QuantileSketch::can_merge,
            QuantileSketch::merge,
        );

        let summary = StreamSummary::from_samples(&[1.0, -1.0, f64::INFINITY, f64::NAN]);
        refuses_overflow(
            &summary,
            &[
                ("n", |s| s.n = u64::MAX),
                ("nan", |s| s.nan = u64::MAX),
                ("sum", |s| s.sum.pos_inf = u64::MAX),
                ("sum_sq", |s| s.sum_sq.pos_inf = u64::MAX),
                ("sketch", |s| {
                    s.sketch.zero += u64::MAX - s.sketch.count;
                    s.sketch.count = u64::MAX;
                }),
            ],
            StreamSummary::can_merge,
            StreamSummary::merge,
        );

        // A count may reach `u64::MAX` exactly.
        let mut full = summary.clone();
        full.n = u64::MAX - summary.n;
        assert!(full.can_merge(&summary));
        full.merge(&summary);
        assert_eq!(full.len(), u64::MAX);
    }

    #[test]
    fn summary_matches_batch_reference_on_a_simple_stream() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let streaming: StreamSummary = data.iter().copied().collect();
        let batch = StreamSummary::from_samples(&data);
        assert_eq!(streaming, batch);
        assert_eq!(streaming.mean(), 5.0);
        assert_eq!(streaming.min(), 2.0);
        assert_eq!(streaming.max(), 9.0);
        assert!((streaming.variance() - 4.571_428_571_428_571).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_defaults_match_online_stats() {
        let s = StreamSummary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
        assert_eq!(s.quantile(0.5), Err(StatsError::EmptyInput));
        assert_eq!(
            s.quartiles().unwrap_err(),
            StatsError::EmptyInput,
            "quartiles of empty summary is a typed error"
        );
    }

    #[test]
    fn summary_orders_signed_zero_by_total_cmp() {
        let mut s = StreamSummary::new();
        s.push(0.0);
        s.push(-0.0);
        assert_eq!(s.min().to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.max().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn summary_excludes_nan_from_extrema_but_counts_it() {
        let mut s = StreamSummary::new();
        s.push(f64::NAN);
        s.push(3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.min(), 3.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn summary_codec_round_trips() {
        let mut s = StreamSummary::new();
        for x in [-1.5, 0.0, 2.25, 1e9, f64::NAN] {
            s.push(x);
        }
        let buf = s.encode_vec();
        let mut cur = 0;
        let back = StreamSummary::decode(&buf, &mut cur).unwrap();
        assert_eq!(cur, buf.len());
        assert_eq!(back, s);
        assert_eq!(back.encode_vec(), buf, "re-encode is byte-identical");
        assert_eq!(s.state_bytes(), buf.len());
        for cut in 0..buf.len() {
            assert!(StreamSummary::decode(&buf[..cut], &mut 0).is_err());
        }
    }

    /// Whether `bytes` decode to a summary or to `BadEncoding`.
    fn decodes_or_is_bad(bytes: &[u8]) -> bool {
        matches!(
            StreamSummary::decode(bytes, &mut 0),
            Ok(_) | Err(StatsError::BadEncoding { .. })
        )
    }

    /// Samples covering ~600 orders of magnitude, both signs, zeros.
    fn sample_strategy() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1e6f64..1e6,
            -1e6f64..1e6,
            -1e-3f64..1e-3,
            Just(0.0f64),
            Just(-0.0f64),
            (-300i32..300, -1.0f64..1.0).prop_map(|(e, m)| m * 10f64.powi(e)),
        ]
    }

    proptest! {
        /// The tentpole identity: folding any chunking of the stream
        /// and merging the chunk summaries in ANY tree shape is
        /// bit-identical to the batch reference. The merge tree is
        /// exercised by right-to-left folding (a maximally unbalanced
        /// tree opposite to the natural left fold) plus a balanced
        /// recursive split.
        #[test]
        fn summary_is_chunking_and_merge_tree_invariant(
            data in proptest::collection::vec(sample_strategy(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..8),
        ) {
            let batch = StreamSummary::from_samples(&data);

            // Arbitrary chunking.
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (data.len() + 1)).collect();
            bounds.push(0);
            bounds.push(data.len());
            bounds.sort_unstable();
            let chunks: Vec<StreamSummary> = bounds
                .windows(2)
                .map(|w| StreamSummary::from_samples(&data[w[0]..w[1]]))
                .collect();

            // Left fold.
            let mut left = StreamSummary::new();
            for c in &chunks {
                left.merge(c);
            }
            prop_assert_eq!(&left, &batch);

            // Right fold (worst-case opposite association).
            let mut right = StreamSummary::new();
            for c in chunks.iter().rev() {
                right.merge(c);
            }
            prop_assert_eq!(&right, &batch);

            // Balanced tree.
            fn tree(chunks: &[StreamSummary]) -> StreamSummary {
                match chunks.len() {
                    0 => StreamSummary::new(),
                    1 => chunks[0].clone(),
                    n => {
                        let mut l = tree(&chunks[..n / 2]);
                        l.merge(&tree(&chunks[n / 2..]));
                        l
                    }
                }
            }
            prop_assert_eq!(&tree(&chunks), &batch);
        }

        /// The exact sum matches a 256-bit-ish oracle: summing the same
        /// values as exact rationals via integer arithmetic on a
        /// smaller magnitude range where i128 suffices.
        #[test]
        fn exact_sum_matches_integer_oracle(
            ints in proptest::collection::vec(-1_000_000i64..1_000_000, 1..200),
        ) {
            let mut s = ExactSum::new();
            for &i in &ints {
                s.push(i as f64 * 0.25); // exactly representable
            }
            let total: i64 = ints.iter().sum();
            prop_assert_eq!(s.value(), total as f64 * 0.25);
        }

        /// Sketch quantiles stay within the documented bound of the
        /// exact nearest-rank quantile.
        #[test]
        fn sketch_error_bound_holds(
            data in proptest::collection::vec(prop_oneof![-1e6f64..1e6, -1.0f64..1.0], 1..400),
            p in 0.0f64..=1.0,
        ) {
            let mut sketch = QuantileSketch::new();
            for &x in &data {
                sketch.push(x);
            }
            let mut sorted = data.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let got = sketch.quantile(p).unwrap();
            let tol = QUANTILE_ALPHA * exact.abs() + MIN_TRACKED_ABS + 1e-9;
            prop_assert!(
                (got - exact).abs() <= tol,
                "p = {}, got {}, exact {}", p, got, exact
            );
        }

        /// Canonical encodings are equal exactly when summaries are
        /// equal, and decode inverts encode.
        #[test]
        fn summary_codec_is_canonical(
            data in proptest::collection::vec(sample_strategy(), 0..100),
        ) {
            let s = StreamSummary::from_samples(&data);
            let buf = s.encode_vec();
            let mut cur = 0;
            let back = StreamSummary::decode(&buf, &mut cur).unwrap();
            prop_assert_eq!(cur, buf.len());
            prop_assert_eq!(&back, &s);
            prop_assert_eq!(back.encode_vec(), buf);
        }

        /// Arbitrary bytes decode to a summary or `BadEncoding`, never
        /// a panic.
        #[test]
        fn summary_decode_survives_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..400),
        ) {
            prop_assert!(decodes_or_is_bad(&bytes));
        }

        /// A valid encoding with any one 8-byte word overwritten, at
        /// every offset, decodes to a summary or `BadEncoding`, never a
        /// panic.
        #[test]
        fn summary_decode_survives_an_overwritten_word(
            data in proptest::collection::vec(sample_strategy(), 0..40),
            word in prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
        ) {
            let buf = StreamSummary::from_samples(&data).encode_vec();
            for offset in 0..=buf.len() - 8 {
                let mut hostile = buf.clone();
                hostile[offset..offset + 8].copy_from_slice(&word.to_le_bytes());
                prop_assert!(decodes_or_is_bad(&hostile), "offset {}", offset);
            }
        }
    }
}
