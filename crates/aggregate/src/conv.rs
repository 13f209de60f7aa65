//! Centralized, audited float↔int conversions for aggregate math.
//!
//! The crate denies clippy's lossy-cast lints (`cast_precision_loss`,
//! `cast_possible_truncation`, `cast_sign_loss`; see `lib.rs`): a stray
//! `as u64` silently truncates and saturates, a stray `as f64` silently
//! rounds above 2^53 — exactly the class of quiet numeric bug a
//! mass-conserving aggregation protocol cannot absorb. Every conversion
//! the aggregate functions need goes through this module instead, where
//! the precondition is stated once, checked under `strict-invariants`,
//! and `#[expect]`ed once.

/// A vote/bucket count as an `f64`.
///
/// Exact for counts up to 2^53 — astronomically above any group size
/// this simulator runs; checked under `strict-invariants`.
#[inline]
#[expect(
    clippy::cast_precision_loss,
    reason = "the audited widening this module exists for; exact below 2^53"
)]
pub(crate) fn count_to_f64(c: u64) -> f64 {
    crate::strict_assert!(
        c <= (1u64 << 53),
        "strict-invariants: count {c} exceeds f64's exact-integer range"
    );
    c as f64
}

/// A finite, non-negative `f64` truncated to a count.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the audited truncation this module exists for; callers pass finite non-negatives"
)]
pub(crate) fn f64_to_count(x: f64) -> u64 {
    crate::strict_assert!(
        x.is_finite() && x >= 0.0,
        "strict-invariants: {x} is not a valid count"
    );
    x.trunc() as u64
}

/// A float bucket position truncated and clamped to `0..buckets`.
///
/// Mirrors `as` cast semantics for the edge cases: `NaN` maps to bucket
/// 0, out-of-range positions saturate into the first/last bucket.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "audited float-to-index truncation; the result is clamped to the bucket range"
)]
pub(crate) fn f64_to_bucket(pos: f64, buckets: usize) -> usize {
    let idx = pos.floor() as i64;
    idx.clamp(0, buckets as i64 - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_roundtrips_exactly_at_protocol_scale() {
        for c in [0u64, 1, 4096, 1 << 40] {
            assert_eq!(f64_to_count(count_to_f64(c)), c);
        }
    }

    #[test]
    fn truncation_matches_as_cast() {
        for x in [0.0, 0.9, 1.0, 2.5, 1e6] {
            assert_eq!(f64_to_count(x), x as u64);
        }
    }

    #[test]
    fn bucket_clamps_and_absorbs_nan() {
        assert_eq!(f64_to_bucket(-3.0, 16), 0);
        assert_eq!(f64_to_bucket(7.9, 16), 7);
        assert_eq!(f64_to_bucket(1e18, 16), 15);
        assert_eq!(f64_to_bucket(f64::NAN, 16), 0);
    }
}
