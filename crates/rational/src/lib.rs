//! Exact rational arithmetic for `panda-rs`.
//!
//! The information-theoretic side of the PANDA framework (polymatroid
//! bounds, fractional hypertree width, submodular width, Shannon-flow
//! inequalities) produces values such as `3/2` or `(4ω−1)/(2ω+1)` and dual
//! certificates whose coefficients must be *exact* so they can be turned
//! into integral proof sequences (Section 7 of the paper).  Floating point
//! is not acceptable there, so every linear program in the workspace is
//! solved over [`Rat`], a reduced fraction of two `i128` integers.
//!
//! The arithmetic is overflow-checked: intermediate products are computed
//! in `i128` and the crate panics (with a descriptive "Rat … overflow"
//! message) on overflow rather than silently wrapping, in release builds
//! too.  The query sizes in the paper (at most a handful of variables,
//! hence LPs with a few hundred rows) stay far away from these limits.
//!
//! # Representation
//!
//! A [`Rat`] is always in lowest terms with a positive denominator, so
//! each value has exactly one representation.  The derived `Eq` and `Hash`
//! compare fields and rely on this, and so does multiplication: after
//! cross-reduction the product of two reduced fractions is already
//! reduced, so it is built without a final gcd.  Addition uses Henrici's
//! form (one gcd of the denominators, then one gcd with the numerator
//! sum), with a shortcut for equal denominators; comparison also
//! shortcuts equal denominators.
//!
//! # 64-bit fast paths
//!
//! The LP statistics are mostly small integers and fractions over 10⁶, so
//! nearly every operand fits in 64 bits.  [`gcd`] is binary gcd, run on
//! `u64` while both magnitudes fit, and the products and exact quotients
//! inside `+`, `-`, `*`, `/` and comparisons run at 64-bit width when both
//! operands fit in `i64` (an `i64 × i64` product cannot overflow `i128`).
//! Wider operands take the checked 128-bit path; the results are the same
//! either way.

// Every public item in this crate must be documented; broken or missing
// docs fail CI via the `cargo doc` job (RUSTDOCFLAGS="-D warnings").
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rat;

pub use rat::{ParseRatError, Rat};

/// Computes the greatest common divisor of two signed integers: the
/// largest `g >= 0` dividing both, whatever their signs.
///
/// `gcd(0, 0)` is defined as `0` so that normalising the zero fraction is a
/// no-op.  The algorithm is binary (Stein) gcd on the magnitudes, which
/// needs only shifts and subtractions; while both magnitudes fit in 64 bits
/// it runs on `u64`.  It is a `const fn`, so [`Rat::const_new`] can check
/// at compile time that a constant is in lowest terms.
///
/// # Panics
///
/// Panics with "Rat gcd overflow" when the result is 2¹²⁷, which does not
/// fit in `i128`: that happens only when each argument is `0` or
/// `i128::MIN` and at least one is `i128::MIN`.
///
/// ```
/// use panda_rational::gcd;
///
/// assert_eq!(gcd(-12, 18), 6);
/// assert_eq!(gcd(0, -5), 5);
/// ```
#[must_use]
pub const fn gcd(a: i128, b: i128) -> i128 {
    let g = gcd_u128(a.unsigned_abs(), b.unsigned_abs());
    if g > i128::MAX as u128 {
        panic!("Rat gcd overflow");
    }
    g as i128
}

/// Binary gcd on 128-bit magnitudes, dropping to [`gcd_u64`] as soon as
/// both operands fit in 64 bits.
const fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a <= u64::MAX as u128 && b <= u64::MAX as u128 {
        return gcd_u64(a as u64, b as u64) as u128;
    }
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    // Invariant: `a` is odd; the loop keeps gcd(a, b) up to the powers of
    // two already factored out into `shift`.
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            let t = a;
            a = b;
            b = t;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
        if a <= u64::MAX as u128 && b <= u64::MAX as u128 {
            // `a` is odd, so the narrow gcd has no power of two to add.
            return (gcd_u64(a as u64, b as u64) as u128) << shift;
        }
    }
}

/// Binary gcd on 64-bit magnitudes.
const fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    // Denominators of 1 (integers) are the commonest operand by far.
    if a == 1 || b == 1 {
        return 1;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            let t = a;
            a = b;
            b = t;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Computes the least common multiple of the magnitudes of two signed
/// integers; `lcm(0, x)` is `0`.
///
/// # Panics
///
/// Panics if the result overflows `i128`.
#[must_use]
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b);
    // panda-lint: allow(P1) -- deliberate loud overflow guard: exact
    // rational arithmetic must abort on overflow, never wrap silently.
    (a / g).checked_mul(b).and_then(i128::checked_abs).expect("lcm overflow")
}

/// Returns the least common multiple of the denominators of a slice of
/// rationals.  Used to convert rational Shannon-flow inequalities into
/// integral ones (Section 7 of the paper).
#[must_use]
pub fn common_denominator(values: &[Rat]) -> i128 {
    values.iter().fold(1i128, |acc, v| lcm(acc, v.denom()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
    }

    #[test]
    fn binary_gcd_matches_euclid_across_widths() {
        fn euclid(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        let values = [
            0u128,
            1,
            6,
            1 << 20,
            3 << 40,
            (1 << 63) - 25,
            1 << 63,
            u128::from(u64::MAX),
            1 << 64,
            (1 << 64) * 3,
            (1 << 100) + 12,
            ((1 << 64) + 1) * 6_700_417,
            i128::MAX as u128,
        ];
        for &a in &values {
            for &b in &values {
                let want = euclid(a, b);
                if want <= i128::MAX as u128 {
                    assert_eq!(gcd(a as i128, b as i128) as u128, want, "gcd({a}, {b})");
                    assert_eq!(gcd(-(a as i128), b as i128) as u128, want, "gcd(-{a}, {b})");
                }
            }
        }
        assert_eq!(gcd(i128::MIN, 6), 2);
        assert_eq!(gcd(i128::MIN, 1 << 100), 1 << 100);
    }

    #[test]
    #[should_panic(expected = "Rat gcd overflow")]
    fn gcd_of_min_and_zero_panics() {
        let _ = gcd(i128::MIN, 0);
    }

    #[test]
    #[should_panic(expected = "lcm overflow")]
    fn lcm_of_min_panics() {
        let _ = lcm(i128::MIN, 1);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(7, 3), 21);
        assert_eq!(lcm(-4, 6), 12);
    }

    #[test]
    fn common_denominator_of_halves_and_thirds() {
        let v = [Rat::new(1, 2), Rat::new(2, 3), Rat::from_int(4)];
        assert_eq!(common_denominator(&v), 6);
    }

    #[test]
    fn common_denominator_empty_is_one() {
        assert_eq!(common_denominator(&[]), 1);
    }
}
