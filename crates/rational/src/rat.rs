//! The [`Rat`] type: a reduced `i128 / i128` fraction.

// panda-lint: allow-file(P1) -- the checked_*/expect pairs are the
// crate's deliberate loud-overflow policy: exact rational arithmetic
// must abort rather than wrap into a wrong optimum.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::gcd;

/// An exact rational number stored as a reduced fraction with a strictly
/// positive denominator.
///
/// `Rat` implements the usual arithmetic operators and a total order.  It
/// parses from integers (`"3"`) and fractions (`"-3/2"`); decimal notation
/// (`"0.75"`) is rejected, because a decimal literal does not say which
/// exact value the writer meant.
///
/// # Examples
///
/// ```
/// use panda_rational::Rat;
///
/// let half = Rat::new(1, 2);
/// let third = Rat::new(1, 3);
/// assert_eq!(half + third, Rat::new(5, 6));
/// assert_eq!((half * Rat::from_int(3)).to_string(), "3/2");
/// assert!(half > third);
/// ```
///
/// Parsing:
///
/// ```
/// use panda_rational::Rat;
///
/// assert_eq!("3".parse::<Rat>().unwrap(), Rat::from_int(3));
/// assert_eq!("-3/2".parse::<Rat>().unwrap(), Rat::new(-3, 2));
/// assert!("0.75".parse::<Rat>().is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// The rational number zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates a new rational `num / den`, reducing to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, with "Rat negation overflow" if moving the
    /// sign to the numerator overflows (`Rat::new(i128::MIN, -1)`), and
    /// with "Rat gcd overflow" for `Rat::new(i128::MIN, i128::MIN)`.
    #[must_use]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rat denominator must be non-zero");
        if num == 0 {
            return Rat::ZERO;
        }
        if den == 1 {
            return Rat { num, den };
        }
        let g = gcd(num, den);
        let (num, den) = (div_exact(num, g), div_exact(den, g));
        if den < 0 {
            Rat { num: negate(num), den: negate(den) }
        } else {
            Rat { num, den }
        }
    }

    /// Creates a rational from an integer.
    #[must_use]
    pub const fn from_int(v: i128) -> Self {
        Rat { num: v, den: 1 }
    }

    /// Creates a rational from an **already reduced** numerator/denominator
    /// pair with a strictly positive denominator, usable in `const`
    /// contexts.
    ///
    /// Equality, hashing and multiplication on [`Rat`] assume lowest
    /// terms, so the fraction is checked: a non-reduced constant fails to
    /// compile.  Use [`Rat::new`] to reduce at runtime.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) if `den <= 0` or if
    /// `gcd(num, den) != 1`.
    ///
    /// ```
    /// use panda_rational::Rat;
    ///
    /// const OMEGA: Rat = Rat::const_new(74111, 31250);
    /// assert_eq!(OMEGA, Rat::new(2 * 74111, 2 * 31250));
    /// ```
    ///
    /// ```compile_fail
    /// use panda_rational::Rat;
    ///
    /// const HALF: Rat = Rat::const_new(2, 4); // not in lowest terms
    /// assert!(HALF.is_positive());
    /// ```
    #[must_use]
    pub const fn const_new(num: i128, den: i128) -> Self {
        assert!(den > 0, "Rat::const_new requires a positive denominator");
        assert!(gcd(num, den) == 1, "Rat::const_new requires a fraction in lowest terms");
        Rat { num, den }
    }

    /// The (reduced) numerator; carries the sign of the value.
    #[must_use]
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// The (reduced) denominator; always strictly positive.
    #[must_use]
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` iff the value is zero.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` iff the value is strictly positive.
    #[must_use]
    pub const fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` iff the value is strictly negative.
    #[must_use]
    pub const fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns `true` iff the value is an integer.
    #[must_use]
    pub const fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The absolute value.
    ///
    /// # Panics
    ///
    /// Panics with "Rat absolute value overflow" if the numerator is
    /// `i128::MIN`.
    #[must_use]
    pub fn abs(&self) -> Self {
        Rat { num: self.num.checked_abs().expect("Rat absolute value overflow"), den: self.den }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero, and with "Rat negation overflow" if the
    /// numerator is `i128::MIN`.
    #[must_use]
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "cannot invert zero");
        // Swapping a reduced fraction keeps it reduced; only the sign moves.
        if self.num < 0 {
            Rat { num: -self.den, den: negate(self.num) }
        } else {
            Rat { num: self.den, den: self.num }
        }
    }

    /// Converts to `f64`.  Exact for small fractions; used only for
    /// reporting and plotting, never inside the LP pivoting.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Rounds towards negative infinity to an integer.  Exact for every
    /// value: it computes no intermediate that could overflow.
    #[must_use]
    pub fn floor(&self) -> i128 {
        // The denominator is positive, so Euclidean division rounds down.
        self.num.div_euclid(self.den)
    }

    /// Rounds towards positive infinity to an integer.  Exact for every
    /// value: it computes no intermediate that could overflow.
    #[must_use]
    pub fn ceil(&self) -> i128 {
        // In lowest terms a value is an integer iff its denominator is 1;
        // otherwise the floor lies strictly below the value, so `+ 1` fits.
        if self.den == 1 {
            self.num
        } else {
            self.floor() + 1
        }
    }

    /// The smaller of two rationals.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Checked addition used internally; panics with context on overflow.
    fn add_impl(self, rhs: Self) -> Self {
        const NUM: &str = "Rat addition overflow (numerator)";
        const DEN: &str = "Rat addition overflow (denominator)";
        let (a, b, c, d) = (self.num, self.den, rhs.num, rhs.den);
        if b == d {
            let t = a.checked_add(c).expect(NUM);
            if b == 1 {
                return Rat { num: t, den: 1 };
            }
            let g = gcd(t, b);
            return Rat { num: div_exact(t, g), den: div_exact(b, g) };
        }
        // Henrici: with g = gcd(b, d) the sum is t / (b/g · d) for
        // t = a·(d/g) + c·(b/g), and since a/b and c/d are reduced only
        // gcd(t, g) can divide both parts.  No intermediate is larger than
        // the lcm-scaled form's.
        let g = gcd(b, d);
        let (b_g, d_g) = (div_exact(b, g), div_exact(d, g));
        let t = mul(a, d_g, NUM).checked_add(mul(c, b_g, NUM)).expect(NUM);
        if g == 1 {
            return Rat { num: t, den: mul(b, d, DEN) };
        }
        let g2 = gcd(t, g);
        Rat { num: div_exact(t, g2), den: mul(b_g, div_exact(d, g2), DEN) }
    }

    fn mul_impl(self, rhs: Self) -> Self {
        // Cross-reduce; both operands are reduced, so the product of the
        // cross-reduced parts is already in lowest terms (Knuth, TAOCP
        // vol. 2, §4.5.1) and needs no final gcd.  A zero operand is 0/1,
        // so cross-reduction turns the product's denominator into 1 too.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        Rat {
            num: mul(
                div_exact(self.num, g1),
                div_exact(rhs.num, g2),
                "Rat multiplication overflow (numerator)",
            ),
            den: mul(
                div_exact(self.den, g2),
                div_exact(rhs.den, g1),
                "Rat multiplication overflow (denominator)",
            ),
        }
    }
}

/// `x · y`, panicking with `overflow` if it does not fit in `i128`.  When
/// both operands fit in `i64` the product is one 64-bit widening multiply
/// and cannot overflow (|x·y| ≤ 2¹²⁶).
#[inline]
fn mul(x: i128, y: i128, overflow: &str) -> i128 {
    match (i64::try_from(x), i64::try_from(y)) {
        (Ok(x), Ok(y)) => i128::from(x).wrapping_mul(i128::from(y)),
        _ => x.checked_mul(y).expect(overflow),
    }
}

/// `x / y` for a divisor `y` of `x` with `y > 0` (so the quotient cannot
/// overflow), at 64-bit width when both fit in `i64`.  Most gcds are 1,
/// which skips the division.
#[inline]
fn div_exact(x: i128, y: i128) -> i128 {
    if y == 1 {
        return x;
    }
    match (i64::try_from(x), i64::try_from(y)) {
        (Ok(x), Ok(y)) => i128::from(x / y),
        _ => x / y,
    }
}

/// `-x`, panicking with "Rat negation overflow" for `i128::MIN`.
#[inline]
fn negate(x: i128) -> i128 {
    x.checked_neg().expect("Rat negation overflow")
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i128> for Rat {
    fn from(v: i128) -> Self {
        Rat::from_int(v)
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Self {
        Rat::from_int(v as i128)
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Self {
        Rat::from_int(v as i128)
    }
}

impl From<u32> for Rat {
    fn from(v: u32) -> Self {
        Rat::from_int(v as i128)
    }
}

impl From<usize> for Rat {
    fn from(v: usize) -> Self {
        Rat::from_int(v as i128)
    }
}

/// Error returned when parsing a [`Rat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    message: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational: {}", self.message)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (num_str, den_str) = match s.split_once('/') {
            Some((n, d)) => (n.trim(), Some(d.trim())),
            None => (s, None),
        };
        let num: i128 = num_str
            .parse()
            .map_err(|_| ParseRatError { message: format!("bad numerator in `{s}`") })?;
        let den: i128 = match den_str {
            Some(d) => d
                .parse()
                .map_err(|_| ParseRatError { message: format!("bad denominator in `{s}`") })?,
            None => 1,
        };
        if den == 0 {
            return Err(ParseRatError { message: format!("zero denominator in `{s}`") });
        }
        Ok(Rat::new(num, den))
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Compare a/b and c/d via a*d vs c*b (denominators positive).
        let lhs = mul(self.num, other.den, "Rat comparison overflow");
        let rhs = mul(other.num, self.den, "Rat comparison overflow");
        lhs.cmp(&rhs)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        self.add_impl(rhs)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self.add_impl(-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        self.mul_impl(rhs)
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        self.mul_impl(rhs.recip())
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: negate(self.num), den: self.den }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |acc, v| acc + v)
    }
}

impl<'a> Sum<&'a Rat> for Rat {
    fn sum<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |acc, v| acc + *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic_matches_hand_computed_values() {
        let a = Rat::new(3, 4);
        let b = Rat::new(5, 6);
        assert_eq!(a + b, Rat::new(19, 12));
        assert_eq!(a - b, Rat::new(-1, 12));
        assert_eq!(a * b, Rat::new(5, 8));
        assert_eq!(a / b, Rat::new(9, 10));
        assert_eq!(-a, Rat::new(-3, 4));
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(Rat::new(1, 2) < Rat::new(2, 3));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::new(7, 7) == Rat::ONE);
        assert_eq!(Rat::new(5, 3).max(Rat::new(3, 2)), Rat::new(5, 3));
        assert_eq!(Rat::new(5, 3).min(Rat::new(3, 2)), Rat::new(3, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
    }

    #[test]
    fn display_and_parse_round_trip() {
        for s in ["0", "5", "-5", "3/2", "-3/2", "7/3"] {
            let r: Rat = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
        assert!("1/0".parse::<Rat>().is_err());
        assert!("abc".parse::<Rat>().is_err());
        assert_eq!("  4/6 ".parse::<Rat>().unwrap(), Rat::new(2, 3));
    }

    #[test]
    fn recip_and_integer_checks() {
        assert_eq!(Rat::new(3, 5).recip(), Rat::new(5, 3));
        assert!(Rat::from_int(4).is_integer());
        assert!(!Rat::new(1, 2).is_integer());
        assert!(Rat::new(1, 2).is_positive());
        assert!(Rat::new(-1, 2).is_negative());
        assert!(Rat::ZERO.is_zero());
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![Rat::new(1, 2), Rat::new(1, 3), Rat::new(1, 6)];
        let total: Rat = v.iter().sum();
        assert_eq!(total, Rat::ONE);
        let total2: Rat = v.into_iter().sum();
        assert_eq!(total2, Rat::ONE);
    }

    #[test]
    fn to_f64_matches() {
        assert!((Rat::new(3, 2).to_f64() - 1.5).abs() < 1e-12);
        assert!((Rat::new(-1, 4).to_f64() + 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "Rat negation overflow")]
    fn negating_min_panics() {
        let _ = -Rat::from_int(i128::MIN);
    }

    #[test]
    #[should_panic(expected = "Rat negation overflow")]
    fn moving_the_sign_of_min_panics() {
        let _ = Rat::new(i128::MIN, -1);
    }

    #[test]
    #[should_panic(expected = "Rat negation overflow")]
    fn inverting_min_panics() {
        let _ = Rat::from_int(i128::MIN).recip();
    }

    #[test]
    #[should_panic(expected = "Rat absolute value overflow")]
    fn abs_of_min_panics() {
        let _ = Rat::from_int(i128::MIN).abs();
    }

    #[test]
    #[should_panic(expected = "Rat::const_new requires a fraction in lowest terms")]
    fn const_new_rejects_a_non_reduced_fraction() {
        let _ = Rat::const_new(2, 4);
    }

    #[test]
    fn extremes_that_fit_are_exact() {
        // The sign moves after reducing, so only an unrepresentable value
        // panics.
        assert_eq!(Rat::new(i128::MIN, -2), Rat::from_int(1 << 126));
        assert_eq!(Rat::new(-(1 << 126), i128::MIN), Rat::new(1, 2));
        // floor and ceil compute no intermediate beyond the result.
        assert_eq!(Rat::from_int(i128::MIN).floor(), i128::MIN);
        assert_eq!(Rat::from_int(i128::MIN).ceil(), i128::MIN);
        assert_eq!(Rat::new(i128::MIN + 1, 2).floor(), -(1 << 126));
        assert_eq!(Rat::new(i128::MIN + 1, 2).ceil(), -(1 << 126) + 1);
        assert_eq!(Rat::new(i128::MAX, 2).floor(), (1 << 126) - 1);
        assert_eq!(Rat::new(i128::MAX, 2).ceil(), 1 << 126);
        assert_eq!(Rat::from_int(i128::MAX).ceil(), i128::MAX);
        assert_eq!(Rat::new(i128::MIN + 1, 1).abs(), Rat::from_int(i128::MAX));
    }

    #[test]
    fn henrici_addition_succeeds_where_the_lcm_overflowed() {
        // 1/(2p) + 1/(2q) with p = 2^63 + 1, q = 2^63 + 3: lcm = 2pq exceeds
        // i128, but the reduced sum (p + q)/2 / (pq) fits.
        let (p, q) = ((1i128 << 63) + 1, (1i128 << 63) + 3);
        let sum = Rat::new(1, 2 * p) + Rat::new(1, 2 * q);
        assert_eq!((sum.numer(), sum.denom()), ((1 << 63) + 2, p * q));
        assert_eq!(outcome(|| oracle::add((1, 2 * p), (1, 2 * q))), None, "the lcm overflows");
        check_against_oracle((1, 2 * p), (1, 2 * q));
    }

    /// The algorithms `Rat` used before binary gcd and Henrici addition:
    /// Euclid's gcd, lcm-scaled addition, and cross-reduction followed by a
    /// normalising `new` in multiplication.  Kept only as a differential
    /// oracle; fractions are `(numerator, denominator)` pairs.
    mod oracle {
        use std::cmp::Ordering;

        pub type Frac = (i128, i128);

        /// Euclid's algorithm, on the magnitudes (so that `i128::MIN`
        /// operands are exact rather than overflowing).
        pub fn gcd(a: i128, b: i128) -> i128 {
            let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            i128::try_from(a).expect("Rat gcd overflow")
        }

        pub fn new(num: i128, den: i128) -> Frac {
            assert!(den != 0, "Rat denominator must be non-zero");
            let (mut num, mut den) = (num, den);
            if den < 0 {
                num = -num;
                den = -den;
            }
            let g = gcd(num, den);
            if g > 1 {
                num /= g;
                den /= g;
            }
            (num, den)
        }

        pub fn add((a, b): Frac, (c, d): Frac) -> Frac {
            let g = gcd(b, d);
            let l = (b / g).checked_mul(d).expect("Rat addition overflow (denominator)");
            let num = a
                .checked_mul(l / b)
                .and_then(|x| c.checked_mul(l / d).and_then(|y| x.checked_add(y)))
                .expect("Rat addition overflow (numerator)");
            new(num, l)
        }

        pub fn sub(x: Frac, (c, d): Frac) -> Frac {
            add(x, (-c, d))
        }

        pub fn mul((a, b): Frac, (c, d): Frac) -> Frac {
            let g1 = gcd(a, d);
            let g2 = gcd(c, b);
            let num =
                (a / g1).checked_mul(c / g2).expect("Rat multiplication overflow (numerator)");
            let den =
                (b / g2).checked_mul(d / g1).expect("Rat multiplication overflow (denominator)");
            new(num, den)
        }

        pub fn div(x: Frac, (c, d): Frac) -> Frac {
            assert!(c != 0, "cannot invert zero");
            mul(x, new(d, c))
        }

        pub fn cmp((a, b): Frac, (c, d): Frac) -> Ordering {
            let lhs = a.checked_mul(d).expect("Rat comparison overflow");
            let rhs = c.checked_mul(b).expect("Rat comparison overflow");
            lhs.cmp(&rhs)
        }
    }

    std::thread_local! {
        static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// `Some(value)`, or `None` if computing it panicked.  Expected panics
    /// skip the default hook: with `RUST_BACKTRACE` set it captures a
    /// backtrace per panic, and the differential tests cause thousands.
    fn outcome<T>(f: impl FnOnce() -> T) -> Option<T> {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !QUIET.with(std::cell::Cell::get) {
                    default(info);
                }
            }));
        });
        QUIET.with(|quiet| quiet.set(true));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok();
        QUIET.with(|quiet| quiet.set(false));
        result
    }

    fn parts(r: Rat) -> oracle::Frac {
        (r.numer(), r.denom())
    }

    /// A signed magnitude from one operand class: below 1000, near 2^31,
    /// near 2^63 on either side of the `i64` range, up to 2^100, up to
    /// 10^8 (numerators over 10^6), or up to 2^40 (integers).
    fn magnitude(class: u8, bits: i128) -> i128 {
        let m = bits.unsigned_abs();
        let v = match class {
            0 => (m % 1000) as i128,
            1 => (1i128 << 31) + (m % 17) as i128 - 8,
            2 => (1i128 << 63) + (m % 17) as i128 - 8,
            3 => (m % (1u128 << 100)) as i128,
            4 => (m % 100_000_000) as i128,
            _ => (m % (1u128 << 40)) as i128,
        };
        if bits < 0 {
            -v
        } else {
            v
        }
    }

    /// A raw `(numerator, non-zero denominator)` pair: the numerator from
    /// any class, the denominator from the first four classes, 10^6 or 1.
    fn raw_pair() -> impl Strategy<Value = oracle::Frac> {
        (0u8..6, i128::MIN..i128::MAX, 0u8..6, i128::MIN..i128::MAX).prop_map(|(nc, nb, dc, db)| {
            let den = match dc {
                4 => 1_000_000,
                5 => 1,
                c => magnitude(c, db),
            };
            (magnitude(nc, nb), if den == 0 { 1 } else { den })
        })
    }

    /// The 256-bit product `x · y` as `(high, low)` halves.
    fn wide_mul(x: u128, y: u128) -> (u128, u128) {
        let (x1, x0, y1, y0) =
            (x >> 64, x & u128::from(u64::MAX), y >> 64, y & u128::from(u64::MAX));
        let (low, mid_a, mid_b, high) = (x0 * y0, x1 * y0, x0 * y1, x1 * y1);
        let (mid, mid_carry) = mid_a.overflowing_add(mid_b);
        let (low, low_carry) = low.overflowing_add(mid << 64);
        let high = high + (mid >> 64) + (u128::from(mid_carry) << 64) + u128::from(low_carry);
        (high, low)
    }

    /// Where the oracle overflowed but the kernel returned `sum` for
    /// `x + y`: checks that the lcm-scaled denominator `l` is what
    /// overflowed, and that `sum` is `t / l` in lowest terms for the
    /// (representable) lcm-scaled numerator `t`, verified at 256 bits.
    fn check_henrici_widening((a, b): oracle::Frac, (c, d): oracle::Frac, sum: oracle::Frac) {
        let g = oracle::gcd(b, d);
        let t = (a * (d / g)).checked_add(c * (b / g)).expect("the numerator fits");
        assert!((b / g).checked_mul(d).is_none(), "only the lcm may overflow");
        let (num, den) = sum;
        assert!(num != 0 && t % num == 0 && den > 0 && oracle::gcd(num, den) == 1);
        let k = t / num;
        assert_eq!(
            wide_mul(den.unsigned_abs(), k.unsigned_abs()),
            wide_mul((b / g) as u128, d as u128)
        );
    }

    /// Checks every binary operation on `x` and `y` against the oracle:
    /// the same `(numer(), denom())`, or a panic on both sides.  The new
    /// kernel may succeed where the oracle overflowed in exactly two
    /// places: a sum whose lcm-scaled denominator overflowed while its
    /// reduced one fits (Henrici), and a comparison of equal denominators.
    fn check_against_oracle(x: oracle::Frac, y: oracle::Frac) {
        let (a, b) = (Rat::const_new(x.0, x.1), Rat::const_new(y.0, y.1));
        let sums = [
            (outcome(|| parts(a + b)), outcome(|| oracle::add(x, y)), y),
            (outcome(|| parts(a - b)), outcome(|| oracle::sub(x, y)), (-y.0, y.1)),
        ];
        for (kernel, reference, addend) in sums {
            match (kernel, reference) {
                (Some(sum), None) => check_henrici_widening(x, addend, sum),
                (kernel, reference) => assert_eq!(kernel, reference, "{x:?} + {addend:?}"),
            }
        }
        assert_eq!(outcome(|| parts(a * b)), outcome(|| oracle::mul(x, y)), "{x:?} * {y:?}");
        assert_eq!(outcome(|| parts(a / b)), outcome(|| oracle::div(x, y)), "{x:?} / {y:?}");
        let reference = outcome(|| oracle::cmp(x, y)).or((x.1 == y.1).then(|| x.0.cmp(&y.0)));
        assert_eq!(outcome(|| a.cmp(&b)), reference, "{x:?} cmp {y:?}");
    }

    #[test]
    fn kernel_matches_the_oracle_on_boundary_values() {
        let edges = [
            0,
            1,
            1_000_000,
            (1 << 31) + 1,
            i128::from(i64::MAX),
            1 << 63,
            1 << 64,
            (1 << 100) + 3,
            i128::MAX,
        ];
        let mut fracs = Vec::new();
        for &n in &edges {
            for &d in edges.iter().filter(|&&d| d != 0) {
                for n in [n, -n] {
                    assert_eq!(outcome(|| parts(Rat::new(n, d))), outcome(|| oracle::new(n, d)));
                    assert_eq!(outcome(|| parts(Rat::new(n, -d))), outcome(|| oracle::new(n, -d)));
                    fracs.push(oracle::new(n, d));
                }
            }
        }
        fracs.sort_unstable();
        fracs.dedup();
        for &x in &fracs {
            for &y in &fracs {
                check_against_oracle(x, y);
            }
        }
    }

    fn small_rat() -> impl Strategy<Value = Rat> {
        (-1000i128..1000, 1i128..1000).prop_map(|(n, d)| Rat::new(n, d))
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in small_rat(), b in small_rat()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_add_associative(a in small_rat(), b in small_rat(), c in small_rat()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_mul_distributes_over_add(a in small_rat(), b in small_rat(), c in small_rat()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_then_add_round_trips(a in small_rat(), b in small_rat()) {
            prop_assert_eq!(a - b + b, a);
        }

        #[test]
        fn prop_div_then_mul_round_trips(a in small_rat(), b in small_rat()) {
            prop_assume!(!b.is_zero());
            prop_assert_eq!(a / b * b, a);
        }

        #[test]
        fn prop_ordering_consistent_with_f64(a in small_rat(), b in small_rat()) {
            if a < b {
                prop_assert!(a.to_f64() <= b.to_f64());
            }
        }

        #[test]
        fn prop_kernel_matches_the_oracle(raws in proptest::collection::vec(raw_pair(), 12..13)) {
            let fracs: Vec<oracle::Frac> = raws.iter().map(|&(n, d)| oracle::new(n, d)).collect();
            for &(n, d) in &raws {
                prop_assert_eq!(outcome(|| parts(Rat::new(n, d))), outcome(|| oracle::new(n, d)));
                prop_assert_eq!(outcome(|| parts(Rat::new(n, -d))), outcome(|| oracle::new(n, -d)));
            }
            for &x in &fracs {
                for &y in &fracs {
                    check_against_oracle(x, y);
                }
            }
        }

        #[test]
        fn prop_floor_le_value_le_ceil(a in small_rat()) {
            prop_assert!(Rat::from_int(a.floor()) <= a);
            prop_assert!(a <= Rat::from_int(a.ceil()));
        }
    }
}
