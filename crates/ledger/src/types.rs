//! Primitive ledger types: addresses, hashes, currency and fixed-point
//! numbers for deterministic on-chain arithmetic.

use crate::sha256;
use std::fmt;

/// A 20-byte account address (Ethereum-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address, used as the "system"/coinbase sender.
    pub const ZERO: Address = Address([0; 20]);

    /// Derives a deterministic address from a human-readable name —
    /// the first 20 bytes of `sha256(name)`. This stands in for key
    /// generation, which the paper's prototype also does not model.
    pub fn from_name(name: &str) -> Self {
        let d = sha256::digest(name.as_bytes());
        let mut a = [0u8; 20];
        a.copy_from_slice(&d[..20]);
        Address(a)
    }

    /// Hex rendering (no 0x prefix).
    pub fn to_hex(&self) -> String {
        sha256::to_hex(&self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", &self.to_hex()[..12])
    }
}

/// A 32-byte hash (block hash, tx hash). Ordered bytewise, so it can
/// key the `BTree*` indexes the ledger and engine keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash, parent of the genesis block.
    pub const ZERO: Hash256 = Hash256([0; 32]);

    /// Hex rendering.
    pub fn to_hex(&self) -> String {
        sha256::to_hex(&self.0)
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", &self.to_hex()[..16])
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(b: [u8; 32]) -> Self {
        Hash256(b)
    }
}

/// Currency amount in wei (the smallest unit of the private chain's
/// native token). Unsigned; signed flows are expressed by direction.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct Wei(pub u128);

impl Wei {
    /// Zero wei.
    pub const ZERO: Wei = Wei(0);

    /// Saturating addition.
    pub fn saturating_add(self, other: Wei) -> Wei {
        Wei(self.0.saturating_add(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: Wei) -> Option<Wei> {
        self.0.checked_add(other.0).map(Wei)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: Wei) -> Option<Wei> {
        self.0.checked_sub(other.0).map(Wei)
    }
}

impl fmt::Display for Wei {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} wei", self.0)
    }
}

impl std::ops::Add for Wei {
    type Output = Wei;
    fn add(self, rhs: Wei) -> Wei {
        // lint:allow(no-panic-in-lib): balance overflow is a broken-ledger invariant; abort beats silent wrap
        Wei(self.0.checked_add(rhs.0).expect("wei overflow"))
    }
}

impl std::ops::Sub for Wei {
    type Output = Wei;
    fn sub(self, rhs: Wei) -> Wei {
        // lint:allow(no-panic-in-lib): callers check balances first; underflow is a broken-ledger invariant
        Wei(self.0.checked_sub(rhs.0).expect("wei underflow"))
    }
}

impl std::iter::Sum for Wei {
    fn sum<I: Iterator<Item = Wei>>(iter: I) -> Wei {
        iter.fold(Wei::ZERO, |a, b| a + b)
    }
}

/// Deterministic signed fixed-point number with 10⁹ fractional scaling,
/// used for all on-chain payoff arithmetic (floats are non-deterministic
/// across platforms and have no place in consensus-critical code).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct Fixed(pub i128);

impl Fixed {
    /// Fractional scale: 10⁹ units per 1.0.
    pub const SCALE: i128 = 1_000_000_000;

    /// Zero.
    pub const ZERO: Fixed = Fixed(0);

    /// One.
    pub const ONE: Fixed = Fixed(Self::SCALE);

    /// Converts from `f64`, rounding to the nearest representable value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not finite or overflows the i128 range (≈ 1.7e29
    /// after scaling) — settlement inputs are payoff-scale magnitudes,
    /// far below that.
    pub fn from_f64(v: f64) -> Self {
        assert!(v.is_finite(), "fixed-point conversion of non-finite value");
        let scaled = v * Self::SCALE as f64;
        assert!(
            scaled.abs() < i128::MAX as f64 / 2.0,
            "fixed-point conversion overflow: {v}"
        );
        Fixed(scaled.round() as i128)
    }

    /// Converts back to `f64` (reporting only; never fed back on-chain).
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Self::SCALE as f64
    }

    /// Full-precision multiply: `(a * b) / SCALE`.
    pub fn mul(self, other: Fixed) -> Fixed {
        // lint:allow(no-panic-in-lib): payoff magnitudes are ≪ √i128::MAX; overflow is a broken-solver invariant and abort beats silent wrap
        Fixed(self.0.checked_mul(other.0).expect("fixed-point multiply overflow") / Self::SCALE)
    }

    /// Absolute value.
    pub fn abs(self) -> Fixed {
        Fixed(self.0.abs())
    }
}

impl std::ops::Add for Fixed {
    type Output = Fixed;
    fn add(self, rhs: Fixed) -> Fixed {
        // lint:allow(no-panic-in-lib): payoff sums are ≪ i128::MAX; overflow is a broken-solver invariant and abort beats silent wrap
        Fixed(self.0.checked_add(rhs.0).expect("fixed-point add overflow"))
    }
}

impl std::ops::Sub for Fixed {
    type Output = Fixed;
    fn sub(self, rhs: Fixed) -> Fixed {
        // lint:allow(no-panic-in-lib): payoff differences are ≪ i128::MAX; overflow is a broken-solver invariant and abort beats silent wrap
        Fixed(self.0.checked_sub(rhs.0).expect("fixed-point sub overflow"))
    }
}

impl std::ops::Neg for Fixed {
    type Output = Fixed;
    fn neg(self) -> Fixed {
        Fixed(-self.0)
    }
}

impl std::iter::Sum for Fixed {
    fn sum<I: Iterator<Item = Fixed>>(iter: I) -> Fixed {
        iter.fold(Fixed::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_from_name_is_deterministic_and_distinct() {
        let a = Address::from_name("org-0");
        let b = Address::from_name("org-0");
        let c = Address::from_name("org-1");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_hex().len(), 40);
    }

    #[test]
    fn wei_arithmetic() {
        assert_eq!(Wei(5) + Wei(7), Wei(12));
        assert_eq!(Wei(7) - Wei(5), Wei(2));
        assert_eq!(Wei(5).checked_sub(Wei(7)), None);
        assert_eq!(vec![Wei(1), Wei(2), Wei(3)].into_iter().sum::<Wei>(), Wei(6));
    }

    #[test]
    #[should_panic(expected = "wei underflow")]
    fn wei_underflow_panics() {
        let _ = Wei(1) - Wei(2);
    }

    #[test]
    fn wei_checked_add_reports_overflow() {
        assert_eq!(Wei(3).checked_add(Wei(4)), Some(Wei(7)));
        assert_eq!(Wei(u128::MAX).checked_add(Wei(1)), None);
    }

    // Overflow regressions for the checked Fixed ops: every raw
    // operator flagged by `no-unchecked-money-arith` now aborts loudly
    // at the i128 boundary instead of silently wrapping settlement
    // amounts.
    #[test]
    #[should_panic(expected = "fixed-point add overflow")]
    fn fixed_add_overflow_panics() {
        let _ = Fixed(i128::MAX) + Fixed(1);
    }

    #[test]
    #[should_panic(expected = "fixed-point sub overflow")]
    fn fixed_sub_overflow_panics() {
        let _ = Fixed(i128::MIN) - Fixed(1);
    }

    #[test]
    #[should_panic(expected = "fixed-point multiply overflow")]
    fn fixed_mul_overflow_panics() {
        let _ = Fixed(i128::MAX).mul(Fixed(2 * Fixed::SCALE));
    }

    #[test]
    fn fixed_roundtrip_and_mul() {
        let a = Fixed::from_f64(1.5);
        let b = Fixed::from_f64(-2.25);
        assert_eq!(a.0, 1_500_000_000);
        assert!((a.mul(b).to_f64() + 3.375).abs() < 1e-9);
        assert_eq!(a + b, Fixed::from_f64(-0.75));
        assert_eq!(-(a - b), Fixed::from_f64(-3.75));
        assert_eq!(b.abs(), Fixed::from_f64(2.25));
    }

    #[test]
    fn fixed_sum_is_exact_for_antisymmetric_pairs() {
        // The settlement relies on exact cancellation of r_ij = -r_ji.
        let xs = [1.23456789, -7.0, 3.25, 0.0001];
        let total: Fixed = xs
            .iter()
            .flat_map(|&v| [Fixed::from_f64(v), -Fixed::from_f64(v)])
            .sum();
        assert_eq!(total, Fixed::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn fixed_rejects_nan() {
        let _ = Fixed::from_f64(f64::NAN);
    }

    #[test]
    fn display_impls_are_compact() {
        let a = Address::from_name("x");
        assert!(a.to_string().starts_with("0x"));
        assert!(Hash256::ZERO.to_string().starts_with("0x"));
        assert_eq!(Wei(3).to_string(), "3 wei");
    }
}
