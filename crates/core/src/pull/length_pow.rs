//! `L_i^e`, looked up instead of recomputed.
//!
//! The stretch term of [`super::stretch::StretchOptimal`] and
//! [`super::importance::ImportanceFactor`] divides by `L_i^e` on every
//! rescore, and a `powf` there costs more than the rest of the score. Item
//! lengths are small integers, so the powers of the short ones are
//! computed once, when the policy is built, by the same `powf` call: a
//! looked-up score is bit-identical to a recomputed one.

use std::hint::black_box;

/// Lengths below this are looked up; longer ones fall back to `powf`.
const TABLED: usize = 16;

/// `(l as f64).powf(exponent)` for every length `l`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LengthPow {
    exponent: f64,
    table: [f64; TABLED],
}

impl LengthPow {
    pub(crate) fn new(exponent: f64) -> Self {
        LengthPow {
            exponent,
            // The base must stay opaque: with a constant base the optimizer
            // rewrites `powf(8.0, e)` as `exp2(3.0 * e)`, which can differ
            // from the library `pow` a catalog length reaches by an ulp.
            table: std::array::from_fn(|l| black_box(l as f64).powf(exponent)),
        }
    }

    /// The exponent `e`.
    pub(crate) fn exponent(&self) -> f64 {
        self.exponent
    }

    /// `length^e`.
    #[inline]
    pub(crate) fn of(&self, length: u32) -> f64 {
        match self.table.get(length as usize) {
            Some(&pow) => pow,
            None => (length as f64).powf(self.exponent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Looked-up and fallback values both equal `powf` of a length known
    /// only at run time (as a catalog's lengths are) bit for bit.
    fn assert_exact(exponent: f64) {
        let pow = LengthPow::new(exponent);
        for l in 0..=40u32 {
            assert_eq!(
                pow.of(black_box(l)).to_bits(),
                black_box(l as f64).powf(exponent).to_bits(),
                "length {l}, exponent {exponent}"
            );
        }
    }

    #[test]
    fn table_equals_powf_bit_for_bit() {
        for exponent in [0.5, 1.0, 2.0, 2.5, 3.0] {
            assert_exact(exponent);
        }
    }

    proptest! {
        /// `4 − u` for `u ∈ [0, 4)` draws the exponent from `(0, 4]`.
        #[test]
        fn table_equals_powf_for_any_exponent(u in 0.0f64..4.0) {
            assert_exact(4.0 - u);
        }
    }
}
