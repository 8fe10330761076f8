//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no crates.io access, so this vendored shim
//! provides the slice of proptest the workspace's property tests use:
//! the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`, range and
//! [`collection::vec`] strategies, and [`any`] for `bool`. Instead of
//! shrinking counterexamples it simply reports the failing case's values
//! via the panic message of the underlying assertion.

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases each property runs.
pub const CASES: usize = 96;

/// Deterministic per-test RNG so failures reproduce across runs.
pub fn test_rng(test_name: &str) -> StdRng {
    // FNV-1a over the test name keys the stream.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h)
}

pub mod strategy {
    use super::*;

    /// A generator of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    if start == end {
                        return start;
                    }
                    // Half-open draw plus endpoint promotion keeps the float
                    // case simple; ints use the exact inclusive span.
                    rng.gen_range(start..=end)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_signed_range_strategy!(i8, i16, i32, i64, isize);

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    /// Strategy returned by [`super::any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T> {
        pub(crate) _marker: std::marker::PhantomData<T>,
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut StdRng) -> bool {
            rng.gen::<u64>() & 1 == 1
        }
    }

    impl Strategy for Any<u8> {
        type Value = u8;
        fn generate(&self, rng: &mut StdRng) -> u8 {
            rng.gen::<u64>() as u8
        }
    }

    impl Strategy for Any<u64> {
        type Value = u64;
        fn generate(&self, rng: &mut StdRng) -> u64 {
            rng.gen()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident),+)),*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy!((A, B), (A, B, C), (A, B, C, D));
}

/// Strategy over the "canonical arbitrary" values of `T`.
pub fn any<T>() -> strategy::Any<T> {
    strategy::Any {
        _marker: std::marker::PhantomData,
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::*;

    /// A size specification for [`vec()`]: an exact length or a length range.
    pub trait SizeRange {
        /// Draws a length.
        fn draw(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn draw(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn draw(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn draw(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy producing vectors of values drawn from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        elem: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.draw(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Vector strategy: `vec(elem_strategy, len_range)`.
    pub fn vec<S: Strategy, L: SizeRange>(elem: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { elem, len }
    }
}

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{any, prop_assert, prop_assert_eq, proptest};
}

/// Property assertion; panics with the stringified condition on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`CASES`] random cases.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut __rng = $crate::test_rng(stringify!($name));
            for __case in 0..$crate::CASES {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::strategy::Strategy;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = super::test_rng("ranges_generate_in_bounds");
        for _ in 0..200 {
            let a = (3u8..9).generate(&mut rng);
            assert!((3..9).contains(&a));
            let b = (0u8..=28).generate(&mut rng);
            assert!(b <= 28);
            let c = (-2.5f64..2.5).generate(&mut rng);
            assert!((-2.5..2.5).contains(&c));
        }
    }

    #[test]
    fn vec_strategy_respects_len() {
        let mut rng = super::test_rng("vec_strategy_respects_len");
        for _ in 0..100 {
            let v = super::collection::vec(1u32..5, 2..7).generate(&mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| (1..5).contains(&x)));
        }
    }

    proptest! {
        /// The macro itself must compile and run bodies with bound args.
        #[test]
        fn macro_binds_args(x in 1u64..100, flips in super::collection::vec(any::<bool>(), 0..8)) {
            prop_assert!((1..100).contains(&x));
            prop_assert!(flips.len() < 8);
            prop_assert_eq!(flips.len(), flips.len());
        }
    }
}
