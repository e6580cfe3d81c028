//! Offline mini property-testing harness.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of the `proptest` API the workspace's property tests use:
//! strategies over ranges, tuples, `Just`, `prop_oneof!`, `prop_map`,
//! `collection::vec`, `any::<T>()`, and the `proptest!` / `prop_assert*`
//! macros. No shrinking is performed — a failing case panics with the
//! generated inputs' debug representation left to the assertion message.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Runner configuration (only the case count is honoured).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Test-runner plumbing used by the [`proptest!`] macro expansion.
pub mod test_runner {
    use super::*;

    /// The RNG driving strategy generation.
    pub type TestRng = StdRng;

    /// Deterministic per-test RNG: hashed from the property name so case
    /// sequences are stable across runs (there is no failure persistence).
    pub fn rng_for(test_name: &str) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        StdRng::seed_from_u64(h)
    }
}

/// Strategies: random-value generators composable like proptest's.
pub mod strategy {
    use super::test_runner::TestRng;
    use super::*;

    /// A generator of random values (object-safe; no shrinking).
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// A constant strategy.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among boxed strategies (see [`prop_oneof!`]).
    pub struct OneOf<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        /// Builds the union; panics when `options` is empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.random_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy_int {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// Full-domain generation for [`any`].
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.random()
        }
    }

    macro_rules! impl_arbitrary_prim {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.random()
                }
            }
        )*};
    }

    impl_arbitrary_prim!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    /// Strategy over a type's full domain.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// `any::<T>()` — the unconstrained strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;

    /// Length specification for [`vec()`]: a fixed size or a range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `vec(element, size)` — proptest's vector strategy.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual star-import surface.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a property-level condition (plain `assert!` without shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property-level equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property-level inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($strategy:expr),+ $(,)? ) => {{
        #[allow(clippy::vec_init_then_push)]
        {
            let mut options: ::std::vec::Vec<
                ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>,
            > = ::std::vec::Vec::new();
            $( options.push(::std::boxed::Box::new($strategy)); )+
            $crate::strategy::OneOf::new(options)
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($config:expr) ) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::test_runner::rng_for(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&$strategy, &mut rng);)+
                let run = move || -> () { $body };
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run));
                if outcome.is_err() {
                    eprintln!(
                        "proptest case {}/{} of {} failed (no shrinking in offline shim)",
                        case + 1,
                        config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(outcome.unwrap_err());
                }
            }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(x in 0usize..10, pair in (0u8..4, -1.0f64..1.0)) {
            prop_assert!(x < 10);
            prop_assert!(pair.0 < 4);
            prop_assert!((-1.0..1.0).contains(&pair.1));
        }

        #[test]
        fn vec_and_map(v in collection::vec(any::<bool>(), 1..40)) {
            prop_assert!(!v.is_empty() && v.len() < 40);
        }

        #[test]
        fn oneof_and_just(x in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(x == 1 || x == 2);
        }
    }
}
