//! Offline stand-in for `proptest`.
//!
//! Implements the generate-and-check core of property testing on the
//! API surface this workspace uses: `Strategy` with `prop_map` /
//! `boxed` / `prop_recursive`, numeric range strategies, a mini-regex
//! string strategy (`"[a-z]{1,8}"`-style character classes), `Just`,
//! tuples, `collection::vec`, `option::of`, `bool::ANY`, `any::<T>()`,
//! and the `proptest!` / `prop_oneof!` / `prop_assert!` /
//! `prop_assert_eq!` macros.
//!
//! Differences from upstream, by design:
//! - no shrinking — a failing case reports its deterministic case seed;
//! - cases are seeded from the test name and case index, so runs are
//!   fully reproducible without a persistence file.

pub mod strategy;

pub mod test_runner;

pub use strategy::{BoxedStrategy, Just, Strategy, Union};

/// Strategies producing values of a type's "natural" distribution.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy returned by [`any`].
    pub struct Any<T>(core::marker::PhantomData<fn() -> T>);

    impl<T: rand::Standard> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.gen()
        }
    }

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// The strategy [`any`] returns for this type.
        type Strategy: Strategy<Value = Self>;
        /// Build the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    macro_rules! arbitrary_via_standard {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                type Strategy = Any<$t>;
                fn arbitrary() -> Any<$t> {
                    Any(core::marker::PhantomData)
                }
            }
        )*};
    }

    arbitrary_via_standard!(u32, u64, i64, bool, f32, f64);

    /// The canonical strategy for `T` (full domain, uniform bits).
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }
}

/// `Vec` strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.len.start >= self.len.end {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` with length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// `Option` strategies.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.5) {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }

    /// `Some` of the inner strategy half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// `bool` strategies.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy behind [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = core::primitive::bool;
        fn generate(&self, rng: &mut TestRng) -> core::primitive::bool {
            rng.gen()
        }
    }

    /// Uniform `true` / `false`.
    pub const ANY: BoolAny = BoolAny;
}

/// The glob-import module mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Uniform choice between strategies with the same value type.
///
/// All arms are unweighted; each must implement
/// `Strategy<Value = T>` for the same `T`.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Fail the enclosing property if the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)+)),
            );
        }
    };
}

/// Fail the enclosing property if the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Define `#[test]` functions whose inputs are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_proptest(
                &$config,
                stringify!($name),
                &($($strat,)+),
                |($($pat,)+)| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ( ($config:expr) ) => {};
}
