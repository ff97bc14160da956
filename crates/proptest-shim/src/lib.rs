//! Minimal, dependency-free property-testing shim.
//!
//! This crate implements exactly the slice of the `proptest` API that the
//! workspace's tests use, so the repository builds and tests in a fully
//! offline environment. Strategies are plain pseudo-random generators
//! (no shrinking); failures report the generated inputs so cases can be
//! reproduced by hand.

use std::fmt::Debug;
use std::ops::Range;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic splitmix64 generator used to drive all strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// Errors and assertion macros
// ---------------------------------------------------------------------------

/// Error carried out of a failing property body.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The property was violated.
    Fail(String),
    /// The case should be discarded (unused here, kept for API parity).
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "property failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "case rejected: {m}"),
        }
    }
}

pub type TestCaseResult = Result<(), TestCaseError>;

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}: {}",
                l,
                r,
                format!($($fmt)*)
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l == r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}",
                l, r
            )));
        }
    }};
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Runner configuration; only `cases` is honored.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A value generator. Unlike real proptest there is no shrinking; a
/// strategy is just a function from RNG state to a value.
pub trait Strategy {
    type Value: Debug;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(self),
        }
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn ErasedStrategy<T>>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

trait ErasedStrategy<T> {
    fn erased_generate(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> ErasedStrategy<S::Value> for S {
    fn erased_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.inner.erased_generate(rng)
    }
}

/// `.prop_map` combinator output.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// --- integer / float range strategies --------------------------------------

macro_rules! impl_int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let lo = self.start as u64;
                let hi = self.end as u64;
                if hi <= lo {
                    return self.start;
                }
                (lo + rng.below(hi - lo)) as $ty
            }
        }
        impl Strategy for std::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                let lo = *self.start() as u64;
                let hi = *self.end() as u64;
                if hi <= lo {
                    return *self.start();
                }
                let span = (hi - lo).saturating_add(1);
                (lo + rng.below(span)) as $ty
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        if self.end <= self.start {
            return self.start;
        }
        self.start + rng.f64_unit() * (self.end - self.start)
    }
}

// --- tuple strategies -------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case, reason = "the tuple's type parameters name its fields")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

// --- any::<T>() -------------------------------------------------------------

/// Marker produced by [`any`].
#[derive(Clone, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_any_uint {
    ($($ty:ty),*) => {$(
        impl Strategy for Any<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_any_uint!(u8, u16, u32, u64, usize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.f64_unit() * 2.0 - 1.0
    }
}

// --- union (prop_oneof!) ----------------------------------------------------

/// Uniform choice among boxed strategies of one value type.
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

pub fn union_of<T: Debug>(options: Vec<BoxedStrategy<T>>) -> Union<T> {
    assert!(!options.is_empty(), "union_of needs at least one option");
    Union { options }
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::union_of(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

// --- collections ------------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let lo = self.len.start as u64;
            let hi = self.len.end.max(self.len.start + 1) as u64;
            let n = (lo + rng.below(hi - lo)) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;

    /// Strategy that picks uniformly from a fixed set of values.
    #[derive(Clone, Debug)]
    pub struct Select<T: Clone + Debug>(Vec<T>);

    pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select(options)
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.0.len() as u64) as usize;
            self.0[idx].clone()
        }
    }
}

// ---------------------------------------------------------------------------
// The proptest! macro
// ---------------------------------------------------------------------------

/// Entry point macro: declares `#[test]` functions that run their body over
/// `cases` generated inputs. No shrinking; the failing input is printed.
#[macro_export]
macro_rules! proptest {
    // No tests left.
    (@cfg ($config:expr)) => {};
    // One test fn, then recurse. The `#[test]` attribute written in the
    // source is captured by the meta repetition and re-emitted verbatim.
    (@cfg ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($p:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            // One deterministic seed per test name, varied per case.
            let mut seed: u64 = 0xcafe_f00d;
            for b in stringify!($name).bytes() {
                seed = seed.wrapping_mul(31).wrapping_add(b as u64);
            }
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::new(
                    seed ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                );
                let generated = ( $( $crate::Strategy::generate(&$strat, &mut rng), )+ );
                let shown = format!("{:?}", generated);
                let result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| {
                        #[allow(unused_parens, unused_mut, reason = "the caller's pattern is pasted as written")]
                        let ( $($p,)+ ) = generated;
                        $body
                        #[allow(unreachable_code, reason = "a body may end in its own return")]
                        Ok(())
                    })();
                if let Err(e) = result {
                    panic!(
                        "proptest case {}/{} failed for input {}:\n  {}",
                        case + 1,
                        config.cases,
                        shown,
                        e
                    );
                }
            }
        }
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    // With a leading config.
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    // Without a config: use the default.
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

// ---------------------------------------------------------------------------
// Prelude
// ---------------------------------------------------------------------------

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, union_of, Any,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult, TestRng,
    };
}

#[cfg(test)]
mod self_tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in 0usize..4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(0u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            for x in v {
                prop_assert!(x < 5);
            }
        }

        #[test]
        fn oneof_and_select(
            a in prop_oneof![Just(1u8), Just(2u8)],
            b in crate::sample::select(vec!["x", "y"])
        ) {
            prop_assert!(a == 1 || a == 2);
            prop_assert!(b == "x" || b == "y");
        }
    }
}
