//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of proptest the workspace's property tests use: the
//! [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`, tuple and
//! range strategies, a single-character-class regex strategy for string
//! literals, `collection::vec`, `char::range`, `sample::Index`,
//! [`prop_oneof!`] and [`Just`](strategy::Just). Cases are *generated* deterministically
//! but never *shrunk*; on failure the macro prints the offending inputs
//! and case number instead.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use rand::rngs::StdRng;

    /// A recipe for generating values of type `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree and no shrinking: a
    /// strategy is just a deterministic function of an RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value: std::fmt::Debug;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: std::fmt::Debug,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: std::fmt::Debug,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + std::fmt::Debug>(pub T);

    impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed strategies; built by [`crate::prop_oneof!`].
    pub struct Union<T: std::fmt::Debug> {
        choices: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T: std::fmt::Debug> Union<T> {
        /// Builds a union; panics if `choices` is empty.
        pub fn new(choices: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!choices.is_empty(), "prop_oneof! needs at least one arm");
            Union { choices }
        }

        /// An empty union; `push` arms onto it before use.
        pub fn empty() -> Self {
            Union {
                choices: Vec::new(),
            }
        }

        /// Adds one arm (`prop_oneof!` builds unions this way so each
        /// concrete strategy coerces to a trait object at the call).
        pub fn push(&mut self, choice: Box<dyn Strategy<Value = T>>) {
            self.choices.push(choice);
        }
    }

    impl<T: std::fmt::Debug> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            use rand::Rng;
            let i = rng.gen_range(0..self.choices.len());
            self.choices[i].generate(rng)
        }
    }

    impl<T: std::fmt::Debug> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            (**self).generate(rng)
        }
    }

    impl<T> Strategy for std::ops::Range<T>
    where
        T: rand::SampleUniform + Copy + std::fmt::Debug,
        std::ops::Range<T>: rand::SampleRange<T>,
    {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            use rand::Rng;
            rng.gen_range(self.start..self.end)
        }
    }

    impl<T> Strategy for std::ops::RangeInclusive<T>
    where
        T: rand::SampleUniform + Copy + std::fmt::Debug,
        std::ops::RangeInclusive<T>: rand::SampleRange<T> + Clone,
    {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            use rand::Rng;
            rng.gen_range(self.clone())
        }
    }

    /// String literals are single-char-class regex strategies:
    /// `"[a-z0-9.]{1,24}"` generates strings of 1–24 chars drawn from the
    /// class. Supported syntax: one `[...]` class (literal chars, `a-z`
    /// ranges, leading/trailing `-` literal) followed by `{n}` or `{n,m}`.
    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut StdRng) -> String {
            use rand::Rng;
            let (chars, lo, hi) = parse_class_pattern(self)
                .unwrap_or_else(|| panic!("unsupported regex strategy pattern: {self:?}"));
            let len = if lo == hi {
                lo
            } else {
                rng.gen_range(lo..hi + 1)
            };
            (0..len)
                .map(|_| chars[rng.gen_range(0..chars.len())])
                .collect()
        }
    }

    /// Parses `[class]{n}` / `[class]{n,m}` into (alphabet, min, max).
    fn parse_class_pattern(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pattern.strip_prefix('[')?;
        let (class, quant) = rest.split_once(']')?;
        let mut chars: Vec<char> = Vec::new();
        let cs: Vec<char> = class.chars().collect();
        let mut i = 0;
        while i < cs.len() {
            if cs[i] == '\\' && i + 1 < cs.len() {
                chars.push(cs[i + 1]);
                i += 2;
            } else if i + 2 < cs.len() && cs[i + 1] == '-' {
                let (a, b) = (cs[i], cs[i + 2]);
                if a > b {
                    return None;
                }
                chars.extend(a..=b);
                i += 3;
            } else {
                chars.push(cs[i]);
                i += 1;
            }
        }
        if chars.is_empty() {
            return None;
        }
        let quant = quant.strip_prefix('{')?.strip_suffix('}')?;
        let (lo, hi) = match quant.split_once(',') {
            Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
            None => {
                let n = quant.trim().parse().ok()?;
                (n, n)
            }
        };
        if lo > hi {
            return None;
        }
        Some((chars, lo, hi))
    }

    macro_rules! impl_strategy_for_tuple {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    impl_strategy_for_tuple!(A: 0);
    impl_strategy_for_tuple!(A: 0, B: 1);
    impl_strategy_for_tuple!(A: 0, B: 1, C: 2);
    impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3);
    impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
    impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait: types with a canonical full-range strategy.

    use rand::rngs::StdRng;

    /// Types [`crate::prelude::any`] can generate.
    pub trait Arbitrary: std::fmt::Debug + Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_standard {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut StdRng) -> Self {
                    use rand::Rng;
                    rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64);

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut StdRng) -> Self {
            use rand::Rng;
            rng.gen()
        }
    }

    impl Arbitrary for crate::sample::Index {
        fn arbitrary(rng: &mut StdRng) -> Self {
            use rand::RngCore;
            crate::sample::Index::from_raw(rng.next_u64())
        }
    }
}

/// Marker strategy returned by [`prelude::any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: arbitrary::Arbitrary> strategy::Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy for vectors with a length drawn from `range` and elements
    /// drawn from `element`.
    pub struct VecStrategy<S> {
        element: S,
        range: std::ops::Range<usize>,
    }

    /// Generates `Vec`s whose length lies in `range` (half-open).
    pub fn vec<S: Strategy>(element: S, range: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(
            range.start < range.end,
            "collection::vec: empty length range"
        );
        VecStrategy { element, range }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.range.start..self.range.end);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod char {
    //! Character strategies.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy over an inclusive character range.
    #[derive(Debug, Clone, Copy)]
    pub struct CharRange {
        start: u32,
        end: u32,
    }

    /// Uniform characters in `[start, end]` (inclusive, like proptest).
    pub fn range(start: char, end: char) -> CharRange {
        assert!(start <= end, "char::range: start > end");
        CharRange {
            start: start as u32,
            end: end as u32,
        }
    }

    impl Strategy for CharRange {
        type Value = char;

        fn generate(&self, rng: &mut StdRng) -> char {
            // Resample on the (rare) unassigned code points in the range.
            loop {
                let v = rng.gen_range(self.start..self.end + 1);
                if let Some(c) = char::from_u32(v) {
                    return c;
                }
            }
        }
    }
}

pub mod sample {
    //! Sampling helpers.

    /// An index into a collection whose length is unknown at generation
    /// time; resolve with [`Index::index`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index {
        raw: u64,
    }

    impl Index {
        /// Builds an index from raw entropy.
        pub fn from_raw(raw: u64) -> Self {
            Index { raw }
        }

        /// Maps the stored entropy onto `[0, len)`. Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            ((self.raw as u128 * len as u128) >> 64) as usize
        }
    }
}

/// Marker returned (via `Err`) by [`prop_assume!`] when a case does not
/// satisfy the assumption; the harness skips such cases.
#[derive(Debug)]
pub struct AssumeRejected;

/// Per-block configuration, mirroring `proptest::test_runner::ProptestConfig`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Derives the deterministic per-test base seed.
pub fn base_seed(test_name: &str) -> u64 {
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    seed
}

/// Builds the RNG for one test case.
pub fn case_rng(base: u64, case: u32) -> StdRng {
    use rand::SeedableRng;
    StdRng::seed_from_u64(base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The canonical strategy for `T`.
    pub fn any<T: crate::arbitrary::Arbitrary>() -> crate::Any<T> {
        crate::Any {
            _marker: std::marker::PhantomData,
        }
    }
}

/// Defines property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases; a
/// failing case prints its inputs before propagating the panic.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal recursion for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let base = $crate::base_seed(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let mut rng = $crate::case_rng(base, case);
                let mut reprs: Vec<String> = Vec::new();
                $(
                    let value = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    reprs.push(format!("{} = {:?}", stringify!($pat), &value));
                    let $pat = value;
                )+
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), $crate::AssumeRejected> {
                        $body
                        ::std::result::Result::Ok(())
                    },
                ));
                match outcome {
                    Ok(Ok(())) => {}
                    // prop_assume! rejected this case; move on.
                    Ok(Err($crate::AssumeRejected)) => {}
                    Err(payload) => {
                        eprintln!(
                            "[proptest shim] {} failed on case {}/{} with inputs:\n  {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            reprs.join("\n  "),
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when `cond` is false. Only usable inside a
/// [`proptest!`] body (it returns `Err(AssumeRejected)` from the case
/// closure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::AssumeRejected);
        }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        // Built by pushing so each `Box<Concrete>` coerces to the boxed
        // trait object independently; `vec![.. as _]` breaks inference of
        // the shared `Value` type.
        let mut union = $crate::strategy::Union::empty();
        $(union.push(Box::new($strat));)+
        union
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;

    #[test]
    fn class_pattern_strategy_respects_alphabet_and_length() {
        let mut rng = crate::case_rng(1, 0);
        for _ in 0..50 {
            let s = "[a-c.]{1,4}".generate(&mut rng);
            assert!((1..=4).contains(&s.len()));
            assert!(s.chars().all(|c| matches!(c, 'a'..='c' | '.')));
            let t = "[A-Z]{3}".generate(&mut rng);
            assert_eq!(t.len(), 3);
        }
    }

    #[test]
    fn index_maps_into_bounds() {
        let mut rng = crate::case_rng(2, 0);
        for _ in 0..100 {
            let idx: crate::sample::Index = crate::arbitrary::Arbitrary::arbitrary(&mut rng);
            assert!(idx.index(7) < 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(
            v in crate::collection::vec(any::<u8>(), 1..9),
            c in crate::char::range('a', 'z'),
            n in 3u64..9,
            choice in prop_oneof![Just(1u8), (5u8..7).prop_map(|x| x)]
        ) {
            prop_assert!((1..=8).contains(&v.len()));
            prop_assert!(c.is_ascii_lowercase());
            prop_assert!((3..9).contains(&n));
            prop_assert!(choice == 1 || (5..7).contains(&choice));
        }
    }
}
