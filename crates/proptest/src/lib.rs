//! Offline stand-in for the `proptest` crate.
//!
//! The build environment for this workspace has no network access, so the
//! real crates-io `proptest` cannot be fetched. This crate implements the
//! subset of its API that the workspace's property tests use, backed by a
//! deterministic splitmix64 generator seeded from the test's module path —
//! every run of a given test explores the same input sequence, which is in
//! the same deterministic spirit as the simulator the tests exercise.
//!
//! Differences from the real crate, by design:
//! - no shrinking: a failing case reports its case index, not a minimal one;
//! - regex strategies support only the character-class/quantifier subset the
//!   workspace actually uses (`[a-z...]{m,n}` sequences);
//! - `prop_assert!`/`prop_assert_eq!` panic like `assert!` instead of
//!   returning `Err`, which is equivalent under the test harness.

pub mod arbitrary;
pub mod collection;
pub mod regex;
pub mod strategy;
pub mod test_runner;

/// Everything a `use proptest::prelude::*;` caller expects to find.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares property tests. Supports both binding forms of the real macro:
/// `arg in strategy` and `arg: Type` (shorthand for `arg in any::<Type>()`),
/// plus an optional leading `#![proptest_config(...)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($crate::test_runner::Config::default()); $($rest)* }
    };
}

/// Internal: expands each `fn` in a `proptest!` block into a test body.
/// The caller writes the `#[test]` itself, as the real crate requires; the
/// attributes are passed through as written, so a property is registered
/// once.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            $crate::__proptest_bind! {
                rng = __rng; cfg = __cfg; name = $name;
                params = [$($params)*]; bound = []; body = $body
            }
        }
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
}

/// Internal: normalizes the parameter list into (name, strategy) pairs and
/// then emits the case loop.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    // `name in strategy, ...`
    (rng = $rng:ident; cfg = $cfg:ident; name = $name:ident;
     params = [$n:ident in $s:expr, $($restp:tt)*]; bound = [$($acc:tt)*]; body = $body:block) => {
        $crate::__proptest_bind! {
            rng = $rng; cfg = $cfg; name = $name;
            params = [$($restp)*]; bound = [$($acc)* ($n, $s)]; body = $body
        }
    };
    // `name in strategy` (final, no trailing comma)
    (rng = $rng:ident; cfg = $cfg:ident; name = $name:ident;
     params = [$n:ident in $s:expr]; bound = [$($acc:tt)*]; body = $body:block) => {
        $crate::__proptest_bind! {
            rng = $rng; cfg = $cfg; name = $name;
            params = []; bound = [$($acc)* ($n, $s)]; body = $body
        }
    };
    // `name: Type, ...`
    (rng = $rng:ident; cfg = $cfg:ident; name = $name:ident;
     params = [$n:ident : $ty:ty, $($restp:tt)*]; bound = [$($acc:tt)*]; body = $body:block) => {
        $crate::__proptest_bind! {
            rng = $rng; cfg = $cfg; name = $name;
            params = [$($restp)*]; bound = [$($acc)* ($n, $crate::arbitrary::any::<$ty>())]; body = $body
        }
    };
    // `name: Type` (final)
    (rng = $rng:ident; cfg = $cfg:ident; name = $name:ident;
     params = [$n:ident : $ty:ty]; bound = [$($acc:tt)*]; body = $body:block) => {
        $crate::__proptest_bind! {
            rng = $rng; cfg = $cfg; name = $name;
            params = []; bound = [$($acc)* ($n, $crate::arbitrary::any::<$ty>())]; body = $body
        }
    };
    // All parameters normalized: emit the case loop.
    (rng = $rng:ident; cfg = $cfg:ident; name = $name:ident;
     params = []; bound = [$(($n:ident, $s:expr))*]; body = $body:block) => {
        $(let $n = $s;)*
        for __case in 0..$cfg.cases {
            // Like the real crate, the body runs in a context returning
            // `Result<(), TestCaseError>` so `return Ok(())` and rejection
            // via `prop_assume!` both type-check.
            let mut __run = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                $(let $n = $crate::strategy::Strategy::generate(&$n, &mut $rng);)*
                $body
                #[allow(unreachable_code)]
                ::std::result::Result::Ok(())
            };
            let __outcome =
                ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(&mut __run));
            if let Err(payload) = __outcome {
                eprintln!(
                    "[proptest] {} failed on case {}/{} (deterministic; re-running reproduces)",
                    stringify!($name),
                    __case,
                    $cfg.cases
                );
                ::std::panic::resume_unwind(payload);
            }
        }
    };
}

/// Like `assert!`, usable inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Like `assert_eq!`, usable inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Like `assert_ne!`, usable inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Skips the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
