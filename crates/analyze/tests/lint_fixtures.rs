//! Fixture-driven tests of the lint engine: each rule has a positive
//! fixture (every line it must flag) and a negative fixture (traps it must
//! not fall for — strings, comments, raw strings, `#[cfg(test)]` bodies,
//! inline allows).

use tasq_analyze::rules::{
    lint_source, FLOAT_EQ, NO_PANIC, UNBOUNDED_CHANNEL, UNSEEDED_RNG, WALL_CLOCK,
};

/// Lint a fixture as if it lived at `path`, returning `(rule, line)`.
fn hits(path: &str, source: &str) -> Vec<(String, usize)> {
    lint_source(path, source).into_iter().map(|d| (d.rule, d.line)).collect()
}

fn rules_only(path: &str, source: &str) -> Vec<String> {
    hits(path, source).into_iter().map(|(r, _)| r).collect()
}

#[test]
fn no_panic_positive_fixture_flags_every_construct() {
    let src = include_str!("fixtures/panics_positive.rs");
    let found = hits("crates/core/src/fixture.rs", src);
    let panics: Vec<usize> =
        found.iter().filter(|(r, _)| r == NO_PANIC).map(|&(_, l)| l).collect();
    // unwrap, expect, panic!, todo!, unimplemented!, unreachable!
    assert_eq!(panics, vec![3, 4, 6, 9, 10, 11], "{found:?}");
}

#[test]
fn no_panic_negative_fixture_is_clean() {
    let src = include_str!("fixtures/panics_negative.rs");
    assert_eq!(rules_only("crates/core/src/fixture.rs", src), Vec::<String>::new());
}

#[test]
fn float_eq_positive_fixture_flags_each_comparison() {
    let src = include_str!("fixtures/float_eq_positive.rs");
    let found = hits("crates/core/src/fixture.rs", src);
    let lines: Vec<usize> =
        found.iter().filter(|(r, _)| r == FLOAT_EQ).map(|&(_, l)| l).collect();
    assert_eq!(lines, vec![3, 4, 5], "{found:?}");
}

#[test]
fn float_eq_negative_fixture_is_clean() {
    let src = include_str!("fixtures/float_eq_negative.rs");
    assert_eq!(rules_only("crates/core/src/fixture.rs", src), Vec::<String>::new());
}

#[test]
fn rng_and_clock_positive_fixture() {
    let src = include_str!("fixtures/rng_clock_positive.rs");
    // In the simulator both rules apply.
    let found = hits("crates/scope-sim/src/fixture.rs", src);
    let rng: Vec<usize> =
        found.iter().filter(|(r, _)| r == UNSEEDED_RNG).map(|&(_, l)| l).collect();
    let clock: Vec<usize> =
        found.iter().filter(|(r, _)| r == WALL_CLOCK).map(|&(_, l)| l).collect();
    assert_eq!(rng, vec![3, 4, 5], "{found:?}");
    assert_eq!(clock, vec![6, 7], "{found:?}");
    // Outside the simulator the wall-clock rule is out of scope.
    let outside = rules_only("crates/core/src/fixture.rs", src);
    assert!(outside.iter().all(|r| r == UNSEEDED_RNG), "{outside:?}");
}

#[test]
fn rng_and_clock_negative_fixture_is_clean() {
    let src = include_str!("fixtures/rng_clock_negative.rs");
    assert_eq!(rules_only("crates/scope-sim/src/fixture.rs", src), Vec::<String>::new());
}

#[test]
fn channel_fixtures_scope_to_concurrent_crates() {
    let pos = include_str!("fixtures/channels_positive.rs");
    let found = hits("crates/serve/src/fixture.rs", pos);
    let lines: Vec<usize> =
        found.iter().filter(|(r, _)| r == UNBOUNDED_CHANNEL).map(|&(_, l)| l).collect();
    assert_eq!(lines, vec![3, 4], "{found:?}");
    // The rule does not apply outside serve / scope-sim.
    assert!(rules_only("crates/core/src/fixture.rs", pos).is_empty());

    let neg = include_str!("fixtures/channels_negative.rs");
    assert!(rules_only("crates/serve/src/fixture.rs", neg).is_empty());
}

#[test]
fn experiments_tree_waives_panics_and_float_eq() {
    let src = include_str!("fixtures/panics_positive.rs");
    assert!(rules_only("crates/experiments/src/fixture.rs", src).is_empty());
    let feq = include_str!("fixtures/float_eq_positive.rs");
    assert!(rules_only("crates/experiments/src/fixture.rs", feq).is_empty());
}

#[test]
fn vendored_and_test_trees_are_never_linted() {
    let src = include_str!("fixtures/panics_positive.rs");
    assert!(rules_only("vendor/rand/src/fixture.rs", src).is_empty());
    assert!(rules_only("crates/core/tests/fixture.rs", src).is_empty());
}

#[test]
fn diagnostics_carry_precise_spans() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let diags = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 1);
    assert_eq!(diags[0].col, 32, "column of `.unwrap()`: {diags:?}");
    let rendered = diags[0].to_string();
    assert!(
        rendered.contains("crates/core/src/fixture.rs:1:32"),
        "span must render clickable: {rendered}"
    );
}

#[test]
fn no_panic_and_float_eq_cover_the_syscall_and_recovery_crates() {
    // The raw-syscall networking stack and the checkpoint/recovery layer
    // are exactly where a stray panic or a bitwise float comparison does
    // the most damage — pin that the rules are in force there, so a
    // future path-allowlist edit cannot silently exempt them.
    let panics = include_str!("fixtures/panics_positive.rs");
    let floats = include_str!("fixtures/float_eq_positive.rs");
    for path in ["crates/net/src/server.rs", "crates/resil/src/checkpoint.rs"] {
        assert!(
            rules_only(path, panics).iter().any(|r| r == NO_PANIC),
            "no-panic must apply to {path}"
        );
        assert!(
            rules_only(path, floats).iter().any(|r| r == FLOAT_EQ),
            "float-eq must apply to {path}"
        );
    }
}
