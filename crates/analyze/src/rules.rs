//! Pluggable lint rules over [`crate::lexer`] output.
//!
//! Every rule reports the workspace conventions the CI gate used to grep
//! for, with three upgrades over the shell version: string/comment/test
//! awareness (via the scanner), per-path allowlists, and inline
//! `// lint: allow(rule-id) — reason` waivers.

use crate::lexer::scan;
use crate::{Diagnostic, Severity};

/// Rule id: panicking constructs (`unwrap`, `expect`, `panic!`, …) outside
/// test code.
pub const NO_PANIC: &str = "no-panic";
/// Rule id: `==`/`!=` against a floating-point literal.
pub const FLOAT_EQ: &str = "float-eq";
/// Rule id: RNG constructed without an explicit seed.
pub const UNSEEDED_RNG: &str = "unseeded-rng";
/// Rule id: wall-clock reads inside the simulator.
pub const WALL_CLOCK: &str = "wall-clock";
/// Rule id: unbounded channel construction in concurrent crates.
pub const UNBOUNDED_CHANNEL: &str = "unbounded-channel";

/// All rule ids, in reporting order.
pub const ALL_RULES: [&str; 5] =
    [NO_PANIC, FLOAT_EQ, UNSEEDED_RNG, WALL_CLOCK, UNBOUNDED_CHANNEL];

/// Paths never linted: vendored stand-ins and integration-test /
/// example trees (unit tests are excluded by the scanner's
/// `#[cfg(test)]` tracking instead).
pub fn path_is_exempt(path: &str) -> bool {
    path.contains("vendor/")
        || path.contains("/tests/")
        || path.contains("/examples/")
        || path.ends_with("build.rs")
}

/// Does `rule` apply to the file at `path` (workspace-relative, `/`
/// separated)? Encodes the per-path allowlists:
///
/// * `crates/experiments` is exploratory plotting code — `no-panic` and
///   `float-eq` are waived there wholesale;
/// * `wall-clock` guards the simulator (`crates/scope-sim/src`), where
///   wall time would silently break determinism, the observability
///   crate (`crates/obs/src`), whose timestamps must all flow through its
///   `clock` module — the single allowlisted wall-clock read site in the
///   instrumented workspace — and the resilience crate
///   (`crates/resil/src`), whose circuit breaker and chaos plans are
///   tick-driven so recovery tests replay deterministically;
/// * `unbounded-channel` guards the concurrent crates (`crates/serve`,
///   `crates/scope-sim`, `crates/par`, `crates/resil`, `crates/net` —
///   the event loop must never buffer without bound between the socket
///   and the admission queue) and the observability crate, whose
///   collector buffers must stay bounded.
pub fn rule_applies(rule: &str, path: &str) -> bool {
    if path_is_exempt(path) {
        return false;
    }
    match rule {
        NO_PANIC | FLOAT_EQ => !path.starts_with("crates/experiments/"),
        UNSEEDED_RNG => true,
        WALL_CLOCK => {
            path.starts_with("crates/scope-sim/src")
                || (path.starts_with("crates/obs/src") && !path.ends_with("/clock.rs"))
                || path.starts_with("crates/resil/src")
        }
        UNBOUNDED_CHANNEL => {
            path.starts_with("crates/serve/")
                || path.starts_with("crates/scope-sim/")
                || path.starts_with("crates/par/")
                || path.starts_with("crates/obs/")
                || path.starts_with("crates/resil/")
                || path.starts_with("crates/net/")
        }
        _ => false,
    }
}

/// Lint one file. `path` is workspace-relative with `/` separators and is
/// used for both path scoping and diagnostic spans.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let scanned = scan(source);
    let mut out = Vec::new();
    for (idx, line) in scanned.lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.in_test {
            continue;
        }
        for rule in ALL_RULES {
            if !rule_applies(rule, path) || line.allows.iter().any(|a| a == rule) {
                continue;
            }
            for (col, message) in matches_for(rule, &line.code) {
                out.push(Diagnostic {
                    rule: rule.to_string(),
                    severity: Severity::Deny,
                    path: path.to_string(),
                    line: lineno,
                    col: col + 1,
                    message,
                });
            }
        }
    }
    out
}

/// All matches of `rule` in one line of comment-stripped code, as
/// `(byte column, message)` pairs.
fn matches_for(rule: &str, code: &str) -> Vec<(usize, String)> {
    match rule {
        NO_PANIC => {
            let mut hits = find_all(code, ".unwrap()", "`.unwrap()` outside tests");
            hits.extend(find_all(code, ".expect(", "`.expect(…)` outside tests"));
            for mac in ["panic!", "unreachable!", "todo!", "unimplemented!"] {
                hits.extend(find_macro(code, mac));
            }
            hits
        }
        FLOAT_EQ => float_eq_matches(code),
        UNSEEDED_RNG => {
            let mut hits = find_all(
                code,
                "thread_rng(",
                "`thread_rng()` draws a nondeterministic seed",
            );
            hits.extend(find_all(
                code,
                "from_entropy(",
                "`from_entropy()` draws a nondeterministic seed",
            ));
            hits.extend(find_all(
                code,
                "rand::random(",
                "`rand::random()` uses the thread-local unseeded RNG",
            ));
            hits
        }
        WALL_CLOCK => {
            let mut hits = find_all(
                code,
                "Instant::now(",
                "wall-clock read in the simulator breaks determinism",
            );
            hits.extend(find_all(
                code,
                "SystemTime::now(",
                "wall-clock read in the simulator breaks determinism",
            ));
            hits
        }
        UNBOUNDED_CHANNEL => {
            let message = "unbounded channel: queue depth is unchecked under load";
            let mut hits: Vec<(usize, String)> = find_call(code, "mpsc::channel")
                .into_iter()
                .map(|c| (c, message.to_string()))
                .collect();
            hits.extend(find_call(code, "unbounded").into_iter().map(|c| (c, message.into())));
            hits
        }
        _ => Vec::new(),
    }
}

/// Every occurrence of `needle`, labelled with `message`.
fn find_all(code: &str, needle: &str, message: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        out.push((from + pos, message.to_string()));
        from += pos + needle.len();
    }
    out
}

/// Occurrences of `name!` not preceded by an identifier character (so
/// `debug_panic!` would not count as `panic!`).
fn find_macro(code: &str, name: &str) -> Vec<(usize, String)> {
    find_macro_free(code, name)
        .into_iter()
        .map(|c| (c, format!("`{name}` outside tests")))
        .collect()
}

/// Occurrences of `name` called as a function: not preceded by an
/// identifier character, followed by `(` or a turbofish `::<`.
fn find_call(code: &str, name: &str) -> Vec<usize> {
    find_macro_free(code, name)
        .into_iter()
        .filter(|&at| {
            let after = &code[at + name.len()..];
            after.starts_with('(') || after.starts_with("::<")
        })
        .collect()
}

/// Occurrences of `needle` whose preceding character is not part of an
/// identifier.
fn find_macro_free(code: &str, needle: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let at = from + pos;
        let ok = at == 0 || {
            let prev = bytes[at - 1] as char;
            !(prev.is_ascii_alphanumeric() || prev == '_')
        };
        if ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// Find `==`/`!=` comparisons with a float-literal operand.
fn float_eq_matches(code: &str) -> Vec<(usize, String)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &code[i..i + 2];
        if two == "==" || two == "!=" {
            // Skip `<=`, `>=`, `===`-like runs and pattern arms `=>`.
            let prev = if i > 0 { bytes[i - 1] as char } else { ' ' };
            let next = if i + 2 < bytes.len() { bytes[i + 2] as char } else { ' ' };
            if prev == '<' || prev == '>' || prev == '=' || prev == '!' || next == '=' {
                i += 1;
                continue;
            }
            let left = last_token(&code[..i]);
            let right = first_token(&code[i + 2..]);
            if is_float_literal(&left) || is_float_literal(&right) {
                out.push((
                    i,
                    format!(
                        "float `{two}` against a literal ({}) — compare with a tolerance",
                        if is_float_literal(&left) { left } else { right }
                    ),
                ));
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

fn token_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '+')
}

fn last_token(before: &str) -> String {
    before
        .trim_end()
        .chars()
        .rev()
        .take_while(|&c| token_char(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect()
}

fn first_token(after: &str) -> String {
    after.trim_start().chars().take_while(|&c| token_char(c)).collect()
}

/// Is `tok` a floating-point literal (`0.0`, `1e-3`, `2.5f64`, …)?
fn is_float_literal(tok: &str) -> bool {
    let t = tok.trim_start_matches(['-', '+']);
    let t = t.strip_suffix("f64").or_else(|| t.strip_suffix("f32")).unwrap_or(t);
    let Some(first) = t.chars().next() else { return false };
    if !first.is_ascii_digit() {
        return false;
    }
    (t.contains('.') || t.contains(['e', 'E']))
        && t.chars().all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+' | '_'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<String> {
        lint_source(path, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let diags = lint_source("crates/core/src/a.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[0].rule, NO_PANIC);
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(id); z.expect_err(\"e\"); }\n";
        assert!(rules_hit("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn float_eq_literal_comparisons() {
        let src = "fn f() { if a == 0.0 { } if 1e-3 != b { } if n == 3 { } if c <= 0.0 { } }\n";
        let diags = lint_source("crates/core/src/a.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == FLOAT_EQ));
    }

    #[test]
    fn inline_allow_waives_a_rule() {
        let src = "// lint: allow(float-eq) — exact zero check\nfn f() { if a == 0.0 { } }\n";
        assert!(rules_hit("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn experiments_are_allowlisted_for_panics() {
        let src = "fn f() { x.unwrap(); if a == 0.5 { } thread_rng(); }\n";
        let hits = rules_hit("crates/experiments/src/a.rs", src);
        assert_eq!(hits, vec![UNSEEDED_RNG.to_string()]);
    }

    #[test]
    fn wall_clock_scoped_to_simulator() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(rules_hit("crates/scope-sim/src/a.rs", src), vec![WALL_CLOCK.to_string()]);
        assert!(rules_hit("crates/serve/src/a.rs", src).is_empty());
        // The observability crate is covered too, except its clock module
        // — the one sanctioned wall-clock read site.
        assert_eq!(rules_hit("crates/obs/src/span.rs", src), vec![WALL_CLOCK.to_string()]);
        assert!(rules_hit("crates/obs/src/clock.rs", src).is_empty());
        // The resilience crate is tick-driven end to end: breaker cooldowns
        // and chaos plans count events, never read the wall clock.
        assert_eq!(rules_hit("crates/resil/src/breaker.rs", src), vec![WALL_CLOCK.to_string()]);
    }

    #[test]
    fn unbounded_channels_in_concurrent_crates() {
        let src = "fn f() { let (tx, rx) = mpsc::channel(); }\n";
        assert_eq!(
            rules_hit("crates/serve/src/a.rs", src),
            vec![UNBOUNDED_CHANNEL.to_string()]
        );
        let bounded = "fn f() { let (tx, rx) = mpsc::sync_channel(8); }\n";
        assert!(rules_hit("crates/serve/src/a.rs", bounded).is_empty());
        // The parallel runtime is a concurrent crate too: it hands work
        // out through one atomic cursor, and any channel must be bounded.
        assert_eq!(
            rules_hit("crates/par/src/a.rs", src),
            vec![UNBOUNDED_CHANNEL.to_string()]
        );
        // The observability collector is bounded by design; its sources
        // must not introduce unbounded channels either.
        assert_eq!(
            rules_hit("crates/obs/src/a.rs", src),
            vec![UNBOUNDED_CHANNEL.to_string()]
        );
        // The resilience crate sits on the serving hot path; any queues it
        // introduces must be bounded like the rest of the concurrent tree.
        assert_eq!(
            rules_hit("crates/resil/src/a.rs", src),
            vec![UNBOUNDED_CHANNEL.to_string()]
        );
        // The network event loop must never buffer unboundedly between
        // the socket and the admission queue.
        assert_eq!(
            rules_hit("crates/net/src/a.rs", src),
            vec![UNBOUNDED_CHANNEL.to_string()]
        );
        assert!(rules_hit("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { let s = \"panic! == 0.0 unwrap()\"; /* x.unwrap() */ }\n";
        assert!(rules_hit("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn vendor_and_test_trees_exempt() {
        let src = "fn f() { x.unwrap(); }\n";
        assert!(rules_hit("vendor/rand/src/lib.rs", src).is_empty());
        assert!(rules_hit("crates/core/tests/it.rs", src).is_empty());
    }
}
