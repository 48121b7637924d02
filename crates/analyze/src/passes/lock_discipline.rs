//! Lock-discipline audit: no mutex/rwlock guard may be held across a
//! blocking operation.
//!
//! A guard held across `recv`, `epoll_wait`, `accept4`, `park`, or a
//! thread `join` turns one slow producer into a fleet-wide stall — every
//! other thread that wants the lock queues behind a sleeper. The serving
//! stack's shards and the trainer's registry are exactly the places this
//! bites.
//!
//! The analysis tracks the **held set** as a forward dataflow fact: a map
//! from guard binding to its acquisition site. Guards enter the set at
//! `let g = m.lock().unwrap()` bindings (and `if let Ok(g) = m.lock()`
//! pattern binds), and leave it at the [`NodeKind::ScopeEnd`] where the
//! binding drops, at an explicit `drop(g)`, or at a rebind. A post-pass
//! flags every node that evaluates a blocking operation while the
//! entering held set is non-empty, plus the same-expression case where a
//! *temporary* guard is blocked on directly
//! (`shared.lock().unwrap().recv()`).
//!
//! A condvar wait is the one blocking call made *with* a guard on
//! purpose: `Condvar::wait(guard)` (and `wait_while`, `wait_timeout`,
//! `wait_timeout_while`) takes the guard by value and releases the lock
//! while blocked. The guard passed in is therefore not held across the
//! wait; any other guard still is. The guard the wait hands back is
//! tracked like one from `lock()`.

use crate::cfg::{Cfg, Edge, EdgeKind, NodeKind};
use crate::dataflow::{solve, Analysis};
use crate::parser::{Expr, Span};
use crate::passes::Finding;
use crate::Severity;
use std::collections::BTreeMap;

/// Rule id reported by this pass.
pub const RULE: &str = "lock-discipline";

/// Guard-producing zero-argument methods.
const GUARD_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Result-peeling wrappers between the lock call and the binding.
const UNWRAPS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// Methods that block the calling thread.
const BLOCKING_METHODS: [&str; 8] = [
    "recv",
    "recv_timeout",
    "recv_deadline",
    "park_timeout",
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
];

/// `Condvar` waits: given a guard as first argument, they release it
/// while blocked and return it re-acquired.
const CONDVAR_WAITS: [&str; 4] = ["wait", "wait_while", "wait_timeout", "wait_timeout_while"];

/// Free-function call-path suffixes that block.
const BLOCKING_CALLS: [[&str; 2]; 8] = [
    ["thread", "park"],
    ["thread", "park_timeout"],
    ["thread", "sleep"],
    ["sys", "read"],
    ["sys", "write"],
    ["sys", "writev"],
    ["sys", "epoll_wait"],
    ["sys", "accept4"],
];

/// Pattern constructors that receive a lock result's success payload.
const OK_CTORS: [&str; 2] = ["Ok", "Some"];

type Fact = BTreeMap<String, (usize, usize)>;

fn peel_unwraps(e: &Expr) -> &Expr {
    match e {
        Expr::Try { inner, .. } => peel_unwraps(inner),
        Expr::MethodCall { recv, method, .. } if UNWRAPS.contains(&method.as_str()) => {
            peel_unwraps(recv)
        }
        _ => e,
    }
}

/// Does this initializer produce a lock guard?
fn acquires_guard(e: &Expr) -> bool {
    matches!(peel_unwraps(e), Expr::MethodCall { method, args, .. }
        if (GUARD_METHODS.contains(&method.as_str()) && args.is_empty())
            || (CONDVAR_WAITS.contains(&method.as_str()) && !args.is_empty()))
}

/// The guard a condvar wait releases while blocked: the binding its
/// first argument names, if the call is one of [`CONDVAR_WAITS`].
fn released_guard<'e>(method: &str, args: &'e [Expr]) -> Option<&'e str> {
    if !CONDVAR_WAITS.contains(&method) {
        return None;
    }
    match args.first() {
        Some(Expr::Path { segs, .. }) if segs.len() == 1 => Some(&segs[0]),
        _ => None,
    }
}

/// A blocking operation: where, what, and the guard it releases while
/// blocked (a condvar wait's argument).
struct Blocking {
    span: Span,
    desc: String,
    releases: Option<String>,
}

/// The blocking operation inside `e`, if any. Closure bodies are skipped
/// — they block *their* caller, not this function.
fn blocking_op(e: &Expr) -> Option<Blocking> {
    let mut found = None;
    e.walk_pruned(&mut |x| {
        if found.is_some() || matches!(x, Expr::Closure { .. }) {
            return false;
        }
        match x {
            Expr::MethodCall { method, args, span, .. }
                if BLOCKING_METHODS.contains(&method.as_str())
                    || (method == "join" && args.is_empty()) =>
            {
                found = Some(Blocking {
                    span: *span,
                    desc: format!(".{method}()"),
                    releases: released_guard(method, args).map(str::to_string),
                });
            }
            Expr::Call { callee, span, .. } => {
                if let Expr::Path { segs, .. } = &**callee {
                    let n = segs.len();
                    for suffix in BLOCKING_CALLS {
                        if n >= 2 && segs[n - 2] == suffix[0] && segs[n - 1] == suffix[1] {
                            let desc = segs.join("::");
                            found = Some(Blocking { span: *span, desc, releases: None });
                        }
                    }
                }
            }
            _ => {}
        }
        true
    });
    found
}

/// A blocking method invoked directly on a just-acquired temporary guard
/// (`shared.lock().unwrap().recv()`): the guard lives until the end of
/// the whole statement, so the receive happens under the lock.
fn blocked_temporary(e: &Expr) -> Option<(Span, String)> {
    let mut found = None;
    e.walk_pruned(&mut |x| {
        if found.is_some() || matches!(x, Expr::Closure { .. }) {
            return false;
        }
        if let Expr::MethodCall { recv, method, span, .. } = x {
            let blocking = BLOCKING_METHODS.contains(&method.as_str());
            let mut guarded = false;
            recv.walk(&mut |r| {
                if let Expr::MethodCall { method: m, args, .. } = r {
                    if GUARD_METHODS.contains(&m.as_str()) && args.is_empty() {
                        guarded = true;
                    }
                }
            });
            if blocking && guarded {
                found = Some((*span, format!(".{method}()")));
            }
        }
        true
    });
    found
}

/// `drop(g)` releases of tracked guards inside `e`.
fn drops_of(e: &Expr, fact: &Fact, out: &mut Vec<String>) {
    e.walk_pruned(&mut |x| {
        if matches!(x, Expr::Closure { .. }) {
            return false;
        }
        if let Expr::Call { callee, args, .. } = x {
            if matches!(&**callee, Expr::Path { segs, .. }
                if segs.len() == 1 && segs[0] == "drop")
            {
                if let Some(Expr::Path { segs, .. }) = args.first() {
                    if segs.len() == 1 && fact.contains_key(&segs[0]) {
                        out.push(segs[0].clone());
                    }
                }
            }
        }
        true
    });
}

/// The guard a [`NodeKind::Bind`] acquires, looking through the pred
/// `Branch` scrutinee for `if let Ok(g) = m.lock()` pattern binds.
fn bind_guard(cfg: &Cfg, node: usize) -> bool {
    let NodeKind::Bind { vars, init, ctor } = &cfg.nodes[node].kind else { return false };
    if vars.len() != 1 {
        return false;
    }
    if let Some(e) = init {
        return acquires_guard(e);
    }
    if !matches!(ctor.as_deref(), Some(c) if OK_CTORS.contains(&c)) {
        return false;
    }
    cfg.preds(node).any(|p| {
        matches!(&cfg.nodes[p.from].kind, NodeKind::Branch { cond: Some(c) }
            if acquires_guard(c))
    })
}

struct Held;

impl Analysis for Held {
    type Fact = Fact;

    fn boundary(&self, _cfg: &Cfg) -> Fact {
        Fact::new()
    }

    fn transfer(&self, cfg: &Cfg, node: usize, edge: &Edge, fact: &Fact) -> Fact {
        let mut out = fact.clone();
        let n = &cfg.nodes[node];
        match &n.kind {
            NodeKind::Bind { vars, init, .. } => {
                if let Some(e) = init {
                    let mut dropped = Vec::new();
                    drops_of(e, &out, &mut dropped);
                    for d in dropped {
                        out.remove(&d);
                    }
                }
                for v in vars {
                    out.remove(v);
                }
                if edge.kind != EdgeKind::Err
                    && edge.kind != EdgeKind::Panic
                    && bind_guard(cfg, node)
                {
                    out.insert(vars[0].clone(), (n.span.line, n.span.col));
                }
            }
            NodeKind::Eval(e) | NodeKind::Ret(e) | NodeKind::Branch { cond: Some(e) } => {
                let mut dropped = Vec::new();
                drops_of(e, &out, &mut dropped);
                for d in dropped {
                    out.remove(&d);
                }
            }
            NodeKind::ScopeEnd(vars) => {
                for v in vars {
                    out.remove(v);
                }
            }
            _ => {}
        }
        out
    }

    fn join(&self, a: &Fact, b: &Fact) -> Fact {
        let mut out = a.clone();
        for (k, v) in b {
            out.entry(k.clone()).or_insert(*v);
        }
        out
    }
}

/// Run the pass over one function CFG.
pub fn run(cfg: &Cfg) -> Vec<Finding> {
    let facts = solve(&Held, cfg);
    let mut out = Vec::new();
    for (id, n) in cfg.nodes.iter().enumerate() {
        let Some(fact) = &facts[id] else { continue };
        let expr = match &n.kind {
            NodeKind::Bind { init: Some(e), .. }
            | NodeKind::Eval(e)
            | NodeKind::Ret(e)
            | NodeKind::Branch { cond: Some(e) } => e,
            _ => continue,
        };
        // A guard acquired *by this very node* is not yet held while its
        // initializer runs, and the lock() call itself is not blocking.
        if let Some(Blocking { span, desc, releases }) = blocking_op(expr) {
            for (g, (line, col)) in fact {
                if releases.as_deref() == Some(g.as_str()) {
                    continue;
                }
                out.push(Finding {
                    rule: RULE,
                    severity: Severity::Deny,
                    line: span.line,
                    col: span.col,
                    message: format!(
                        "guard `{g}` (acquired at {line}:{col}) is held across blocking \
                         `{desc}` in `{}`",
                        cfg.name
                    ),
                });
            }
        }
        if let Some((span, desc)) = blocked_temporary(expr) {
            out.push(Finding {
                rule: RULE,
                severity: Severity::Deny,
                line: span.line,
                col: span.col,
                message: format!(
                    "temporary lock guard is held across blocking `{desc}` in `{}`; bind \
                     the guard and drop it before blocking",
                    cfg.name
                ),
            });
        }
    }
    out.sort_by_key(|f| (f.line, f.col));
    out.dedup_by(|a, b| a.line == b.line && a.col == b.col && a.message == b.message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build;
    use crate::lexer::scan;
    use crate::parser::parse_file;

    fn findings(src: &str) -> Vec<Finding> {
        let parsed = parse_file(&scan(src));
        assert!(parsed.unparsed.is_empty(), "{:?}", parsed.unparsed);
        run(&build(&parsed.functions[0]))
    }

    #[test]
    fn guard_across_recv_flagged() {
        let src = "fn f(m: &M, rx: &R) {\n    let g = m.lock().unwrap();\n    let job = rx.recv().unwrap();\n    g.push(job);\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`g`"), "{}", f[0].message);
        assert!(f[0].message.contains("recv"), "{}", f[0].message);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn drop_before_blocking_is_clean() {
        let src = "fn f(m: &M, rx: &R) {\n    let g = m.lock().unwrap();\n    let n = g.len();\n    drop(g);\n    let job = rx.recv().unwrap();\n    use_it(n, job);\n}\n";
        let f = findings(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scope_end_releases_guard() {
        let src = "fn f(m: &M, rx: &R) {\n    {\n        let g = m.lock().unwrap();\n        g.touch();\n    }\n    let job = rx.recv().unwrap();\n    use_it(job);\n}\n";
        let f = findings(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_across_epoll_wait_flagged() {
        let src = "fn f(m: &M, ep: i32) {\n    let g = m.write().unwrap();\n    let n = sys::epoll_wait(ep, evs, -1);\n    g.note(n);\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("sys::epoll_wait"), "{}", f[0].message);
    }

    #[test]
    fn guard_across_writev_flagged() {
        let src = "fn f(m: &M, fd: i32, iovs: &V) {\n    let g = m.lock().unwrap();\n    let n = sys::writev(fd, iovs);\n    g.note(n);\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("sys::writev"), "{}", f[0].message);
    }

    #[test]
    fn if_let_guard_across_park_flagged() {
        let src = "fn f(m: &M) {\n    if let Ok(g) = m.lock() {\n        thread::park();\n        g.touch();\n    }\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("thread::park"), "{}", f[0].message);
    }

    #[test]
    fn temporary_guard_recv_flagged() {
        let src = "fn f(s: &S) {\n    let job = s.q.lock().unwrap().recv().unwrap();\n    use_it(job);\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("temporary"), "{}", f[0].message);
    }

    #[test]
    fn blocking_inside_closure_not_charged_to_parent() {
        let src = "fn f(m: &M) {\n    let g = m.lock().unwrap();\n    let h = spawn(move || rx.recv().unwrap());\n    g.track(h);\n}\n";
        let f = findings(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn condvar_wait_releases_the_guard_it_is_given() {
        let src = "fn f(m: &M, cv: &C) {\n    let mut g = m.lock().unwrap();\n    while g.is_empty() {\n        g = cv.wait(g).unwrap();\n    }\n    let h = cv.wait_while(g, |q| q.is_empty()).unwrap();\n    h.pop();\n}\n";
        let f = findings(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn other_guard_across_condvar_wait_flagged() {
        let src = "fn f(a: &M, b: &M, cv: &C) {\n    let held = a.lock().unwrap();\n    let mut g = b.lock().unwrap();\n    g = cv.wait(g).unwrap();\n    held.note(g.len());\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`held`"), "{}", f[0].message);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn guard_reacquired_by_a_wait_stays_tracked() {
        let src = "fn f(m: &M, cv: &C, rx: &R) {\n    let g = m.lock().unwrap();\n    let g = cv.wait(g).unwrap();\n    let job = rx.recv().unwrap();\n    g.push(job);\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("recv"), "{}", f[0].message);
    }

    #[test]
    fn read_guard_across_join_flagged() {
        let src = "fn f(m: &M, h: H) {\n    let g = m.read().unwrap();\n    h.join().unwrap();\n    g.done();\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(".join()"), "{}", f[0].message);
    }
}
