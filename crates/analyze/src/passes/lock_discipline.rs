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
//!
//! The same held sets give the **lock order**: a lock taken while others
//! are held (or after an earlier temporary guard in the same statement)
//! gets a [`LockEdge`] from each of them. Unlike blocking calls,
//! acquisitions inside closures count, since an `and_then` callback runs
//! under the guard. Locks are named by receiver text (`self.active`), so
//! same-named locks conflate: stricter, never blinder. `run_check` joins
//! every file's edges and reports a [`find_cycle`] hit (a potential ABBA
//! deadlock) as an [`ORDER_RULE`] deny.

use crate::cfg::{label, Cfg, Edge, EdgeKind, NodeKind};
use crate::dataflow::{solve, Analysis};
use crate::parser::{Expr, Span};
use crate::passes::Finding;
use crate::Severity;
use std::collections::{BTreeMap, BTreeSet};

/// Rule id reported by this pass.
pub const RULE: &str = "lock-discipline";

/// Rule id for a cycle in the lock-order graph.
pub const ORDER_RULE: &str = "lock-order";

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

/// Guard binding → where it was acquired and the lock it holds.
type Fact = BTreeMap<String, (Span, String)>;

/// One "acquired `to` while holding `from`" edge of the lock-order graph.
#[derive(Debug)]
pub struct LockEdge {
    /// The lock already held.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// Workspace-relative path of the acquisition of `to`.
    pub path: String,
    /// Where in `path` `to` is acquired.
    pub at: Span,
}

fn peel_unwraps(e: &Expr) -> &Expr {
    match e {
        Expr::Try { inner, .. } => peel_unwraps(inner),
        Expr::MethodCall { recv, method, .. } if UNWRAPS.contains(&method.as_str()) => {
            peel_unwraps(recv)
        }
        _ => e,
    }
}

/// The lock a guard-producing `lock()`/`read()`/`write()` call takes,
/// named by its receiver's text (`self.state.jobs`).
fn guard_call(e: &Expr) -> Option<(String, Span)> {
    match e {
        Expr::MethodCall { recv, method, args, span }
            if GUARD_METHODS.contains(&method.as_str()) && args.is_empty() =>
        {
            Some((label(recv), *span))
        }
        _ => None,
    }
}

/// If this initializer produces a lock guard, the lock it holds: a
/// `lock()` call's receiver, or for a condvar wait the lock of the guard
/// it was given (named by the argument when that guard is untracked).
fn acquires_guard(e: &Expr, fact: &Fact) -> Option<String> {
    let e = peel_unwraps(e);
    if let Some((lock, _)) = guard_call(e) {
        return Some(lock);
    }
    let Expr::MethodCall { method, args, .. } = e else { return None };
    let given = args.first().filter(|_| CONDVAR_WAITS.contains(&method.as_str()))?;
    let held = released_guard(method, args).and_then(|g| fact.get(g));
    Some(held.map_or_else(|| label(given), |(_, lock)| lock.clone()))
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
fn bind_guard(cfg: &Cfg, node: usize, fact: &Fact) -> Option<String> {
    let NodeKind::Bind { vars, init, ctor } = &cfg.nodes[node].kind else { return None };
    if vars.len() != 1 {
        return None;
    }
    if let Some(e) = init {
        return acquires_guard(e, fact);
    }
    if !matches!(ctor.as_deref(), Some(c) if OK_CTORS.contains(&c)) {
        return None;
    }
    cfg.preds(node).find_map(|p| match &cfg.nodes[p.from].kind {
        NodeKind::Branch { cond: Some(c) } => acquires_guard(c, fact),
        _ => None,
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
                let acquired = (edge.kind != EdgeKind::Err && edge.kind != EdgeKind::Panic)
                    .then(|| bind_guard(cfg, node, fact))
                    .flatten();
                for v in vars {
                    out.remove(v);
                }
                if let Some(lock) = acquired {
                    out.insert(vars[0].clone(), (n.span, lock));
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
            out.entry(k.clone()).or_insert_with(|| v.clone());
        }
        out
    }
}

/// Run the pass over one function CFG from the file at `path`: its
/// findings, and its lock-order edges.
pub fn run(cfg: &Cfg, path: &str) -> (Vec<Finding>, Vec<LockEdge>) {
    let facts = solve(&Held, cfg);
    let mut out = Vec::new();
    let mut edges = Vec::new();
    for (id, n) in cfg.nodes.iter().enumerate() {
        let Some(fact) = &facts[id] else { continue };
        let expr = match &n.kind {
            NodeKind::Bind { init: Some(e), .. }
            | NodeKind::Eval(e)
            | NodeKind::Ret(e)
            | NodeKind::Branch { cond: Some(e) } => e,
            _ => continue,
        };
        // Each lock the node takes (walked in evaluation order, closures
        // included) is taken under the held guards and the node's earlier
        // temporaries.
        let mut taken: Vec<String> = fact.values().map(|(_, lock)| lock.clone()).collect();
        expr.walk(&mut |x| {
            if let Some((to, at)) = guard_call(x) {
                for from in taken.iter().filter(|from| **from != to) {
                    let (from, to, path) = (from.clone(), to.clone(), path.to_string());
                    edges.push(LockEdge { from, to, path, at });
                }
                taken.push(to);
            }
        });
        // A guard acquired *by this very node* is not yet held while its
        // initializer runs, and the lock() call itself is not blocking.
        if let Some(Blocking { span, desc, releases }) = blocking_op(expr) {
            for (g, (at, _)) in fact {
                if releases.as_deref() == Some(g.as_str()) {
                    continue;
                }
                out.push(Finding {
                    rule: RULE,
                    severity: Severity::Deny,
                    line: span.line,
                    col: span.col,
                    message: format!(
                        "guard `{g}` (acquired at {at}) is held across blocking `{desc}` in `{}`",
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
    (out, edges)
}

/// A cycle in the lock-order graph: the lock names along it (the first
/// repeated at the end), and the edge on it to report.
pub fn find_cycle(edges: &[LockEdge]) -> Option<(Vec<String>, &LockEdge)> {
    for start in edges {
        // Depth-first from the edge's target, for a path back to its source.
        let mut stack = vec![vec![start.from.as_str(), start.to.as_str()]];
        let mut seen = BTreeSet::new();
        while let Some(path) = stack.pop() {
            let last = path[path.len() - 1];
            if last == path[0] {
                return Some((path.iter().map(|s| s.to_string()).collect(), start));
            }
            if seen.insert(last) {
                for e in edges.iter().filter(|e| e.from == last) {
                    stack.push([&path[..], &[e.to.as_str()]].concat());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build, build_all};
    use crate::lexer::scan;
    use crate::parser::parse_file;

    fn findings(src: &str) -> Vec<Finding> {
        let parsed = parse_file(&scan(src));
        assert!(parsed.unparsed.is_empty(), "{:?}", parsed.unparsed);
        run(&build(&parsed.functions[0]), "x.rs").0
    }

    /// Lock-order edges of every function (and closure) in `src`.
    fn edges(src: &str) -> Vec<LockEdge> {
        let parsed = parse_file(&scan(src));
        assert!(parsed.unparsed.is_empty(), "{:?}", parsed.unparsed);
        parsed.functions.iter().flat_map(build_all).flat_map(|cfg| run(&cfg, "x.rs").1).collect()
    }

    fn pairs(src: &str) -> Vec<(String, String)> {
        edges(src).into_iter().map(|e| (e.from, e.to)).collect()
    }

    #[test]
    fn nested_acquisition_produces_an_edge() {
        let src =
            "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n";
        let e = edges(src);
        assert_eq!((e.len(), e[0].from.as_str(), e[0].to.as_str()), (1, "self.alpha", "self.beta"));
        assert_eq!((e[0].at.line, e[0].at.col), (3, 23));
        assert!(find_cycle(&e).is_none());
    }

    #[test]
    fn scope_end_releases_guards() {
        let src = "fn f(&self) {\n    {\n        let a = self.alpha.lock();\n    }\n    let b = self.beta.lock();\n}\n";
        assert!(edges(src).is_empty());
    }

    #[test]
    fn explicit_drop_releases_guards() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    drop(a);\n    let b = self.beta.lock();\n}\n";
        assert!(edges(src).is_empty());
    }

    #[test]
    fn abba_order_is_a_cycle() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\nfn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n";
        let e = edges(src);
        let (cycle, _) = find_cycle(&e).expect("ABBA must be reported");
        assert!(cycle.len() >= 3 && cycle.first() == cycle.last(), "{cycle:?}");
    }

    #[test]
    fn expression_temporaries_do_not_outlive_their_statement() {
        let src =
            "fn f(&self) {\n    self.alpha.lock().push(1);\n    let b = self.beta.lock();\n}\n";
        assert!(edges(src).is_empty());
    }

    #[test]
    fn two_locks_in_one_statement_are_ordered() {
        let src = "fn f(&self) {\n    use_both(self.alpha.lock(), self.beta.lock());\n}\n";
        assert_eq!(pairs(src), [("self.alpha".into(), "self.beta".into())]);
    }

    /// The model registry's hot swap: the manifest is locked inside an
    /// `and_then` callback run while the active model's write guard is held.
    #[test]
    fn closure_under_a_guard_orders_its_lock_after_the_guard() {
        let src = "fn swap(&self, manifest: &M) -> R {\n    let mut active = self.active.write();\n    let appended = encode(x).and_then(|p| manifest.lock().append(&p).map(|_| ()));\n    *active = next;\n    appended\n}\n";
        assert_eq!(pairs(src), [("self.active".into(), "manifest".into())]);
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
