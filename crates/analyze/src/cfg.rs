//! Control-flow graphs over the [`crate::parser`] ASTs.
//!
//! Each function lowers to a graph of small nodes — bindings, effectful
//! expression evaluations, branches, scope ends — joined by edges that
//! record *how* control moves: straight-line `Seq`, a `Branch` decision,
//! the implicit `Err` early return a `?` performs, a `Panic` unwind from
//! `unwrap`/`expect`/panicking macros, and loop `Back` edges. `?` and
//! panic edges are what let the dataflow pass reason about error and
//! unwind paths, which a happy-path reading of the source never sees.
//!
//! Scope structure is made explicit: every block contributes a
//! [`NodeKind::ScopeEnd`] listing the bindings that die when the block
//! exits, and early exits (`return`/`break`/`continue`) synthesize a
//! `ScopeEnd` covering every scope they unwind. Lock guards release at
//! exactly these nodes.
//!
//! Closures are *not* inlined: inside their enclosing function they stay
//! opaque leaves (their `?`/panics do not unwind the encloser), and
//! [`build_all`] additionally lowers each closure body as its own
//! pseudo-function named `parent::{closure@line}`.

use crate::parser::{walk_stmt, Block, Expr, Function, Span, Stmt};

/// Index of a node within its [`Cfg`].
pub type NodeId = usize;

/// What a CFG node does.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// Function entry.
    Entry,
    /// The single function exit (normal, `?`, and panic paths all land
    /// here).
    Exit,
    /// A no-op confluence point (block entry, branch join, loop head).
    Join,
    /// Evaluate `init` (when present) and bind `vars`. With `init`
    /// absent the values come from a preceding branch scrutinee
    /// (`if let` / `let … else` / `match`-style flows).
    Bind {
        /// Names bound here.
        vars: Vec<String>,
        /// Initializer evaluated in this node.
        init: Option<Expr>,
        /// Pattern constructor the binding destructured through
        /// (`Ok`/`Some`/`Err`/…), when the pattern had one. Lets passes
        /// bind success-arm payloads without claiming `Err(e)` received
        /// the acquired guard.
        ctor: Option<String>,
    },
    /// Evaluate an expression for its effects.
    Eval(Expr),
    /// Evaluate an expression whose value escapes to the caller — a
    /// `return`/`break` value or a tail expression in value position.
    /// Values referenced here leave the function.
    Ret(Expr),
    /// A control-flow decision. `cond` is absent for `loop`/`for` heads.
    Branch {
        /// The condition or scrutinee evaluated at this node.
        cond: Option<Expr>,
    },
    /// The listed bindings go out of scope (guards drop here).
    ScopeEnd(Vec<String>),
}

/// How control reaches the target node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Straight-line flow.
    Seq,
    /// One outcome of a [`NodeKind::Branch`].
    Branch,
    /// The early `return Err(…)` a `?` performs; always targets exit.
    Err,
    /// Unwind from `unwrap`/`expect`/panicking macros; targets exit.
    Panic,
    /// Loop back edge.
    Back,
}

impl EdgeKind {
    /// Short lowercase name used in renders.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Seq => "seq",
            EdgeKind::Branch => "branch",
            EdgeKind::Err => "err",
            EdgeKind::Panic => "panic",
            EdgeKind::Back => "back",
        }
    }
}

/// One CFG node.
#[derive(Debug, Clone)]
pub struct Node {
    /// What the node does.
    pub kind: NodeKind,
    /// Source position the node reports diagnostics at.
    pub span: Span,
}

/// One CFG edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Flow kind.
    pub kind: EdgeKind,
}

/// A function's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Function name (closures: `parent::{closure@line}`).
    pub name: String,
    /// Span of the `fn` keyword (or closure opening pipe).
    pub span: Span,
    /// Whether the function sits in a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Parameter bindings (live from entry).
    pub params: Vec<String>,
    /// Nodes; `entry` and `exit` index into this.
    pub nodes: Vec<Node>,
    /// Edges.
    pub edges: Vec<Edge>,
    /// Entry node id (always 0).
    pub entry: NodeId,
    /// Exit node id (always 1).
    pub exit: NodeId,
}

impl Cfg {
    /// Outgoing edges of `n`.
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.from == n)
    }

    /// Incoming edges of `n`.
    pub fn preds(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.to == n)
    }

    /// A stable text rendering for golden tests and debugging: one line
    /// per node (`n3 bind fd = sys::accept4(listener)? @12:9`) followed
    /// by one line per edge (`n3 -seq-> n4`).
    pub fn render(&self) -> String {
        let mut out = format!("fn {}\n", self.name);
        for (i, n) in self.nodes.iter().enumerate() {
            let kind = match &n.kind {
                NodeKind::Entry => "entry".to_string(),
                NodeKind::Exit => "exit".to_string(),
                NodeKind::Join => "join".to_string(),
                NodeKind::Bind { vars, init, .. } => match init {
                    Some(e) => format!("bind {} = {}", vars.join(","), label(e)),
                    None => format!("bind {}", vars.join(",")),
                },
                NodeKind::Eval(e) => format!("eval {}", label(e)),
                NodeKind::Ret(e) => format!("ret {}", label(e)),
                NodeKind::Branch { cond } => match cond {
                    Some(e) => format!("branch {}", label(e)),
                    None => "branch".to_string(),
                },
                NodeKind::ScopeEnd(vars) => format!("scope-end {}", vars.join(",")),
            };
            out.push_str(&format!("n{i} {kind}\n"));
        }
        for e in &self.edges {
            out.push_str(&format!("n{} -{}-> n{}\n", e.from, e.kind.name(), e.to));
        }
        out
    }
}

/// A compact pseudo-source label for an expression (diagnostics and
/// renders; lossy on purpose).
pub fn label(e: &Expr) -> String {
    match e {
        Expr::Path { segs, .. } => segs.join("::"),
        Expr::Lit { .. } => "_".to_string(),
        Expr::Call { callee, args, .. } => {
            let a: Vec<String> = args.iter().map(label).collect();
            format!("{}({})", label(callee), a.join(", "))
        }
        Expr::MethodCall { recv, method, args, .. } => {
            let a: Vec<String> = args.iter().map(label).collect();
            format!("{}.{}({})", label(recv), method, a.join(", "))
        }
        Expr::Field { recv, name, .. } => format!("{}.{}", label(recv), name),
        Expr::Index { recv, .. } => format!("{}[..]", label(recv)),
        Expr::Unary { inner, .. } => label(inner),
        Expr::Binary { lhs, rhs, op, .. } => match rhs {
            Some(r) => format!("{} {} {}", label(lhs), op, label(r)),
            None => format!("{} {}", label(lhs), op),
        },
        Expr::Assign { lhs, rhs, .. } => format!("{} = {}", label(lhs), label(rhs)),
        Expr::Cast { inner, .. } => format!("{} as _", label(inner)),
        Expr::Try { inner, .. } => format!("{}?", label(inner)),
        Expr::BlockExpr(_) => "{..}".to_string(),
        Expr::If { .. } => "if(..)".to_string(),
        Expr::Match { scrut, .. } => format!("match {}", label(scrut)),
        Expr::Loop { .. } | Expr::While { .. } | Expr::For { .. } => "loop(..)".to_string(),
        Expr::Return { value, .. } => match value {
            Some(v) => format!("return {}", label(v)),
            None => "return".to_string(),
        },
        Expr::Break { .. } => "break".to_string(),
        Expr::Continue { .. } => "continue".to_string(),
        Expr::Closure { .. } => "|..| {..}".to_string(),
        Expr::MacroCall { name, .. } => format!("{name}!(..)"),
        Expr::StructLit { path, .. } => format!("{} {{..}}", path.join("::")),
        Expr::Tuple { items, .. } => {
            let a: Vec<String> = items.iter().map(label).collect();
            format!("({})", a.join(", "))
        }
        Expr::Array { .. } => "[..]".to_string(),
    }
}

/// Does evaluating this expression (not descending into closures)
/// involve a `?`?
fn has_try(e: &Expr) -> bool {
    let mut found = false;
    e.walk_pruned(&mut |x| {
        if matches!(x, Expr::Closure { .. }) {
            return false;
        }
        if matches!(x, Expr::Try { .. }) {
            found = true;
        }
        true
    });
    found
}

/// Macro names that unwind.
const PANIC_MACROS: [&str; 10] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Does evaluating this expression (not descending into closures) hit a
/// potential panic site (`unwrap`/`expect`/panicking macro)?
fn has_panic(e: &Expr) -> bool {
    let mut found = false;
    e.walk_pruned(&mut |x| {
        if matches!(x, Expr::Closure { .. }) {
            return false;
        }
        match x {
            Expr::MethodCall { method, .. } if method == "unwrap" || method == "expect" => {
                found = true;
            }
            Expr::MacroCall { name, .. } if PANIC_MACROS.contains(&name.as_str()) => {
                found = true;
            }
            _ => {}
        }
        true
    });
    found
}

struct LoopCtx {
    label: Option<String>,
    head: NodeId,
    /// `scopes.len()` when the loop was entered; break/continue unwind
    /// every scope above this.
    scope_depth: usize,
    /// `ScopeEnd` nodes awaiting an edge to the loop's after-node.
    breaks: Vec<NodeId>,
}

/// A pending `Bind` for a block's head: `(vars, initializer, span,
/// pattern constructor)`.
type BindSpec = (Vec<String>, Option<Expr>, Span, Option<String>);

struct Builder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    exit: NodeId,
    scopes: Vec<Vec<String>>,
    loops: Vec<LoopCtx>,
}

impl Builder {
    fn node(&mut self, kind: NodeKind, span: Span) -> NodeId {
        self.nodes.push(Node { kind, span });
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        self.edges.push(Edge { from, to, kind });
    }

    /// Attach `?`-error and panic edges for the expression evaluated at
    /// `n`.
    fn effects(&mut self, n: NodeId, e: &Expr) {
        if has_try(e) {
            self.edge(n, self.exit, EdgeKind::Err);
        }
        if has_panic(e) {
            self.edge(n, self.exit, EdgeKind::Panic);
        }
    }

    fn register(&mut self, vars: &[String]) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.extend(vars.iter().cloned());
        }
    }

    fn flatten_scopes(&self, from: usize) -> Vec<String> {
        self.scopes[from..].iter().flatten().cloned().collect()
    }

    /// Lower a block. The block's first node (a `Bind` when `bind` is
    /// given, else a `Join`) is connected from `pred` via `first_edge`.
    /// `value` marks the block's tail expression as escaping to the
    /// caller.
    fn block(
        &mut self,
        b: &Block,
        pred: NodeId,
        first_edge: EdgeKind,
        bind: Option<BindSpec>,
        value: bool,
    ) -> Option<NodeId> {
        self.scopes.push(Vec::new());
        let first = match bind {
            Some((vars, init, span, ctor)) => {
                self.register(&vars);
                let n = self.node(NodeKind::Bind { vars, init: init.clone(), ctor }, span);
                if let Some(e) = &init {
                    self.effects(n, e);
                }
                n
            }
            None => self.node(NodeKind::Join, b.span),
        };
        self.edge(pred, first, first_edge);
        let mut cur = Some(first);
        let last = b.stmts.len().saturating_sub(1);
        for (i, stmt) in b.stmts.iter().enumerate() {
            let Some(c) = cur else { break };
            let tail = value && i == last && matches!(stmt, Stmt::Expr { semi: false, .. });
            cur = self.stmt(stmt, c, tail);
        }
        let scope = self.scopes.pop().unwrap_or_default();
        match cur {
            Some(c) if !scope.is_empty() => {
                let se = self.node(NodeKind::ScopeEnd(scope), b.span);
                self.edge(c, se, EdgeKind::Seq);
                Some(se)
            }
            other => other,
        }
    }

    fn stmt(&mut self, s: &Stmt, cur: NodeId, value: bool) -> Option<NodeId> {
        match s {
            Stmt::Let { vars, ctor, init, else_block, span } => match (init, else_block) {
                (Some(init), Some(els)) => {
                    // `let PAT = init else { diverge }` — the scrutinee
                    // is a branch: on the match path the pattern binds,
                    // on the refutation path the else block runs (and
                    // must diverge; a non-diverging else is left
                    // dangling rather than wired to the happy path).
                    let bnode =
                        self.node(NodeKind::Branch { cond: Some(init.clone()) }, init.span());
                    self.edge(cur, bnode, EdgeKind::Seq);
                    self.effects(bnode, init);
                    let _ = self.block(els, bnode, EdgeKind::Branch, None, false);
                    self.register(vars);
                    let bind = self.node(
                        NodeKind::Bind { vars: vars.clone(), init: None, ctor: ctor.clone() },
                        *span,
                    );
                    self.edge(bnode, bind, EdgeKind::Branch);
                    Some(bind)
                }
                (Some(init), None) if is_structured(init) => {
                    let end = self.expr(init, cur, false)?;
                    self.register(vars);
                    let bind = self.node(
                        NodeKind::Bind { vars: vars.clone(), init: None, ctor: ctor.clone() },
                        *span,
                    );
                    self.edge(end, bind, EdgeKind::Seq);
                    Some(bind)
                }
                (init, _) => {
                    self.register(vars);
                    let bind = self.node(
                        NodeKind::Bind {
                            vars: vars.clone(),
                            init: init.clone(),
                            ctor: ctor.clone(),
                        },
                        *span,
                    );
                    self.edge(cur, bind, EdgeKind::Seq);
                    if let Some(e) = init {
                        self.effects(bind, e);
                    }
                    Some(bind)
                }
            },
            Stmt::Expr { expr, .. } => self.expr(expr, cur, value),
        }
    }

    fn expr(&mut self, e: &Expr, cur: NodeId, value: bool) -> Option<NodeId> {
        match e {
            Expr::If { .. } => self.lower_if(e, cur, EdgeKind::Seq, value),
            Expr::Match { scrut, arms, span } => {
                let bnode =
                    self.node(NodeKind::Branch { cond: Some((**scrut).clone()) }, *span);
                self.edge(cur, bnode, EdgeKind::Seq);
                self.effects(bnode, scrut);
                let mut ends = Vec::new();
                for arm in arms {
                    self.scopes.push(arm.vars.clone());
                    let n = self.node(
                        NodeKind::Bind {
                            vars: arm.vars.clone(),
                            init: None,
                            ctor: arm.ctor.clone(),
                        },
                        arm.span,
                    );
                    self.edge(bnode, n, EdgeKind::Branch);
                    let mut acur = n;
                    if let Some(g) = &arm.guard {
                        let gn = self.node(NodeKind::Eval(g.clone()), g.span());
                        self.edge(acur, gn, EdgeKind::Seq);
                        self.effects(gn, g);
                        acur = gn;
                    }
                    let end = self.expr(&arm.body, acur, value);
                    let scope = self.scopes.pop().unwrap_or_default();
                    if let Some(c) = end {
                        if scope.is_empty() {
                            ends.push(c);
                        } else {
                            let se = self.node(NodeKind::ScopeEnd(scope), arm.span);
                            self.edge(c, se, EdgeKind::Seq);
                            ends.push(se);
                        }
                    }
                }
                if ends.is_empty() {
                    return None;
                }
                let join = self.node(NodeKind::Join, *span);
                for c in ends {
                    self.edge(c, join, EdgeKind::Seq);
                }
                Some(join)
            }
            Expr::Loop { label, body, span } => {
                let head = self.node(NodeKind::Join, *span);
                self.edge(cur, head, EdgeKind::Seq);
                self.loops.push(LoopCtx {
                    label: label.clone(),
                    head,
                    scope_depth: self.scopes.len(),
                    breaks: Vec::new(),
                });
                let end = self.block(body, head, EdgeKind::Seq, None, false);
                if let Some(c) = end {
                    self.edge(c, head, EdgeKind::Back);
                }
                // Pushes and pops on `self.loops` are balanced by
                // construction; an empty stack here means a builder bug,
                // and treating it as a break-less loop keeps the walk
                // total instead of panicking inside the analyzer.
                let ctx = self.loops.pop()?;
                if ctx.breaks.is_empty() {
                    // `loop` without `break` diverges.
                    return None;
                }
                let after = self.node(NodeKind::Join, *span);
                for b in ctx.breaks {
                    self.edge(b, after, EdgeKind::Seq);
                }
                Some(after)
            }
            Expr::While { label, cond, let_vars, let_ctor, body, span } => {
                let head = self.node(NodeKind::Branch { cond: Some((**cond).clone()) }, *span);
                self.edge(cur, head, EdgeKind::Seq);
                self.effects(head, cond);
                self.loops.push(LoopCtx {
                    label: label.clone(),
                    head,
                    scope_depth: self.scopes.len(),
                    breaks: Vec::new(),
                });
                let bind = if let_vars.is_empty() {
                    None
                } else {
                    Some((let_vars.clone(), None, *span, let_ctor.clone()))
                };
                let end = self.block(body, head, EdgeKind::Branch, bind, false);
                if let Some(c) = end {
                    self.edge(c, head, EdgeKind::Back);
                }
                let breaks = self.loops.pop().map(|c| c.breaks).unwrap_or_default();
                let after = self.node(NodeKind::Join, *span);
                self.edge(head, after, EdgeKind::Branch);
                for b in breaks {
                    self.edge(b, after, EdgeKind::Seq);
                }
                Some(after)
            }
            Expr::For { label, vars, iter, body, span } => {
                let it = self.node(NodeKind::Eval((**iter).clone()), iter.span());
                self.edge(cur, it, EdgeKind::Seq);
                self.effects(it, iter);
                let head = self.node(NodeKind::Branch { cond: None }, *span);
                self.edge(it, head, EdgeKind::Seq);
                self.loops.push(LoopCtx {
                    label: label.clone(),
                    head,
                    scope_depth: self.scopes.len(),
                    breaks: Vec::new(),
                });
                let bind = if vars.is_empty() {
                    None
                } else {
                    Some((vars.clone(), None, *span, None))
                };
                let end = self.block(body, head, EdgeKind::Branch, bind, false);
                if let Some(c) = end {
                    self.edge(c, head, EdgeKind::Back);
                }
                let breaks = self.loops.pop().map(|c| c.breaks).unwrap_or_default();
                let after = self.node(NodeKind::Join, *span);
                self.edge(head, after, EdgeKind::Branch);
                for b in breaks {
                    self.edge(b, after, EdgeKind::Seq);
                }
                Some(after)
            }
            Expr::BlockExpr(b) => self.block(b, cur, EdgeKind::Seq, None, value),
            Expr::Return { value: rv, span } => {
                let mut c = cur;
                if let Some(v) = rv {
                    let n = self.node(NodeKind::Ret((**v).clone()), v.span());
                    self.edge(c, n, EdgeKind::Seq);
                    self.effects(n, v);
                    c = n;
                }
                let kills = self.flatten_scopes(0);
                let se = self.node(NodeKind::ScopeEnd(kills), *span);
                self.edge(c, se, EdgeKind::Seq);
                self.edge(se, self.exit, EdgeKind::Seq);
                None
            }
            Expr::Break { label, value: bv, span } => {
                let mut c = cur;
                if let Some(v) = bv {
                    // Conservatively treat every break value as escaping
                    // — it becomes the loop's value, whose destination
                    // this lowering does not track.
                    let n = self.node(NodeKind::Ret((**v).clone()), v.span());
                    self.edge(c, n, EdgeKind::Seq);
                    self.effects(n, v);
                    c = n;
                }
                let Some(idx) = self.loop_target(label.as_deref()) else {
                    // Malformed break: treat as a function exit.
                    self.edge(c, self.exit, EdgeKind::Seq);
                    return None;
                };
                let kills = self.flatten_scopes(self.loops[idx].scope_depth);
                let se = self.node(NodeKind::ScopeEnd(kills), *span);
                self.edge(c, se, EdgeKind::Seq);
                self.loops[idx].breaks.push(se);
                None
            }
            Expr::Continue { label, span } => {
                let Some(idx) = self.loop_target(label.as_deref()) else {
                    self.edge(cur, self.exit, EdgeKind::Seq);
                    return None;
                };
                let kills = self.flatten_scopes(self.loops[idx].scope_depth);
                let head = self.loops[idx].head;
                let se = self.node(NodeKind::ScopeEnd(kills), *span);
                self.edge(cur, se, EdgeKind::Seq);
                self.edge(se, head, EdgeKind::Back);
                None
            }
            // Leaf: one Eval node; nested control flow inside stays
            // opaque (its calls are still visible to `walk`).
            other => {
                let kind = if value {
                    NodeKind::Ret(other.clone())
                } else {
                    NodeKind::Eval(other.clone())
                };
                let n = self.node(kind, other.span());
                self.edge(cur, n, EdgeKind::Seq);
                self.effects(n, other);
                Some(n)
            }
        }
    }

    fn lower_if(
        &mut self,
        e: &Expr,
        pred: NodeId,
        first_edge: EdgeKind,
        value: bool,
    ) -> Option<NodeId> {
        let Expr::If { cond, let_vars, let_ctor, then, els, span } = e else {
            return self.expr(e, pred, value);
        };
        let bnode = self.node(NodeKind::Branch { cond: Some((**cond).clone()) }, *span);
        self.edge(pred, bnode, first_edge);
        self.effects(bnode, cond);
        let bind = if let_vars.is_empty() {
            None
        } else {
            Some((let_vars.clone(), None, *span, let_ctor.clone()))
        };
        let then_end = self.block(then, bnode, EdgeKind::Branch, bind, value);
        let else_end = match els {
            None => Some(bnode),
            Some(boxed) => match &**boxed {
                Expr::If { .. } => self.lower_if(boxed, bnode, EdgeKind::Branch, value),
                Expr::BlockExpr(b) => self.block(b, bnode, EdgeKind::Branch, None, value),
                other => self.expr(other, bnode, value),
            },
        };
        let ends: Vec<NodeId> = [then_end, else_end].into_iter().flatten().collect();
        if ends.is_empty() {
            return None;
        }
        let join = self.node(NodeKind::Join, *span);
        for c in &ends {
            // The fall-through edge from the branch node (no else)
            // keeps its Branch kind.
            let kind = if *c == bnode { EdgeKind::Branch } else { EdgeKind::Seq };
            self.edge(*c, join, kind);
        }
        Some(join)
    }

    fn loop_target(&self, label: Option<&str>) -> Option<usize> {
        match label {
            None => self.loops.len().checked_sub(1),
            Some(l) => self
                .loops
                .iter()
                .rposition(|ctx| ctx.label.as_deref() == Some(l)),
        }
    }
}

fn is_structured(e: &Expr) -> bool {
    matches!(
        e,
        Expr::If { .. }
            | Expr::Match { .. }
            | Expr::Loop { .. }
            | Expr::While { .. }
            | Expr::For { .. }
            | Expr::BlockExpr(_)
    )
}

/// Lower one function to its CFG.
pub fn build(f: &Function) -> Cfg {
    let mut b = Builder {
        nodes: Vec::new(),
        edges: Vec::new(),
        exit: 0,
        scopes: Vec::new(),
        loops: Vec::new(),
    };
    let entry = b.node(NodeKind::Entry, f.span);
    let exit = b.node(NodeKind::Exit, f.span);
    b.exit = exit;
    b.scopes.push(f.params.clone());
    let end = b.block(&f.body, entry, EdgeKind::Seq, None, true);
    if let Some(c) = end {
        let params = b.scopes.pop().unwrap_or_default();
        if params.is_empty() {
            b.edge(c, exit, EdgeKind::Seq);
        } else {
            let se = b.node(NodeKind::ScopeEnd(params), f.body.span);
            b.edge(c, se, EdgeKind::Seq);
            b.edge(se, exit, EdgeKind::Seq);
        }
    }
    Cfg {
        name: f.name.clone(),
        span: f.span,
        in_test: f.in_test,
        params: f.params.clone(),
        nodes: b.nodes,
        edges: b.edges,
        entry,
        exit,
    }
}

/// Lower a function *and* every closure in it (each closure becomes its
/// own pseudo-function CFG named `parent::{closure@line}`).
pub fn build_all(f: &Function) -> Vec<Cfg> {
    let mut out = vec![build(f)];
    let mut closures: Vec<(Vec<String>, Expr, Span)> = Vec::new();
    for stmt in &f.body.stmts {
        walk_stmt(stmt, &mut |e| {
            if let Expr::Closure { params, body, span, .. } = e {
                closures.push((params.clone(), (**body).clone(), *span));
            }
            true
        });
    }
    for (params, body, span) in closures {
        let block = match body {
            Expr::BlockExpr(b) => b,
            other => Block { stmts: vec![Stmt::Expr { expr: other, semi: false }], span },
        };
        let pseudo = Function {
            name: format!("{}::{{closure@{}}}", f.name, span.line),
            span,
            params,
            in_test: f.in_test,
            body: block,
        };
        out.push(build(&pseudo));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parser::parse_file;

    fn cfg_of(src: &str) -> Cfg {
        let parsed = parse_file(&scan(src));
        assert!(parsed.unparsed.is_empty(), "unparsed: {:?}", parsed.unparsed);
        build(&parsed.functions[0])
    }

    #[test]
    fn straight_line_with_try_golden() {
        let cfg = cfg_of("fn f() -> io::Result<()> {\n    let fd = sys::epoll_create1()?;\n    sys::close(fd);\n    Ok(())\n}\n");
        let want = "\
fn f
n0 entry
n1 exit
n2 join
n3 bind fd = sys::epoll_create1()?
n4 eval sys::close(fd)
n5 ret Ok(())
n6 scope-end fd
n0 -seq-> n2
n2 -seq-> n3
n3 -err-> n1
n3 -seq-> n4
n4 -seq-> n5
n5 -seq-> n6
n6 -seq-> n1
";
        assert_eq!(cfg.render(), want);
    }

    #[test]
    fn try_gets_err_edge_to_exit() {
        let cfg = cfg_of("fn f() -> R {\n    let fd = sys::accept4(l)?;\n    work(fd)?;\n    Ok(fd)\n}\n");
        let err_edges: Vec<_> = cfg
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Err)
            .collect();
        assert_eq!(err_edges.len(), 2);
        assert!(err_edges.iter().all(|e| e.to == cfg.exit));
    }

    #[test]
    fn unwrap_gets_panic_edge() {
        let cfg = cfg_of("fn f() {\n    let v = rx.recv().unwrap();\n    touch(v);\n}\n");
        assert!(cfg.edges.iter().any(|e| e.kind == EdgeKind::Panic && e.to == cfg.exit));
    }

    #[test]
    fn if_joins_both_arms() {
        let cfg = cfg_of("fn f(c: bool) {\n    if c { a(); } else { b(); }\n    done();\n}\n");
        let r = cfg.render();
        assert!(r.contains("branch c"), "{r}");
        assert!(r.contains("eval done()"), "{r}");
    }

    #[test]
    fn early_return_kills_scopes_to_exit() {
        let cfg = cfg_of("fn f(c: bool) {\n    let g = m.lock();\n    if c { return; }\n    use_it(&g);\n}\n");
        // The return's ScopeEnd must kill both g and the params.
        let found = cfg.nodes.iter().any(|n| {
            matches!(&n.kind, NodeKind::ScopeEnd(vars)
                if vars.contains(&"g".to_string()) && vars.contains(&"c".to_string()))
        });
        assert!(found, "{}", cfg.render());
    }

    #[test]
    fn loop_without_break_diverges() {
        let cfg = cfg_of("fn f() {\n    loop { tick(); }\n}\n");
        // No normal path to exit: only entry/exit and the loop cycle.
        assert!(
            !cfg.preds(cfg.exit).any(|e| e.kind == EdgeKind::Seq),
            "{}",
            cfg.render()
        );
        assert!(cfg.edges.iter().any(|e| e.kind == EdgeKind::Back));
    }

    #[test]
    fn labelled_continue_targets_outer_loop() {
        let src = "fn f() {\n    'outer: loop {\n        for x in items {\n            if bad(x) { continue 'outer; }\n        }\n        break;\n    }\n}\n";
        let cfg = cfg_of(src);
        // The continue's Back edge must land on the outer loop head,
        // which is a Join (loop) not the for's Branch head.
        let back_to_join = cfg.edges.iter().any(|e| {
            e.kind == EdgeKind::Back
                && matches!(cfg.nodes[e.to].kind, NodeKind::Join)
                && matches!(cfg.nodes[e.from].kind, NodeKind::ScopeEnd(_))
        });
        assert!(back_to_join, "{}", cfg.render());
    }

    #[test]
    fn while_let_binds_in_body_only() {
        let cfg = cfg_of("fn f(d: &D) {\n    while let Some(v) = d.pop() {\n        use_it(v);\n    }\n}\n");
        let r = cfg.render();
        assert!(r.contains("branch d.pop()"), "{r}");
        assert!(r.contains("bind v\n"), "{r}");
        assert!(r.contains("scope-end v"), "{r}");
    }

    #[test]
    fn let_else_branches_to_diverging_block() {
        let cfg =
            cfg_of("fn f(m: &M) {\n    loop {\n        let Some(s) = m.get() else { continue };\n        use_it(s);\n        break;\n    }\n}\n");
        let r = cfg.render();
        assert!(r.contains("branch m.get()"), "{r}");
        assert!(r.contains("bind s\n"), "{r}");
    }

    #[test]
    fn match_arms_bind_and_join() {
        let cfg = cfg_of("fn f(e: E) -> i32 {\n    match e {\n        E::A(n) => n,\n        E::B => 0,\n    }\n}\n");
        let r = cfg.render();
        assert!(r.contains("branch e"), "{r}");
        assert!(r.contains("bind n\n"), "{r}");
    }

    #[test]
    fn closures_lower_separately_and_stay_opaque_inline() {
        let src = "fn f() {\n    let h = spawn(move || { let fd = sys::epoll_create1()?; sys::close(fd); Ok(()) });\n    h.join().unwrap();\n}\n";
        let parsed = parse_file(&scan(src));
        let cfgs = build_all(&parsed.functions[0]);
        assert_eq!(cfgs.len(), 2, "fn + closure");
        // The parent CFG must not get an err edge from the closure's `?`.
        assert!(!cfgs[0].edges.iter().any(|e| e.kind == EdgeKind::Err));
        assert!(cfgs[1].name.contains("{closure@"));
        assert!(cfgs[1].edges.iter().any(|e| e.kind == EdgeKind::Err));
    }
}
