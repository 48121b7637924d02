//! A small worklist dataflow framework over [`crate::cfg`] graphs.
//!
//! An [`Analysis`] supplies a boundary fact for the entry node, an
//! edge-sensitive transfer function, and a join. The solver iterates to
//! a fixed point with a FIFO worklist. Facts must form a finite lattice
//! under `join` (every pass here uses set-union over the function's
//! finitely many bindings, so termination is structural); a safety valve
//! caps iterations anyway so a non-monotone transfer can never hang the
//! analyzer.
//!
//! Transfer runs **per edge**, not per node: the same node can send
//! different facts down its `Seq` and `Err` edges. That is what lets the
//! lock-discipline pass say "`let g = m.lock()?` binds `g` on the success
//! edge but *not* on the error edge".

use crate::cfg::{Cfg, Edge, NodeId};
use std::collections::VecDeque;

/// A forward dataflow analysis.
pub trait Analysis {
    /// The lattice element tracked per node.
    type Fact: Clone + PartialEq;

    /// Fact entering the CFG's entry node.
    fn boundary(&self, cfg: &Cfg) -> Self::Fact;

    /// Fact leaving `node` along `edge`, given the fact at the node's
    /// entry.
    fn transfer(&self, cfg: &Cfg, node: NodeId, edge: &Edge, fact: &Self::Fact) -> Self::Fact;

    /// Least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;
}

/// Solve to a fixed point. Returns the fact at each node's *entry*;
/// `None` marks nodes unreachable from entry.
pub fn solve<A: Analysis>(a: &A, cfg: &Cfg) -> Vec<Option<A::Fact>> {
    let n = cfg.nodes.len();
    let mut facts: Vec<Option<A::Fact>> = vec![None; n];
    facts[cfg.entry] = Some(a.boundary(cfg));
    let mut work: VecDeque<NodeId> = VecDeque::new();
    work.push_back(cfg.entry);
    // Monotone set-union facts converge in O(nodes × vars); the valve
    // only exists to bound a buggy analysis.
    let budget = n.saturating_mul(64) + 4096;
    let mut steps = 0usize;
    while let Some(u) = work.pop_front() {
        steps += 1;
        if steps > budget {
            break;
        }
        let Some(fu) = facts[u].clone() else { continue };
        let out_edges: Vec<Edge> = cfg.succs(u).copied().collect();
        for e in out_edges {
            let out = a.transfer(cfg, u, &e, &fu);
            let merged = match &facts[e.to] {
                None => out,
                Some(old) => a.join(old, &out),
            };
            if facts[e.to].as_ref() != Some(&merged) {
                facts[e.to] = Some(merged);
                work.push_back(e.to);
            }
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build, EdgeKind, NodeKind};
    use crate::lexer::scan;
    use crate::parser::parse_file;
    use std::collections::BTreeSet;

    /// Toy analysis: the set of names bound on some path to each node.
    struct Bound;

    impl Analysis for Bound {
        type Fact = BTreeSet<String>;

        fn boundary(&self, cfg: &Cfg) -> Self::Fact {
            cfg.params.iter().cloned().collect()
        }

        fn transfer(
            &self,
            cfg: &Cfg,
            node: NodeId,
            edge: &Edge,
            fact: &Self::Fact,
        ) -> Self::Fact {
            let mut out = fact.clone();
            if let NodeKind::Bind { vars, .. } = &cfg.nodes[node].kind {
                // `?` on the initializer means the binding never
                // happened on the error edge.
                if edge.kind != EdgeKind::Err && edge.kind != EdgeKind::Panic {
                    out.extend(vars.iter().cloned());
                }
            }
            out
        }

        fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
            a.union(b).cloned().collect()
        }
    }

    fn facts_at_exit(src: &str) -> Vec<BTreeSet<String>> {
        let parsed = parse_file(&scan(src));
        assert!(parsed.unparsed.is_empty(), "{:?}", parsed.unparsed);
        let cfg = build(&parsed.functions[0]);
        let facts = solve(&Bound, &cfg);
        vec![facts[cfg.exit].clone().expect("exit reachable")]
    }

    #[test]
    fn bindings_flow_to_exit() {
        let exit = &facts_at_exit("fn f(a: u32) {\n    let b = g(a);\n    use_it(b);\n}\n")[0];
        assert!(exit.contains("a") && exit.contains("b"));
    }

    #[test]
    fn err_edge_does_not_bind() {
        // On the error path `fd` is never bound, so the exit fact (a
        // may-analysis union) still contains it only because the success
        // path reaches exit too; a function that diverges after binding
        // shows the distinction.
        let src = "fn f() -> R {\n    let fd = acquire()?;\n    loop { hold(fd); }\n}\n";
        let exit = &facts_at_exit(src)[0];
        // Exit is reachable only via the err edge, where fd is unbound.
        assert!(!exit.contains("fd"), "{exit:?}");
    }

    #[test]
    fn branches_join_with_union() {
        let src = "fn f(c: bool) {\n    if c {\n        let x = one();\n        use_it(x);\n    } else {\n        let y = two();\n        use_it(y);\n    }\n}\n";
        let exit = &facts_at_exit(src)[0];
        assert!(exit.contains("x") && exit.contains("y"));
    }

    #[test]
    fn loops_reach_fixed_point() {
        let src = "fn f(n: u32) {\n    for i in 0..n {\n        let v = step(i);\n        use_it(v);\n    }\n}\n";
        let exit = &facts_at_exit(src)[0];
        assert!(exit.contains("n"));
        assert!(exit.contains("v"), "loop-carried binding reaches exit via the loop-exit edge");
    }
}
