//! Unsafe-boundary audit: raw pointers must derive from a named place.
//!
//! Raw pointers handed to syscalls must derive from a named place
//! (`buf.as_mut_ptr()`, `ptr::from_ref(&event)`), never from a temporary
//! whose lifetime ends before the call (`make_buf().as_ptr()`). Clippy
//! has no such lint, so this pass runs on every non-test function of the
//! workspace. The rest of the boundary is the compiler's: `unsafe_code`
//! is denied workspace-wide (the syscall shim and the kernels' AVX2 call
//! each carry an `#[expect(unsafe_code)]`), and
//! `clippy::undocumented_unsafe_blocks` / `clippy::missing_safety_doc`
//! require the `// SAFETY:` comments and `# Safety` sections.

use crate::parser::{Expr, Function, ParsedFile};
use crate::passes::Finding;
use crate::Severity;

/// Rule id reported by this pass.
pub const RULE: &str = "unsafe-boundary";

/// Raw-pointer-producing methods whose receiver must be a named place.
const PTR_METHODS: [&str; 2] = ["as_ptr", "as_mut_ptr"];

/// Raw-pointer-producing free functions whose argument must be a named
/// place (matched as `ptr::<name>` path suffix).
const PTR_FNS: [&str; 2] = ["from_ref", "from_mut"];

/// Walk the place expression a pointer derives from down to its base.
fn base_is_named_place(e: &Expr) -> bool {
    match e {
        Expr::Path { .. } => true,
        Expr::Field { recv, .. } | Expr::Index { recv, .. } => base_is_named_place(recv),
        Expr::Unary { inner, .. } | Expr::Cast { inner, .. } | Expr::Try { inner, .. } => {
            base_is_named_place(inner)
        }
        _ => false,
    }
}

/// Why `e` hands out a raw pointer to a temporary, if it does.
fn temporary_pointer(e: &Expr) -> Option<String> {
    match e {
        Expr::MethodCall { recv, method, .. }
            if PTR_METHODS.contains(&method.as_str()) && !base_is_named_place(recv) =>
        {
            Some(format!("raw pointer from `.{method}()` derives from a temporary"))
        }
        Expr::Call { callee, args, .. } => match &**callee {
            Expr::Path { segs, .. }
                if segs.len() >= 2
                    && segs[segs.len() - 2] == "ptr"
                    && PTR_FNS.contains(&segs[segs.len() - 1].as_str())
                    && !args.iter().all(base_is_named_place) =>
            {
                Some(format!("`{}` takes a reference to a temporary", segs.join("::")))
            }
            _ => None,
        },
        _ => None,
    }
}

fn check_pointers(f: &Function, out: &mut Vec<Finding>) {
    for stmt in &f.body.stmts {
        crate::parser::walk_stmt(stmt, &mut |e: &Expr| {
            if let Some(what) = temporary_pointer(e) {
                let span = e.span();
                out.push(Finding {
                    rule: RULE,
                    severity: Severity::Deny,
                    line: span.line,
                    col: span.col,
                    message: format!("{what} in `{}`; bind it to a local first", f.name),
                });
            }
            true
        });
    }
}

/// Run the pass over one parsed file.
pub fn run(parsed: &ParsedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in parsed.functions.iter().filter(|f| !f.in_test) {
        check_pointers(f, &mut out);
    }
    out.sort_by_key(|f| (f.line, f.col));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parser::parse_file;

    fn findings(src: &str) -> Vec<Finding> {
        let parsed = parse_file(&scan(src));
        assert!(parsed.unparsed.is_empty(), "{:?}", parsed.unparsed);
        run(&parsed)
    }

    #[test]
    fn pointer_from_temporary_denied() {
        let src = "fn f() -> i64 {\n    // SAFETY: pointer is sent to a checked syscall.\n    unsafe { raw_read(make_buf().as_mut_ptr(), 64) }\n}\n";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("temporary"), "{}", f[0].message);
    }

    #[test]
    fn pointer_from_field_place_is_clean() {
        let src = "fn f(s: &mut S) -> i64 {\n    // SAFETY: events buffer outlives the call.\n    unsafe { raw_wait(s.events.as_mut_ptr(), s.events.len()) }\n}\n";
        let f = findings(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn from_ref_of_local_is_clean() {
        let src = "fn f(event: E) -> i32 {\n    // SAFETY: event is a live stack value.\n    unsafe { ctl(ptr::from_ref(&event)) }\n}\n";
        let f = findings(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_region_unsafe_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() -> u8 {\n        unsafe { *make_buf().as_ptr() }\n    }\n}\n";
        let f = findings(src);
        assert!(f.is_empty(), "{f:?}");
    }
}
