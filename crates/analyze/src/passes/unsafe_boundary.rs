//! Unsafe-boundary audit: `unsafe` stays inside the audited allowlist,
//! and every occurrence carries a written justification.
//!
//! Three checks, all AST + comment driven (no dataflow needed):
//!
//! 1. **Containment** — any `unsafe` block or `unsafe fn` in a file
//!    outside [`ALLOWLIST`] is denied outright. The workspace's unsafe
//!    surface is two audited files: the raw-syscall shim and the
//!    training kernels' call into their AVX2 arm. New unsafe code must
//!    move into one of them (and get reviewed there) rather than sprout
//!    in business logic.
//! 2. **Justification** — inside the allowlist, every `unsafe` block
//!    needs a `// SAFETY:` comment on its line or the contiguous
//!    comment/attribute lines above it; every `unsafe fn` needs a
//!    `# Safety` doc section (or a `SAFETY:` comment).
//! 3. **Pointer provenance** — raw pointers handed to syscalls must
//!    derive from a named place (`buf.as_mut_ptr()`,
//!    `ptr::from_ref(&event)`), never from a temporary whose lifetime
//!    ends before the call (`make_buf().as_ptr()`).

use crate::lexer::ScannedFile;
use crate::parser::{Expr, Function, ParsedFile};
use crate::passes::Finding;
use crate::Severity;

/// Rule id reported by this pass.
pub const RULE: &str = "unsafe-boundary";

/// Files allowed to contain `unsafe`: the audited syscall shim and the
/// training kernels, whose one `unsafe` is the call into the
/// `#[target_feature(enable = "avx2")]` arm after runtime detection.
pub const ALLOWLIST: [&str; 2] = ["crates/net/src/sys.rs", "crates/ml/src/kernels.rs"];

/// Raw-pointer-producing methods whose receiver must be a named place.
const PTR_METHODS: [&str; 2] = ["as_ptr", "as_mut_ptr"];

/// Raw-pointer-producing free functions whose argument must be a named
/// place (matched as `ptr::<name>` path suffix).
const PTR_FNS: [&str; 2] = ["from_ref", "from_mut"];

fn allowlisted(path: &str) -> bool {
    ALLOWLIST.contains(&path)
}

/// Is the line above `line` part of the same comment/attribute stanza?
fn annotation_line(scanned: &ScannedFile, line: usize) -> bool {
    let Some(l) = scanned.lines.get(line - 1) else { return false };
    let code = l.code.trim();
    code.is_empty() || code.starts_with("#[") || code.starts_with("#![")
}

/// Does `line` (or the contiguous comment/attribute stanza above it)
/// carry a comment containing `needle`?
fn justified(scanned: &ScannedFile, line: usize, needle: &str) -> bool {
    let has = |l: usize| {
        scanned
            .lines
            .get(l - 1)
            .is_some_and(|sl| sl.comments.iter().any(|c| c.contains(needle)))
    };
    if has(line) {
        return true;
    }
    let mut l = line;
    while l > 1 && annotation_line(scanned, l - 1) {
        l -= 1;
        if has(l) {
            return true;
        }
    }
    false
}

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

fn check_pointers(f: &Function, out: &mut Vec<Finding>) {
    for stmt in &f.body.stmts {
        let check = &mut |e: &Expr| {
            match e {
                Expr::MethodCall { recv, method, span, .. }
                    if PTR_METHODS.contains(&method.as_str())
                        && !base_is_named_place(recv) =>
                {
                    out.push(Finding {
                        rule: RULE,
                        severity: Severity::Deny,
                        line: span.line,
                        col: span.col,
                        message: format!(
                            "raw pointer from `.{method}()` derives from a temporary \
                             in `{}`; bind the buffer to a local first",
                            f.name
                        ),
                    });
                }
                Expr::Call { callee, args, span } => {
                    if let Expr::Path { segs, .. } = &**callee {
                        let n = segs.len();
                        if n >= 2
                            && segs[n - 2] == "ptr"
                            && PTR_FNS.contains(&segs[n - 1].as_str())
                            && !args.iter().all(base_is_named_place)
                        {
                            out.push(Finding {
                                rule: RULE,
                                severity: Severity::Deny,
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "`{}` takes a reference to a temporary in `{}`; bind \
                                     the value to a local first",
                                    segs.join("::"),
                                    f.name
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
            true
        };
        crate::parser::walk_stmt(stmt, check);
    }
}

/// Run the pass over one parsed file.
pub fn run(path: &str, scanned: &ScannedFile, parsed: &ParsedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let allowed = allowlisted(path);
    for f in &parsed.functions {
        if f.in_test {
            continue;
        }
        let mut sites: Vec<(usize, usize, bool)> = Vec::new();
        if f.is_unsafe {
            sites.push((f.span.line, f.span.col, true));
        }
        for stmt in &f.body.stmts {
            crate::parser::walk_stmt(stmt, &mut |e: &Expr| {
                if let Expr::Unsafe { span, .. } = e {
                    sites.push((span.line, span.col, false));
                }
                true
            });
        }
        for (line, col, is_fn) in sites {
            if !allowed {
                out.push(Finding {
                    rule: RULE,
                    severity: Severity::Deny,
                    line,
                    col,
                    message: format!(
                        "`unsafe` in `{}` is outside the audited boundary ({}); move the \
                         operation behind an audited file",
                        f.name,
                        ALLOWLIST.join(", ")
                    ),
                });
                continue;
            }
            let ok = if is_fn {
                justified(scanned, line, "# Safety") || justified(scanned, line, "SAFETY")
            } else {
                justified(scanned, line, "SAFETY")
            };
            if !ok {
                out.push(Finding {
                    rule: RULE,
                    severity: Severity::Deny,
                    line,
                    col,
                    message: if is_fn {
                        format!(
                            "`unsafe fn {}` lacks a `# Safety` doc section stating its \
                             contract",
                            f.name
                        )
                    } else {
                        format!(
                            "`unsafe` block in `{}` lacks a `// SAFETY:` comment \
                             justifying it",
                            f.name
                        )
                    },
                });
            }
        }
        if allowed {
            check_pointers(f, &mut out);
        }
    }
    out.sort_by_key(|f| (f.line, f.col));
    out.dedup_by(|a, b| a.line == b.line && a.col == b.col && a.message == b.message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parser::parse_file;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let scanned = scan(src);
        let parsed = parse_file(&scanned);
        assert!(parsed.unparsed.is_empty(), "{:?}", parsed.unparsed);
        run(path, &scanned, &parsed)
    }

    #[test]
    fn unsafe_outside_allowlist_denied() {
        let f = findings(
            "crates/serve/src/server.rs",
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("outside the audited boundary"), "{}", f[0].message);
        assert_eq!((f[0].line, f[0].col), (2, 5));
    }

    /// `tasq-par` is safe Rust (`#![forbid(unsafe_code)]`); its old
    /// deque file no longer opens a hole in the boundary.
    #[test]
    fn par_crate_is_outside_the_boundary() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid.\n    unsafe { *p }\n}\n";
        let f = findings("crates/par/src/deque.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("outside the audited boundary"), "{}", f[0].message);
    }

    #[test]
    fn safety_comment_satisfies_block() {
        let src = "fn f(buf: &mut [u8]) -> i64 {\n    // SAFETY: buf is a live local slice; len matches.\n    unsafe { raw_read(buf.as_mut_ptr(), buf.len()) }\n}\n";
        let f = findings("crates/net/src/sys.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_safety_comment_denied() {
        let src = "fn f(buf: &mut [u8]) -> i64 {\n    unsafe { raw_read(buf.as_mut_ptr(), buf.len()) }\n}\n";
        let f = findings("crates/net/src/sys.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SAFETY"), "{}", f[0].message);
    }

    #[test]
    fn safety_comment_walks_up_through_attributes() {
        let src = "fn f() {\n    // SAFETY: no-op asm marker, no operands.\n    #[cfg(target_arch = \"x86_64\")]\n    unsafe {\n        nop();\n    }\n}\n";
        let f = findings("crates/net/src/sys.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_fn_needs_safety_doc() {
        let src = "unsafe fn poke(p: *mut u8) {\n    write(p);\n}\n";
        let f = findings("crates/net/src/sys.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("# Safety"), "{}", f[0].message);
    }

    #[test]
    fn unsafe_fn_with_safety_doc_is_clean() {
        let src = "/// Pokes a byte.\n///\n/// # Safety\n///\n/// `p` must be valid for writes.\nunsafe fn poke(p: *mut u8) {\n    write(p);\n}\n";
        let f = findings("crates/net/src/sys.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pointer_from_temporary_denied() {
        let src = "fn f() -> i64 {\n    // SAFETY: pointer is sent to a checked syscall.\n    unsafe { raw_read(make_buf().as_mut_ptr(), 64) }\n}\n";
        let f = findings("crates/net/src/sys.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("temporary"), "{}", f[0].message);
    }

    #[test]
    fn pointer_from_field_place_is_clean() {
        let src = "fn f(s: &mut S) -> i64 {\n    // SAFETY: events buffer outlives the call.\n    unsafe { raw_wait(s.events.as_mut_ptr(), s.events.len()) }\n}\n";
        let f = findings("crates/net/src/sys.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn from_ref_of_local_is_clean() {
        let src = "fn f(event: E) -> i32 {\n    // SAFETY: event is a live stack value.\n    unsafe { ctl(ptr::from_ref(&event)) }\n}\n";
        let f = findings("crates/net/src/sys.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn kernel_file_is_allowlisted_but_still_needs_safety() {
        let path = "crates/ml/src/kernels.rs";
        let bare = "fn run(k: K) {\n    if detected() {\n        unsafe { run_avx2(k) }\n    }\n}\n";
        let f = findings(path, bare);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SAFETY"), "{}", f[0].message);
        assert_eq!((f[0].line, f[0].col), (3, 9));
        let justified = "fn run(k: K) {\n    if detected() {\n        // SAFETY: the CPU reported AVX2.\n        unsafe { run_avx2(k) }\n    }\n}\n";
        assert!(findings(path, justified).is_empty());
    }

    #[test]
    fn test_region_unsafe_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 {\n        unsafe { *p }\n    }\n}\n";
        let f = findings("crates/serve/src/server.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }
}
