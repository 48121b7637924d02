//! A hand-rolled Rust source scanner, the front end of [`crate::parser`].
//!
//! The scanner does not build a syntax tree; it produces, per source line,
//! the *code text* with comment bodies removed and string/char literal
//! contents blanked, plus whether the line sits inside a
//! `#[cfg(test)]`-gated item.
//!
//! Blanking literal contents (rather than deleting the literal) keeps
//! column positions meaningful while guaranteeing that a `.lock()` inside
//! a string, a raw string, or a comment can never reach a pass. Nested
//! block comments, raw strings with arbitrary `#` fences, byte strings,
//! char literals, and lifetimes are all handled.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// The line's code with comments stripped and literal contents
    /// blanked. Columns line up with the original source for every
    /// character outside a literal or comment.
    pub code: String,
    /// Whether the line is inside a `#[cfg(test)]` item body.
    pub in_test: bool,
}

/// A fully scanned source file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// Lines in order; index 0 is source line 1.
    pub lines: Vec<ScannedLine>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Block comments nest in Rust; the payload is the nesting depth.
    BlockComment(u32),
    /// Inside `"…"`; the payload is whether the previous char was `\`.
    Str(bool),
    /// Inside `r##"…"##`; the payload is the number of `#` fences.
    RawStr(u32),
}

/// Scan a source file.
pub fn scan(source: &str) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<ScannedLine> = Vec::new();
    let mut code = String::new();
    let mut line_touched_test = false;

    let mut state = State::Code;
    let mut depth: i64 = 0;
    // Depth at which the current `#[cfg(test)]` item body opened; the
    // region ends when a `}` returns to it.
    let mut test_below: Option<i64> = None;
    // A `#[cfg(test)]` attribute was seen; the next `{` opens its body.
    let mut armed = false;

    let mut i = 0usize;
    while i <= chars.len() {
        let c = chars.get(i).copied();
        if c == Some('\n') || c.is_none() {
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            let in_test = line_touched_test || test_below.is_some();
            lines.push(ScannedLine { code: std::mem::take(&mut code), in_test });
            line_touched_test = test_below.is_some();
            if c.is_none() {
                break;
            }
            i += 1;
            continue;
        }
        let Some(c) = c else { break };
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Str(false);
                    i += 1;
                } else if is_raw_str_start(&chars, i) {
                    let (fences, consumed) = raw_str_open(&chars, i);
                    for _ in 0..consumed {
                        code.push(' ');
                    }
                    code.push('"');
                    state = State::RawStr(fences);
                    i += consumed + 1;
                } else if c == '\'' {
                    // Distinguish char literals from lifetimes/labels: a
                    // literal is `'x'` or `'\…'`; anything else (`'a`,
                    // `'outer:`) is left in the code text untouched.
                    if next == Some('\\') {
                        code.push('\'');
                        // Skip the quote, the backslash, and the escaped
                        // character itself — `'\''` must not mistake the
                        // escaped quote for the closing one.
                        i += 3;
                        while let Some(&cc) = chars.get(i) {
                            i += 1;
                            if cc == '\'' {
                                break;
                            }
                        }
                        code.push('\'');
                    } else if next.is_some() && chars.get(i + 2).copied() == Some('\'') {
                        code.push('\'');
                        code.push('\'');
                        i += 3;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    if c == '{' {
                        if armed && test_below.is_none() {
                            test_below = Some(depth);
                            armed = false;
                            line_touched_test = true;
                        }
                        depth += 1;
                    } else if c == '}' {
                        depth -= 1;
                        if test_below == Some(depth) {
                            test_below = None;
                            line_touched_test = true;
                        }
                    }
                    code.push(c);
                    if code.ends_with("#[cfg(test)]") {
                        armed = true;
                    }
                    i += 1;
                }
            }
            State::LineComment => i += 1,
            State::BlockComment(d) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(d + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if d == 1 { State::Code } else { State::BlockComment(d - 1) };
                    i += 2;
                } else {
                    i += 1;
                }
            }
            State::Str(escaped) => {
                if escaped {
                    state = State::Str(false);
                } else if c == '\\' {
                    state = State::Str(true);
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                }
                i += 1;
            }
            State::RawStr(fences) => {
                if c == '"' && closes_raw(&chars, i, fences) {
                    code.push('"');
                    i += 1 + fences as usize;
                    state = State::Code;
                } else {
                    i += 1;
                }
            }
        }
    }
    ScannedFile { lines }
}

/// Does `chars[i..]` open a raw (or raw byte) string literal? Requires the
/// preceding char to not be part of an identifier, so `attr"…"` or
/// `hdr"…"` never misfire.
fn is_raw_str_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars.get(j).copied() == Some('b') {
        j += 1;
    }
    if chars.get(j).copied() != Some('r') {
        // A plain byte string `b"…"` is handled by the `"` arm; only the
        // `r`-prefixed forms need the fence scan.
        return false;
    }
    j += 1;
    while chars.get(j).copied() == Some('#') {
        j += 1;
    }
    chars.get(j).copied() == Some('"')
}

/// Number of `#` fences and chars consumed up to (not including) the
/// opening quote of a raw string starting at `i`.
fn raw_str_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars.get(j).copied() == Some('b') {
        j += 1;
    }
    j += 1; // the `r`
    let mut fences = 0u32;
    while chars.get(j).copied() == Some('#') {
        fences += 1;
        j += 1;
    }
    (fences, j - i)
}

/// Does the `"` at `i` close a raw string with `fences` trailing `#`s?
fn closes_raw(chars: &[char], i: usize, fences: u32) -> bool {
    (1..=fences as usize).all(|k| chars.get(i + k).copied() == Some('#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = "let x = \"panic!(boom)\"; // panic!\nlet y = 2; /* unwrap() */ let z = 3;\n";
        let f = scan(src);
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains("let x = \"\";"));
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[1].code.contains("let z = 3;"));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = "let s = r#\"has \"quotes\" and unwrap()\"#; s.len();\n";
        let f = scan(src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("s.len()"));
    }

    #[test]
    fn multiline_strings_keep_line_count() {
        let src = "let s = \"line one\nline two unwrap()\nline three\";\nlet x = 1;\n";
        let f = scan(src);
        assert_eq!(f.lines.len(), 5); // 4 lines + trailing empty
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[3].code.contains("let x = 1;"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment unwrap() */ let a = 1;\n";
        let f = scan(src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("let a = 1;"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { if x.is_empty() { '\"' } else { '\\n' } }\n";
        let f = scan(src);
        assert!(f.lines[0].code.contains("fn f<'a>"));
        // The quote char literal must not open a string.
        assert!(f.lines[0].code.contains("else"));
    }

    #[test]
    fn escaped_quote_char_literal_does_not_open_a_string() {
        // Regression: `'\''` used to step only past the backslash, so
        // the escaped quote read as the closing one and the real closer
        // opened a phantom string that swallowed the rest of the file.
        let src = "let q = '\\''; let after = value.len();\nlet next = 1;\n";
        let f = scan(src);
        assert!(f.lines[0].code.contains("let after = value.len();"), "{:?}", f.lines[0].code);
        assert!(f.lines[1].code.contains("let next = 1;"), "{:?}", f.lines[1].code);
        // Longer escapes (`'\n'`, `'\x7f'`, `'\u{1F600}'`) also close.
        let src = "let a = '\\x7f'; let b = '\\u{41}'; done();\n";
        let f = scan(src);
        assert!(f.lines[0].code.contains("done();"), "{:?}", f.lines[0].code);
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src = "fn prod() { work(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn prod2() {}\n";
        let f = scan(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test, "inside the test mod");
        assert!(!f.lines[5].in_test, "after the test mod closes");
    }
}
