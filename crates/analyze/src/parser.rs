//! A recursive-descent parser for the Rust subset this workspace writes.
//!
//! The parser consumes the [`crate::lexer`] scan (comments stripped,
//! literal bodies blanked, columns preserved) and produces one AST per
//! function — items, blocks, `let`/`let…else`, `if`/`if let`, `match`,
//! the three loops (with labels), `?`, early `return`, closures, method
//! chains, struct literals, casts and macro invocations. It is *not* a
//! full Rust parser: types are skipped structurally, operator precedence
//! is flattened (the dataflow pass never needs it), and a function whose
//! body defeats the grammar is recorded as unparsed rather than aborting
//! the file. CI gates the unparsed count at zero for the crates the
//! dataflow pass guards (`crates/net`, `crates/par`).
//!
//! Every AST node carries a 1-based `line:col` [`Span`] pointing at the
//! original source, which is what the passes report.

use crate::lexer::ScannedFile;
use std::fmt;

/// A 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One parsed function (free, method, nested, or closure-hosted).
#[derive(Debug, Clone)]
pub struct Function {
    /// Bare name (`shard_loop`, or `Type::name` when inside an `impl`).
    pub name: String,
    /// Span of the `fn` keyword.
    pub span: Span,
    /// Parameter binding names (patterns flattened; `self` included).
    pub params: Vec<String>,
    /// Whether the `fn` keyword sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// The body.
    pub body: Block,
}

/// A `{ … }` block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Span of the opening brace.
    pub span: Span,
}

/// One statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let <pat>[: ty] = init [else { … }];`
    Let {
        /// Names bound by the pattern.
        vars: Vec<String>,
        /// The pattern's leading payload constructor (`Ok`, `Some`, …),
        /// when it has one.
        ctor: Option<String>,
        /// Initializer (absent for `let x;`).
        init: Option<Expr>,
        /// `let … else` diverging block.
        else_block: Option<Block>,
        /// Span of the `let`.
        span: Span,
    },
    /// An expression statement; `semi` records whether it was terminated
    /// (tail expressions of a block have `semi == false`).
    Expr {
        /// The expression.
        expr: Expr,
        /// Trailing semicolon present.
        semi: bool,
    },
}

/// One `match` arm.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Names bound by the pattern.
    pub vars: Vec<String>,
    /// The pattern's leading payload constructor (`Ok`, `Some`, …).
    pub ctor: Option<String>,
    /// Arm guard (`if …`), when present.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
    /// Span of the pattern start.
    pub span: Span,
}

/// An expression, flattened to what the dataflow pass consumes.
#[derive(Debug, Clone)]
pub enum Expr {
    /// `a::b::c`, a bare identifier, `self.x` is a [`Expr::Field`].
    Path {
        /// Segments.
        segs: Vec<String>,
        /// Span of the first segment.
        span: Span,
    },
    /// Number / string / char literal.
    Lit {
        /// Literal span.
        span: Span,
    },
    /// `callee(args…)`.
    Call {
        /// Callee (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Span of the call.
        span: Span,
    },
    /// `recv.name(args…)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Span of the method name.
        span: Span,
    },
    /// `recv.name` / `recv.0`.
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name (tuple indices rendered as digits).
        name: String,
        /// Span of the field name.
        span: Span,
    },
    /// `recv[index]`.
    Index {
        /// Receiver.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// `&x` / `&mut x` / unary `*`, `-`, `!`.
    Unary {
        /// Operand.
        inner: Box<Expr>,
        /// Span of the operator.
        span: Span,
    },
    /// `lhs <op> rhs` — precedence flattened left to right.
    Binary {
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand (absent for open ranges like `x..`).
        rhs: Option<Box<Expr>>,
        /// Operator text.
        op: String,
        /// Span of the operator.
        span: Span,
    },
    /// `lhs = rhs` and compound assignments.
    Assign {
        /// Assignment target.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
        /// Span of the operator.
        span: Span,
    },
    /// `expr as Type` (the type is discarded).
    Cast {
        /// Operand.
        inner: Box<Expr>,
        /// Span of `as`.
        span: Span,
    },
    /// `expr?`.
    Try {
        /// Operand.
        inner: Box<Expr>,
        /// Span of the `?`.
        span: Span,
    },
    /// A block expression, `unsafe { … }` included.
    BlockExpr(Block),
    /// `if cond { … } [else …]` (covers `if let`: bindings in `let_vars`).
    If {
        /// Condition (scrutinee for `if let`).
        cond: Box<Expr>,
        /// Bindings introduced by `if let`.
        let_vars: Vec<String>,
        /// `if let` pattern constructor.
        let_ctor: Option<String>,
        /// Then-block.
        then: Block,
        /// Else branch (`Block` or chained `If`).
        els: Option<Box<Expr>>,
        /// Span of the `if`.
        span: Span,
    },
    /// `match scrut { arms… }`.
    Match {
        /// Scrutinee.
        scrut: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
        /// Span of the `match`.
        span: Span,
    },
    /// `['label:] loop { … }`.
    Loop {
        /// Optional label (without the quote).
        label: Option<String>,
        /// Body.
        body: Block,
        /// Span.
        span: Span,
    },
    /// `['label:] while [let pat =] cond { … }`.
    While {
        /// Optional label.
        label: Option<String>,
        /// Condition / scrutinee.
        cond: Box<Expr>,
        /// Bindings from `while let`.
        let_vars: Vec<String>,
        /// `while let` pattern constructor.
        let_ctor: Option<String>,
        /// Body.
        body: Block,
        /// Span.
        span: Span,
    },
    /// `['label:] for pat in iter { … }`.
    For {
        /// Optional label.
        label: Option<String>,
        /// Loop-variable bindings.
        vars: Vec<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
        /// Span.
        span: Span,
    },
    /// `return [expr]`.
    Return {
        /// Returned value.
        value: Option<Box<Expr>>,
        /// Span.
        span: Span,
    },
    /// `break ['label] [expr]`.
    Break {
        /// Targeted label.
        label: Option<String>,
        /// Break value.
        value: Option<Box<Expr>>,
        /// Span.
        span: Span,
    },
    /// `continue ['label]`.
    Continue {
        /// Targeted label.
        label: Option<String>,
        /// Span.
        span: Span,
    },
    /// `[move] |params| body`.
    Closure {
        /// Parameter bindings.
        params: Vec<String>,
        /// Body expression.
        body: Box<Expr>,
        /// `move` closure.
        moved: bool,
        /// Span of the opening pipe.
        span: Span,
    },
    /// `name!(…)` — arguments parsed as expressions when they are ones
    /// (`format!`-alikes); opaque otherwise (`asm!`, `matches!`).
    MacroCall {
        /// Macro path (`core::arch::asm` → `asm`).
        name: String,
        /// Parsed arguments (empty when the body was opaque).
        args: Vec<Expr>,
        /// Span of the macro name.
        span: Span,
    },
    /// `Path { field: expr, .. }`.
    StructLit {
        /// Struct path segments.
        path: Vec<String>,
        /// Field initializers (shorthand fields get a path expr).
        fields: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// `(a, b, …)` (including 1-tuples and parenthesized exprs).
    Tuple {
        /// Elements.
        items: Vec<Expr>,
        /// Span.
        span: Span,
    },
    /// `[a, b]` / `[x; n]`.
    Array {
        /// Elements.
        items: Vec<Expr>,
        /// Span.
        span: Span,
    },
}

impl Expr {
    /// This expression's span.
    pub fn span(&self) -> Span {
        match self {
            Expr::Path { span, .. }
            | Expr::Lit { span }
            | Expr::Call { span, .. }
            | Expr::MethodCall { span, .. }
            | Expr::Field { span, .. }
            | Expr::Index { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Assign { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Try { span, .. }
            | Expr::If { span, .. }
            | Expr::Match { span, .. }
            | Expr::Loop { span, .. }
            | Expr::While { span, .. }
            | Expr::For { span, .. }
            | Expr::Return { span, .. }
            | Expr::Break { span, .. }
            | Expr::Continue { span, .. }
            | Expr::Closure { span, .. }
            | Expr::MacroCall { span, .. }
            | Expr::StructLit { span, .. }
            | Expr::Tuple { span, .. }
            | Expr::Array { span, .. } => *span,
            Expr::BlockExpr(b) => b.span,
        }
    }

    /// Visit this expression and every sub-expression, pre-order.
    pub fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        self.walk_pruned(&mut |e| {
            f(e);
            true
        });
    }

    /// Pre-order visit where the callback decides descent: returning
    /// `false` skips the node's children (used to stop at closure
    /// boundaries when scanning for `?`/panic effects).
    pub fn walk_pruned(&self, f: &mut dyn FnMut(&Expr) -> bool) {
        if !f(self) {
            return;
        }
        let walk_block = |b: &Block, f: &mut dyn FnMut(&Expr) -> bool| {
            for s in &b.stmts {
                walk_stmt(s, f);
            }
        };
        match self {
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Continue { .. } => {}
            Expr::Call { callee, args, .. } => {
                callee.walk_pruned(f);
                for a in args {
                    a.walk_pruned(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk_pruned(f);
                for a in args {
                    a.walk_pruned(f);
                }
            }
            Expr::Field { recv, .. } => recv.walk_pruned(f),
            Expr::Index { recv, index, .. } => {
                recv.walk_pruned(f);
                index.walk_pruned(f);
            }
            Expr::Unary { inner, .. } | Expr::Cast { inner, .. } | Expr::Try { inner, .. } => {
                inner.walk_pruned(f)
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk_pruned(f);
                if let Some(r) = rhs {
                    r.walk_pruned(f);
                }
            }
            Expr::Assign { lhs, rhs, .. } => {
                lhs.walk_pruned(f);
                rhs.walk_pruned(f);
            }
            Expr::BlockExpr(b) => walk_block(b, f),
            Expr::If { cond, then, els, .. } => {
                cond.walk_pruned(f);
                walk_block(then, f);
                if let Some(e) = els {
                    e.walk_pruned(f);
                }
            }
            Expr::Match { scrut, arms, .. } => {
                scrut.walk_pruned(f);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        g.walk_pruned(f);
                    }
                    arm.body.walk_pruned(f);
                }
            }
            Expr::Loop { body, .. } => walk_block(body, f),
            Expr::While { cond, body, .. } => {
                cond.walk_pruned(f);
                walk_block(body, f);
            }
            Expr::For { iter, body, .. } => {
                iter.walk_pruned(f);
                walk_block(body, f);
            }
            Expr::Return { value, .. } | Expr::Break { value, .. } => {
                if let Some(v) = value {
                    v.walk_pruned(f);
                }
            }
            Expr::Closure { body, .. } => body.walk_pruned(f),
            Expr::MacroCall { args, .. } => {
                for a in args {
                    a.walk_pruned(f);
                }
            }
            Expr::StructLit { fields, .. } => {
                for e in fields {
                    e.walk_pruned(f);
                }
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for e in items {
                    e.walk_pruned(f);
                }
            }
        }
    }
}

/// Visit every expression under a statement (`let` initializers,
/// `let … else` blocks, expression statements), pre-order with pruning.
pub fn walk_stmt(s: &Stmt, f: &mut dyn FnMut(&Expr) -> bool) {
    match s {
        Stmt::Let { init, else_block, .. } => {
            if let Some(e) = init {
                e.walk_pruned(f);
            }
            if let Some(b) = else_block {
                for s in &b.stmts {
                    walk_stmt(s, f);
                }
            }
        }
        Stmt::Expr { expr, .. } => expr.walk_pruned(f),
    }
}

/// A function whose body the grammar could not handle.
#[derive(Debug, Clone)]
pub struct Unparsed {
    /// Function name.
    pub name: String,
    /// Span of the `fn`.
    pub span: Span,
    /// Whether it sits in a `#[cfg(test)]` region.
    pub in_test: bool,
    /// What went wrong, with the offending position.
    pub error: String,
}

/// The parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Successfully parsed functions, in source order.
    pub functions: Vec<Function>,
    /// Functions the grammar could not handle.
    pub unparsed: Vec<Unparsed>,
}

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Lifetime(String),
    Num,
    Str,
    Char,
    Op(String),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
    col: usize,
}

impl Token {
    fn span(&self) -> Span {
        Span { line: self.line, col: self.col }
    }

    fn is_op(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Op(o) if o == s)
    }

    fn is_ident(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Ident(i) if i == s)
    }
}

/// Multi-character operators, longest first.
const MULTI_OPS: [&str; 23] = [
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "..", "&&", "||", "==", "!=", "<=", ">=", "+=", "-=",
    "*=", "/=", "%=", "^=", "|=", "&=", "<<",
];

fn tokenize(file: &ScannedFile) -> Vec<Token> {
    let mut out = Vec::new();
    let mut in_str = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            // A string literal left open on a previous line (the lexer
            // blanks interiors, so only whitespace precedes the close).
            if in_str {
                if c == '"' {
                    in_str = false;
                }
                i += 1;
                continue;
            }
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            let col = i + 1;
            if c == '"' {
                // Interior is blanked; find the close on this line or
                // carry the open state across lines.
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '"' {
                    j += 1;
                }
                out.push(Token { tok: Tok::Str, line: lineno, col });
                if j < chars.len() {
                    i = j + 1;
                } else {
                    in_str = true;
                    i = chars.len();
                }
                continue;
            }
            if c == '\'' {
                // `''` is a blanked char literal; `'ident` is a lifetime
                // or label.
                if chars.get(i + 1) == Some(&'\'') {
                    out.push(Token { tok: Tok::Char, line: lineno, col });
                    i += 2;
                    continue;
                }
                let mut j = i + 1;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let name: String = chars[i + 1..j].iter().collect();
                out.push(Token { tok: Tok::Lifetime(name), line: lineno, col });
                i = j;
                continue;
            }
            if c.is_ascii_digit() {
                let mut j = i + 1;
                while j < chars.len() {
                    let d = chars[j];
                    let fractional_dot = d == '.'
                        && chars.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                        && !chars[i..j].contains(&'.');
                    let exponent_sign = (d == '+' || d == '-')
                        && matches!(chars.get(j - 1), Some('e') | Some('E'))
                        && chars[i..j].iter().any(|&x| x == 'e' || x == 'E');
                    if d.is_ascii_alphanumeric() || d == '_' || fractional_dot || exponent_sign
                    {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token { tok: Tok::Num, line: lineno, col });
                i = j;
                continue;
            }
            if c.is_alphabetic() || c == '_' {
                let mut j = i + 1;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                // Byte/raw literal prefixes (`b"…"`, `b'n'`, `r"…"`,
                // `br"…"`): drop the prefix so the literal that follows
                // lexes as a plain string/char token.
                if matches!(word.as_str(), "b" | "r" | "br" | "rb")
                    && matches!(chars.get(j), Some('"') | Some('\''))
                {
                    i = j;
                    continue;
                }
                out.push(Token { tok: Tok::Ident(word), line: lineno, col });
                i = j;
                continue;
            }
            // Punctuation: longest multi-char match first.
            let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
            let mut matched = None;
            for op in MULTI_OPS {
                if rest.starts_with(op) {
                    matched = Some(op);
                    break;
                }
            }
            if let Some(op) = matched {
                out.push(Token { tok: Tok::Op(op.to_string()), line: lineno, col });
                i += op.len();
            } else {
                out.push(Token { tok: Tok::Op(c.to_string()), line: lineno, col });
                i += 1;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct ParseError {
    span: Span,
    msg: String,
}

type PResult<T> = Result<T, ParseError>;

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    file: &'a ScannedFile,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, k: usize) -> Option<&Token> {
        self.toks.get(self.pos + k)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> Span {
        self.peek().map(|t| t.span()).unwrap_or(Span { line: 0, col: 0 })
    }

    fn err<T>(&self, msg: &str) -> PResult<T> {
        Err(ParseError { span: self.here(), msg: msg.to_string() })
    }

    fn at_op(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_op(s))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(s))
    }

    fn eat_op(&mut self, s: &str) -> bool {
        if self.at_op(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, s: &str) -> PResult<Span> {
        let span = self.here();
        if self.eat_op(s) {
            Ok(span)
        } else {
            self.err(&format!("expected `{s}`"))
        }
    }

    fn ident(&mut self) -> PResult<(String, Span)> {
        match self.peek() {
            Some(Token { tok: Tok::Ident(name), line, col }) => {
                let out = (name.clone(), Span { line: *line, col: *col });
                self.pos += 1;
                Ok(out)
            }
            _ => self.err("expected identifier"),
        }
    }

    fn in_test(&self, span: Span) -> bool {
        span.line >= 1
            && self.file.lines.get(span.line - 1).is_some_and(|l| l.in_test)
    }

    /// Skip one balanced group whose opener is at the current token.
    /// Openers/closers: `( )`, `[ ]`, `{ }`.
    /// Skip to (and past) the next `;` at the current nesting depth,
    /// stepping over any bracketed groups — `static T: [u32; 256] = …;`
    /// must not stop at the `;` inside the array type.
    fn skip_to_semi(&mut self) -> PResult<()> {
        while let Some(t) = self.peek() {
            if t.is_op(";") {
                self.pos += 1;
                return Ok(());
            }
            if t.is_op("(") || t.is_op("[") || t.is_op("{") {
                self.skip_balanced()?;
            } else {
                self.pos += 1;
            }
        }
        self.err("item ran past end of file")
    }

    fn skip_balanced(&mut self) -> PResult<()> {
        let mut depth = 0i64;
        loop {
            let Some(t) = self.bump() else {
                return self.err("unbalanced group hit end of file");
            };
            if let Tok::Op(op) = &t.tok {
                match op.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(());
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Skip a balanced `<…>` generics group starting at `<`.
    fn skip_angles(&mut self) -> PResult<()> {
        let mut depth = 0i64;
        loop {
            let Some(t) = self.bump() else {
                return self.err("unbalanced angle brackets");
            };
            if let Tok::Op(op) = &t.tok {
                match op.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(());
                        }
                    }
                    // Parenthesized types inside bounds: `Fn(A) -> B`.
                    "(" | "[" => {
                        self.pos -= 1;
                        self.skip_balanced()?;
                    }
                    _ => {}
                }
            }
        }
    }

    /// Skip a type: used after `as`, `:` annotations, and `->`. Stops at
    /// any of `stops` seen at bracket depth 0.
    fn skip_type(&mut self, stops: &[&str]) -> PResult<()> {
        loop {
            let Some(t) = self.peek() else { return Ok(()) };
            match &t.tok {
                Tok::Op(op) => {
                    let op = op.clone();
                    if stops.contains(&op.as_str()) {
                        return Ok(());
                    }
                    match op.as_str() {
                        "(" | "[" => self.skip_balanced()?,
                        "<" => self.skip_angles()?,
                        ")" | "]" | "}" | ";" | "," => return Ok(()),
                        _ => {
                            self.pos += 1;
                        }
                    }
                }
                Tok::Ident(word) => {
                    // `else`/`in`/`where` terminate annotation contexts.
                    if stops.contains(&word.as_str()) {
                        return Ok(());
                    }
                    // `dyn Trait`, `impl Trait`, paths, keywords — all
                    // just words here.
                    self.pos += 1;
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    // -- patterns ----------------------------------------------------------

    /// Collect binding names from the pattern tokens up to (not
    /// consuming) any of `stops` at depth 0. Heuristic but accurate for
    /// the workspace's patterns: path segments (`Foo::Bar`), struct
    /// field names before `:`, literals, `_`, `..`, and `&`/`mut`/`ref`
    /// noise are skipped; remaining identifiers are bindings.
    fn pattern_vars(&mut self, stops: &[&str]) -> PResult<Vec<String>> {
        self.pattern_vars_ctor(stops).map(|(vars, _)| vars)
    }

    /// Like [`Self::pattern_vars`], but also reports the pattern's
    /// leading constructor — the last path segment before a `(`/`{`
    /// payload (`Ok(fd)` → `Ok`, `Poll::Ready(v)` → `Ready`).
    /// The lock-discipline pass uses it to bind only success arms of an
    /// acquiring scrutinee.
    fn pattern_vars_ctor(
        &mut self,
        stops: &[&str],
    ) -> PResult<(Vec<String>, Option<String>)> {
        let mut vars = Vec::new();
        let mut ctor: Option<String> = None;
        let mut depth = 0i64;
        loop {
            let Some(t) = self.peek() else { return Ok((vars, ctor)) };
            match &t.tok {
                Tok::Op(op) => {
                    let op = op.clone();
                    if depth == 0 && stops.contains(&op.as_str()) {
                        return Ok((vars, ctor));
                    }
                    match op.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => {
                            if depth == 0 {
                                return Ok((vars, ctor));
                            }
                            depth -= 1;
                        }
                        "<" => {
                            // Turbofish in a pattern path.
                            self.skip_angles()?;
                            continue;
                        }
                        _ => {}
                    }
                    self.pos += 1;
                }
                Tok::Ident(word) => {
                    if depth == 0 && stops.contains(&word.as_str()) {
                        return Ok((vars, ctor));
                    }
                    let word = word.clone();
                    let next_sep = self.peek_at(1).map(|t| match &t.tok {
                        Tok::Op(o) => o.clone(),
                        _ => String::new(),
                    });
                    self.pos += 1;
                    match word.as_str() {
                        "mut" | "ref" | "_" | "box" => continue,
                        _ => {}
                    }
                    match next_sep.as_deref() {
                        // `Foo::…` or `Foo(…)` or `Foo { … }` — a path
                        // segment, not a binding. (`Struct { bytes }`
                        // shorthand bindings are idents followed by `,`
                        // or `}`.)
                        Some("(") | Some("{") => {
                            if depth == 0 {
                                ctor = Some(word);
                            }
                        }
                        Some("::") => {}
                        // `field: pat` — the field name is not a binding.
                        // Only inside a struct pattern's braces; at depth
                        // 0 a `name: Type` annotation (fn/closure params)
                        // does bind the name.
                        Some(":") if depth > 0 => {}
                        // `name @ pat` binds the name.
                        _ => {
                            if word.chars().next().is_some_and(|c| c.is_lowercase() || c == '_') {
                                vars.push(word);
                            }
                        }
                    }
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    // -- blocks and statements --------------------------------------------

    fn parse_block(&mut self) -> PResult<Block> {
        let span = self.expect_op("{")?;
        let mut stmts = Vec::new();
        loop {
            while self.eat_op(";") {}
            if self.at_op("}") {
                self.pos += 1;
                return Ok(Block { stmts, span });
            }
            if self.peek().is_none() {
                return self.err("unterminated block");
            }
            // Attributes on statements.
            while self.at_op("#") {
                self.pos += 1;
                self.eat_op("!");
                if self.at_op("[") {
                    self.skip_balanced()?;
                }
            }
            if self.at_ident("let") {
                stmts.push(self.parse_let()?);
                continue;
            }
            // Nested items inside bodies: parse functions, skip the rest.
            if self.at_ident("fn") {
                // Nested fns are rare; skip structurally (the item
                // scanner only collects top-level and impl fns).
                self.skip_fn_item()?;
                continue;
            }
            if self.at_ident("use") || self.at_ident("type") {
                self.skip_to_semi()?;
                continue;
            }
            if (self.at_ident("const") || self.at_ident("static"))
                && self.peek_at(1).is_some_and(|t| matches!(&t.tok, Tok::Ident(_)))
            {
                self.skip_to_semi()?;
                continue;
            }
            if self.at_ident("struct") || self.at_ident("enum") || self.at_ident("impl") {
                self.skip_to_item_end()?;
                continue;
            }
            let expr = self.parse_expr(true)?;
            let semi = self.eat_op(";");
            stmts.push(Stmt::Expr { expr, semi });
        }
    }

    fn parse_let(&mut self) -> PResult<Stmt> {
        let span = self.here();
        self.pos += 1; // `let`
        let (vars, ctor) = self.pattern_vars_ctor(&["=", ":", ";"])?;
        if self.at_op(":") {
            self.pos += 1;
            self.skip_type(&["=", ";"])?;
        }
        let mut init = None;
        let mut else_block = None;
        if self.eat_op("=") {
            init = Some(self.parse_expr(false)?);
            if self.eat_ident("else") {
                else_block = Some(self.parse_block()?);
            }
        }
        self.expect_op(";")?;
        Ok(Stmt::Let { vars, ctor, init, else_block, span })
    }

    fn skip_fn_item(&mut self) -> PResult<()> {
        // `fn name …` up to the body, then the body.
        self.pos += 1;
        while let Some(t) = self.peek() {
            if t.is_op("{") {
                return self.skip_balanced();
            }
            if t.is_op(";") {
                self.pos += 1;
                return Ok(());
            }
            if t.is_op("(") || t.is_op("[") {
                self.skip_balanced()?;
            } else if t.is_op("<") {
                self.skip_angles()?;
            } else {
                self.pos += 1;
            }
        }
        self.err("unterminated nested fn")
    }

    fn skip_to_item_end(&mut self) -> PResult<()> {
        while let Some(t) = self.peek() {
            if t.is_op("{") {
                return self.skip_balanced();
            }
            if t.is_op(";") {
                self.pos += 1;
                return Ok(());
            }
            self.pos += 1;
        }
        Ok(())
    }

    // -- expressions -------------------------------------------------------

    /// Parse an expression. `stmt_pos` enables the statement rule: a
    /// block-like expression ends the statement (no binary continuation).
    fn parse_expr(&mut self, stmt_pos: bool) -> PResult<Expr> {
        self.parse_expr_inner(stmt_pos, true)
    }

    /// `structs` gates `Path { … }` literal parsing (off in conditions).
    fn parse_expr_inner(&mut self, stmt_pos: bool, structs: bool) -> PResult<Expr> {
        let lhs = self.parse_prefix(structs)?;
        let block_like = matches!(
            lhs,
            Expr::If { .. }
                | Expr::Match { .. }
                | Expr::Loop { .. }
                | Expr::While { .. }
                | Expr::For { .. }
                | Expr::BlockExpr(_)
        );
        if stmt_pos && block_like {
            return Ok(lhs);
        }
        self.parse_binary_rest(lhs, structs)
    }

    fn parse_binary_rest(&mut self, mut lhs: Expr, structs: bool) -> PResult<Expr> {
        loop {
            let Some(t) = self.peek() else { return Ok(lhs) };
            let Tok::Op(op) = &t.tok else { return Ok(lhs) };
            let op = op.clone();
            let span = t.span();
            match op.as_str() {
                "=" => {
                    self.pos += 1;
                    let rhs = self.parse_expr_inner(false, structs)?;
                    lhs = Expr::Assign { lhs: Box::new(lhs), rhs: Box::new(rhs), span };
                }
                "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "|=" | "&=" | "<<=" | ">>=" => {
                    self.pos += 1;
                    let rhs = self.parse_expr_inner(false, structs)?;
                    lhs = Expr::Assign { lhs: Box::new(lhs), rhs: Box::new(rhs), span };
                }
                "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|" | "&&" | "||" | "==" | "!="
                | "<" | "<=" | ">=" | "<<" => {
                    self.pos += 1;
                    let rhs = self.parse_unary_chain(structs)?;
                    lhs = Expr::Binary {
                        lhs: Box::new(lhs),
                        rhs: Some(Box::new(rhs)),
                        op,
                        span,
                    };
                }
                ">" => {
                    // `>` then an adjacent `>` is a right shift; either
                    // way it is a binary operator here (generics only
                    // follow `::`).
                    self.pos += 1;
                    if self.at_op(">") {
                        self.pos += 1;
                    }
                    if self.at_op("=") {
                        self.pos += 1;
                    }
                    let rhs = self.parse_unary_chain(structs)?;
                    lhs = Expr::Binary {
                        lhs: Box::new(lhs),
                        rhs: Some(Box::new(rhs)),
                        op: ">".into(),
                        span,
                    };
                }
                ".." | "..=" => {
                    self.pos += 1;
                    let rhs = if self.range_operand_follows() {
                        Some(Box::new(self.parse_unary_chain(structs)?))
                    } else {
                        None
                    };
                    lhs = Expr::Binary { lhs: Box::new(lhs), rhs, op, span };
                }
                _ => return Ok(lhs),
            }
        }
    }

    /// Does a range operand follow (`a..b`) or is the range open (`a..`)?
    fn range_operand_follows(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match &t.tok {
                Tok::Op(op) => !matches!(
                    op.as_str(),
                    ")" | "]" | "}" | "," | ";" | "=" | "=>"
                ),
                Tok::Ident(w) => !matches!(w.as_str(), "else" | "in"),
                _ => true,
            },
        }
    }

    /// A unary-prefixed postfix chain (one binary operand).
    fn parse_unary_chain(&mut self, structs: bool) -> PResult<Expr> {
        let e = self.parse_prefix(structs)?;
        // Allow casts/postfix already handled in parse_prefix.
        Ok(e)
    }

    fn parse_prefix(&mut self, structs: bool) -> PResult<Expr> {
        let Some(t) = self.peek() else {
            return self.err("expected expression");
        };
        let span = t.span();
        match &t.tok {
            Tok::Op(op) => match op.as_str() {
                "&" | "&&" => {
                    let double = op == "&&";
                    self.pos += 1;
                    // `&raw const place` / `&raw mut place`.
                    let raw_ptr = self.at_ident("raw")
                        && self.peek_at(1).is_some_and(|t| t.is_ident("const") || t.is_ident("mut"));
                    if raw_ptr {
                        self.pos += 2;
                    }
                    self.eat_ident("mut");
                    let mut inner = self.parse_prefix(structs)?;
                    if double {
                        inner = Expr::Unary { inner: Box::new(inner), span };
                    }
                    return Ok(Expr::Unary { inner: Box::new(inner), span });
                }
                "*" | "-" | "!" => {
                    self.pos += 1;
                    let inner = self.parse_prefix(structs)?;
                    return Ok(Expr::Unary { inner: Box::new(inner), span });
                }
                ".." | "..=" => {
                    // Prefix range `..n` / `..`.
                    self.pos += 1;
                    let rhs = if self.range_operand_follows() {
                        Some(Box::new(self.parse_unary_chain(structs)?))
                    } else {
                        None
                    };
                    return Ok(Expr::Binary {
                        lhs: Box::new(Expr::Lit { span }),
                        rhs,
                        op: "..".into(),
                        span,
                    });
                }
                "|" | "||" => return self.parse_closure(false, span),
                _ => {}
            },
            Tok::Ident(word) if word == "move" => {
                self.pos += 1;
                let span2 = self.here();
                return self.parse_closure(true, span2);
            }
            _ => {}
        }
        let primary = self.parse_primary(structs)?;
        self.parse_postfix(primary, structs)
    }

    fn parse_closure(&mut self, moved: bool, span: Span) -> PResult<Expr> {
        let mut params = Vec::new();
        if self.eat_op("||") {
            // No parameters.
        } else {
            self.expect_op("|")?;
            if !self.eat_op("|") {
                loop {
                    let mut vars = self.pattern_vars(&[",", "|", ":"])?;
                    params.append(&mut vars);
                    if self.at_op(":") {
                        self.pos += 1;
                        self.skip_type(&[",", "|"])?;
                    }
                    if self.eat_op(",") {
                        continue;
                    }
                    self.expect_op("|")?;
                    break;
                }
            }
        }
        if self.at_op("->") {
            self.pos += 1;
            self.skip_type(&["{"])?;
            let body = self.parse_block()?;
            return Ok(Expr::Closure {
                params,
                body: Box::new(Expr::BlockExpr(body)),
                moved,
                span,
            });
        }
        let body = self.parse_expr_inner(false, true)?;
        Ok(Expr::Closure { params, body: Box::new(body), moved, span })
    }

    fn parse_primary(&mut self, structs: bool) -> PResult<Expr> {
        let Some(t) = self.peek() else {
            return self.err("expected expression");
        };
        let span = t.span();
        match &t.tok {
            Tok::Num | Tok::Str | Tok::Char | Tok::Lifetime(_) => {
                // A lifetime here is a loop label: `'outer: loop { … }`.
                if let Tok::Lifetime(label) = &t.tok {
                    let label = label.clone();
                    if self.peek_at(1).is_some_and(|t| t.is_op(":")) {
                        self.pos += 2;
                        return self.parse_labelled_loop(Some(label), span);
                    }
                }
                self.pos += 1;
                Ok(Expr::Lit { span })
            }
            Tok::Op(op) => match op.as_str() {
                "(" => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    while !self.at_op(")") {
                        items.push(self.parse_expr_inner(false, true)?);
                        if !self.eat_op(",") {
                            break;
                        }
                    }
                    self.expect_op(")")?;
                    Ok(Expr::Tuple { items, span })
                }
                "[" => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    while !self.at_op("]") {
                        items.push(self.parse_expr_inner(false, true)?);
                        if !self.eat_op(",") && !self.eat_op(";") {
                            break;
                        }
                    }
                    self.expect_op("]")?;
                    Ok(Expr::Array { items, span })
                }
                "{" => Ok(Expr::BlockExpr(self.parse_block()?)),
                _ => self.err(&format!("unexpected `{op}` in expression")),
            },
            Tok::Ident(word) => {
                let word = word.clone();
                match word.as_str() {
                    "if" => self.parse_if(span),
                    "match" => self.parse_match(span),
                    "loop" | "while" | "for" => self.parse_labelled_loop(None, span),
                    "unsafe" => {
                        self.pos += 1;
                        Ok(Expr::BlockExpr(self.parse_block()?))
                    }
                    "return" => {
                        self.pos += 1;
                        let value = if self.expr_follows() {
                            Some(Box::new(self.parse_expr_inner(false, structs)?))
                        } else {
                            None
                        };
                        Ok(Expr::Return { value, span })
                    }
                    "break" => {
                        self.pos += 1;
                        let label = match self.peek() {
                            Some(Token { tok: Tok::Lifetime(l), .. }) => {
                                let l = l.clone();
                                self.pos += 1;
                                Some(l)
                            }
                            _ => None,
                        };
                        let value = if self.expr_follows() {
                            Some(Box::new(self.parse_expr_inner(false, structs)?))
                        } else {
                            None
                        };
                        Ok(Expr::Break { label, value, span })
                    }
                    "continue" => {
                        self.pos += 1;
                        let label = match self.peek() {
                            Some(Token { tok: Tok::Lifetime(l), .. }) => {
                                let l = l.clone();
                                self.pos += 1;
                                Some(l)
                            }
                            _ => None,
                        };
                        Ok(Expr::Continue { label, span })
                    }
                    _ => self.parse_path_expr(structs),
                }
            }
        }
    }

    /// Does an expression start at the current token (for `return x` vs
    /// bare `return`)?
    fn expr_follows(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match &t.tok {
                Tok::Op(op) => {
                    matches!(op.as_str(), "(" | "[" | "{" | "&" | "&&" | "*" | "-" | "!" | "|" | "||")
                }
                Tok::Ident(w) => !matches!(w.as_str(), "else"),
                _ => true,
            },
        }
    }

    fn parse_labelled_loop(&mut self, label: Option<String>, span: Span) -> PResult<Expr> {
        let Some(t) = self.peek() else { return self.err("expected loop") };
        let word = match &t.tok {
            Tok::Ident(w) => w.clone(),
            _ => return self.err("expected loop keyword after label"),
        };
        self.pos += 1;
        match word.as_str() {
            "loop" => {
                let body = self.parse_block()?;
                Ok(Expr::Loop { label, body, span })
            }
            "while" => {
                let mut let_vars = Vec::new();
                let mut let_ctor = None;
                let cond = if self.eat_ident("let") {
                    let (v, c) = self.pattern_vars_ctor(&["="])?;
                    let_vars = v;
                    let_ctor = c;
                    self.expect_op("=")?;
                    self.parse_expr_inner(false, false)?
                } else {
                    self.parse_expr_inner(false, false)?
                };
                let body = self.parse_block()?;
                Ok(Expr::While { label, cond: Box::new(cond), let_vars, let_ctor, body, span })
            }
            "for" => {
                let vars = self.pattern_vars(&["in"])?;
                if !self.eat_ident("in") {
                    return self.err("expected `in` in for loop");
                }
                let iter = self.parse_expr_inner(false, false)?;
                let body = self.parse_block()?;
                Ok(Expr::For { label, vars, iter: Box::new(iter), body, span })
            }
            other => self.err(&format!("expected loop construct, got `{other}`")),
        }
    }

    fn parse_if(&mut self, span: Span) -> PResult<Expr> {
        self.pos += 1; // `if`
        let mut let_vars = Vec::new();
        let mut let_ctor = None;
        let cond = if self.eat_ident("let") {
            let (v, c) = self.pattern_vars_ctor(&["="])?;
            let_vars = v;
            let_ctor = c;
            self.expect_op("=")?;
            self.parse_expr_inner(false, false)?
        } else {
            self.parse_expr_inner(false, false)?
        };
        let then = self.parse_block()?;
        let els = if self.eat_ident("else") {
            if self.at_ident("if") {
                let span2 = self.here();
                Some(Box::new(self.parse_if(span2)?))
            } else {
                Some(Box::new(Expr::BlockExpr(self.parse_block()?)))
            }
        } else {
            None
        };
        Ok(Expr::If { cond: Box::new(cond), let_vars, let_ctor, then, els, span })
    }

    fn parse_match(&mut self, span: Span) -> PResult<Expr> {
        self.pos += 1; // `match`
        let scrut = self.parse_expr_inner(false, false)?;
        self.expect_op("{")?;
        let mut arms = Vec::new();
        loop {
            while self.eat_op(",") {}
            if self.eat_op("}") {
                break;
            }
            if self.peek().is_none() {
                return self.err("unterminated match");
            }
            // Attributes on arms.
            while self.at_op("#") {
                self.pos += 1;
                if self.at_op("[") {
                    self.skip_balanced()?;
                }
            }
            let arm_span = self.here();
            let (vars, ctor) = self.pattern_vars_ctor(&["=>", "if"])?;
            let guard = if self.eat_ident("if") {
                Some(self.parse_expr_inner(false, false)?)
            } else {
                None
            };
            self.expect_op("=>")?;
            let body = self.parse_expr_inner(false, true)?;
            arms.push(Arm { vars, ctor, guard, body, span: arm_span });
        }
        Ok(Expr::Match { scrut: Box::new(scrut), arms, span })
    }

    /// Paths, calls, struct literals, macros.
    fn parse_path_expr(&mut self, structs: bool) -> PResult<Expr> {
        let (first, span) = self.ident()?;
        let mut segs = vec![first];
        loop {
            if self.at_op("::") {
                // Turbofish or next segment.
                if self.peek_at(1).is_some_and(|t| t.is_op("<")) {
                    self.pos += 1;
                    self.skip_angles()?;
                    continue;
                }
                self.pos += 1;
                let (seg, _) = self.ident()?;
                segs.push(seg);
                continue;
            }
            break;
        }
        if self.at_op("!") {
            // Macro invocation. `!` then one delimited group.
            self.pos += 1;
            let name = segs.last().cloned().unwrap_or_default();
            let args = self.parse_macro_args()?;
            return Ok(Expr::MacroCall { name, args, span });
        }
        if structs && self.at_op("{") && self.struct_literal_follows() {
            self.pos += 1; // `{`
            let mut fields = Vec::new();
            loop {
                while self.eat_op(",") {}
                if self.eat_op("}") {
                    break;
                }
                if self.eat_op("..") {
                    // Struct update base.
                    if !self.at_op("}") {
                        fields.push(self.parse_expr_inner(false, true)?);
                    }
                    continue;
                }
                let (fname, fspan) = self.ident()?;
                if self.eat_op(":") {
                    fields.push(self.parse_expr_inner(false, true)?);
                } else {
                    // Shorthand `Struct { name }` — the field reads the
                    // local of the same name.
                    fields.push(Expr::Path { segs: vec![fname], span: fspan });
                }
                if !self.eat_op(",") {
                    self.expect_op("}")?;
                    break;
                }
            }
            return Ok(Expr::StructLit { path: segs, fields, span });
        }
        Ok(Expr::Path { segs, span })
    }

    /// Heuristic: `Path {` opens a struct literal if the brace is
    /// followed by `}`, `ident:`, `ident,`, `ident }` or `..`.
    fn struct_literal_follows(&self) -> bool {
        match (self.peek_at(1), self.peek_at(2)) {
            (Some(a), b) => match (&a.tok, b.map(|t| &t.tok)) {
                (Tok::Op(o), _) if o == "}" || o == ".." => true,
                (Tok::Ident(_), Some(Tok::Op(o))) => o == ":" || o == "," || o == "}",
                _ => false,
            },
            _ => false,
        }
    }

    fn parse_macro_args(&mut self) -> PResult<Vec<Expr>> {
        let Some(t) = self.peek() else { return self.err("expected macro arguments") };
        let (open, _close) = match &t.tok {
            Tok::Op(o) if o == "(" => ("(", ")"),
            Tok::Op(o) if o == "[" => ("[", "]"),
            Tok::Op(o) if o == "{" => ("{", "}"),
            _ => return self.err("expected macro delimiter"),
        };
        // Try to parse the body as a comma-separated expression list; on
        // any failure fall back to skipping the balanced group (asm!,
        // matches!, write! with format specs, …).
        let start = self.pos;
        let attempt = (|| -> PResult<Vec<Expr>> {
            self.pos += 1; // opener
            let mut args = Vec::new();
            let close_tok = match open {
                "(" => ")",
                "[" => "]",
                _ => "}",
            };
            while !self.at_op(close_tok) {
                args.push(self.parse_expr_inner(false, true)?);
                if !self.eat_op(",") && !self.eat_op(";") {
                    break;
                }
            }
            self.expect_op(close_tok)?;
            Ok(args)
        })();
        match attempt {
            Ok(args) => Ok(args),
            Err(_) => {
                self.pos = start;
                self.skip_balanced()?;
                Ok(Vec::new())
            }
        }
    }

    fn parse_postfix(&mut self, mut e: Expr, structs: bool) -> PResult<Expr> {
        loop {
            let Some(t) = self.peek() else { return Ok(e) };
            let span = t.span();
            match &t.tok {
                Tok::Op(op) => match op.as_str() {
                    "." => {
                        self.pos += 1;
                        match self.peek() {
                            Some(Token { tok: Tok::Num, line, col }) => {
                                let fspan = Span { line: *line, col: *col };
                                self.pos += 1;
                                e = Expr::Field {
                                    recv: Box::new(e),
                                    name: "tuple-index".into(),
                                    span: fspan,
                                };
                            }
                            Some(Token { tok: Tok::Ident(name), line, col }) => {
                                let name = name.clone();
                                let fspan = Span { line: *line, col: *col };
                                self.pos += 1;
                                // Optional turbofish.
                                if self.at_op("::") && self.peek_at(1).is_some_and(|t| t.is_op("<"))
                                {
                                    self.pos += 1;
                                    self.skip_angles()?;
                                }
                                if self.at_op("(") {
                                    let args = self.parse_call_args()?;
                                    e = Expr::MethodCall {
                                        recv: Box::new(e),
                                        method: name,
                                        args,
                                        span: fspan,
                                    };
                                } else {
                                    e = Expr::Field { recv: Box::new(e), name, span: fspan };
                                }
                            }
                            _ => return self.err("expected field or method after `.`"),
                        }
                    }
                    "?" => {
                        self.pos += 1;
                        e = Expr::Try { inner: Box::new(e), span };
                    }
                    "(" => {
                        let args = self.parse_call_args()?;
                        e = Expr::Call { callee: Box::new(e), args, span };
                    }
                    "[" => {
                        self.pos += 1;
                        let index = if self.at_op("]") {
                            Expr::Lit { span }
                        } else {
                            self.parse_expr_inner(false, true)?
                        };
                        self.expect_op("]")?;
                        e = Expr::Index { recv: Box::new(e), index: Box::new(index), span };
                    }
                    _ => return Ok(e),
                },
                Tok::Ident(w) if w == "as" => {
                    self.pos += 1;
                    self.skip_type(&[
                        ")", "]", "}", ";", ",", "=>", "?", ".", "==", "!=", "<=", ">=", "&&",
                        "||", "+", "-", "/", "%", "{", "..", "..=", ">",
                    ])?;
                    e = Expr::Cast { inner: Box::new(e), span };
                }
                _ => return Ok(e),
            }
            let _ = structs;
        }
    }

    fn parse_call_args(&mut self) -> PResult<Vec<Expr>> {
        self.expect_op("(")?;
        let mut args = Vec::new();
        while !self.at_op(")") {
            args.push(self.parse_expr_inner(false, true)?);
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op(")")?;
        Ok(args)
    }
}

// ---------------------------------------------------------------------------
// Item scanning
// ---------------------------------------------------------------------------

/// Parse a scanned file into per-function ASTs.
pub fn parse_file(file: &ScannedFile) -> ParsedFile {
    let toks = tokenize(file);
    let mut out = ParsedFile::default();
    let mut p = Parser { toks: &toks, pos: 0, file };
    scan_items(&mut p, None, &mut out);
    out
}

/// Walk item-level tokens, recursing into `mod`/`impl`/`trait` bodies and
/// parsing every `fn`.
fn scan_items(p: &mut Parser<'_>, qual: Option<&str>, out: &mut ParsedFile) {
    loop {
        let Some(t) = p.peek() else { return };
        match &t.tok {
            Tok::Op(op) => {
                match op.as_str() {
                    "#" => {
                        p.pos += 1;
                        p.eat_op("!");
                        if p.at_op("[") {
                            let _ = p.skip_balanced();
                        }
                    }
                    "{" => {
                        // Stray block at item level (shouldn't happen) —
                        // skip to stay in sync.
                        let _ = p.skip_balanced();
                    }
                    "}" => return, // end of enclosing mod/impl/trait
                    _ => p.pos += 1,
                }
            }
            Tok::Ident(word) => {
                let word = word.clone();
                match word.as_str() {
                    "mod" => {
                        p.pos += 1;
                        let _ = p.ident();
                        if p.eat_op("{") {
                            scan_items(p, qual, out);
                            p.eat_op("}");
                        } else {
                            p.eat_op(";");
                        }
                    }
                    "impl" => {
                        p.pos += 1;
                        // `impl<T> Type {` / `impl Trait for Type {`.
                        if p.at_op("<") {
                            let _ = p.skip_angles();
                        }
                        let mut last_path_seg = String::new();
                        while let Some(t) = p.peek() {
                            match &t.tok {
                                Tok::Op(o) if o == "{" => break,
                                Tok::Op(o) if o == "<" => {
                                    let _ = p.skip_angles();
                                }
                                Tok::Op(o) if o == "(" || o == "[" => {
                                    let _ = p.skip_balanced();
                                }
                                Tok::Ident(w) if w == "for" => {
                                    last_path_seg.clear();
                                    p.pos += 1;
                                }
                                Tok::Ident(w) if w == "where" => {
                                    p.pos += 1;
                                }
                                Tok::Ident(w) => {
                                    last_path_seg = w.clone();
                                    p.pos += 1;
                                }
                                _ => p.pos += 1,
                            }
                        }
                        if p.eat_op("{") {
                            let q = if last_path_seg.is_empty() {
                                None
                            } else {
                                Some(last_path_seg)
                            };
                            scan_items(p, q.as_deref(), out);
                            p.eat_op("}");
                        }
                    }
                    "trait" => {
                        p.pos += 1;
                        let name = p.ident().map(|(n, _)| n).unwrap_or_default();
                        while let Some(t) = p.peek() {
                            if t.is_op("{") {
                                break;
                            }
                            if t.is_op("<") {
                                let _ = p.skip_angles();
                            } else {
                                p.pos += 1;
                            }
                        }
                        if p.eat_op("{") {
                            scan_items(p, Some(&name), out);
                            p.eat_op("}");
                        }
                    }
                    "fn" => parse_function(p, qual, out),
                    "struct" | "enum" | "union" | "use" | "type" | "extern" => {
                        p.pos += 1;
                        let _ = p.skip_to_item_end();
                    }
                    "const" | "static" => {
                        p.pos += 1;
                        if p.at_ident("fn") {
                            parse_function(p, qual, out);
                        } else {
                            let _ = p.skip_to_item_end();
                        }
                    }
                    "macro_rules" => {
                        p.pos += 1;
                        p.eat_op("!");
                        let _ = p.ident();
                        let _ = p.skip_to_item_end();
                    }
                    // pub, crate, visibility, doc words, and the `unsafe` of
                    // `unsafe fn` / `unsafe impl`, which loop back around.
                    _ => p.pos += 1,
                }
            }
            _ => p.pos += 1,
        }
    }
}

/// Parse one `fn` whose `fn` keyword is at the current token.
fn parse_function(p: &mut Parser<'_>, qual: Option<&str>, out: &mut ParsedFile) {
    let span = p.here();
    p.pos += 1; // `fn`
    let Ok((bare, _)) = p.ident() else {
        return;
    };
    let name = match qual {
        Some(q) => format!("{q}::{bare}"),
        None => bare,
    };
    let in_test = p.in_test(span);
    // Generics.
    if p.at_op("<") && p.skip_angles().is_err() {
        return;
    }
    // Parameters.
    let params_start = p.pos;
    let mut params = Vec::new();
    if p.at_op("(") {
        p.pos += 1;
        loop {
            if p.at_op(")") {
                p.pos += 1;
                break;
            }
            if p.peek().is_none() {
                return;
            }
            // Attribute on a parameter.
            while p.at_op("#") {
                p.pos += 1;
                if p.at_op("[") && p.skip_balanced().is_err() {
                    return;
                }
            }
            // `&self` / `&mut self` / `self` / `mut self`.
            match p.pattern_vars(&[":", ",", ")"]) {
                Ok(mut vars) => {
                    if vars.is_empty()
                        && p.toks[params_start..p.pos].iter().any(|t| t.is_ident("self"))
                    {
                        vars.push("self".into());
                    }
                    params.append(&mut vars);
                }
                Err(_) => return,
            }
            if p.at_op(":") {
                p.pos += 1;
                if p.skip_type(&[",", ")"]).is_err() {
                    return;
                }
            }
            if !p.eat_op(",") {
                if p.eat_op(")") {
                    break;
                }
                return;
            }
        }
    }
    // `self` params: pattern_vars skips lone keywords like `self`? It
    // collects lowercase idents, and `self` passes that filter, so the
    // explicit fixup above is just belt-and-braces for `&self`.
    if params.is_empty() {
        let sig = &p.toks[params_start..p.pos];
        if sig.iter().any(|t| t.is_ident("self")) {
            params.push("self".into());
        }
    }
    // Return type.
    if p.at_op("->") {
        p.pos += 1;
        if p.skip_type(&["{", "where", ";"]).is_err() {
            return;
        }
    }
    // Where clause.
    if p.at_ident("where") {
        while let Some(t) = p.peek() {
            if t.is_op("{") || t.is_op(";") {
                break;
            }
            if t.is_op("<") {
                if p.skip_angles().is_err() {
                    return;
                }
            } else if t.is_op("(") || t.is_op("[") {
                if p.skip_balanced().is_err() {
                    return;
                }
            } else {
                p.pos += 1;
            }
        }
    }
    // Body (or trait-method `;`).
    if p.eat_op(";") {
        return;
    }
    if !p.at_op("{") {
        out.unparsed.push(Unparsed {
            name,
            span,
            in_test,
            error: format!("expected function body at {}", p.here()),
        });
        // Resync: skip to the next plausible item.
        while let Some(t) = p.peek() {
            if t.is_op("{") {
                let _ = p.skip_balanced();
                break;
            }
            if t.is_op(";") {
                p.pos += 1;
                break;
            }
            p.pos += 1;
        }
        return;
    }
    let body_start = p.pos;
    match p.parse_block() {
        Ok(body) => out.functions.push(Function { name, span, params, in_test, body }),
        Err(e) => {
            out.unparsed.push(Unparsed {
                name,
                span,
                in_test,
                error: format!("{} at {}", e.msg, e.span),
            });
            // Recover by skipping the raw body braces.
            p.pos = body_start;
            let _ = p.skip_balanced();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&scan(src))
    }

    fn ok(src: &str) -> ParsedFile {
        let f = parse(src);
        assert!(f.unparsed.is_empty(), "unparsed: {:?}", f.unparsed);
        f
    }

    #[test]
    fn simple_function_with_let_and_call() {
        let f = ok("fn f() {\n    let fd = sys::accept4(listener)?;\n    sys::close(fd);\n}\n");
        assert_eq!(f.functions.len(), 1);
        let func = &f.functions[0];
        assert_eq!(func.name, "f");
        assert_eq!(func.body.stmts.len(), 2);
        match &func.body.stmts[0] {
            Stmt::Let { vars, init, .. } => {
                assert_eq!(vars, &["fd"]);
                assert!(matches!(init, Some(Expr::Try { .. })));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn raw_borrows_parse_as_unary_places() {
        let f = ok("fn f(event: E) -> usize {\n    ctl(&raw const event as usize, &raw mut v.x)\n}\n");
        assert_eq!(f.functions.len(), 1);
    }

    #[test]
    fn impl_methods_get_qualified_names() {
        let f = ok("impl Conn {\n    pub fn new(fd: i32) -> Self { Self { fd } }\n    fn fill(&mut self) -> usize { self.rbuf.len() }\n}\n");
        let names: Vec<&str> = f.functions.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["Conn::new", "Conn::fill"]);
        assert_eq!(f.functions[1].params, vec!["self"]);
    }

    #[test]
    fn control_flow_and_labels() {
        let src = "fn f() {\n    'outer: loop {\n        for off in 1..workers {\n            match d.claim() {\n                Claim::Chunk(v) => continue 'outer,\n                Claim::Empty => break,\n                Claim::Retry => {}\n            }\n        }\n        if done { break; } else { continue; }\n    }\n}\n";
        let f = ok(src);
        let func = &f.functions[0];
        match &func.body.stmts[0] {
            Stmt::Expr { expr: Expr::Loop { label, .. }, .. } => {
                assert_eq!(label.as_deref(), Some("outer"));
            }
            other => panic!("expected labelled loop, got {other:?}"),
        }
    }

    #[test]
    fn let_else_and_while_let() {
        let src = "fn f(slots: &mut M) {\n    let Some(slot) = slots.get_mut(&fd) else { continue };\n    while let Some(v) = d.pop() { use_it(v); }\n}\n";
        let f = ok(src);
        match &f.functions[0].body.stmts[0] {
            Stmt::Let { vars, else_block, .. } => {
                assert_eq!(vars, &["slot"]);
                assert!(else_block.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn closures_structs_and_macros() {
        let src = "fn f() {\n    let h = thread::spawn(move || { shard_loop(fd, &cfg); });\n    let e = EpollEvent { events: 0, data: fd as u32 as u64 };\n    let v = vec![1, 2];\n    core::arch::asm!(\"syscall\", in(\"rdi\") a, options(nostack));\n}\n";
        let f = ok(src);
        assert_eq!(f.functions.len(), 1);
    }

    #[test]
    fn match_guards_and_struct_patterns() {
        let src = "fn f(e: &E) -> i32 {\n    match e {\n        E::Sys { errno, .. } if *errno == 4 => 1,\n        E::Would(n) => *n,\n        _ => 0,\n    }\n}\n";
        let f = ok(src);
        match &f.functions[0].body.stmts[0] {
            Stmt::Expr { expr: Expr::Match { arms, .. }, semi } => {
                assert!(!semi);
                assert_eq!(arms.len(), 3);
                assert_eq!(arms[0].vars, vec!["errno"]);
                assert!(arms[0].guard.is_some());
                assert_eq!(arms[1].vars, vec!["n"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsafe_blocks_and_fns_are_recorded() {
        let src = "unsafe fn raw() -> isize { 0 }\nfn wrap() {\n    let r = unsafe { raw() };\n    touch(r);\n}\n";
        let f = ok(src);
        assert_eq!(f.functions[0].name, "raw");
        let mut saw_unsafe = false;
        for s in &f.functions[1].body.stmts {
            if let Stmt::Let { init: Some(e), .. } = s {
                e.walk(&mut |x| {
                    if matches!(x, Expr::BlockExpr(_)) {
                        saw_unsafe = true;
                    }
                });
            }
        }
        assert!(saw_unsafe);
    }

    #[test]
    fn generics_where_clauses_and_turbofish() {
        let src = "fn map_worker<T, U, F>(me: usize, f: &F) -> Vec<(usize, U)>\nwhere\n    T: Sync,\n    F: Fn(usize, &T) -> U + Sync,\n{\n    let x = payload.downcast_ref::<&str>();\n    let n = value.parse::<usize>()?;\n    items.iter().map(|i| f(0, i)).collect::<Vec<_>>()\n}\n";
        let f = ok(src);
        assert_eq!(f.functions[0].name, "map_worker");
        assert_eq!(f.functions[0].params, vec!["me", "f"]);
    }

    #[test]
    fn ranges_shifts_and_casts() {
        let src = "fn f() {\n    let a = &buf[..n];\n    let b = &self.wbuf[self.written..];\n    let c = 1u32 << 31;\n    let d = x >> 2;\n    let e = fd as u32 as u64;\n    for i in 0..CAPACITY as u64 { touch(i); }\n}\n";
        ok(src);
    }

    #[test]
    fn unparsed_function_is_reported_not_fatal() {
        // Deliberate nonsense inside g's body; f and h still parse.
        let src = "fn f() { good(); }\nfn g() { let = ; @@ }\nfn h() { fine(); }\n";
        let f = parse(src);
        let names: Vec<&str> = f.functions.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["f", "h"]);
        assert_eq!(f.unparsed.len(), 1);
        assert_eq!(f.unparsed[0].name, "g");
    }

    #[test]
    fn test_region_functions_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x(); }\n}\n";
        let f = ok(src);
        assert!(!f.functions[0].in_test);
        assert!(f.functions[1].in_test);
    }
}
