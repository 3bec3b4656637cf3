//! A recursive-descent **item parser** over [`crate::lexer`]'s token
//! stream — the structural layer the semantic rules stand on.
//!
//! Token-pattern rules (PR 3) can say "`HashMap` appears"; they cannot
//! say "a value decoded from the wire reaches `with_capacity` without
//! passing `bounded_count`". That requires knowing what a *statement*
//! is, what a *call argument* is, and which `fn` a body belongs to.
//! This module produces exactly that much structure and no more:
//!
//! * **items** — modules, `use` imports, `fn`s with param/return
//!   signatures, `impl` blocks (with their self type), structs, enums,
//!   traits, consts — each with an inclusive line span, so allows and
//!   scopes can bind to the item they annotate;
//! * **statement/expression spines** inside fn bodies — `let`
//!   bindings, assignments, calls, method chains, `?`, `match`, `if`,
//!   loops, closures, casts, binary operators — enough for an
//!   intra-procedural dataflow pass ([`crate::flow`]) and a workspace
//!   call graph ([`crate::callgraph`]).
//!
//! # Permissiveness contract
//!
//! The parser must swallow the **entire workspace with zero errors**
//! (pinned by `crates/lint/tests/parser.rs`), and must never panic on
//! arbitrary token soup (fuzzed there too). Expression parsing is
//! therefore *total*: a construct the grammar does not recognize is
//! consumed as [`ExprKind::Opaque`] — one token at a time if need be —
//! rather than rejected. [`ParseError`]s are reserved for structural
//! impossibilities (an item body whose delimiters never balance before
//! EOF), which cannot occur in code `rustc` accepts. Fidelity is
//! *local*: an `Opaque` hole degrades the analysis of one expression,
//! never the file.
//!
//! Macros are not expanded. A macro invocation's arguments are parsed
//! as a best-effort comma/semicolon-separated expression list (so
//! `vec![0u8; n]` exposes `n` to the dataflow pass); bodies of
//! `macro_rules!` definitions, item-position macro invocations and
//! `const`/`static` initializers are skipped, keeping only the
//! identifiers in them (the call graph counts those as references).

use crate::lexer::{Lexed, Tok, TokKind};

/// One parsed source file.
#[derive(Debug, Default)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Structural parse failures (empty on everything `rustc` accepts).
    pub errors: Vec<ParseError>,
}

/// A structural parse failure.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// 1-based line the failure was detected on.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

/// One item (top-level or nested in a `mod`/`impl`/`trait`).
#[derive(Debug)]
pub struct Item {
    /// What kind of item, with kind-specific payload.
    pub kind: ItemKind,
    /// Item name (`""` for `impl` blocks and unnamed items).
    pub name: String,
    /// 1-based first line (attributes included).
    pub line: u32,
    /// 1-based last line of the item (closing brace / semicolon).
    pub end_line: u32,
}

/// Item payloads.
#[derive(Debug)]
pub enum ItemKind {
    /// `mod name { … }` (inline) or `mod name;` (empty body).
    Mod(Vec<Item>),
    /// `use path…;` with the raw path text.
    Use(String),
    /// A function with signature and (for non-trait-decl fns) a body.
    Fn(FnItem),
    /// `impl [Trait for] Type { … }`.
    Impl {
        /// The self type's raw text (e.g. `Wei`, `Pool<'a>`).
        self_ty: String,
        /// The implemented trait's raw text, if any.
        trait_ty: Option<String>,
        /// Associated items (fns, consts, types).
        items: Vec<Item>,
    },
    /// `trait Name { … }` with its associated items.
    Trait(Vec<Item>),
    /// `struct` / `enum` / `union` declaration (fields not modeled).
    TypeDef,
    /// `const` / `static` binding, with the identifiers of its
    /// (unparsed) initializer.
    ConstDef(Vec<String>),
    /// `type Alias = …;`
    TypeAlias,
    /// `macro_rules! name { … }`, with the identifiers of its
    /// (unparsed) body.
    MacroDef(Vec<String>),
    /// An item-position macro invocation (`name! { … }`), with the
    /// identifiers of its (unparsed) arguments.
    MacroInvocation(Vec<String>),
    /// Anything else (e.g. `extern` blocks), consumed structurally.
    Other,
}

/// A parsed `fn`.
#[derive(Debug)]
pub struct FnItem {
    /// Declared plain `pub` (not `pub(crate)` or narrower).
    pub public: bool,
    /// Parameters in order (receiver `self` included, with type `""`
    /// unless ascribed).
    pub params: Vec<Param>,
    /// Raw return-type text (`""` for unit).
    pub ret: String,
    /// Body block; `None` for bodiless trait/extern declarations.
    pub body: Option<Block>,
}

/// One fn parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding name (pattern params contribute every bound name,
    /// joined — see [`bound_names`]).
    pub name: String,
    /// Raw type text.
    pub ty: String,
}

/// A `{ … }` block.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// 1-based line of the opening brace.
    pub line: u32,
    /// 1-based line of the closing brace.
    pub end_line: u32,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let PAT[: TY] [= EXPR] [else BLOCK];`
    Let {
        /// Raw pattern text.
        pat: String,
        /// Raw ascribed type text (`""` when inferred).
        ty: String,
        /// Initializer, if present.
        init: Option<Expr>,
        /// `else` diverging block of a let-else, if present.
        else_block: Option<Block>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// An expression statement; `semi` records the trailing `;` (a
    /// statement-position call discards its value only when followed
    /// by `;` or standing before another statement).
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether a `;` followed.
        semi: bool,
    },
    /// A nested item (fn-local `fn`, `use`, `struct`, …).
    Item(Item),
}

/// One expression node.
#[derive(Debug)]
pub struct Expr {
    /// The node kind and payload.
    pub kind: ExprKind,
    /// 1-based line the expression starts on.
    pub line: u32,
}

/// Expression payloads — the shapes the dataflow pass consumes.
#[derive(Debug)]
pub enum ExprKind {
    /// A path: `x`, `a::b::c`, `Self::SCALE` (segments in order,
    /// turbofish stripped).
    Path(Vec<String>),
    /// Any literal (number, string, char, bool is a Path).
    Lit,
    /// `callee(args…)`.
    Call {
        /// Callee expression (usually a `Path`).
        callee: Box<Expr>,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// `recv.method(args…)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// `base.field` (also tuple indices: `base.0`).
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name or tuple index text.
        name: String,
    },
    /// `base[index]`.
    Index {
        /// Base expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Prefix `-`, `!`, `*`, `&`, `&mut`.
    Unary {
        /// Operator spelling.
        op: String,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Infix arithmetic/logic/comparison.
    Binary {
        /// Operator spelling (`+`, `==`, `&&`, …).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs = rhs` and compound `lhs op= rhs`.
    Assign {
        /// `=`, `+=`, `-=`, ….
        op: String,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// `expr?`.
    Try(Box<Expr>),
    /// `expr as Ty` (type text kept).
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// Raw target-type text.
        ty: String,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        /// Bound parameter names.
        params: Vec<String>,
        /// Closure body.
        body: Box<Expr>,
    },
    /// `if cond { … } [else …]` (also `if let`).
    If {
        /// Names an `if let` pattern binds in `then_block`.
        binds: Vec<String>,
        /// Condition (or let-scrutinee).
        cond: Box<Expr>,
        /// Then block.
        then_block: Block,
        /// Else branch (`Block` or nested `If`).
        else_branch: Option<Box<Expr>>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms in order.
        arms: Vec<Arm>,
    },
    /// `loop`/`while`/`while let`/`for … in …` with its body (the
    /// for-iterator / while-condition expression, if any, kept).
    Loop {
        /// Names a `for` or `while let` pattern binds in `body`.
        binds: Vec<String>,
        /// Iterator or condition expression.
        head: Option<Box<Expr>>,
        /// Loop body.
        body: Block,
    },
    /// A block expression (`{ … }`, `unsafe { … }`).
    Block(Block),
    /// `(a, b, …)` (one-element parens collapse to the inner expr).
    Tuple(Vec<Expr>),
    /// `[a, b, …]`.
    Array(Vec<Expr>),
    /// `[elem; len]`.
    Repeat {
        /// Element expression.
        elem: Box<Expr>,
        /// Length expression.
        len: Box<Expr>,
    },
    /// `path! ( … )` / `path![…]` / `path!{…}` — args parsed
    /// best-effort; `semi_form` is true for `vec![elem; len]`.
    MacroCall {
        /// Macro path (joined with `::`).
        path: String,
        /// Parsed argument expressions.
        args: Vec<Expr>,
        /// Whether the args were `elem; len` shaped.
        semi_form: bool,
    },
    /// `Path { field: expr, … }` struct literal.
    StructLit {
        /// Struct path segments.
        path: Vec<String>,
        /// Field initializers (shorthand `x` becomes `(x, Path[x])`).
        fields: Vec<(String, Expr)>,
    },
    /// `return [expr]`.
    Return(Option<Box<Expr>>),
    /// `break [expr]` / `continue`.
    Jump,
    /// `lo .. hi` / `lo ..= hi` (either side optional).
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// Recovery: a token the expression grammar did not place.
    Opaque,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Raw pattern text.
    pub pat: String,
    /// Guard expression, if any.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// Extracts the names a pattern binds: lowercase-initial identifiers
/// that are not pattern keywords. `Some(x)` binds `x`; `(a, mut b)`
/// binds `a`, `b`; constructors and paths (uppercase-initial) bind
/// nothing. Conservative in the right direction for taint: it may
/// report a name the pattern only matches against, never miss a
/// binding.
pub fn bound_names(pat: &str) -> Vec<String> {
    const PAT_KEYWORDS: &[&str] = &[
        "mut", "ref", "box", "if", "in", "as", "const", "move", "static", "self", "Self",
        "true", "false", "_",
    ];
    // Re-tokenize the raw pattern text: words, `::`, and single
    // puncts (whitespace dropped) — enough to tell a path segment
    // (`a::b`), a field name before a rename (`x: px`), and a plain
    // binding apart.
    let mut toks: Vec<String> = Vec::new();
    let mut cur = String::new();
    let mut chars = pat.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
            continue;
        }
        if !cur.is_empty() {
            toks.push(std::mem::take(&mut cur));
        }
        if c == ':' && chars.peek() == Some(&':') {
            chars.next();
            toks.push("::".into());
        } else if !c.is_whitespace() {
            toks.push(c.to_string());
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(first) = t.chars().next() else { continue };
        if !(first.is_lowercase() || first == '_') || first.is_ascii_digit() {
            continue;
        }
        if PAT_KEYWORDS.contains(&t.as_str()) {
            continue;
        }
        // Path segments (`mod::name`, `name::Variant`) bind nothing.
        if i > 0 && toks[i - 1] == "::" {
            continue;
        }
        if let Some(next) = toks.get(i + 1) {
            if next == "::" {
                continue;
            }
            // A field name before a rename (`x: px`) is not a binding.
            if next == ":" {
                continue;
            }
            // A macro-ish or call-ish head (`name!`, `name(`) is not a
            // binding either — tuple-struct patterns like `wrap(x)`.
            if next == "!" || next == "(" {
                continue;
            }
        }
        out.push(t.clone());
    }
    out
}

/// Parses lexed tokens into a [`File`]. Total: never panics; records
/// [`ParseError`]s only for unbalanced item structure.
pub fn parse(lexed: &Lexed) -> File {
    let mut p = Parser { toks: &lexed.tokens, pos: 0, errors: Vec::new(), fuel: FUEL_LIMIT };
    let items = p.items_until_end(None);
    File { items, errors: p.errors }
}

/// Convenience: lex + parse source text.
// lint:allow(unreferenced-pub-fn): the entry point the parser test suites drive
pub fn parse_source(src: &str) -> File {
    parse(&crate::lexer::lex(src))
}

/// Hard budget on parser steps, a defense-in-depth backstop so that no
/// token soup — however adversarial — can loop the parser forever. Set
/// far above any real file's cost (the whole workspace parses in well
/// under one unit of this per file).
const FUEL_LIMIT: u64 = 50_000_000;

const ITEM_KEYWORDS: &[&str] = &[
    "mod", "use", "fn", "impl", "struct", "enum", "union", "trait", "const", "static", "type",
    "extern", "pub", "unsafe", "macro_rules",
];

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    errors: Vec<ParseError>,
    fuel: u64,
}

impl<'a> Parser<'a> {
    // ---- cursor primitives ---------------------------------------------

    fn peek(&self, ahead: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + ahead)
    }

    fn line(&self) -> u32 {
        self.peek(0).map_or_else(|| self.last_line(), |t| t.line)
    }

    fn last_line(&self) -> u32 {
        self.toks.last().map_or(1, |t| t.line)
    }

    fn prev_line(&self) -> u32 {
        if self.pos == 0 {
            1
        } else {
            self.toks[self.pos - 1].line
        }
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        self.fuel = self.fuel.saturating_sub(1);
        if self.fuel == 0 {
            // Out of fuel: teleport to EOF so every loop terminates.
            self.pos = self.toks.len();
            return None;
        }
        let t = self.toks.get(self.pos)?;
        self.pos += 1;
        Some(t)
    }

    fn at(&self, text: &str) -> bool {
        self.peek(0).is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
    }

    fn at_kw(&self, name: &str) -> bool {
        self.peek(0).is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.at(text) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, name: &str) -> bool {
        if self.at_kw(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self) -> Option<String> {
        if self.peek(0).is_some_and(|t| t.kind == TokKind::Ident) {
            self.bump().map(|t| t.text.clone())
        } else {
            None
        }
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    // ---- balanced skipping ---------------------------------------------

    /// Consumes a balanced `{…}` / `(…)` / `[…]` group, opening token
    /// included. Returns the close-delimiter line; records an error if
    /// EOF arrives first.
    fn skip_group(&mut self) -> u32 {
        let open_line = self.line();
        let mut depth = 0i64;
        while let Some(t) = self.bump() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth <= 0 {
                            return t.line;
                        }
                    }
                    _ => {}
                }
            }
        }
        self.errors.push(ParseError {
            line: open_line,
            message: "unbalanced delimiters: group open at EOF".into(),
        });
        self.last_line()
    }

    /// Skips a generics list starting at `<` (cursor on `<`). Tolerates
    /// `>>`-merged closers.
    fn skip_generics(&mut self) {
        if !self.at("<") {
            return;
        }
        let mut depth = 0i64;
        while let Some(t) = self.peek(0) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" | "<<" => depth += if t.text == "<<" { 2 } else { 1 },
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    // `>=` / `>>=` only appear in const-generic defaults;
                    // close one level and move on (permissive).
                    ">=" => depth -= 1,
                    ">>=" => depth -= 2,
                    "(" | "[" | "{" => {
                        self.skip_group();
                        continue;
                    }
                    ";" => break, // structural safety: generics never hold `;`
                    _ => {}
                }
            }
            self.bump();
            if depth <= 0 {
                break;
            }
        }
    }

    /// Collects raw type text until one of `stops` appears at depth 0.
    /// Tracks `()`/`[]`/`{}`/`<>` nesting; `->` inside `Fn(…) -> T`
    /// stays part of the type.
    fn type_text(&mut self, stops: &[&str]) -> String {
        let mut out = String::new();
        let mut angle = 0i64;
        let mut group = 0i64;
        while let Some(t) = self.peek(0) {
            if t.kind == TokKind::Punct {
                let s = t.text.as_str();
                if angle <= 0 && group <= 0 && stops.contains(&s) {
                    break;
                }
                match s {
                    "<" => angle += 1,
                    "<<" => angle += 2,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    "(" | "[" | "{" => group += 1,
                    ")" | "]" | "}" => {
                        if group <= 0 {
                            break; // closing a group we did not open
                        }
                        group -= 1;
                    }
                    _ => {}
                }
            } else if t.kind == TokKind::Ident
                && angle <= 0
                && group <= 0
                && stops.contains(&t.text.as_str())
            {
                break;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&t.text);
            self.bump();
        }
        out
    }

    /// Collects raw pattern text until one of `stops` appears at
    /// depth 0 (same nesting rules as [`Parser::type_text`]).
    fn pattern_text(&mut self, stops: &[&str]) -> String {
        self.type_text(stops)
    }

    // ---- items ----------------------------------------------------------

    /// Parses items until EOF (`closer: None`) or a closing `}`.
    fn items_until_end(&mut self, closer: Option<&str>) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.at_eof() {
                break;
            }
            if let Some(c) = closer {
                if self.at(c) {
                    break;
                }
            }
            let before = self.pos;
            if let Some(item) = self.item() {
                items.push(item);
            }
            if self.pos == before {
                // Safety: an item parse that consumed nothing would
                // loop; swallow one token as unknown.
                self.bump();
            }
        }
        items
    }

    /// Parses one item. Consumes attributes/visibility first.
    fn item(&mut self) -> Option<Item> {
        let start_line = self.line();
        self.skip_attributes();
        let public = self.visibility();
        // Qualifiers that may precede `fn`/`impl`/`trait`.
        while self.at_kw("unsafe")
            || self.at_kw("async")
            || self.at_kw("default")
            || (self.at_kw("extern") && self.peek(1).is_some_and(|t| t.kind == TokKind::StrLit))
        {
            if self.at_kw("extern") {
                self.bump(); // extern
                self.bump(); // "C"
            } else {
                self.bump();
            }
        }
        if self.at_kw("macro_rules") {
            self.bump();
            self.eat("!");
            let name = self.eat_ident().unwrap_or_default();
            let (end_line, idents) = if self.at("{") || self.at("(") || self.at("[") {
                self.group_idents()
            } else {
                (self.prev_line(), Vec::new())
            };
            return Some(Item { kind: ItemKind::MacroDef(idents), name, line: start_line, end_line });
        }
        if self.at_kw("mod") {
            self.bump();
            let name = self.eat_ident().unwrap_or_default();
            if self.eat(";") {
                let end = self.prev_line();
                return Some(Item { kind: ItemKind::Mod(Vec::new()), name, line: start_line, end_line: end });
            }
            self.eat("{");
            let items = self.items_until_end(Some("}"));
            self.eat("}");
            let end = self.prev_line();
            return Some(Item { kind: ItemKind::Mod(items), name, line: start_line, end_line: end });
        }
        if self.at_kw("use") || self.at_kw("extern") {
            let is_use = self.at_kw("use");
            self.bump();
            let path = self.type_text(&[";"]);
            self.eat(";");
            let kind = if is_use { ItemKind::Use(path) } else { ItemKind::Other };
            return Some(Item { kind, name: String::new(), line: start_line, end_line: self.prev_line() });
        }
        if self.at_kw("fn") {
            self.bump(); // fn
            return Some(self.fn_signature_and_body(start_line, public));
        }
        if self.at_kw("impl") {
            return Some(self.impl_item(start_line));
        }
        if self.at_kw("trait") {
            self.bump();
            let name = self.eat_ident().unwrap_or_default();
            self.skip_generics();
            // Supertraits / where clause: skip to the body or `;`.
            while !self.at_eof() && !self.at("{") && !self.at(";") {
                if self.at("(") || self.at("[") {
                    self.skip_group();
                } else {
                    self.bump();
                }
            }
            if self.eat(";") {
                return Some(Item { kind: ItemKind::Trait(Vec::new()), name, line: start_line, end_line: self.prev_line() });
            }
            self.eat("{");
            let items = self.items_until_end(Some("}"));
            self.eat("}");
            return Some(Item { kind: ItemKind::Trait(items), name, line: start_line, end_line: self.prev_line() });
        }
        if self.at_kw("struct") || self.at_kw("enum") || self.at_kw("union") {
            self.bump();
            let name = self.eat_ident().unwrap_or_default();
            self.skip_generics();
            // Tuple struct `(…);`, unit struct `;`, or braced body.
            while !self.at_eof() && !self.at("{") && !self.at(";") && !self.at("(") {
                self.bump(); // where clause etc.
            }
            if self.at("(") {
                self.skip_group();
                // where clause may follow a tuple struct
                while !self.at_eof() && !self.at(";") {
                    if self.at("{") {
                        self.skip_group();
                        break;
                    }
                    self.bump();
                }
                self.eat(";");
            } else if self.at("{") {
                self.skip_group();
            } else {
                self.eat(";");
            }
            return Some(Item { kind: ItemKind::TypeDef, name, line: start_line, end_line: self.prev_line() });
        }
        if self.at_kw("const") || self.at_kw("static") {
            self.bump();
            self.eat_kw("mut");
            let name = self.eat_ident().unwrap_or_default();
            // `const fn` — the ident was actually `fn`'s name? No:
            // `const fn name` has `fn` right after `const`.
            if name == "fn" || self.at_kw("fn") {
                if name != "fn" {
                    self.bump();
                }
                return Some(self.fn_signature_and_body(start_line, public));
            }
            // `const NAME: Ty = expr;` — the initializer may hold
            // braces; consume with depth tracking.
            let from = self.pos;
            let mut depth = 0i64;
            while let Some(t) = self.peek(0) {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                self.bump();
            }
            let idents = self.idents_since(from);
            self.eat(";");
            return Some(Item { kind: ItemKind::ConstDef(idents), name, line: start_line, end_line: self.prev_line() });
        }
        if self.at_kw("type") {
            self.bump();
            let name = self.eat_ident().unwrap_or_default();
            self.type_text(&[";"]);
            self.eat(";");
            return Some(Item { kind: ItemKind::TypeAlias, name, line: start_line, end_line: self.prev_line() });
        }
        // Unknown construct at item position: macro invocation item
        // (`props! { … }`) or stray tokens. A `path!{…}`/`path!(…);`
        // item is common in this workspace (props!, thread_local!).
        if self.peek(0).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = self.eat_ident().unwrap_or_default();
            // Consume `::seg` path tails.
            while self.at("::") {
                self.bump();
                self.eat_ident();
            }
            if self.eat("!") {
                let (end_line, idents) = if self.at("{") || self.at("(") || self.at("[") {
                    let group = self.group_idents();
                    self.eat(";");
                    group
                } else {
                    (self.prev_line(), Vec::new())
                };
                return Some(Item { kind: ItemKind::MacroInvocation(idents), name, line: start_line, end_line });
            }
            // Not a macro: swallow to the next `;` or balanced group.
            while !self.at_eof() && !self.at(";") && !self.at("}") {
                if self.at("{") || self.at("(") || self.at("[") {
                    self.skip_group();
                    break;
                }
                self.bump();
            }
            self.eat(";");
            return Some(Item { kind: ItemKind::Other, name, line: start_line, end_line: self.prev_line() });
        }
        None
    }

    fn skip_attributes(&mut self) {
        loop {
            if self.at("#") {
                let after = self.peek(1).map(|t| t.text.as_str());
                if after == Some("[") || after == Some("!") {
                    self.bump(); // #
                    self.eat("!");
                    if self.at("[") {
                        self.skip_group();
                    }
                    continue;
                }
            }
            break;
        }
    }

    /// Consumes a visibility qualifier; true for a plain `pub`.
    fn visibility(&mut self) -> bool {
        if !self.eat_kw("pub") {
            return false;
        }
        if self.at("(") {
            self.skip_group();
            return false;
        }
        true
    }

    /// Skips a balanced group (see [`Parser::skip_group`]) and returns
    /// its close line with every identifier inside it.
    fn group_idents(&mut self) -> (u32, Vec<String>) {
        let from = self.pos;
        let end_line = self.skip_group();
        (end_line, self.idents_since(from))
    }

    /// Every identifier token consumed since position `from`.
    fn idents_since(&self, from: usize) -> Vec<String> {
        self.toks[from..self.pos]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    /// Parses from the fn *name* onward (the `fn` keyword is consumed).
    fn fn_signature_and_body(&mut self, start_line: u32, public: bool) -> Item {
        let name = self.eat_ident().unwrap_or_default();
        self.skip_generics();
        let mut params = Vec::new();
        if self.eat("(") {
            while !self.at_eof() && !self.at(")") {
                self.skip_attributes();
                // Receiver forms: `self`, `&self`, `&mut self`,
                // `&'a self`, `mut self`, `self: Ty`.
                let pat = self.pattern_text(&[":", ",", ")"]);
                let ty = if self.eat(":") { self.type_text(&[",", ")"]) } else { String::new() };
                for bound in bound_names(&pat) {
                    params.push(Param { name: bound, ty: ty.clone() });
                }
                if pat.contains("self") && bound_names(&pat).is_empty() {
                    params.push(Param { name: "self".into(), ty: ty.clone() });
                }
                if !self.eat(",") {
                    break;
                }
            }
            self.eat(")");
        }
        let ret = if self.eat("->") { self.type_text(&["where", "{", ";"]) } else { String::new() };
        if self.at_kw("where") {
            self.type_text(&["{", ";"]);
        }
        let body = if self.at("{") {
            Some(self.block())
        } else {
            self.eat(";");
            None
        };
        let end_line = self.prev_line();
        Item {
            kind: ItemKind::Fn(FnItem { public, params, ret, body }),
            name,
            line: start_line,
            end_line,
        }
    }

    fn impl_item(&mut self, start_line: u32) -> Item {
        self.bump(); // impl
        self.skip_generics();
        let head = self.type_text(&["where", "{"]);
        if self.at_kw("where") {
            self.type_text(&["{"]);
        }
        let (trait_ty, self_ty) = match head.split_once(" for ") {
            Some((t, s)) => (Some(t.trim().to_string()), s.trim().to_string()),
            None => (None, head.trim().to_string()),
        };
        self.eat("{");
        let items = self.items_until_end(Some("}"));
        self.eat("}");
        Item {
            kind: ItemKind::Impl { self_ty, trait_ty, items },
            name: String::new(),
            line: start_line,
            end_line: self.prev_line(),
        }
    }

    // ---- statements ------------------------------------------------------

    /// Parses a `{ … }` block (cursor on `{`).
    fn block(&mut self) -> Block {
        let line = self.line();
        self.eat("{");
        let mut stmts = Vec::new();
        while !self.at_eof() && !self.at("}") {
            let before = self.pos;
            if let Some(s) = self.stmt() {
                stmts.push(s);
            }
            if self.pos == before {
                self.bump(); // recovery: never stall
            }
        }
        self.eat("}");
        Block { stmts, line, end_line: self.prev_line() }
    }

    fn stmt(&mut self) -> Option<Stmt> {
        self.skip_attributes();
        if self.eat(";") {
            return None;
        }
        if self.at_kw("let") {
            return Some(self.let_stmt());
        }
        // Nested items. `unsafe`/`pub` prefixed items need lookahead;
        // a bare ident that matches an item keyword only counts when
        // the following token confirms the item shape (so expression
        // uses of e.g. `use` — impossible — or macro names don't trip).
        if self.at_item_start() {
            let item = self.item()?;
            return Some(Stmt::Item(item));
        }
        let expr = self.expr(true);
        let semi = self.eat(";");
        Some(Stmt::Expr { expr, semi })
    }

    fn at_item_start(&self) -> bool {
        let Some(t) = self.peek(0) else { return false };
        if t.kind == TokKind::Punct && t.text == "#" {
            // Attribute already skipped by stmt(); `#` here means a
            // nested attribute on an expression — rare; treat as expr.
            return false;
        }
        if t.kind != TokKind::Ident {
            return false;
        }
        match t.text.as_str() {
            "fn" | "struct" | "enum" | "union" | "trait" | "impl" | "mod" | "use" | "type"
            | "macro_rules" => true,
            // `const` starts an item (`const X: T` / `const fn`) but
            // also appears in `const { … }` blocks (not used here).
            "const" => self.peek(1).is_some_and(|n| n.kind == TokKind::Ident),
            "static" => self.peek(1).is_some_and(|n| n.kind == TokKind::Ident),
            "pub" => true,
            // `unsafe fn` / `unsafe impl` are items; `unsafe { … }` is
            // an expression.
            "unsafe" => self
                .peek(1)
                .is_some_and(|n| n.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&n.text.as_str())),
            "extern" => self.peek(1).is_some_and(|n| {
                n.kind == TokKind::StrLit || (n.kind == TokKind::Ident && n.text == "crate")
            }),
            _ => false,
        }
    }

    fn let_stmt(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // let
        let pat = self.pattern_text(&[":", "=", ";"]);
        let ty = if self.eat(":") { self.type_text(&["=", ";"]) } else { String::new() };
        let mut init = None;
        let mut else_block = None;
        if self.eat("=") {
            init = Some(self.expr(true));
            if self.eat_kw("else") {
                if self.at("{") {
                    else_block = Some(self.block());
                }
            }
        }
        self.eat(";");
        Stmt::Let { pat, ty, init, else_block, line }
    }

    // ---- expressions -----------------------------------------------------

    /// Entry: full-precedence expression. `struct_lit` gates `Path {`
    /// struct literals (off in `if`/`while`/`for`/`match` heads).
    fn expr(&mut self, struct_lit: bool) -> Expr {
        self.assign_expr(struct_lit)
    }

    fn assign_expr(&mut self, struct_lit: bool) -> Expr {
        let lhs = self.range_expr(struct_lit);
        const ASSIGN_OPS: &[&str] =
            &["=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>="];
        if let Some(t) = self.peek(0) {
            if t.kind == TokKind::Punct && ASSIGN_OPS.contains(&t.text.as_str()) {
                let op = t.text.clone();
                let line = lhs.line;
                self.bump();
                let rhs = self.assign_expr(struct_lit);
                return Expr {
                    kind: ExprKind::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                    line,
                };
            }
        }
        lhs
    }

    fn range_expr(&mut self, struct_lit: bool) -> Expr {
        // Prefix range: `..hi`, `..=hi`, bare `..`.
        if self.at("..") || self.at("..=") {
            let line = self.line();
            self.bump();
            let hi = if self.range_operand_follows() {
                Some(Box::new(self.binary_expr(0, struct_lit)))
            } else {
                None
            };
            return Expr { kind: ExprKind::Range { lo: None, hi }, line };
        }
        let lo = self.binary_expr(0, struct_lit);
        if self.at("..") || self.at("..=") {
            let line = lo.line;
            self.bump();
            let hi = if self.range_operand_follows() {
                Some(Box::new(self.binary_expr(0, struct_lit)))
            } else {
                None
            };
            return Expr { kind: ExprKind::Range { lo: Some(Box::new(lo)), hi }, line };
        }
        lo
    }

    /// Whether a token that can begin a range bound follows.
    fn range_operand_follows(&self) -> bool {
        match self.peek(0) {
            None => false,
            Some(t) => !(t.kind == TokKind::Punct
                && matches!(t.text.as_str(), ")" | "]" | "}" | "," | ";" | "=>" | "{")),
        }
    }

    /// Binary operator precedence (higher binds tighter). `as` casts
    /// are handled in the same climb at the top tier.
    fn binop_prec(op: &str) -> Option<u8> {
        Some(match op {
            "||" => 1,
            "&&" => 2,
            "==" | "!=" | "<" | ">" | "<=" | ">=" => 3,
            "|" => 4,
            "^" => 5,
            "&" => 6,
            "<<" | ">>" => 7,
            "+" | "-" => 8,
            "*" | "/" | "%" => 9,
            _ => return None,
        })
    }

    fn binary_expr(&mut self, min_prec: u8, struct_lit: bool) -> Expr {
        let mut lhs = self.unary_expr(struct_lit);
        loop {
            // Casts bind tighter than any binary operator.
            if self.at_kw("as") {
                self.bump();
                let ty = self.cast_type_text();
                let line = lhs.line;
                lhs = Expr { kind: ExprKind::Cast { expr: Box::new(lhs), ty }, line };
                continue;
            }
            let Some(t) = self.peek(0) else { break };
            if t.kind != TokKind::Punct {
                break;
            }
            let Some(prec) = Self::binop_prec(&t.text) else { break };
            if prec < min_prec {
                break;
            }
            let op = t.text.clone();
            let line = lhs.line;
            self.bump();
            let rhs = self.binary_expr(prec + 1, struct_lit);
            lhs = Expr {
                kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                line,
            };
        }
        lhs
    }

    /// Type text after `as`: a path with generics, `&`/`*` prefixes —
    /// stops before any token that must belong to the enclosing
    /// expression.
    fn cast_type_text(&mut self) -> String {
        let mut out = String::new();
        // Prefixes.
        while self.at("&") || self.at("*") {
            out.push_str(&self.bump().map(|t| t.text.clone()).unwrap_or_default());
        }
        self.eat_kw("mut");
        self.eat_kw("const");
        loop {
            if self.peek(0).is_some_and(|t| t.kind == TokKind::Ident && t.text != "as") {
                let id = self.eat_ident().unwrap_or_default();
                if id == "dyn" || id == "impl" {
                    out.push_str(&id);
                    out.push(' ');
                    continue;
                }
                out.push_str(&id);
            } else {
                break;
            }
            if self.at("<") {
                // Generic args on a cast target: skip them.
                self.skip_generics();
            }
            if self.at("::") {
                self.bump();
                out.push_str("::");
                continue;
            }
            break;
        }
        out
    }

    fn unary_expr(&mut self, struct_lit: bool) -> Expr {
        let line = self.line();
        for op in ["-", "!", "*", "&&", "&"] {
            if self.at(op) {
                self.bump();
                if op == "&" || op == "&&" {
                    self.eat_kw("mut");
                }
                let inner = self.unary_expr(struct_lit);
                // `&&x` is two borrows.
                let kind = ExprKind::Unary { op: op.into(), expr: Box::new(inner) };
                return Expr { kind, line };
            }
        }
        self.postfix_expr(struct_lit)
    }

    fn postfix_expr(&mut self, struct_lit: bool) -> Expr {
        let mut expr = self.primary_expr(struct_lit);
        loop {
            if self.at("?") {
                let line = expr.line;
                self.bump();
                expr = Expr { kind: ExprKind::Try(Box::new(expr)), line };
                continue;
            }
            if self.at(".") {
                let line = self.line();
                self.bump();
                if self.eat_kw("await") {
                    continue; // postfix await: transparent
                }
                // Tuple index (`x.0`, and the lexer may merge `x.0.1`'s
                // `0.1` — treat any numeric as a field).
                if self.peek(0).is_some_and(|t| matches!(t.kind, TokKind::NumLit { .. })) {
                    let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                    let el = expr.line;
                    expr = Expr {
                        kind: ExprKind::Field { base: Box::new(expr), name },
                        line: el,
                    };
                    continue;
                }
                let Some(name) = self.eat_ident() else {
                    // `.` with nothing usable after it: opaque hole.
                    expr = Expr { kind: ExprKind::Opaque, line };
                    continue;
                };
                // Turbofish on a method: `iter.collect::<Vec<_>>()`.
                if self.at("::") {
                    self.bump();
                    self.skip_generics();
                }
                let el = expr.line;
                if self.at("(") {
                    let args = self.call_args();
                    expr = Expr {
                        kind: ExprKind::MethodCall { recv: Box::new(expr), method: name, args },
                        line: el,
                    };
                } else {
                    expr = Expr {
                        kind: ExprKind::Field { base: Box::new(expr), name },
                        line: el,
                    };
                }
                continue;
            }
            if self.at("(") {
                let args = self.call_args();
                let el = expr.line;
                expr = Expr {
                    kind: ExprKind::Call { callee: Box::new(expr), args },
                    line: el,
                };
                continue;
            }
            if self.at("[") {
                self.bump();
                let index = self.expr(true);
                self.eat("]");
                let el = expr.line;
                expr = Expr {
                    kind: ExprKind::Index { base: Box::new(expr), index: Box::new(index) },
                    line: el,
                };
                continue;
            }
            break;
        }
        expr
    }

    /// Parses `(a, b, …)` call arguments (cursor on `(`).
    fn call_args(&mut self) -> Vec<Expr> {
        self.eat("(");
        let mut args = Vec::new();
        while !self.at_eof() && !self.at(")") {
            let before = self.pos;
            args.push(self.expr(true));
            if self.pos == before {
                self.bump();
            }
            if !self.eat(",") {
                break;
            }
        }
        self.eat(")");
        args
    }

    fn primary_expr(&mut self, struct_lit: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.peek(0) else {
            return Expr { kind: ExprKind::Opaque, line };
        };
        match t.kind {
            TokKind::NumLit { .. } | TokKind::StrLit | TokKind::CharLit => {
                self.bump();
                Expr { kind: ExprKind::Lit, line }
            }
            TokKind::Lifetime => {
                // Loop label `'a: loop { … }` — consume label + colon,
                // continue with the labeled expression.
                self.bump();
                self.eat(":");
                self.primary_expr(struct_lit)
            }
            TokKind::Punct => match t.text.as_str() {
                "(" => {
                    self.bump();
                    let mut elems = Vec::new();
                    let mut trailing_comma = false;
                    while !self.at_eof() && !self.at(")") {
                        let before = self.pos;
                        elems.push(self.expr(true));
                        if self.pos == before {
                            self.bump();
                        }
                        trailing_comma = self.eat(",");
                        if !trailing_comma {
                            break;
                        }
                    }
                    self.eat(")");
                    if elems.len() == 1 && !trailing_comma {
                        elems.pop().map_or(Expr { kind: ExprKind::Opaque, line }, |e| e)
                    } else {
                        Expr { kind: ExprKind::Tuple(elems), line }
                    }
                }
                "[" => {
                    self.bump();
                    let mut elems = Vec::new();
                    let mut repeat_len = None;
                    while !self.at_eof() && !self.at("]") {
                        let before = self.pos;
                        let e = self.expr(true);
                        if self.eat(";") {
                            repeat_len = Some(Box::new(self.expr(true)));
                            elems.push(e);
                            break;
                        }
                        elems.push(e);
                        if self.pos == before {
                            self.bump();
                        }
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.eat("]");
                    match (elems.len(), repeat_len) {
                        (1, Some(len)) => {
                            let elem = elems.pop().map(Box::new);
                            Expr {
                                kind: ExprKind::Repeat {
                                    elem: elem.unwrap_or_else(|| {
                                        Box::new(Expr { kind: ExprKind::Opaque, line })
                                    }),
                                    len,
                                },
                                line,
                            }
                        }
                        _ => Expr { kind: ExprKind::Array(elems), line },
                    }
                }
                "{" => Expr { kind: ExprKind::Block(self.block()), line },
                "|" | "||" => self.closure_expr(line),
                "<" => {
                    // Qualified path `<T as Trait>::f(…)`: skip the
                    // bracket, keep the path tail.
                    self.skip_generics();
                    let mut segs = vec!["<qualified>".to_string()];
                    while self.at("::") {
                        self.bump();
                        if self.at("<") {
                            self.skip_generics();
                            continue;
                        }
                        if let Some(id) = self.eat_ident() {
                            segs.push(id);
                        } else {
                            break;
                        }
                    }
                    Expr { kind: ExprKind::Path(segs), line }
                }
                _ => {
                    self.bump();
                    Expr { kind: ExprKind::Opaque, line }
                }
            },
            TokKind::Ident => match t.text.as_str() {
                "if" => self.if_expr(line),
                "match" => self.match_expr(line),
                "loop" => {
                    self.bump();
                    let body = if self.at("{") { self.block() } else { Block::default() };
                    Expr { kind: ExprKind::Loop { binds: Vec::new(), head: None, body }, line }
                }
                "while" => {
                    self.bump();
                    let binds = self.let_binds();
                    let head = Some(Box::new(self.expr(false)));
                    let body = if self.at("{") { self.block() } else { Block::default() };
                    Expr { kind: ExprKind::Loop { binds, head, body }, line }
                }
                "for" => {
                    self.bump();
                    let binds = bound_names(&self.pattern_text(&["in"]));
                    self.eat_kw("in");
                    let head = Some(Box::new(self.expr(false)));
                    let body = if self.at("{") { self.block() } else { Block::default() };
                    Expr { kind: ExprKind::Loop { binds, head, body }, line }
                }
                "unsafe" => {
                    self.bump();
                    if self.at("{") {
                        Expr { kind: ExprKind::Block(self.block()), line }
                    } else {
                        Expr { kind: ExprKind::Opaque, line }
                    }
                }
                "return" => {
                    self.bump();
                    let arg = if self.expr_follows() {
                        Some(Box::new(self.expr(struct_lit)))
                    } else {
                        None
                    };
                    Expr { kind: ExprKind::Return(arg), line }
                }
                "break" => {
                    self.bump();
                    if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.bump();
                    }
                    if self.expr_follows() {
                        self.expr(struct_lit);
                    }
                    Expr { kind: ExprKind::Jump, line }
                }
                "continue" => {
                    self.bump();
                    if self.peek(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.bump();
                    }
                    Expr { kind: ExprKind::Jump, line }
                }
                "move" => {
                    self.bump();
                    if self.at("|") || self.at("||") {
                        self.closure_expr(line)
                    } else {
                        Expr { kind: ExprKind::Opaque, line }
                    }
                }
                _ => self.path_or_macro_or_struct(line, struct_lit),
            },
        }
    }

    /// Whether the next token can begin an expression (for optional
    /// `return`/`break` arguments).
    fn expr_follows(&self) -> bool {
        match self.peek(0) {
            None => false,
            Some(t) => match t.kind {
                TokKind::Punct => !matches!(
                    t.text.as_str(),
                    ";" | ")" | "]" | "}" | "," | "=>" | "?" | "." | "=="
                ),
                TokKind::Ident => !matches!(t.text.as_str(), "else"),
                _ => true,
            },
        }
    }

    fn closure_expr(&mut self, line: u32) -> Expr {
        let mut params = Vec::new();
        if self.eat("||") {
            // zero-parameter closure
        } else if self.eat("|") {
            while !self.at_eof() && !self.at("|") {
                self.skip_attributes();
                let pat = self.pattern_text(&[":", ",", "|"]);
                if self.eat(":") {
                    self.type_text(&[",", "|"]);
                }
                params.extend(bound_names(&pat));
                if !self.eat(",") {
                    break;
                }
            }
            self.eat("|");
            if self.eat("->") {
                self.type_text(&["{"]);
            }
        }
        let body = self.expr(true);
        Expr { kind: ExprKind::Closure { params, body: Box::new(body) }, line }
    }

    /// The names the `let PAT =` of an `if let` / `while let` binds
    /// (none for a plain `if` / `while`).
    fn let_binds(&mut self) -> Vec<String> {
        if !self.eat_kw("let") {
            return Vec::new();
        }
        let binds = bound_names(&self.pattern_text(&["="]));
        self.eat("=");
        binds
    }

    fn if_expr(&mut self, line: u32) -> Expr {
        self.bump(); // if
        let binds = self.let_binds();
        let cond = self.expr(false);
        let then_block = if self.at("{") { self.block() } else { Block::default() };
        let else_branch = if self.eat_kw("else") {
            if self.at_kw("if") {
                let l = self.line();
                Some(Box::new(self.if_expr(l)))
            } else if self.at("{") {
                let l = self.line();
                Some(Box::new(Expr { kind: ExprKind::Block(self.block()), line: l }))
            } else {
                None
            }
        } else {
            None
        };
        Expr {
            kind: ExprKind::If { binds, cond: Box::new(cond), then_block, else_branch },
            line,
        }
    }

    fn match_expr(&mut self, line: u32) -> Expr {
        self.bump(); // match
        let scrutinee = self.expr(false);
        let mut arms = Vec::new();
        if self.eat("{") {
            while !self.at_eof() && !self.at("}") {
                self.skip_attributes();
                let pat = self.pattern_text(&["=>", "if"]);
                let guard = if self.eat_kw("if") {
                    let g = self.expr(false);
                    Some(g)
                } else {
                    None
                };
                if !self.eat("=>") {
                    // Malformed arm: recover by skipping one token.
                    self.bump();
                    continue;
                }
                let body = self.expr(true);
                self.eat(",");
                arms.push(Arm { pat, guard, body });
            }
            self.eat("}");
        }
        Expr { kind: ExprKind::Match { scrutinee: Box::new(scrutinee), arms }, line }
    }

    /// A path, optionally continuing as a macro call (`path!…`) or a
    /// struct literal (`Path { … }` when allowed).
    fn path_or_macro_or_struct(&mut self, line: u32, struct_lit: bool) -> Expr {
        let mut segs = Vec::new();
        if let Some(id) = self.eat_ident() {
            segs.push(id);
        }
        loop {
            if self.at("::") {
                self.bump();
                if self.at("<") {
                    self.skip_generics(); // turbofish
                    continue;
                }
                if let Some(id) = self.eat_ident() {
                    segs.push(id);
                    continue;
                }
                break;
            }
            break;
        }
        if self.at("!") && !self.peek(1).map(|t| t.text == "=").unwrap_or(false) {
            // Macro call. (`!=` lexes as one token, so a plain `!`
            // here is genuinely a macro bang.)
            self.bump();
            return self.macro_call(segs.join("::"), line);
        }
        if struct_lit && self.at("{") && self.looks_like_struct_lit() {
            self.bump(); // {
            let mut fields = Vec::new();
            while !self.at_eof() && !self.at("}") {
                self.skip_attributes();
                if self.at("..") {
                    self.bump();
                    let base = self.expr(true);
                    fields.push(("..".into(), base));
                    break;
                }
                let Some(name) = self.eat_ident() else {
                    self.bump();
                    continue;
                };
                let value = if self.eat(":") {
                    self.expr(true)
                } else {
                    // Shorthand `Struct { x }`.
                    Expr { kind: ExprKind::Path(vec![name.clone()]), line: self.prev_line() }
                };
                fields.push((name, value));
                if !self.eat(",") {
                    break;
                }
            }
            self.eat("}");
            return Expr { kind: ExprKind::StructLit { path: segs, fields }, line };
        }
        Expr { kind: ExprKind::Path(segs), line }
    }

    /// Distinguishes `Path { field: …, }` struct literals from a path
    /// followed by a block. Heuristic lookahead at the tokens after
    /// `{`: an ident followed by `:`/`,`/`}` (or `..`) is a literal.
    fn looks_like_struct_lit(&self) -> bool {
        let Some(t1) = self.peek(1) else { return false };
        if t1.kind == TokKind::Punct && t1.text == "}" {
            return true; // `Path {}`
        }
        if t1.kind == TokKind::Punct && t1.text == ".." {
            return true; // `Path { ..base }`
        }
        if t1.kind == TokKind::Ident {
            if let Some(t2) = self.peek(2) {
                if t2.kind == TokKind::Punct && matches!(t2.text.as_str(), ":" | "," | "}") {
                    // `Path { name:` / `Path { name,` / `Path { name }`
                    // — but `Path { name:: …` is a block starting with
                    // a path (the lexer merges `::`, so `:` vs `::` is
                    // already disambiguated).
                    return true;
                }
            }
        }
        false
    }

    /// Parses a macro invocation's delimited arguments. Comma- and
    /// semicolon-separated expressions are parsed best-effort; tokens
    /// that do not form expressions are consumed opaquely.
    fn macro_call(&mut self, path: String, line: u32) -> Expr {
        let close = if self.eat("(") {
            ")"
        } else if self.eat("[") {
            "]"
        } else if self.eat("{") {
            "}"
        } else {
            return Expr { kind: ExprKind::MacroCall { path, args: Vec::new(), semi_form: false }, line };
        };
        let mut args = Vec::new();
        let mut semi_form = false;
        while !self.at_eof() && !self.at(close) {
            let before = self.pos;
            args.push(self.expr(true));
            if self.eat(";") {
                semi_form = true;
                continue;
            }
            if self.eat(",") {
                continue;
            }
            if self.pos == before {
                self.bump(); // opaque token soup inside the macro
            } else if !self.at(close) {
                // The expression parse stopped mid-stream (macro-only
                // syntax like `=>` in matches!): skip one token and
                // keep scanning for separators.
                self.bump();
            }
        }
        self.eat(close);
        Expr { kind: ExprKind::MacroCall { path, args, semi_form }, line }
    }
}

// ---- traversal helpers ----------------------------------------------------

/// Depth-first walk over every expression in a block, including
/// closure bodies, arm bodies, and nested blocks.
pub fn walk_block_exprs<'e>(block: &'e Block, f: &mut impl FnMut(&'e Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, else_block, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = else_block {
                    walk_block_exprs(b, f);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr(expr, f),
            Stmt::Item(item) => walk_item_exprs(item, f),
        }
    }
}

/// Depth-first walk over every expression in an item (fn bodies,
/// nested modules, impl/trait members).
pub fn walk_item_exprs<'e>(item: &'e Item, f: &mut impl FnMut(&'e Expr)) {
    match &item.kind {
        ItemKind::Fn(func) => {
            if let Some(body) = &func.body {
                walk_block_exprs(body, f);
            }
        }
        ItemKind::Mod(items) | ItemKind::Trait(items) | ItemKind::Impl { items, .. } => {
            for it in items {
                walk_item_exprs(it, f);
            }
        }
        _ => {}
    }
}

/// Depth-first walk over one expression tree.
pub fn walk_expr<'e>(expr: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    f(expr);
    match &expr.kind {
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Field { base, .. } => walk_expr(base, f),
        ExprKind::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        ExprKind::Unary { expr: e, .. } | ExprKind::Try(e) | ExprKind::Cast { expr: e, .. } => {
            walk_expr(e, f)
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Closure { body, .. } => walk_expr(body, f),
        ExprKind::If { cond, then_block, else_branch, .. } => {
            walk_expr(cond, f);
            walk_block_exprs(then_block, f);
            if let Some(e) = else_branch {
                walk_expr(e, f);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            walk_expr(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        ExprKind::Loop { head, body, .. } => {
            if let Some(h) = head {
                walk_expr(h, f);
            }
            walk_block_exprs(body, f);
        }
        ExprKind::Block(b) => walk_block_exprs(b, f),
        ExprKind::Tuple(es) | ExprKind::Array(es) => {
            for e in es {
                walk_expr(e, f);
            }
        }
        ExprKind::Repeat { elem, len } => {
            walk_expr(elem, f);
            walk_expr(len, f);
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::StructLit { fields, .. } => {
            for (_, e) in fields {
                walk_expr(e, f);
            }
        }
        ExprKind::Return(Some(e)) => walk_expr(e, f),
        ExprKind::Range { lo, hi } => {
            if let Some(e) = lo {
                walk_expr(e, f);
            }
            if let Some(e) = hi {
                walk_expr(e, f);
            }
        }
        ExprKind::Path(_)
        | ExprKind::Lit
        | ExprKind::Return(None)
        | ExprKind::Jump
        | ExprKind::Opaque => {}
    }
}

/// Calls `f` on `block` and on every block nested at any depth inside
/// it — block expressions, `if`/`loop` bodies, `let … else` blocks,
/// and fn-local fn bodies — each exactly once.
pub fn walk_blocks<'e>(block: &'e Block, f: &mut impl FnMut(&'e Block)) {
    f(block);
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, else_block, .. } => {
                if let Some(e) = init {
                    walk_expr_blocks(e, f);
                }
                if let Some(b) = else_block {
                    walk_blocks(b, f);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr_blocks(expr, f),
            // Item boundary: a fn-local item's body belongs to that
            // item (surfaced by [`collect_fns`]), not to this block.
            Stmt::Item(_) => {}
        }
    }
}

fn walk_expr_blocks<'e>(expr: &'e Expr, f: &mut impl FnMut(&'e Block)) {
    match &expr.kind {
        ExprKind::Block(b) => walk_blocks(b, f),
        ExprKind::If { cond, then_block, else_branch, .. } => {
            walk_expr_blocks(cond, f);
            walk_blocks(then_block, f);
            if let Some(e) = else_branch {
                walk_expr_blocks(e, f);
            }
        }
        ExprKind::Loop { head, body, .. } => {
            if let Some(h) = head {
                walk_expr_blocks(h, f);
            }
            walk_blocks(body, f);
        }
        ExprKind::Match { scrutinee, arms } => {
            walk_expr_blocks(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr_blocks(g, f);
                }
                walk_expr_blocks(&arm.body, f);
            }
        }
        ExprKind::Call { callee, args } => {
            walk_expr_blocks(callee, f);
            for a in args {
                walk_expr_blocks(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr_blocks(recv, f);
            for a in args {
                walk_expr_blocks(a, f);
            }
        }
        ExprKind::Field { base, .. } => walk_expr_blocks(base, f),
        ExprKind::Index { base, index } => {
            walk_expr_blocks(base, f);
            walk_expr_blocks(index, f);
        }
        ExprKind::Unary { expr: e, .. } | ExprKind::Try(e) | ExprKind::Cast { expr: e, .. } => {
            walk_expr_blocks(e, f)
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            walk_expr_blocks(lhs, f);
            walk_expr_blocks(rhs, f);
        }
        ExprKind::Closure { body, .. } => walk_expr_blocks(body, f),
        ExprKind::Tuple(es) | ExprKind::Array(es) => {
            for e in es {
                walk_expr_blocks(e, f);
            }
        }
        ExprKind::Repeat { elem, len } => {
            walk_expr_blocks(elem, f);
            walk_expr_blocks(len, f);
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                walk_expr_blocks(a, f);
            }
        }
        ExprKind::StructLit { fields, .. } => {
            for (_, e) in fields {
                walk_expr_blocks(e, f);
            }
        }
        ExprKind::Return(Some(e)) => walk_expr_blocks(e, f),
        ExprKind::Range { lo, hi } => {
            if let Some(e) = lo {
                walk_expr_blocks(e, f);
            }
            if let Some(e) = hi {
                walk_expr_blocks(e, f);
            }
        }
        ExprKind::Path(_)
        | ExprKind::Lit
        | ExprKind::Return(None)
        | ExprKind::Jump
        | ExprKind::Opaque => {}
    }
}

/// Collects every `fn` in a file with its enclosing context: the impl
/// self type (if any) and the item itself.
pub fn collect_fns<'f>(file: &'f File) -> Vec<FnRef<'f>> {
    let mut out = Vec::new();
    for item in &file.items {
        collect_fns_in(item, None, &mut out);
    }
    out
}

/// One `fn` with its enclosing-impl context.
#[derive(Debug, Clone, Copy)]
pub struct FnRef<'f> {
    /// The fn's item node.
    pub item: &'f Item,
    /// The parsed fn payload.
    pub func: &'f FnItem,
    /// Self type of the enclosing `impl`, if inside one.
    pub self_ty: Option<&'f str>,
}

fn collect_fns_in<'f>(item: &'f Item, self_ty: Option<&'f str>, out: &mut Vec<FnRef<'f>>) {
    match &item.kind {
        ItemKind::Fn(func) => {
            out.push(FnRef { item, func, self_ty });
            // Fn-local items (`fn helper() { … }` inside a body) are
            // fns in their own right.
            if let Some(body) = &func.body {
                collect_fns_in_block(body, out);
            }
        }
        ItemKind::Mod(items) | ItemKind::Trait(items) => {
            for it in items {
                collect_fns_in(it, self_ty, out);
            }
        }
        ItemKind::Impl { self_ty: ty, items, .. } => {
            for it in items {
                collect_fns_in(it, Some(ty.as_str()), out);
            }
        }
        _ => {}
    }
}

fn collect_fns_in_block<'f>(block: &'f Block, out: &mut Vec<FnRef<'f>>) {
    walk_blocks(block, &mut |b| {
        for stmt in &b.stmts {
            if let Stmt::Item(item) = stmt {
                collect_fns_in(item, None, out);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<String> {
        let file = parse_source(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        collect_fns(&file).iter().map(|f| f.item.name.clone()).collect()
    }

    #[test]
    fn items_and_spans() {
        let src = "mod a {\n  pub fn f(x: u32) -> u32 { x }\n}\nstruct S { x: u32 }\n";
        let file = parse_source(src);
        assert!(file.errors.is_empty());
        assert_eq!(file.items.len(), 2);
        assert_eq!(file.items[0].name, "a");
        assert_eq!((file.items[0].line, file.items[0].end_line), (1, 3));
        assert_eq!(file.items[1].name, "S");
        assert_eq!((file.items[1].line, file.items[1].end_line), (4, 4));
    }

    #[test]
    fn fn_signature_params_and_ret() {
        let file = parse_source(
            "fn g<T: Clone>(a: usize, (b, c): (u32, u32), mut d: Vec<T>) -> Result<u32, E> { a }\n",
        );
        let fns = collect_fns(&file);
        assert_eq!(fns.len(), 1);
        let f = fns[0].func;
        let names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        assert!(f.ret.starts_with("Result"), "{}", f.ret);
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_blocks_carry_self_type() {
        let src = "impl Wei {\n  fn z(&self) -> u128 { self.0 }\n}\n\
                   impl std::ops::Add for Wei {\n  fn add(self, rhs: Wei) -> Wei { self }\n}\n";
        let file = parse_source(src);
        assert!(file.errors.is_empty());
        let fns = collect_fns(&file);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].self_ty, Some("Wei"));
        assert_eq!(fns[1].self_ty, Some("Wei"));
        if let ItemKind::Impl { trait_ty, .. } = &file.items[1].kind {
            assert_eq!(trait_ty.as_deref(), Some("std :: ops :: Add"));
        } else {
            panic!("expected impl");
        }
    }

    #[test]
    fn statement_spines_capture_calls_and_lets() {
        let src = "fn f(buf: &mut B) -> Result<(), E> {\n\
                   let n = buf.try_get_u64_le()? as usize;\n\
                   let mut v = Vec::with_capacity(n);\n\
                   v.push(1);\n\
                   Ok(())\n}\n";
        let file = parse_source(src);
        assert!(file.errors.is_empty());
        let fns = collect_fns(&file);
        let body = fns[0].func.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 4);
        let mut method_calls = Vec::new();
        walk_block_exprs(body, &mut |e| {
            if let ExprKind::MethodCall { method, .. } = &e.kind {
                method_calls.push(method.clone());
            }
        });
        assert_eq!(method_calls, ["try_get_u64_le", "push"]);
    }

    #[test]
    fn match_and_try_are_structured() {
        let src = "fn f(x: R) -> Result<u32, E> {\n\
                   let y = match x { R::A(v) => v, _ => other(x)? };\n\
                   Ok(y)\n}\n";
        let file = parse_source(src);
        assert!(file.errors.is_empty());
        let mut saw_match = false;
        let mut saw_try = false;
        walk_item_exprs(&file.items[0], &mut |e| match &e.kind {
            ExprKind::Match { arms, .. } => {
                saw_match = true;
                assert_eq!(arms.len(), 2);
            }
            ExprKind::Try(_) => saw_try = true,
            _ => {}
        });
        assert!(saw_match && saw_try);
    }

    #[test]
    fn closures_and_struct_literals() {
        let src = "fn f() -> S {\n\
                   let g = |a: u32, b| a + b;\n\
                   items.iter().map(|x| x * 2).sum::<u32>();\n\
                   S { x: 1, y }\n}\n";
        let file = parse_source(src);
        assert!(file.errors.is_empty());
        let mut closures = 0;
        let mut lit_fields = Vec::new();
        walk_item_exprs(&file.items[0], &mut |e| match &e.kind {
            ExprKind::Closure { .. } => closures += 1,
            ExprKind::StructLit { fields, .. } => {
                lit_fields = fields.iter().map(|(n, _)| n.clone()).collect()
            }
            _ => {}
        });
        assert_eq!(closures, 2);
        assert_eq!(lit_fields, ["x", "y"]);
    }

    #[test]
    fn vec_macro_semi_form_exposes_length() {
        let src = "fn f(n: usize) { let v = vec![0u8; n]; }\n";
        let file = parse_source(src);
        assert!(file.errors.is_empty());
        let mut found = false;
        walk_item_exprs(&file.items[0], &mut |e| {
            if let ExprKind::MacroCall { path, args, semi_form } = &e.kind {
                assert_eq!(path, "vec");
                assert!(*semi_form);
                assert_eq!(args.len(), 2);
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn if_while_for_heads_do_not_eat_blocks() {
        let src = "fn f(x: u32) -> u32 {\n\
                   if x > 1 { a(); } else if x > 0 { b(); } else { c(); }\n\
                   while x < 10 { d(); }\n\
                   for i in 0..x { e(i); }\n\
                   loop { break; }\n\
                   x\n}\n";
        assert_eq!(fns(src), ["f"]);
    }

    #[test]
    fn struct_lit_ambiguity_in_condition_position() {
        // `if x { 1 } else { 2 }` must treat `{ 1 }` as the then-block,
        // not a struct literal of type `x`.
        let src = "fn f(x: bool) -> u32 { if x { 1 } else { 2 } }\n";
        let file = parse_source(src);
        assert!(file.errors.is_empty());
        let mut ifs = 0;
        walk_item_exprs(&file.items[0], &mut |e| {
            if matches!(e.kind, ExprKind::If { .. }) {
                ifs += 1;
            }
        });
        assert_eq!(ifs, 1);
    }

    #[test]
    fn let_else_and_nested_items_parse() {
        let src = "fn f(o: Option<u32>) -> u32 {\n\
                   let Some(v) = o else { return 0; };\n\
                   fn helper() -> u32 { 7 }\n\
                   v + helper()\n}\n";
        let file = parse_source(src);
        assert!(file.errors.is_empty());
        assert_eq!(collect_fns(&file).len(), 2);
    }

    #[test]
    fn generics_lifetimes_and_where_clauses() {
        let src = "impl<'a, A: AccuracyModel> IncrementalEval<'a, A>\n\
                   where A: Clone {\n\
                   pub fn rho_res(&self, i: usize) -> &'a [f64] { &self.rows[i] }\n\
                   }\n";
        let file = parse_source(src);
        assert!(file.errors.is_empty(), "{:?}", file.errors);
        assert_eq!(collect_fns(&file).len(), 1);
    }

    #[test]
    fn bound_names_extraction() {
        assert_eq!(bound_names("x"), ["x"]);
        assert_eq!(bound_names("mut x"), ["x"]);
        assert_eq!(bound_names("(a, mut b)"), ["a", "b"]);
        assert_eq!(bound_names("Some(v)"), ["v"]);
        assert_eq!(bound_names("Event :: Deliver { frame, at }"), ["frame", "at"]);
        assert!(bound_names("_").is_empty());
        assert!(bound_names("Event :: Tick").is_empty());
        // Path segments are not bindings.
        assert!(bound_names("self :: x :: y").len() <= 1);
    }

    #[test]
    fn parser_is_total_on_garbage() {
        for junk in [
            "fn",
            "fn (",
            "impl {{{",
            "let = = =",
            "match { => }",
            ") ] } ;",
            "fn f( -> { if",
            "#[x fn g",
            "r#fn r#struct",
        ] {
            let _ = parse_source(junk); // must not panic or hang
        }
    }
}
