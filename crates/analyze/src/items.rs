//! Item-level parsing on top of the lexer: functions with their call
//! sites and macro uses, impl/trait contexts, struct fields and derives.
//!
//! This is deliberately not a full parser. It recognizes exactly the
//! shapes the resolver and the passes need — `fn` items (with enclosing
//! `impl`/`trait` type, generics, typed parameters and return type),
//! `struct` declarations (field names and types, `derive` attributes),
//! `use` trees, inline `mod` paths, and call/macro sites inside bodies —
//! and is conservative everywhere else: anything it cannot classify it
//! simply skips, and the resolver ([`crate::graph`]) reports calls it
//! cannot place as unknown.

use crate::lexer::{Token, TokenKind};

/// A syntactic type: the path of the outermost type and its generic
/// arguments (`&mut utp_core::Foo<Bar, u8>` is `[utp_core, Foo]` with two
/// arguments; `[T; N]` is `[[]]` with one). References, lifetimes, `dyn`
/// and `impl` are skipped; an empty path is a type the resolver does not
/// follow (tuples, fn pointers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ty {
    /// Path segments of the type name.
    pub path: Vec<String>,
    /// Generic arguments, in order.
    pub args: Vec<Ty>,
}

impl Ty {
    /// The type named by `path`, without arguments.
    pub fn named(path: Vec<String>) -> Ty {
        Ty {
            path,
            args: Vec::new(),
        }
    }

    /// Every identifier in the type, outermost first.
    pub fn idents(&self) -> Vec<String> {
        let mut out = self.path.clone();
        for a in &self.args {
            out.extend(a.idents());
        }
        out
    }
}

/// A function or method call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (the last path segment before `(`).
    pub name: String,
    /// Path qualifiers before the name, e.g. `[sha1, Sha1]` in
    /// `sha1::Sha1::digest(..)`; empty for bare and method calls.
    pub path: Vec<String>,
    /// `recv.name(..)` method-call syntax?
    pub is_method: bool,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token index of the name token (into the file's token stream).
    pub tok: usize,
    /// Token index range of the argument list, exclusive of the parens.
    pub args: (usize, usize),
}

/// A macro invocation `name!(..)` / `name![..]` / `name!{..}`.
#[derive(Debug, Clone)]
pub struct MacroUse {
    /// Macro name without the `!`.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token index range of the arguments, exclusive of the delimiters.
    pub args: (usize, usize),
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` target type, if any.
    pub impl_type: Option<String>,
    /// Trait of the enclosing `impl Trait for X` block, or the trait
    /// itself for a fn declared in a `trait` block.
    pub impl_trait: Option<String>,
    /// Inline `mod` segments enclosing the fn inside its file.
    pub module: Vec<String>,
    /// Generic parameter names of the fn and its enclosing `impl`.
    pub generics: Vec<String>,
    /// Named parameters with their types (`self` typed as `Self`).
    pub params: Vec<(String, Ty)>,
    /// Declared return type, if any.
    pub ret: Option<Ty>,
    /// Line of the `fn` keyword.
    pub start_line: u32,
    /// Start line including any preceding `#[..]` attributes.
    pub attr_line: u32,
    /// Line of the closing brace (or the `;` for bodyless decls).
    pub end_line: u32,
    /// Token range of the body including braces; `None` for decls.
    pub body: Option<(usize, usize)>,
    /// Calls made inside the body, in token order.
    pub calls: Vec<CallSite>,
    /// Macros invoked inside the body.
    pub macros: Vec<MacroUse>,
}

/// One field of a struct.
#[derive(Debug, Clone)]
pub struct FieldItem {
    /// Field name (empty for tuple fields).
    pub name: String,
    /// Field type.
    pub ty: Ty,
}

/// One `struct` declaration.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// Line of the `struct` keyword.
    pub line: u32,
    /// Line of a `#[derive(.. Debug ..)]` attribute, if present.
    pub derive_debug_line: Option<u32>,
    /// Generic parameter names.
    pub generics: Vec<String>,
    /// Inline `mod` segments enclosing the struct inside its file.
    pub module: Vec<String>,
    /// Declared fields.
    pub fields: Vec<FieldItem>,
}

/// One `use` binding: `name` stands for `path` inside `module`.
#[derive(Debug, Clone)]
pub struct Use {
    /// Inline `mod` segments the `use` sits in (empty at file level).
    pub module: Vec<String>,
    /// The name in scope; `*` for a glob, whose path is the module.
    pub name: String,
    /// The full path the name stands for.
    pub path: Vec<String>,
}

/// One `impl` block header.
#[derive(Debug, Clone)]
pub struct ImplInfo {
    /// Trait being implemented (`Debug` in `impl fmt::Debug for X`).
    pub trait_name: Option<String>,
    /// Target type name (`X`).
    pub type_name: String,
    /// Is the target one of the impl's own generic parameters (a
    /// blanket `impl<R: RngCore> Rng for R`)?
    pub blanket: bool,
}

/// Everything item-level parsed out of one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// All functions, in source order.
    pub fns: Vec<FnItem>,
    /// All struct declarations.
    pub structs: Vec<StructItem>,
    /// All impl block headers.
    pub impls: Vec<ImplInfo>,
    /// Names of the types (struct, enum, union, trait, alias) declared.
    pub types: Vec<String>,
    /// `use` bindings, in source order.
    pub uses: Vec<Use>,
    /// Attribute-inclusive line spans of items (fn/struct/enum/trait/
    /// impl/mod), used for whole-item suppression coverage.
    pub item_spans: Vec<(u32, u32)>,
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "return", "loop", "for", "in", "as", "let", "mut", "ref",
    "move", "fn", "impl", "dyn", "box", "unsafe", "where", "yield", "Self",
];

/// An enclosing `impl`/`trait`/`mod` block while scanning items.
#[derive(Clone, Default)]
struct Ctx {
    impl_type: Option<String>,
    impl_trait: Option<String>,
    generics: Vec<String>,
    module: Vec<String>,
    /// Token index of the block's closing brace.
    close: usize,
}

/// Parses the item structure of one token stream.
pub fn parse_items(tokens: &[Token]) -> FileItems {
    let mut out = FileItems::default();
    let mut ctxs: Vec<Ctx> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while ctxs.last().is_some_and(|c| i > c.close) {
            ctxs.pop();
        }
        let cur = ctxs.last().cloned().unwrap_or_default();
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" if !in_type_position(tokens, i) => {
                let Some(open) = find_forward(tokens, i + 1, "{") else {
                    break;
                };
                let Some(close) = matching(tokens, open, "{", "}") else {
                    break;
                };
                let (trait_name, type_name) = parse_impl_header(&tokens[i + 1..open]);
                out.item_spans
                    .push((attr_line(tokens, i), tokens[close].line));
                if let Some(type_name) = type_name {
                    let generics = generic_names(tokens, i + 1);
                    out.impls.push(ImplInfo {
                        trait_name: trait_name.clone(),
                        type_name: type_name.clone(),
                        blanket: generics.contains(&type_name),
                    });
                    ctxs.push(Ctx {
                        impl_type: Some(type_name),
                        impl_trait: trait_name,
                        generics,
                        close,
                        ..cur
                    });
                }
                i = open + 1;
            }
            "trait" if tokens.get(i + 1).map(|n| n.kind) == Some(TokenKind::Ident) => {
                let name = tokens[i + 1].text.clone();
                let open = find_forward(tokens, i + 2, "{");
                let semi = find_forward(tokens, i + 2, ";");
                match (open, semi) {
                    (Some(open), semi) if semi.is_none_or(|s| open < s) => {
                        let Some(close) = matching(tokens, open, "{", "}") else {
                            break;
                        };
                        out.item_spans
                            .push((attr_line(tokens, i), tokens[close].line));
                        out.types.push(name.clone());
                        ctxs.push(Ctx {
                            impl_type: Some(name.clone()),
                            impl_trait: Some(name),
                            generics: generic_names(tokens, i + 2),
                            close,
                            ..cur
                        });
                        i = open + 1;
                    }
                    _ => i += 1,
                }
            }
            "mod"
                if tokens.get(i + 1).map(|n| n.kind) == Some(TokenKind::Ident)
                    && tokens.get(i + 2).is_some_and(|n| n.is_punct("{")) =>
            {
                if let Some(close) = matching(tokens, i + 2, "{", "}") {
                    out.item_spans
                        .push((attr_line(tokens, i), tokens[close].line));
                    let mut module = cur.module.clone();
                    module.push(tokens[i + 1].text.clone());
                    ctxs.push(Ctx {
                        module,
                        close,
                        ..Ctx::default()
                    });
                }
                i += 3;
            }
            "use" => {
                let mut bound = Vec::new();
                i = use_tree(tokens, i + 1, Vec::new(), &mut bound);
                out.uses.extend(bound.into_iter().map(|(name, path)| Use {
                    module: cur.module.clone(),
                    name,
                    path,
                }));
            }
            "type" if tokens.get(i + 1).map(|n| n.kind) == Some(TokenKind::Ident) => {
                out.types.push(tokens[i + 1].text.clone());
                i += 2;
            }
            "struct" | "enum" | "union" => {
                let end = parse_struct_like(tokens, i, cur.module, &mut out);
                i = end;
            }
            "fn" if tokens.get(i + 1).map(|n| n.kind) == Some(TokenKind::Ident) => {
                let end = parse_fn(tokens, i, cur, &mut out);
                i = end;
            }
            _ => i += 1,
        }
    }
    out
}

/// Parses one `use` tree starting at `i` under `prefix`, pushing its
/// bindings; returns the index just past the tree.
fn use_tree(
    tokens: &[Token],
    mut i: usize,
    mut path: Vec<String>,
    out: &mut Vec<(String, Vec<String>)>,
) -> usize {
    while let Some(t) = tokens.get(i) {
        if t.is_punct("::") {
            i += 1;
        } else if t.is_punct("*") {
            out.push(("*".to_string(), path));
            return i + 1;
        } else if t.is_punct("{") {
            let close = matching(tokens, i, "{", "}").unwrap_or(tokens.len());
            let mut j = i + 1;
            while j < close {
                j = use_tree(tokens, j, path.clone(), out);
                j += usize::from(tokens.get(j).is_some_and(|t| t.is_punct(",")));
            }
            return close + 1;
        } else if t.kind == TokenKind::Ident {
            i += 1;
            if tokens.get(i).is_some_and(|n| n.is_punct("::")) {
                path.push(t.text.clone());
                continue;
            }
            if !t.is_ident("self") {
                path.push(t.text.clone());
            }
            let mut alias = path.last().cloned().unwrap_or_default();
            if tokens.get(i).is_some_and(|n| n.is_ident("as")) {
                alias = tokens.get(i + 1).map_or(alias, |a| a.text.clone());
                i += 2;
            }
            out.push((alias, path));
            return i;
        } else {
            return i + 1;
        }
    }
    i
}

/// Parses the type in `tokens[lo..hi]` (see [`Ty`]).
pub fn parse_ty(tokens: &[Token], lo: usize, hi: usize) -> Ty {
    let mut i = lo;
    while i < hi
        && (tokens[i].is_punct("&")
            || tokens[i].kind == TokenKind::Lifetime
            || ["mut", "dyn", "impl", "const"]
                .iter()
                .any(|k| tokens[i].is_ident(k)))
    {
        i += 1;
    }
    if i < hi && tokens[i].is_punct("[") {
        let close = matching(tokens, i, "[", "]").unwrap_or(hi).min(hi);
        let end = (i + 1..close)
            .find(|&j| tokens[j].is_punct(";"))
            .unwrap_or(close);
        return Ty {
            path: vec!["[]".to_string()],
            args: vec![parse_ty(tokens, i + 1, end)],
        };
    }
    let mut ty = Ty::default();
    while i < hi && tokens[i].kind == TokenKind::Ident {
        ty.path.push(tokens[i].text.clone());
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct("::")) {
            i += 1;
            break;
        }
        i += 2;
    }
    if i < hi && tokens[i].is_punct("<") {
        let close = skip_angles(tokens, i).saturating_sub(1).min(hi);
        let mut from = i + 1;
        for j in split_top_level(tokens, i + 1, close) {
            ty.args.push(parse_ty(tokens, from, j));
            from = j + 1;
        }
    }
    ty
}

/// Indices of the top-level `,` separators in `tokens[lo..hi]`, plus `hi`.
fn split_top_level(tokens: &[Token], lo: usize, hi: usize) -> Vec<usize> {
    let mut depth = 0i32;
    let mut out = Vec::new();
    for (j, t) in tokens.iter().enumerate().take(hi).skip(lo) {
        if ["<", "(", "["].iter().any(|p| t.is_punct(p)) {
            depth += 1;
        } else if [">", ")", "]"].iter().any(|p| t.is_punct(p)) {
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            out.push(j);
        }
    }
    if lo < hi {
        out.push(hi);
    }
    out
}

/// Generic parameter names of a `<..>` group at `open` (lifetimes and
/// bounds skipped); empty when `open` is not a `<`.
fn generic_names(tokens: &[Token], open: usize) -> Vec<String> {
    if !tokens.get(open).is_some_and(|t| t.is_punct("<")) {
        return Vec::new();
    }
    let close = skip_angles(tokens, open).saturating_sub(1);
    let mut from = open + 1;
    let mut out = Vec::new();
    for j in split_top_level(tokens, open + 1, close) {
        if let Some(t) = tokens[from..j]
            .iter()
            .find(|t| t.kind == TokenKind::Ident && !t.is_ident("const"))
        {
            out.push(t.text.clone());
        }
        from = j + 1;
    }
    out
}

/// `impl` directly after these puncts is `impl Trait` type syntax, not a
/// block: `-> impl Iterator`, `(x: impl Fn())`, generic args, bounds.
fn in_type_position(tokens: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
        return false;
    };
    ["->", "(", ",", "<", "&", "=", "+", ":", "::"]
        .iter()
        .any(|p| prev.is_punct(p))
}

/// Splits an impl header into `(trait, type)`: the segment after a
/// top-level `for` is the type, anything before it the trait.
fn parse_impl_header(header: &[Token]) -> (Option<String>, Option<String>) {
    let mut j = 0;
    // Skip leading generic params `impl<..>`.
    if header.first().is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(header, 0);
    }
    // Find a top-level `for` separator (not HRTB `for<'a>`).
    let mut split = None;
    let mut k = j;
    while k < header.len() {
        let t = &header[k];
        if t.is_punct("<") {
            k = skip_angles(header, k);
            continue;
        }
        if t.is_ident("for") && !header.get(k + 1).is_some_and(|n| n.is_punct("<")) {
            split = Some(k);
            break;
        }
        k += 1;
    }
    let (trait_seg, type_seg) = match split {
        Some(s) => (&header[j..s], &header[s + 1..]),
        None => (&header[0..0], &header[j..]),
    };
    (
        path_last_ident(trait_seg),
        parse_ty(type_seg, 0, type_seg.len()).path.pop(),
    )
}

/// Last identifier of a path before generics: `fmt::Debug` → `Debug`.
fn path_last_ident(seg: &[Token]) -> Option<String> {
    let mut last = None;
    for t in seg {
        if t.is_punct("<") {
            break;
        }
        if t.kind == TokenKind::Ident {
            last = Some(t.text.clone());
        }
    }
    last
}

/// Skips a balanced `<..>` group starting at `open`; returns the index
/// one past the closing `>`.
pub fn skip_angles(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < tokens.len() {
        if tokens[k].is_punct("<") {
            depth += 1;
        } else if tokens[k].is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    tokens.len()
}

/// Parses a struct/enum/union starting at keyword index `kw`; records a
/// `StructItem` for structs. Returns the index to resume scanning at.
fn parse_struct_like(
    tokens: &[Token],
    kw: usize,
    module: Vec<String>,
    out: &mut FileItems,
) -> usize {
    let Some(name_tok) = tokens.get(kw + 1) else {
        return kw + 1;
    };
    if name_tok.kind != TokenKind::Ident {
        return kw + 1;
    }
    let mut j = kw + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(tokens, j);
    }
    // Find the body start: `;` (unit), `(` (tuple) or `{` (named), skipping
    // a where clause.
    let mut body = None;
    while let Some(t) = tokens.get(j) {
        if t.is_punct(";") {
            break;
        }
        if t.is_punct("(") || t.is_punct("{") {
            body = Some(j);
            break;
        }
        if t.is_punct("<") {
            j = skip_angles(tokens, j);
            continue;
        }
        j += 1;
    }
    let start = attr_line(tokens, kw);
    let (fields, end) = match body {
        // An unclosed body (a truncated file) runs to the end.
        Some(open) if tokens[open].is_punct("{") => {
            let close = matching(tokens, open, "{", "}").unwrap_or(tokens.len());
            (parse_named_fields(&tokens[open + 1..close]), close)
        }
        Some(open) => {
            let close = matching(tokens, open, "(", ")").unwrap_or(tokens.len());
            (parse_tuple_fields(&tokens[open + 1..close]), close)
        }
        None => (Vec::new(), j.min(tokens.len().saturating_sub(1))),
    };
    out.item_spans
        .push((start, tokens.get(end).map_or(start, |t| t.line)));
    out.types.push(name_tok.text.clone());
    if tokens[kw].is_ident("struct") {
        out.structs.push(StructItem {
            name: name_tok.text.clone(),
            line: tokens[kw].line,
            derive_debug_line: derive_debug_line(tokens, kw),
            generics: generic_names(tokens, kw + 2),
            module,
            fields,
        });
    }
    // Tuple structs end with `;` after the paren group; either way the
    // caller resumes after `end` and skips any trailing `;` naturally.
    end + 1
}

/// Finds a `#[derive(.. Debug ..)]` in the attributes preceding `kw`.
fn derive_debug_line(tokens: &[Token], kw: usize) -> Option<u32> {
    let mut k = kw;
    // Step back over visibility (`pub`, `pub(crate)`) between attributes
    // and the `struct` keyword itself.
    loop {
        if k >= 1 && tokens[k - 1].is_ident("pub") {
            k -= 1;
        } else if k >= 1 && tokens[k - 1].is_punct(")") {
            match matching_back(tokens, k - 1, "(", ")") {
                Some(open) if open >= 1 && tokens[open - 1].is_ident("pub") => k = open - 1,
                _ => break,
            }
        } else {
            break;
        }
    }
    while k >= 2 && tokens[k - 1].is_punct("]") {
        let open = matching_back(tokens, k - 1, "[", "]")?;
        if open == 0 || !tokens[open - 1].is_punct("#") {
            return None;
        }
        let attr = &tokens[open + 1..k - 1];
        if attr.first().is_some_and(|t| t.is_ident("derive"))
            && attr.iter().any(|t| t.is_ident("Debug"))
        {
            return Some(tokens[open - 1].line);
        }
        k = open - 1;
    }
    None
}

/// Parses `name: Type, ..` field lists (attributes and `pub` skipped).
fn parse_named_fields(body: &[Token]) -> Vec<FieldItem> {
    let mut fields = Vec::new();
    let mut j = 0;
    while j < body.len() {
        // Skip attributes on the field.
        while body.get(j).is_some_and(|t| t.is_punct("#")) {
            match body
                .get(j + 1)
                .and_then(|_| matching(body, j + 1, "[", "]"))
            {
                Some(close) => j = close + 1,
                None => return fields,
            }
        }
        if body.get(j).is_some_and(|t| t.is_ident("pub")) {
            j += 1;
            if body.get(j).is_some_and(|t| t.is_punct("(")) {
                match matching(body, j, "(", ")") {
                    Some(close) => j = close + 1,
                    None => return fields,
                }
            }
        }
        let Some(name) = body.get(j) else { break };
        if name.kind != TokenKind::Ident || !body.get(j + 1).is_some_and(|t| t.is_punct(":")) {
            j += 1;
            continue;
        }
        let (ty, next) = type_until_comma(body, j + 2);
        fields.push(FieldItem {
            name: name.text.clone(),
            ty,
        });
        j = next;
    }
    fields
}

/// Parses tuple-struct field types `(TypeA, TypeB)`.
fn parse_tuple_fields(body: &[Token]) -> Vec<FieldItem> {
    let mut fields = Vec::new();
    let mut j = 0;
    while j < body.len() {
        let (ty, next) = type_until_comma(body, j);
        if !ty.path.is_empty() {
            fields.push(FieldItem {
                name: String::new(),
                ty,
            });
        }
        if next <= j {
            break;
        }
        j = next;
    }
    fields
}

/// Parses a type up to a top-level `,`; returns it and the index past
/// the comma.
fn type_until_comma(body: &[Token], j: usize) -> (Ty, usize) {
    let end = split_top_level(body, j, body.len())
        .first()
        .copied()
        .unwrap_or(body.len());
    let lo = j + usize::from(body.get(j).is_some_and(|t| t.is_ident("pub")));
    (parse_ty(body, lo, end), end + 1)
}

/// Parses a `fn` item starting at the keyword; returns the resume index.
fn parse_fn(tokens: &[Token], kw: usize, cx: Ctx, out: &mut FileItems) -> usize {
    let name = tokens[kw + 1].text.clone();
    let mut generics = cx.generics;
    generics.extend(generic_names(tokens, kw + 2));
    // Signature runs to the first `{` or `;` at group depth 0 — a `;`
    // inside an array type like `&[u8; 32]` does not end the item.
    let mut j = kw + 2;
    let mut params = None;
    let mut ret_start = None;
    let mut body_open = None;
    let mut semi = None;
    let mut depth = 0i32;
    while let Some(t) = tokens.get(j) {
        if t.is_punct("(") || t.is_punct("[") {
            if depth == 0 && params.is_none() {
                params = Some(j);
            }
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct("{") {
                body_open = Some(j);
                break;
            }
            if t.is_punct(";") {
                semi = Some(j);
                break;
            }
            if t.is_punct("->") && ret_start.is_none() {
                ret_start = Some(j + 1);
            }
        }
        j += 1;
    }
    let sig_end = body_open.or(semi).unwrap_or(tokens.len());
    let ret = ret_start.map(|r| {
        let end = (r..sig_end)
            .find(|&k| tokens[k].is_ident("where"))
            .unwrap_or(sig_end);
        parse_ty(tokens, r, end)
    });
    let params = params.map_or_else(Vec::new, |open| parse_params(tokens, open));
    let attr = attr_line(tokens, kw);
    let (body, end_tok, resume) = match body_open {
        Some(open) => {
            let close = matching(tokens, open, "{", "}").unwrap_or(tokens.len() - 1);
            (Some((open, close)), close, close + 1)
        }
        None => {
            let end = semi.unwrap_or(kw + 1);
            (None, end, end + 1)
        }
    };
    let (calls, macros) = body.map_or_else(Default::default, |(open, close)| {
        extract_calls(tokens, open + 1, close)
    });
    out.item_spans.push((attr, tokens[end_tok].line));
    out.fns.push(FnItem {
        name,
        impl_type: cx.impl_type,
        impl_trait: cx.impl_trait,
        module: cx.module,
        generics,
        params,
        ret,
        start_line: tokens[kw].line,
        attr_line: attr,
        end_line: tokens[end_tok].line,
        body,
        calls,
        macros,
    });
    resume
}

/// Named parameters of the list opening at `open`: `name: Type` pairs,
/// with any form of `self` typed as `Self`. Destructuring patterns are
/// skipped.
fn parse_params(tokens: &[Token], open: usize) -> Vec<(String, Ty)> {
    let close = matching(tokens, open, "(", ")").unwrap_or(open);
    let mut out = Vec::new();
    let mut from = open + 1;
    for j in split_top_level(tokens, open + 1, close) {
        let mut k = from;
        while k < j && (tokens[k].is_punct("&") || tokens[k].kind == TokenKind::Lifetime) {
            k += 1;
        }
        k += usize::from(tokens.get(k).is_some_and(|t| t.is_ident("mut")));
        if tokens.get(k).is_some_and(|t| t.is_ident("self")) {
            let ty = if tokens.get(k + 1).is_some_and(|t| t.is_punct(":")) {
                parse_ty(tokens, k + 2, j)
            } else {
                Ty::named(vec!["Self".to_string()])
            };
            out.push(("self".to_string(), ty));
        } else if k + 1 < j && tokens[k].kind == TokenKind::Ident && tokens[k + 1].is_punct(":") {
            out.push((tokens[k].text.clone(), parse_ty(tokens, k + 2, j)));
        }
        from = j + 1;
    }
    out
}

/// Extracts call and macro sites from a body token range `[from, to)`.
/// Nested items are scanned too (their calls attribute to the outer fn,
/// which is conservative for reachability).
fn extract_calls(tokens: &[Token], from: usize, to: usize) -> (Vec<CallSite>, Vec<MacroUse>) {
    let mut calls = Vec::new();
    let mut macros = Vec::new();
    let mut j = from;
    while j < to {
        let t = &tokens[j];
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            j += 1;
            continue;
        }
        // `fn name` declarations are not calls.
        if j > 0 && tokens[j - 1].is_ident("fn") {
            j += 1;
            continue;
        }
        // Macro use: `name!( .. )` / `![..]` / `!{..}`.
        if tokens.get(j + 1).is_some_and(|n| n.is_punct("!")) {
            if let Some(open) = tokens.get(j + 2) {
                let delim = [("(", ")"), ("[", "]"), ("{", "}")]
                    .into_iter()
                    .find(|(o, _)| open.is_punct(o));
                if let Some((o, c)) = delim {
                    if let Some(close) = matching(tokens, j + 2, o, c) {
                        macros.push(MacroUse {
                            name: t.text.clone(),
                            line: t.line,
                            args: (j + 3, close),
                        });
                        // Do not skip the args: calls inside them count.
                        j += 3;
                        continue;
                    }
                }
            }
            j += 2;
            continue;
        }
        // Plain or turbofished call.
        let mut open = j + 1;
        if tokens.get(j + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(j + 2).is_some_and(|n| n.is_punct("<"))
        {
            open = skip_angles(tokens, j + 2);
        }
        if tokens.get(open).is_some_and(|n| n.is_punct("(")) {
            if let Some(close) = matching(tokens, open, "(", ")") {
                let is_method = j > 0 && tokens[j - 1].is_punct(".");
                let mut path = Vec::new();
                let mut k = j;
                while k >= 2
                    && tokens[k - 1].is_punct("::")
                    && tokens[k - 2].kind == TokenKind::Ident
                {
                    path.insert(0, tokens[k - 2].text.clone());
                    k -= 2;
                }
                calls.push(CallSite {
                    name: t.text.clone(),
                    path,
                    is_method,
                    line: t.line,
                    tok: j,
                    args: (open + 1, close),
                });
            }
        }
        j += 1;
    }
    (calls, macros)
}

/// Start line of the item at `kw` including contiguous preceding
/// `#[..]` attribute groups.
fn attr_line(tokens: &[Token], kw: usize) -> u32 {
    let mut k = kw;
    let mut line = tokens[kw].line;
    // Skip visibility / qualifiers back to attributes: `pub(crate) fn`,
    // `pub async unsafe fn`, `pub const fn` ...
    while k > 0 {
        let p = &tokens[k - 1];
        let is_qual = p.kind == TokenKind::Ident
            && ["pub", "const", "async", "unsafe", "extern", "default"].contains(&p.text.as_str());
        if is_qual || p.is_punct(")") && k >= 2 && is_vis_group(tokens, k - 1) {
            if p.is_punct(")") {
                let Some(open) = matching_back(tokens, k - 1, "(", ")") else {
                    break;
                };
                k = open;
            } else {
                k -= 1;
            }
            line = tokens[k].line.min(line);
            continue;
        }
        break;
    }
    while k >= 2 && tokens[k - 1].is_punct("]") {
        let Some(open) = matching_back(tokens, k - 1, "[", "]") else {
            break;
        };
        if open == 0 || !tokens[open - 1].is_punct("#") {
            break;
        }
        line = tokens[open - 1].line;
        k = open - 1;
    }
    line
}

/// Is the `)` at `close` the end of a `pub(..)` visibility group?
fn is_vis_group(tokens: &[Token], close: usize) -> bool {
    matching_back(tokens, close, "(", ")")
        .and_then(|open| open.checked_sub(1))
        .is_some_and(|p| tokens[p].is_ident("pub"))
}

/// Index of the first `what` punct at or after `from`.
fn find_forward(tokens: &[Token], from: usize, what: &str) -> Option<usize> {
    (from..tokens.len()).find(|&i| tokens[i].is_punct(what))
}

/// The first token in `tokens[lo..hi]` outside any `()`/`[]`/`{}` group
/// for which `stop` holds.
pub fn find_depth0(
    tokens: &[Token],
    lo: usize,
    hi: usize,
    stop: impl Fn(&Token) -> bool,
) -> Option<usize> {
    let mut j = lo;
    while j < hi {
        let t = &tokens[j];
        if stop(t) {
            return Some(j);
        }
        j = match [("(", ")"), ("[", "]"), ("{", "}")]
            .iter()
            .find(|(o, _)| t.is_punct(o))
        {
            Some((o, c)) => matching(tokens, j, o, c)? + 1,
            None => j + 1,
        };
    }
    None
}

/// Index of the bracket matching the opener at `open_idx`.
pub fn matching(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            match depth {
                0 => return None,
                1 => return Some(i),
                _ => depth -= 1,
            }
        }
    }
    None
}

/// Index of the bracket matching the closer at `close_idx`, scanning
/// backwards.
pub fn matching_back(tokens: &[Token], close_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for i in (0..=close_idx).rev() {
        let t = &tokens[i];
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            match depth {
                0 => return None,
                1 => return Some(i),
                _ => depth -= 1,
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> FileItems {
        parse_items(&lex(src).tokens)
    }

    #[test]
    fn parses_free_and_impl_fns_with_calls() {
        let src = "\
pub fn free(x: u32) -> u32 {
    helper(x)
}

impl Widget {
    fn method(&self) {
        self.other();
        utp_crypto::sha1::Sha1::digest(b\"x\");
    }
}
";
        let f = items(src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "free");
        assert_eq!(f.fns[0].impl_type, None);
        assert_eq!(f.fns[0].calls[0].name, "helper");
        assert_eq!(f.fns[1].name, "method");
        assert_eq!(f.fns[1].impl_type.as_deref(), Some("Widget"));
        let calls: Vec<&str> = f.fns[1].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(calls.contains(&"other"));
        assert!(calls.contains(&"digest"));
        let digest = f.fns[1].calls.iter().find(|c| c.name == "digest").unwrap();
        assert_eq!(digest.path, ["utp_crypto", "sha1", "Sha1"]);
        assert!(!digest.is_method);
        assert!(
            f.fns[1]
                .calls
                .iter()
                .find(|c| c.name == "other")
                .unwrap()
                .is_method
        );
    }

    #[test]
    fn trait_impl_header_resolves_type_after_for() {
        let f = items("impl fmt::Debug for Verifier { fn fmt(&self) {} }\n");
        assert_eq!(f.impls.len(), 1);
        assert_eq!(f.impls[0].trait_name.as_deref(), Some("Debug"));
        assert_eq!(f.impls[0].type_name, "Verifier");
        assert_eq!(f.fns[0].impl_type.as_deref(), Some("Verifier"));
    }

    #[test]
    fn impl_trait_in_return_position_is_not_a_block() {
        let f = items("fn passes() -> impl Iterator<Item = u32> {\n    helper()\n}\n");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].impl_type, None);
        assert_eq!(f.fns[0].calls[0].name, "helper");
    }

    #[test]
    fn struct_fields_and_derive_debug_are_captured() {
        let src = "\
#[derive(Debug, Clone)]
pub struct KeySlot {
    pub handle: u32,
    pub keypair: RsaKeyPair,
    slots: HashMap<u32, Vec<u8>>,
}
";
        let f = items(src);
        assert_eq!(f.structs.len(), 1);
        let s = &f.structs[0];
        assert_eq!(s.name, "KeySlot");
        assert_eq!(s.derive_debug_line, Some(1));
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[1].name, "keypair");
        assert_eq!(s.fields[1].ty.idents(), vec!["RsaKeyPair"]);
        assert_eq!(s.fields[2].ty.idents(), vec!["HashMap", "u32", "Vec", "u8"]);
    }

    #[test]
    fn macros_and_turbofish_calls_are_extracted() {
        let src = "\
fn f(v: Vec<u32>) {
    println!(\"{} {}\", v.len(), session_key);
    let _x = v.iter().collect::<Vec<_>>();
}
";
        let f = items(src);
        let m = &f.fns[0].macros;
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "println");
        let calls: Vec<&str> = f.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(calls.contains(&"collect"));
        assert!(calls.contains(&"len"));
    }

    #[test]
    fn unclosed_struct_bodies_do_not_panic() {
        for src in ["pub struct A(", "pub struct B {", "enum C { X, Y"] {
            let f = items(src);
            assert_eq!(f.types.len(), 1, "{src}");
        }
    }

    #[test]
    fn attr_line_covers_attributes_and_visibility() {
        let src = "\
#[inline]
#[must_use]
pub(crate) fn f() -> u32 {
    3
}
";
        let f = items(src);
        assert_eq!(f.fns[0].attr_line, 1);
        assert_eq!(f.fns[0].start_line, 3);
        assert_eq!(f.fns[0].end_line, 5);
    }
}
