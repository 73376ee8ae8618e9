//! Workspace symbol index, the one call resolver, and the call graph.
//!
//! [`WorkspaceIndex::build`] places every call site in a [`Resolution`]
//! from:
//!
//! * the **module path**, taken from the file (`crates/core/src/verifier.rs`
//!   is `utp_core::verifier`) and inline `mod` blocks;
//! * **`use` imports**, including renames, groups and globs;
//! * the **`impl` self type** and `Self::` — `T::f(..)` resolves through
//!   `T`'s impls and the traits it implements, `module::f(..)` through
//!   the module's free fns;
//! * a **receiver's type** where it is declared or constructed: fn
//!   parameters, `let x: T`, `let x = T::new(..)` / `T { .. }` / any placed
//!   call's return type, `Some(x)` / `Ok(x)` / struct patterns over a
//!   typed value, and struct field types for `self.f` / `x.f`. `Arc`,
//!   `Box`, `Rc` and lock guards dereference; `lock()`, `read()` and
//!   `write()` yield the guarded type.
//!
//! A call into a type or crate the workspace does not define is
//! [`Resolution::Foreign`] and has no edges. A call the resolver cannot
//! place is [`Resolution::Unknown`]: its candidates are the conservative
//! fan-out, every importable workspace fn of that name and call shape
//! (method vs free). Each pass takes the side of an unknown call that
//! errs toward a finding (see DESIGN.md).

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use crate::items::{find_depth0, matching, parse_ty, skip_angles, CallSite, FnItem, Ty, Use};
use crate::lexer::{Token, TokenKind};
use crate::passes::{is_tcb_path, OUTSIDE_THE_MACHINE};
use crate::source::SourceFile;

/// Per-file metadata derived from its path.
#[derive(Debug)]
pub struct FileMeta {
    /// Crate alias as it appears in source (`utp_core`, `rand`, ...).
    pub crate_alias: String,
    /// Module path inside the crate (`[verifier]` for `src/verifier.rs`).
    pub module: Vec<String>,
    /// Is this library/bin source (as opposed to tests/examples/benches)?
    pub is_src_ctx: bool,
    /// Crate aliases this file can reach (own crate + mentioned aliases).
    pub importable: BTreeSet<String>,
}

/// A function node: indexes into `files[file].items.fns[item]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnNode {
    /// Index into [`WorkspaceIndex::files`].
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub item: usize,
}

/// Where one call site goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Placed: the workspace fns it calls (several under trait dispatch).
    Resolved(Vec<usize>),
    /// Into code the workspace does not define (std, a foreign type).
    Foreign,
    /// Not placed; the candidates are every importable workspace fn of
    /// that name and call shape.
    Unknown(Vec<usize>),
}

impl Resolution {
    /// Every fn the call may reach: placed targets or unknown candidates.
    pub fn targets(&self) -> &[usize] {
        match self {
            Resolution::Resolved(v) | Resolution::Unknown(v) => v,
            Resolution::Foreign => &[],
        }
    }

    /// Placed targets only — what a pass may grant a capability on.
    pub fn resolved(&self) -> &[usize] {
        match self {
            Resolution::Resolved(v) => v,
            _ => &[],
        }
    }
}

/// A resolved type and its generic arguments (`None` where unknown).
#[derive(Debug, Clone, PartialEq)]
pub struct RTy {
    /// Type name (last path segment).
    pub name: String,
    /// Defining workspace crate; empty for a workspace type name the
    /// resolver could not place in a crate; `None` for std and other
    /// foreign types.
    pub krate: Option<String>,
    /// Generic arguments.
    pub args: Vec<Option<RTy>>,
}

impl RTy {
    fn foreign(name: &str, args: Vec<Option<RTy>>) -> RTy {
        RTy {
            name: name.to_string(),
            krate: None,
            args,
        }
    }

    /// Is this a workspace type placed in its crate?
    pub fn placed(&self) -> bool {
        self.krate.as_deref().is_some_and(|c| !c.is_empty())
    }

    /// The payload of a foreign wrapper named in `wrappers` (`Option<T>`
    /// is `T`).
    fn peel(&self, wrappers: &[&str]) -> Option<RTy> {
        let wrapped = self.krate.is_none() && wrappers.contains(&self.name.as_str());
        wrapped.then(|| self.args.first().cloned().flatten())?
    }

    /// The element type of a collection, slice or `Option`.
    fn element(&self) -> Option<RTy> {
        match self.name.as_str() {
            "HashMap" | "BTreeMap" => self.args.get(1)?.clone(),
            "Vec" | "VecDeque" | "[]" | "HashSet" | "BTreeSet" | "Option" => {
                self.args.first()?.clone()
            }
            _ => None,
        }
    }
}

/// Foreign types whose fields and methods are their first argument's.
const DEREF: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

/// Reachability from the TCB entry points.
#[derive(Debug)]
pub struct Reachability {
    /// Is fn `i` reachable (entry points included)?
    pub reachable: Vec<bool>,
    /// BFS predecessor for diagnostics chains (`None` for entries).
    pub parent: Vec<Option<usize>>,
}

/// Lookup tables over live library code.
#[derive(Default)]
struct Index {
    /// Crate aliases in the workspace.
    crates: HashSet<String>,
    /// Type name → crates declaring it.
    types: HashMap<String, BTreeSet<String>>,
    /// `(crate, struct)` → `(file, struct index)`.
    structs: HashMap<(String, String), Vec<(usize, usize)>>,
    /// `(impl or trait type, fn name)` → fns.
    methods: HashMap<(String, String), Vec<usize>>,
    /// `(trait, fn name)` → the fns of every `impl Trait for ..`.
    implementors: HashMap<(String, String), Vec<usize>>,
    /// Type name → traits implemented for it (`*`: blanket impls).
    traits_of: HashMap<String, Vec<String>>,
    /// Trait names, and the fn names workspace traits declare.
    traits: HashSet<String>,
    trait_fns: HashSet<String>,
    /// Fn name → free fns / all fns.
    free: HashMap<String, Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
}

/// Local bindings of one fn: name → `(token index, type)`, in order.
type Locals = HashMap<String, Vec<(usize, Option<RTy>)>>;

/// Where names resolve: a file, an inline module, generic parameters,
/// the `Self` type, and — inside a fn body — its calls and locals.
#[derive(Default)]
struct Cx<'a> {
    fi: usize,
    module: &'a [String],
    generics: &'a [String],
    self_ty: Option<RTy>,
    calls: &'a [CallSite],
    locals: Locals,
}

impl Cx<'_> {
    /// The type of local `name` as bound last before token `at`.
    fn local(&self, name: &str, at: usize) -> Option<RTy> {
        let bindings = self.locals.get(name)?;
        bindings.iter().rev().find(|(pos, _)| *pos < at)?.1.clone()
    }

    fn bind(&mut self, name: &str, at: usize, ty: Option<RTy>) {
        self.locals
            .entry(name.to_string())
            .or_default()
            .push((at, ty));
    }
}

/// The parsed workspace plus its resolved call graph.
pub struct WorkspaceIndex {
    /// All parsed files, in the caller-provided (sorted) order.
    pub files: Vec<SourceFile>,
    /// Path-derived metadata, parallel to `files`.
    pub metas: Vec<FileMeta>,
    /// Flattened function list.
    pub fns: Vec<FnNode>,
    /// Canonical path of each fn
    /// (`utp_core::verifier::Settler::settle_evidence`).
    pub paths: Vec<String>,
    /// Each fn's call sites, placed (parallel to its `items.calls`).
    pub calls: Vec<Vec<Resolution>>,
    /// Callee indexes per function: every call's targets (deduplicated,
    /// sorted).
    pub callees: Vec<Vec<usize>>,
    /// Transitive closure from the TCB entry points.
    pub reach: Reachability,
    index: Index,
    locals: Vec<Locals>,
}

/// Maps a workspace-relative path to the crate alias its code compiles
/// into.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        let dir = rest.split('/').next().unwrap_or(rest);
        return format!("utp_{}", dir.replace('-', "_"));
    }
    if let Some(rest) = path.strip_prefix("shims/") {
        return rest.split('/').next().unwrap_or(rest).to_string();
    }
    // Root src/, tests/, examples/ all belong to the root `utp` package.
    "utp".to_string()
}

/// Module path of a file inside its crate: `crates/x/src/a/b.rs` is
/// `[a, b]`; `lib.rs`, `main.rs` and `mod.rs` name their directory.
pub fn module_of(path: &str) -> Vec<String> {
    let rel = match path.find("/src/") {
        Some(p) => &path[p + 5..],
        None => path.strip_prefix("src/").unwrap_or(""),
    };
    rel.trim_end_matches(".rs")
        .split('/')
        .filter(|s| !s.is_empty() && !matches!(*s, "lib" | "main" | "mod"))
        .map(String::from)
        .collect()
}

/// Is this path library/bin source? Tests, examples and benches cannot
/// be called from shipped code, so they are never resolution targets.
pub fn is_src_context(path: &str) -> bool {
    let in_src = path.split('/').rev().skip(1).any(|seg| seg == "src");
    in_src
        && !path
            .split('/')
            .any(|seg| seg == "tests" || seg == "examples" || seg == "benches")
}

impl WorkspaceIndex {
    /// Builds the index and call graph over parsed files.
    pub fn build(files: Vec<SourceFile>) -> WorkspaceIndex {
        let known: HashSet<String> = files.iter().map(|f| crate_of(&f.path)).collect();
        let metas = files
            .iter()
            .map(|f| {
                let own = crate_of(&f.path);
                let mut importable: BTreeSet<String> = f
                    .tokens
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident && known.contains(&t.text))
                    .map(|t| t.text.clone())
                    .collect();
                importable.insert(own.clone());
                FileMeta {
                    crate_alias: own,
                    module: module_of(&f.path),
                    is_src_ctx: is_src_context(&f.path),
                    importable,
                }
            })
            .collect();
        let fns = (files.iter().enumerate())
            .flat_map(|(fi, f)| (0..f.items.fns.len()).map(move |item| FnNode { file: fi, item }))
            .collect();
        let mut ws = WorkspaceIndex {
            files,
            metas,
            fns,
            paths: Vec::new(),
            calls: Vec::new(),
            callees: Vec::new(),
            reach: Reachability {
                reachable: Vec::new(),
                parent: Vec::new(),
            },
            index: Index {
                crates: known,
                ..Index::default()
            },
            locals: Vec::new(),
        };
        ws.build_index();
        for idx in 0..ws.fns.len() {
            let path = ws.fn_canonical(idx);
            let mut cx = ws.fn_cx(idx);
            ws.type_locals(&mut cx, idx);
            let calls = cx.calls.iter().map(|c| ws.resolve(&cx, c)).collect();
            let locals = cx.locals;
            ws.paths.push(path);
            ws.calls.push(calls);
            ws.locals.push(locals);
        }
        ws.callees = (ws.calls.iter())
            .map(|cs| {
                let set: BTreeSet<usize> = cs.iter().flat_map(|r| r.targets().to_vec()).collect();
                set.into_iter().collect()
            })
            .collect();
        ws.reach = ws.tcb_reachability();
        ws
    }

    /// The function item behind node index `idx`.
    pub fn fn_item(&self, idx: usize) -> &FnItem {
        let node = self.fns[idx];
        &self.files[node.file].items.fns[node.item]
    }

    /// Path of the file defining fn `idx`.
    pub fn fn_path(&self, idx: usize) -> &str {
        &self.files[self.fns[idx].file].path
    }

    /// Is fn `idx` non-test library code?
    pub fn is_live_fn(&self, idx: usize) -> bool {
        let node = self.fns[idx];
        self.metas[node.file].is_src_ctx
            && !self.files[node.file].in_test_code(self.fn_item(idx).start_line)
    }

    /// Lifts a per-fn summary over the call graph: `step(f)` recomputes
    /// fn `f`'s summary from its callees' and reports whether it grew.
    /// Each fn of `domain` steps once, and again whenever a callee's
    /// summary grows, until none does.
    pub fn lift(
        &self,
        domain: impl IntoIterator<Item = usize>,
        mut step: impl FnMut(usize) -> bool,
    ) {
        let mut queue: VecDeque<usize> = domain.into_iter().collect();
        let mut queued = vec![false; self.fns.len()];
        let mut callers = vec![Vec::new(); self.fns.len()];
        for &f in &queue {
            queued[f] = true;
            for &g in &self.callees[f] {
                callers[g].push(f);
            }
        }
        while let Some(f) = queue.pop_front() {
            queued[f] = false;
            if step(f) {
                for &c in &callers[f] {
                    if !std::mem::replace(&mut queued[c], true) {
                        queue.push_back(c);
                    }
                }
            }
        }
    }

    /// Live call sites the resolver could not place.
    pub fn unknown_sites(&self) -> usize {
        (0..self.fns.len())
            .filter(|&i| self.is_live_fn(i))
            .flat_map(|i| &self.calls[i])
            .filter(|r| matches!(r, Resolution::Unknown(_)))
            .count()
    }

    /// Human-oriented call chain from a TCB entry down to fn `idx`,
    /// e.g. `invoke -> from_bytes -> take_digest` (capped length).
    pub fn chain_to(&self, idx: usize) -> String {
        let mut names = vec![self.fn_item(idx).name.clone()];
        let mut cur = idx;
        while let Some(p) = self.reach.parent[cur] {
            names.push(self.fn_item(p).name.clone());
            cur = p;
            if names.len() >= 6 {
                names.push("...".to_string());
                break;
            }
        }
        names.reverse();
        names.join(" -> ")
    }

    /// Canonical path of a placed type: its crate, the module of the
    /// file declaring it, and its name (`utp_server::provider::Receipt`).
    pub fn type_path(&self, ty: &RTy) -> String {
        let krate = ty.krate.clone().unwrap_or_default();
        let key = (krate.clone(), ty.name.clone());
        let module = match self.index.structs.get(&key).and_then(|v| v.first()) {
            Some(&(fi, si)) => [
                &self.metas[fi].module[..],
                &self.files[fi].items.structs[si].module,
            ]
            .concat(),
            None => Vec::new(),
        };
        [vec![krate], module, vec![ty.name.clone()]]
            .concat()
            .join("::")
    }

    /// The type of the expression `tokens[lo..hi]` inside fn `idx`, where
    /// the resolver can tell.
    pub fn expr_type(&self, idx: usize, lo: usize, hi: usize) -> Option<RTy> {
        let mut cx = self.fn_cx(idx);
        cx.locals = self.locals[idx].clone();
        self.type_expr(&cx, lo, hi)
    }

    fn fn_canonical(&self, idx: usize) -> String {
        let item = self.fn_item(idx);
        let meta = &self.metas[self.fns[idx].file];
        let mut segs = vec![meta.crate_alias.clone()];
        segs.extend(meta.module.iter().chain(&item.module).cloned());
        segs.extend(item.impl_type.clone());
        segs.push(item.name.clone());
        segs.join("::")
    }

    fn build_index(&mut self) {
        let mut ix = std::mem::take(&mut self.index);
        for (fi, f) in self.files.iter().enumerate() {
            if !self.metas[fi].is_src_ctx {
                continue;
            }
            let krate = &self.metas[fi].crate_alias;
            for t in &f.items.types {
                ix.types.entry(t.clone()).or_default().insert(krate.clone());
            }
            for (si, s) in f.items.structs.iter().enumerate() {
                let key = (krate.clone(), s.name.clone());
                ix.structs.entry(key).or_default().push((fi, si));
            }
            for imp in &f.items.impls {
                if let Some(tr) = &imp.trait_name {
                    let ty = if imp.blanket { "*" } else { &imp.type_name };
                    ix.traits_of
                        .entry(ty.to_string())
                        .or_default()
                        .push(tr.clone());
                }
            }
        }
        for idx in (0..self.fns.len()).filter(|&i| self.is_live_fn(i)) {
            let item = self.fn_item(idx);
            let key = |ty: &String| (ty.clone(), item.name.clone());
            ix.by_name.entry(item.name.clone()).or_default().push(idx);
            match (&item.impl_type, &item.impl_trait) {
                (None, _) => ix.free.entry(item.name.clone()).or_default().push(idx),
                (Some(ty), tr) => {
                    ix.methods.entry(key(ty)).or_default().push(idx);
                    match tr {
                        Some(tr) if tr == ty => {
                            ix.traits.insert(tr.clone());
                            ix.trait_fns.insert(item.name.clone());
                        }
                        Some(tr) => ix.implementors.entry(key(tr)).or_default().push(idx),
                        None => {}
                    }
                }
            }
        }
        self.index = ix;
    }

    /// The context of fn `idx`'s body (no locals yet).
    fn fn_cx(&self, idx: usize) -> Cx<'_> {
        let item = self.fn_item(idx);
        let mut cx = Cx {
            fi: self.fns[idx].file,
            module: &item.module,
            generics: &item.generics,
            calls: &item.calls,
            ..Cx::default()
        };
        cx.self_ty =
            (item.impl_type.as_ref()).and_then(|t| self.rty(&cx, &Ty::named(vec![t.clone()])));
        cx
    }

    /// The `use` binding for `name` visible in `module` of file `fi`.
    fn use_of(&self, fi: usize, module: &[String], name: &str) -> Option<&Use> {
        let uses = &self.files[fi].items.uses;
        uses.iter()
            .rev()
            .find(|u| u.name == name && module.starts_with(&u.module))
    }

    /// `path` with its first segment expanded through `use`.
    fn expand(&self, cx: &Cx, path: &[String]) -> Vec<String> {
        match self.use_of(cx.fi, cx.module, &path[0]) {
            Some(u) if !matches!(path[0].as_str(), "crate" | "self" | "super" | "Self") => {
                [&u.path[..], &path[1..]].concat()
            }
            _ => path.to_vec(),
        }
    }

    /// `(crate, module)` a module path names from `cx`; `None` for a
    /// crate outside the workspace.
    fn module_target(&self, cx: &Cx, segs: &[String]) -> Option<(String, Vec<String>)> {
        let own = self.metas[cx.fi].crate_alias.clone();
        let mut here = [&self.metas[cx.fi].module[..], cx.module].concat();
        let (root, mut rest) = segs.split_first()?;
        match root.as_str() {
            "crate" => Some((own, rest.to_vec())),
            "self" => Some((own, [&here[..], rest].concat())),
            "super" => {
                here.pop();
                while let Some(("super", tail)) = rest.split_first().map(|(s, t)| (s.as_str(), t)) {
                    here.pop();
                    rest = tail;
                }
                Some((own, [&here[..], rest].concat()))
            }
            "std" | "core" | "alloc" => None,
            r if self.index.crates.contains(r) => Some((r.to_string(), rest.to_vec())),
            _ => Some((own, [&here[..], segs].concat())),
        }
    }

    /// `(crate, module)` of every glob import visible in `cx`.
    fn globs<'a>(&'a self, cx: &'a Cx) -> impl Iterator<Item = (String, Vec<String>)> + 'a {
        let uses = &self.files[cx.fi].items.uses;
        (uses.iter())
            .filter(|u| u.name == "*" && cx.module.starts_with(&u.module))
            .filter_map(|u| self.module_target(cx, &u.path))
    }

    /// Resolves a syntactic type in `cx`; `None` for generic parameters
    /// and untracked shapes.
    fn rty(&self, cx: &Cx, ty: &Ty) -> Option<RTy> {
        let last = ty.path.last()?;
        if ty.path.len() == 1 && last == "Self" {
            return cx.self_ty.clone();
        }
        if ty.path.len() == 1 && cx.generics.contains(last) {
            return None;
        }
        let full = self.expand(cx, &ty.path);
        let name = full.last()?.clone();
        let defines = |c: &str| self.index.types.get(&name).is_some_and(|s| s.contains(c));
        let unplaced = || self.index.types.contains_key(&name).then(String::new);
        let krate = match full.split_last() {
            Some((_, [])) => {
                let own = &self.metas[cx.fi].crate_alias;
                let globbed = || self.globs(cx).find_map(|(c, _)| defines(&c).then_some(c));
                defines(own)
                    .then(|| own.clone())
                    .or_else(globbed)
                    .or_else(unplaced)
            }
            Some((_, module)) => match self.module_target(cx, module) {
                Some((c, _)) if defines(&c) => Some(c),
                // Re-exported from another crate: the one importable
                // crate declaring the name.
                Some(_) => {
                    let importable = &self.metas[cx.fi].importable;
                    match importable.iter().filter(|c| defines(c)).collect::<Vec<_>>()[..] {
                        [c] => Some(c.clone()),
                        _ => unplaced(),
                    }
                }
                None => None,
            },
            None => None,
        };
        let args = ty.args.iter().map(|a| self.rty(cx, a)).collect();
        Some(RTy { name, krate, args })
    }

    /// Same-name workspace fns of the call's shape in crates the file
    /// can import: the candidates of an unknown call.
    fn unknown(&self, fi: usize, name: &str, method: bool) -> Resolution {
        let importable = &self.metas[fi].importable;
        let fan: Vec<usize> = (self.index.by_name.get(name).into_iter().flatten().copied())
            .filter(|&i| importable.contains(&self.metas[self.fns[i].file].crate_alias))
            .filter(|&i| self.fn_item(i).impl_type.is_some() == method)
            .collect();
        match fan.is_empty() {
            true => Resolution::Foreign,
            false => Resolution::Unknown(fan),
        }
    }

    /// Places one call site.
    fn resolve(&self, cx: &Cx, call: &CallSite) -> Resolution {
        if !call.is_method {
            return self.path_call(cx, &call.path, &call.name);
        }
        let dot = call.tok - 1;
        let toks = &self.files[cx.fi].tokens;
        match self.type_expr(cx, chain_start(toks, dot), dot) {
            Some(ty) => self.method_on(cx.fi, &ty, &call.name),
            None => self.unknown(cx.fi, &call.name, true),
        }
    }

    /// `quals::name(..)`, or a bare `name(..)` when `quals` is empty.
    fn path_call(&self, cx: &Cx, quals: &[String], name: &str) -> Resolution {
        let fn_module = |i: usize| {
            [
                &self.metas[self.fns[i].file].module[..],
                &self.fn_item(i).module,
            ]
            .concat()
        };
        let free = |keep: &dyn Fn(usize) -> bool| -> Vec<usize> {
            let all = self.index.free.get(name).into_iter().flatten().copied();
            all.filter(|&i| keep(i)).collect()
        };
        if quals.is_empty() {
            if let Some(u) = self.use_of(cx.fi, cx.module, name) {
                if let Some((last, q)) = u.path.split_last().filter(|(_, q)| !q.is_empty()) {
                    return self.path_call(cx, q, last);
                }
            }
            let here = free(&|i| self.fns[i].file == cx.fi && self.fn_item(i).module == cx.module);
            let globbed = || -> Vec<usize> {
                let targets: Vec<_> = self.globs(cx).collect();
                free(&|i| {
                    let c = &self.metas[self.fns[i].file].crate_alias;
                    targets.iter().any(|(tc, m)| tc == c && fn_module(i) == *m)
                })
            };
            return match [here, globbed()].concat() {
                // Not defined, imported or globbed here: a local closure,
                // a prelude fn — or a path the resolver does not see.
                v if v.is_empty() => self.unknown(cx.fi, name, false),
                v => Resolution::Resolved(v),
            };
        }
        let full = self.expand(cx, quals);
        if full[0] == "Self"
            || full
                .last()
                .is_some_and(|q| q.starts_with(|c: char| c.is_ascii_uppercase()))
        {
            let ty = match full[0].as_str() {
                "Self" => cx.self_ty.clone(),
                _ => self.rty(cx, &Ty::named(full)),
            };
            return match ty {
                Some(ty) => self.method_on(cx.fi, &ty, name),
                None => self.unknown(cx.fi, name, true),
            };
        }
        let Some((c, m)) = self.module_target(cx, &full) else {
            return Resolution::Foreign;
        };
        let in_crate = free(&|i| self.metas[self.fns[i].file].crate_alias == c);
        let in_module: Vec<usize> = in_crate
            .iter()
            .copied()
            .filter(|&i| fn_module(i) == m)
            .collect();
        match (in_module.is_empty(), in_crate.len()) {
            (false, _) => Resolution::Resolved(in_module),
            (true, 0) => self.unknown(cx.fi, name, false),
            (true, 1) => Resolution::Resolved(in_crate),
            (true, _) => Resolution::Unknown(in_crate),
        }
    }

    /// Methods and associated fns named `name` on type `ty`, through
    /// derefs, trait default bodies and (for a trait) every implementor.
    fn method_on(&self, fi: usize, ty: &RTy, name: &str) -> Resolution {
        let mut ty = ty.clone();
        for _ in 0..4 {
            let found = self.methods(&ty, name);
            if !found.is_empty() {
                // A workspace type name the resolver could not place in a
                // crate matches by type name only.
                return match ty.krate.as_deref() == Some("") {
                    true => Resolution::Unknown(found),
                    false => Resolution::Resolved(found),
                };
            }
            match ty.peel(DEREF) {
                Some(inner) if name != "clone" => ty = inner,
                _ => break,
            }
        }
        match self.index.trait_fns.contains(name) {
            true => self.unknown(fi, name, true),
            false => Resolution::Foreign,
        }
    }

    fn methods(&self, ty: &RTy, name: &str) -> Vec<usize> {
        let on = |t: &str, map: &HashMap<(String, String), Vec<usize>>| -> Vec<usize> {
            let fns = map
                .get(&(t.to_string(), name.to_string()))
                .into_iter()
                .flatten()
                .copied();
            fns.filter(|&i| match ty.krate.as_deref() {
                Some("") => true,
                Some(c) => {
                    let m = &self.metas[self.fns[i].file];
                    m.crate_alias == c || m.importable.contains(c)
                }
                // Workspace impls for a foreign type (`impl Tr for u32`).
                None => !self.index.types.contains_key(&ty.name),
            })
            .collect()
        };
        let mut out = on(&ty.name, &self.index.methods);
        if self.index.traits.contains(&ty.name) {
            out.extend(on(&ty.name, &self.index.implementors));
        }
        if out.is_empty() {
            let traits = [ty.name.as_str(), "*"].map(|t| self.index.traits_of.get(t));
            for tr in traits.into_iter().flatten().flatten() {
                out.extend(on(tr, &self.index.methods));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The type a call returns: a std model for the receiver `recv`, else
    /// the declared return type when every placed target agrees.
    fn call_type(&self, res: &Resolution, recv: Option<&RTy>, name: &str) -> Option<RTy> {
        if let Some(t) = recv.and_then(|r| std_model(r, name)) {
            return t;
        }
        let mut tys = res.resolved().iter().map(|&f| {
            let cx = self.fn_cx(f);
            self.rty(&cx, self.fn_item(f).ret.as_ref()?)
        });
        let first = tys.next()??;
        tys.all(|t| t.as_ref() == Some(&first)).then_some(first)
    }

    /// The declared type of field `field` (a name or tuple index) of `ty`.
    fn field_type(&self, ty: &RTy, field: &str) -> Option<RTy> {
        let mut ty = ty.clone();
        while let Some(inner) = ty.peel(DEREF) {
            ty = inner;
        }
        let key = (ty.krate.clone()?, ty.name.clone());
        self.index.structs.get(&key)?.iter().find_map(|&(fi, si)| {
            let s = &self.files[fi].items.structs[si];
            let f = match field.parse::<usize>() {
                Ok(n) => s.fields.iter().filter(|f| f.name.is_empty()).nth(n),
                Err(_) => s.fields.iter().find(|f| f.name == field),
            }?;
            let cx = Cx {
                fi,
                module: &s.module,
                generics: &s.generics,
                ..Cx::default()
            };
            self.rty(&cx, &f.ty)
        })
    }

    /// Types a postfix expression: `self`, a local, a path or call, a
    /// struct literal or a group, then `.field`, `.method(..)`, `?` and
    /// `[..]`.
    fn type_expr(&self, cx: &Cx, lo: usize, hi: usize) -> Option<RTy> {
        let t = &self.files[cx.fi].tokens;
        let mut i = lo;
        while i < hi && (t[i].is_punct("&") || t[i].is_punct("*") || t[i].is_ident("mut")) {
            i += 1;
        }
        let mut ty = if t.get(i)?.is_ident("self") {
            i += 1;
            cx.self_ty.clone()?
        } else if t[i].is_punct("(") {
            let (open, close) = (i, matching(t, i, "(", ")")?);
            i = close + 1;
            self.type_expr(cx, open + 1, close)?
        } else if t[i].kind == TokenKind::Ident {
            let start = i;
            let mut segs = vec![t[i].text.clone()];
            i += 1;
            while i + 1 < hi && t[i].is_punct("::") && t[i + 1].kind == TokenKind::Ident {
                segs.push(t[i + 1].text.clone());
                i += 2;
            }
            if i + 1 < hi && t[i].is_punct("::") && t[i + 1].is_punct("<") {
                i = skip_angles(t, i + 1);
            }
            let next = t.get(i).filter(|_| i < hi);
            if next.is_some_and(|n| n.is_punct("(")) {
                let close = matching(t, i, "(", ")")?;
                let arg = self.type_expr(cx, i + 1, close);
                i = close + 1;
                let name = segs.pop()?;
                let wrapper = match (segs.last().map(String::as_str), name.as_str()) {
                    (Some(w @ ("Arc" | "Rc" | "Box" | "Mutex" | "RwLock")), "new") => Some(w),
                    (None, "Some") => Some("Option"),
                    (None, "Ok") => Some("Result"),
                    _ => None,
                };
                match wrapper {
                    Some(w) => RTy::foreign(w, vec![arg]),
                    // A tuple-struct constructor.
                    None if name.starts_with(|c: char| c.is_ascii_uppercase()) => {
                        self.rty(cx, &Ty::named([segs, vec![name]].concat()))?
                    }
                    None => match self.path_call(cx, &segs, &name) {
                        // `String::new()`, `Vec::with_capacity(..)`: a
                        // foreign type's constructors return the type.
                        Resolution::Foreign
                            if matches!(name.as_str(), "new" | "default" | "with_capacity") =>
                        {
                            self.rty(cx, &Ty::named(segs))?
                        }
                        res => self.call_type(&res, None, &name)?,
                    },
                }
            } else if next.is_some_and(|n| n.is_punct("{")) {
                i = matching(t, i, "{", "}")? + 1;
                self.rty(cx, &Ty::named(segs))?
            } else if segs.len() == 1 {
                cx.local(&segs[0], start)?
            } else {
                return None;
            }
        } else {
            return None;
        };
        while i < hi {
            if t[i].is_punct("?") {
                ty = ty.peel(&["Option", "Result"])?;
                i += 1;
            } else if t[i].is_punct("[") {
                ty = ty.element()?;
                i = matching(t, i, "[", "]")? + 1;
            } else if t[i].is_punct(".") && i + 1 < hi {
                let n = &t[i + 1];
                if let Some(call) = cx.calls.iter().find(|c| c.tok == i + 1 && c.is_method) {
                    ty =
                        self.call_type(&self.method_on(cx.fi, &ty, &n.text), Some(&ty), &n.text)?;
                    i = call.args.1 + 1;
                } else if matches!(n.kind, TokenKind::Ident | TokenKind::Number) {
                    ty = self.field_type(&ty, &n.text)?;
                    i += 2;
                } else {
                    return None;
                }
            } else {
                return None;
            }
        }
        Some(ty)
    }

    /// Types fn `idx`'s locals in token order: parameters, `let`
    /// bindings (plain, typed, `Some`/`Ok` and struct patterns) and
    /// `match` arms' `Some(x)` / `Ok(x)`; closure parameters shadow as
    /// unknown.
    fn type_locals(&self, cx: &mut Cx, idx: usize) {
        let item = self.fn_item(idx);
        let Some((open, close)) = item.body else {
            return;
        };
        let t = &self.files[cx.fi].tokens;
        for (name, ty) in &item.params {
            let r = match name.as_str() {
                "self" => cx.self_ty.clone(),
                _ => self.rty(cx, ty),
            };
            cx.bind(name, open, r);
        }
        let mut i = open + 1;
        while i < close {
            if t[i].is_ident("let") {
                let k = i + 1 + usize::from(t[i + 1].is_ident("mut"));
                let eq = find_depth0(t, k, close, |x| x.is_punct("=") || x.is_punct(";"));
                if let Some(eq) = eq.filter(|&e| t[e].is_punct("=")) {
                    let cond = t[i - 1].is_ident("if") || t[i - 1].is_ident("while");
                    let end = find_depth0(t, eq + 1, close, |x| {
                        x.is_punct(";") || x.is_ident("else") || cond && x.is_punct("{")
                    });
                    let rhs = self.type_expr(cx, eq + 1, end.unwrap_or(close));
                    self.bind_pattern(cx, k, eq, rhs);
                }
            } else if t[i].is_ident("match") {
                let brace = find_depth0(t, i + 1, close, |x| x.is_punct("{")).unwrap_or(close);
                let inner = self
                    .type_expr(cx, i + 1, brace)
                    .and_then(|ty| ty.peel(&["Option", "Result"]));
                let arms = matching(t, brace, "{", "}").unwrap_or(close);
                let mut j = brace + 1;
                while let Some(p) =
                    find_depth0(t, j, arms, |x| x.is_ident("Some") || x.is_ident("Ok"))
                {
                    let arm = t
                        .get(p + 4)
                        .is_some_and(|n| n.is_punct("=>") || n.is_ident("if"));
                    if t[p + 1].is_punct("(")
                        && t.get(p + 3).is_some_and(|n| n.is_punct(")"))
                        && arm
                    {
                        cx.bind(&t[p + 2].text, p + 2, inner.clone());
                    }
                    j = p + 1;
                }
            } else if t[i].is_punct("|")
                && (t[i - 1].kind == TokenKind::Punct
                    && !t[i - 1].is_punct(")")
                    && !t[i - 1].is_punct("|")
                    || t[i - 1].is_ident("move"))
            {
                let bar = (i + 1..close)
                    .find(|&j| t[j].is_punct("|"))
                    .unwrap_or(close);
                for j in (i + 1..bar).filter(|&j| t[j].kind == TokenKind::Ident) {
                    cx.bind(&t[j].text, j, None);
                }
                i = bar;
            }
            i += 1;
        }
    }

    /// Binds the pattern `t[k..eq]` of a `let` against its value's type.
    fn bind_pattern(&self, cx: &mut Cx, k: usize, eq: usize, rhs: Option<RTy>) {
        let t = &self.files[cx.fi].tokens;
        if t[k].kind != TokenKind::Ident {
            return;
        }
        if t[k + 1].is_punct(":") {
            let declared = self.rty(cx, &parse_ty(t, k + 2, eq));
            cx.bind(&t[k].text, k, declared);
        } else if k + 1 == eq {
            cx.bind(&t[k].text, k, rhs);
        } else if (t[k].is_ident("Some") || t[k].is_ident("Ok")) && k + 4 == eq {
            cx.bind(
                &t[k + 2].text,
                k + 2,
                rhs.and_then(|ty| ty.peel(&["Option", "Result"])),
            );
        } else if let Some(brace) = (k..eq).find(|&j| t[j].is_punct("{")) {
            // `let T { f, g: h, .. } = ..`: each binding gets its field's type.
            let path = t[k..brace].iter().filter(|x| x.kind == TokenKind::Ident);
            let owner = self.rty(cx, &Ty::named(path.map(|x| x.text.clone()).collect()));
            let mut j = brace + 1;
            while j < eq {
                if t[j].kind == TokenKind::Ident && !t[j].is_ident("mut") {
                    let bound = if t[j + 1].is_punct(":") { j + 2 } else { j };
                    let ty = owner.as_ref().and_then(|o| self.field_type(o, &t[j].text));
                    cx.bind(&t[bound].text, bound, ty);
                    j = bound;
                }
                j += 1;
            }
        }
    }

    /// BFS from all non-test functions defined in TCB files. Calls into
    /// implementations of [`OUTSIDE_THE_MACHINE`] traits are not followed.
    fn tcb_reachability(&self) -> Reachability {
        let n = self.fns.len();
        let mut reachable = vec![false; n];
        let mut parent = vec![None; n];
        let mut queue: VecDeque<usize> = (0..n)
            .filter(|&i| self.is_live_fn(i) && is_tcb_path(self.fn_path(i)))
            .collect();
        for &i in &queue {
            reachable[i] = true;
        }
        while let Some(cur) = queue.pop_front() {
            for &next in &self.callees[cur] {
                if !reachable[next] && !self.outside_the_machine(next) {
                    reachable[next] = true;
                    parent[next] = Some(cur);
                    queue.push_back(next);
                }
            }
        }
        Reachability { reachable, parent }
    }

    /// Does fn `idx` implement a trait of [`OUTSIDE_THE_MACHINE`]?
    fn outside_the_machine(&self, idx: usize) -> bool {
        let item = self.fn_item(idx);
        let Some(tr) = item
            .impl_trait
            .as_ref()
            .filter(|&t| item.impl_type.as_ref() != Some(t))
        else {
            return false;
        };
        let trait_ty = self.rty(&self.fn_cx(idx), &Ty::named(vec![tr.clone()]));
        trait_ty.is_some_and(|t| {
            OUTSIDE_THE_MACHINE.contains(&(t.krate.as_deref().unwrap_or(""), t.name.as_str()))
        })
    }
}

/// Std methods the resolver models by receiver shape: guards yield the
/// locked value, `get` an `Option` of the element, `unwrap` and kin the
/// payload, and `clone`/`iter`/`as_ref` keep the type. `Some(None)` is a
/// modeled method of unknown result.
fn std_model(recv: &RTy, name: &str) -> Option<Option<RTy>> {
    if name == "clone" {
        return Some(Some(recv.clone()));
    }
    let mut r = recv.clone();
    while let Some(inner) = r.peel(DEREF) {
        r = inner;
    }
    let arg = |n: usize| r.args.get(n).cloned().flatten();
    Some(match (name, r.name.as_str()) {
        ("lock" | "read" | "write", "Mutex" | "RwLock") => arg(0),
        ("get", "OnceLock" | "OnceCell" | "Vec" | "VecDeque" | "[]") => {
            Some(RTy::foreign("Option", vec![arg(0)]))
        }
        ("get" | "get_mut", "HashMap" | "BTreeMap") => Some(RTy::foreign("Option", vec![arg(1)])),
        (
            "unwrap" | "expect" | "unwrap_or_default" | "unwrap_or" | "unwrap_or_else",
            "Option" | "Result",
        ) => arg(0),
        ("iter" | "iter_mut" | "into_iter" | "as_ref" | "as_mut", _) if r.krate.is_none() => {
            Some(r.clone())
        }
        _ => return None,
    })
}

/// First token of the receiver chain ending just before the `.` at `dot`:
/// `self.a.b()?.c` from the `.` before a final method name.
pub fn chain_start(t: &[Token], dot: usize) -> usize {
    let mut j = dot;
    loop {
        // Step over one element ending at `j` (exclusive).
        let Some(mut e) = j.checked_sub(1) else {
            return j;
        };
        while t[e].is_punct("?") && e > 0 {
            e -= 1;
        }
        if t[e].is_punct(")") || t[e].is_punct("]") {
            let (o, c) = if t[e].is_punct(")") {
                ("(", ")")
            } else {
                ("[", "]")
            };
            let Some(open) = crate::items::matching_back(t, e, o, c) else {
                return j;
            };
            e = open - usize::from(open > 0 && t[open - 1].kind == TokenKind::Ident);
        } else if !matches!(t[e].kind, TokenKind::Ident | TokenKind::Number) {
            return j;
        }
        j = e;
        if j == 0 || !(t[j - 1].is_punct(".") || t[j - 1].is_punct("::")) {
            return j;
        }
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> WorkspaceIndex {
        WorkspaceIndex::build(files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect())
    }

    #[test]
    fn crate_mapping_and_contexts() {
        assert_eq!(crate_of("crates/tpm/src/device.rs"), "utp_tpm");
        assert_eq!(crate_of("shims/parking_lot/src/lib.rs"), "parking_lot");
        assert_eq!(crate_of("src/lib.rs"), "utp");
        assert!(is_src_context("crates/server/src/bin/serve.rs"));
        assert!(!is_src_context("crates/tpm/tests/properties.rs"));
        assert!(!is_src_context("tests/static_analysis.rs"));
        assert!(!is_src_context("examples/sharded_service.rs"));
    }

    #[test]
    fn cross_crate_calls_need_an_importable_alias() {
        let w = ws(&[
            ("crates/core/src/pal.rs", "pub fn invoke() { helper(); }\n"),
            ("crates/flicker/src/lib.rs", "pub fn helper() {}\n"),
        ]);
        // `utp_flicker` never mentioned in the caller: no edge.
        assert_eq!(w.callees[0], Vec::<usize>::new());

        let w = ws(&[
            (
                "crates/core/src/pal.rs",
                "use utp_flicker::helper;\npub fn invoke() { helper(); }\n",
            ),
            ("crates/flicker/src/lib.rs", "pub fn helper() {}\n"),
        ]);
        assert_eq!(w.callees[0], vec![1]);
        assert!(w.reach.reachable[1]);
        assert_eq!(w.chain_to(1), "invoke -> helper");
    }

    #[test]
    fn foreign_qualified_types_produce_no_edges() {
        let w = ws(&[(
            "crates/tpm/src/x.rs",
            "pub fn f() { let v = Vec::new(); }\npub struct K;\nimpl K { pub fn new() -> K { K } }\n",
        )]);
        // `Vec::new` must not resolve to the workspace `K::new`.
        assert_eq!(w.callees[0], Vec::<usize>::new());
    }

    #[test]
    fn qualified_impl_calls_resolve_precisely() {
        let w = ws(&[(
            "crates/tpm/src/x.rs",
            "pub struct A;\nimpl A { pub fn go() {} }\npub struct B;\nimpl B { pub fn go() {} }\npub fn f() { A::go(); }\n",
        )]);
        let f_idx = (0..w.fns.len())
            .find(|&i| w.fn_item(i).name == "f")
            .unwrap();
        assert_eq!(w.callees[f_idx].len(), 1);
        assert_eq!(
            w.fn_item(w.callees[f_idx][0]).impl_type.as_deref(),
            Some("A")
        );
    }

    #[test]
    fn method_calls_fan_out_to_all_importable_impls() {
        // `t` comes out of a tuple pattern, which the resolver does not
        // type: the call fans out to every importable `to_bytes`.
        let w = ws(&[
            (
                "crates/core/src/pal.rs",
                "use utp_tpm::T;\npub fn invoke(p: (T, u8)) { let (t, _) = p; t.to_bytes(); }\n",
            ),
            (
                "crates/tpm/src/a.rs",
                "pub struct T;\nimpl T { pub fn to_bytes(&self) {} }\n",
            ),
            (
                "crates/server/src/b.rs",
                "pub struct S;\nimpl S { pub fn to_bytes(&self) {} }\n",
            ),
        ]);
        // Reaches the tpm impl (importable) but not the server one.
        assert_eq!(w.callees[0].len(), 1);
        assert_eq!(w.fn_path(w.callees[0][0]), "crates/tpm/src/a.rs");
    }

    #[test]
    fn test_code_is_neither_entry_nor_target() {
        let w = ws(&[(
            "crates/tpm/src/x.rs",
            "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { live(); }\n}\n",
        )]);
        let helper = (0..w.fns.len())
            .find(|&i| w.fn_item(i).name == "helper")
            .unwrap();
        assert!(!w.reach.reachable[helper]);
        assert!(!w.is_live_fn(helper));
    }
}
