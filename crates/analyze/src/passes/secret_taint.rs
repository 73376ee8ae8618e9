//! `secret-taint` — key material must not flow to Debug/logging/wire
//! sinks.
//!
//! Scope: non-test code in `crates/tpm`, `crates/crypto`, `crates/core`
//! (the crates that handle seal/auth key material); rule 4 runs
//! workspace-wide. Four rules:
//!
//! 1. **Debug derives.** A `#[derive(Debug)]` on a struct carrying
//!    secret material is a deny unless every secret field's type has a
//!    manual (redacting) `impl Debug` in the workspace — the manual
//!    impl is the approved redaction boundary (see `RsaKeyPair`).
//!    Secret-carrying is a fixpoint: a field is secret if its *name* is
//!    secret-shaped, its type is a designated secret type, or its type
//!    is itself a secret-carrying struct.
//! 2. **Console/logging sinks.** A tainted identifier reaching
//!    `println!`/`print!`/`eprintln!`/`eprint!`/`dbg!` (including
//!    `{ident}` inline captures in the format string) is a deny.
//! 3. **Wire sinks.** `.to_bytes()`/`.write()`/`.serialize()` on a
//!    tainted receiver outside the approved sealing boundary files is a
//!    deny — private keys leave the TPM model only wrapped or sealed.
//! 4. **Workspace-wide sinks.** A tainted identifier in the argument
//!    list of a call named in the `SINK_FAMILIES` table — trace
//!    emissions, journal appends, metrics/artifact emissions,
//!    fleet-report tags — is a deny *workspace-wide*, not just in the
//!    key crates: each family serializes its arguments verbatim into
//!    an output that outlives the call (the JSONL export, the WAL, the
//!    perf artifacts, the fleet digest). Idents immediately followed
//!    by `::` are path qualifiers (`utp_trace::keys::OP`,
//!    `JournalRecord::Settle`), not values, and are skipped.
//!
//! **Taint is flow-sensitive** (statement-level CFG + worklist, see
//! `crate::cfg` / `crate::dataflow`): a binding or *reassignment* from
//! a secret-mentioning expression taints the local on the paths that
//! execute it, `zeroize(&mut x)` / `x.zeroize()` kills the taint, and
//! a binding from a clean expression clears a secret-*named* local
//! (the flow fact overrides the name heuristic in both directions;
//! idents with no flow fact fall back to the name heuristic). Public
//! projections (`key.len()`) do not taint. On top of the per-fn flow,
//! a bounded interprocedural fixpoint marks fns whose *return
//! position* is tainted as secret-returning — unless the fn's name
//! marks the result public or one-way (`hash`/`hmac`/`digest`: MAC
//! tags and digests authenticate data, they do not reveal it) — so
//! `let sub = derive_subkey(seed)` taints `sub` two calls deep. The
//! workspace-wide sink rule keeps an *empty* secret-returning
//! set: the name set blankets constructor names like `new`, tolerable
//! inside the key crates but far too noisy workspace-wide.
//!
//! Nonces are deliberately *not* sources here: in this protocol the
//! nonce is the quote's public `externalData`, not a secret.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{build_cfg, Role, Stmt};
use crate::dataflow::{solve, JoinMap, Lattice};
use crate::diag::Severity;
use crate::graph::WorkspaceIndex;
use crate::items::{CallSite, FnItem};
use crate::lexer::TokenKind;
use crate::passes::{flow, Finding, Pass};
use crate::source::SourceFile;

/// Identifier components that mark a binding as key material.
const SECRET_COMPONENTS: &[&str] = &[
    "secret",
    "secrets",
    "key",
    "keys",
    "keypair",
    "seed",
    "priv",
    "private",
    "passphrase",
];

/// Components that mark the binding as public/ciphertext even when a
/// secret component is present (`key_bits`, `public_key`, `sealed_key`).
const PUBLIC_COMPONENTS: &[&str] = &[
    "public", "pub", "bits", "len", "size", "count", "id", "ids", "handle", "handles", "cert",
    "certs", "ca", "aik", "ek", "srk", "usage", "sealed", "wrapped", "wrap", "load", "blob",
    "store", "slot", "slots", "cache", "hash", "digest", "index", "bound",
];

/// Fn-name components whose *output* is safe by construction: one-way
/// functions (MACs, digests) authenticate data without revealing it,
/// so their return values are exempt from the return-taint fixpoint.
const ONE_WAY_COMPONENTS: &[&str] = &["hmac", "mac", "digest", "hash", "checksum", "fingerprint"];

/// Types that are secret by fiat, wherever they appear.
const DESIGNATED_SECRET_TYPES: &[&str] = &["RsaKeyPair"];

/// Call-name components that launder taint: their *output* is protected
/// ciphertext even when a secret flows in (`seal_to_current(.., &key)`).
/// Note `unseal`/`decrypt`/`unwrap` are distinct components and do not
/// match, so the inverse operations keep their outputs secret.
const SANITIZER_COMPONENTS: &[&str] = &["seal", "encrypt", "wrap"];

/// Method projections whose result is public arithmetic, not material.
const PUBLIC_PROJECTIONS: &[&str] = &["len", "is_empty", "count", "capacity"];

/// Console/logging macro sinks.
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Wire-serialization method sinks.
const WIRE_METHODS: &[&str] = &["to_bytes", "write", "serialize"];

/// One workspace-wide sink family: calls whose arguments are serialized
/// somewhere a secret must never land.
struct SinkFamily {
    /// Free-fn sink names (`span(..)`).
    fns: &'static [&'static str],
    /// Method sink names (`.append_record(..)`).
    methods: &'static [&'static str],
    /// Family label in diagnostics (`trace sink`).
    label: &'static str,
    /// Why the sink is dangerous and what to emit instead.
    advice: &'static str,
}

impl SinkFamily {
    fn matches(&self, c: &CallSite) -> bool {
        let names = if c.is_method { self.methods } else { self.fns };
        names.contains(&c.name.as_str())
    }
}

/// Rule 4's sink families, one row each, checked in this order. Adding
/// a sink family is one row.
const SINK_FAMILIES: &[SinkFamily] = &[
    // Flight-recorder emissions (`utp_trace::span(..)` and friends):
    // field values land verbatim in the JSONL export.
    SinkFamily {
        fns: &["span", "event", "span_volatile", "event_volatile"],
        methods: &[],
        label: "trace sink",
        advice: "trace records are serialized into the JSONL export — record a digest, a \
                 length, or nothing",
    },
    // Settlement-journal appends: the record payload is framed onto
    // the WAL byte-for-byte and survives the process and any
    // in-memory zeroization.
    SinkFamily {
        fns: &[],
        methods: &["append_record", "install_snapshot"],
        label: "journal sink",
        advice: "WAL frames are durable and outlive zeroization — journal a digest, a \
                 handle, or nothing",
    },
    // Metrics/artifact emissions (`utp-obs`): cell registration
    // (`counter`/`gauge`/`histogram`) carries label values, artifact
    // pushes carry metric values, and the exposition renderer writes
    // them, verbatim, into `BENCH_*.json` and the `.prom` text.
    SinkFamily {
        fns: &["render_exposition"],
        methods: &[
            "counter",
            "gauge",
            "histogram",
            "push_u64",
            "push_f64",
            "push_dist",
            "push_hist",
        ],
        label: "metrics sink",
        advice: "metric names, labels, and values are serialized into perf artifacts and \
                 the exposition text — export a digest, a count, or nothing",
    },
    // Fleet-simulation report sinks (`utp-netsim`): scenario run tags
    // and report annotations are folded verbatim into the
    // `FleetReport` digest — the byte-identity surface CI compares
    // across runs — and exported into the `BENCH_E13.json` artifacts.
    SinkFamily {
        fns: &[],
        methods: &["annotate", "tag_run"],
        label: "fleet-report sink",
        advice: "run tags and annotations are folded into the report digest and the E13 \
                 perf artifacts — tag runs with public labels only",
    },
];

/// Files allowed to serialize key material (the sealing/wrapping
/// boundary plus the key types' own codecs).
const WIRE_BOUNDARY_FILES: &[&str] = &[
    "crates/tpm/src/keys.rs",
    "crates/tpm/src/seal.rs",
    "crates/crypto/src/rsa.rs",
];

/// Is this identifier secret key material (for taint purposes)?
pub fn is_taint_secret_ident(ident: &str) -> bool {
    if ident
        .chars()
        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
    {
        return false;
    }
    let lower: Vec<String> = ident.split('_').map(|c| c.to_ascii_lowercase()).collect();
    lower
        .iter()
        .any(|c| SECRET_COMPONENTS.contains(&c.as_str()))
        && !lower
            .iter()
            .any(|c| PUBLIC_COMPONENTS.contains(&c.as_str()))
}

/// Does this fn name mark its result as public or one-way, exempting
/// it from the return-taint fixpoint?
fn launders_by_name(name: &str) -> bool {
    name.split('_').any(|c| {
        let c = c.to_ascii_lowercase();
        PUBLIC_COMPONENTS.contains(&c.as_str()) || ONE_WAY_COMPONENTS.contains(&c.as_str())
    })
}

fn in_scope(path: &str) -> bool {
    path.starts_with("crates/tpm/src/")
        || path.starts_with("crates/crypto/src/")
        || path.starts_with("crates/core/src/")
}

/// The pass.
pub struct SecretTaint;

impl Pass for SecretTaint {
    fn id(&self) -> &'static str {
        "secret-taint"
    }

    fn description(&self) -> &'static str {
        "key material must not reach Debug/logging/wire sinks"
    }

    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        let mut out = Vec::new();
        let secret_structs = secret_struct_fixpoint(ws);
        let manual_debug = manual_debug_types(ws);
        let redacting = redacting_types(ws, &secret_structs, &manual_debug);

        // Interprocedural return taint: seed with secret-shaped names
        // and secret return types, then (bounded) close over non-test
        // fns whose return position the per-fn flow proves tainted.
        let mut secret_returning = secret_returning_fns(ws, &secret_structs);
        for _round in 0..3 {
            let mut changed = false;
            for idx in 0..ws.fns.len() {
                if !ws.is_live_fn(idx) || !ws.metas[ws.fns[idx].file].is_src_ctx {
                    continue;
                }
                let file = &ws.files[ws.fns[idx].file];
                if !in_scope(&file.path) {
                    continue;
                }
                let item = ws.fn_item(idx);
                if file.in_test_code(item.start_line)
                    || launders_by_name(&item.name)
                    || secret_returning.contains(&item.name)
                {
                    continue;
                }
                let cx = TaintCtx {
                    secret_returning: &secret_returning,
                    secret_structs: &secret_structs,
                };
                if fn_flow(file, item, &cx).returns_tainted
                    && secret_returning.insert(item.name.clone())
                {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        for (fi, file) in ws.files.iter().enumerate() {
            if !in_scope(&file.path) || !ws.metas[fi].is_src_ctx {
                continue;
            }
            check_debug_derives(file, &secret_structs, &redacting, fi, &mut out);
        }
        let cx = TaintCtx {
            secret_returning: &secret_returning,
            secret_structs: &secret_structs,
        };
        // The workspace-wide sink scan drops the name-seeded
        // secret-returning set (see the module docs).
        let empty = BTreeSet::new();
        let scan_cx = TaintCtx {
            secret_returning: &empty,
            secret_structs: &secret_structs,
        };
        for idx in 0..ws.fns.len() {
            let fi = ws.fns[idx].file;
            let file = &ws.files[fi];
            if !ws.is_live_fn(idx) {
                continue;
            }
            if in_scope(&file.path) {
                let ft = fn_flow(file, ws.fn_item(idx), &cx);
                check_fn_sinks(file, ws.fn_item(idx), &ft, fi, &mut out);
            }
            check_workspace_sinks(file, ws.fn_item(idx), &scan_cx, fi, &mut out);
        }
        out
    }
}

/// Structs that (transitively) carry secret material, mapped to the
/// field that makes them secret.
fn secret_struct_fixpoint(ws: &WorkspaceIndex) -> BTreeMap<String, String> {
    let mut secret: BTreeMap<String, String> = DESIGNATED_SECRET_TYPES
        .iter()
        .map(|t| (t.to_string(), "designated secret type".to_string()))
        .collect();
    loop {
        let mut changed = false;
        for (fi, file) in ws.files.iter().enumerate() {
            if !in_scope(&file.path) || !ws.metas[fi].is_src_ctx {
                continue;
            }
            for s in &file.items.structs {
                if secret.contains_key(&s.name) {
                    continue;
                }
                let cause = s.fields.iter().find_map(|f| {
                    if is_taint_secret_ident(&f.name) {
                        return Some(format!("field `{}` is secret-named", f.name));
                    }
                    f.type_idents
                        .iter()
                        .find(|t| secret.contains_key(*t))
                        .map(|t| format!("field `{}` contains secret type `{}`", f.name, t))
                });
                if let Some(cause) = cause {
                    secret.insert(s.name.clone(), cause);
                    changed = true;
                }
            }
        }
        if !changed {
            return secret;
        }
    }
}

/// Types with a manual `impl Debug` anywhere in library source — the
/// approved redaction boundary.
fn manual_debug_types(ws: &WorkspaceIndex) -> BTreeSet<String> {
    ws.files
        .iter()
        .enumerate()
        .filter(|(fi, _)| ws.metas[*fi].is_src_ctx)
        .flat_map(|(_, f)| f.items.impls.iter())
        .filter(|i| i.trait_name.as_deref() == Some("Debug"))
        .map(|i| i.type_name.clone())
        .collect()
}

/// Types whose Debug output is redacted: manual impls, plus (by
/// fixpoint) structs whose derived Debug only ever reaches secrets
/// through types that already redact. A derive over fully-redacted
/// fields prints only redacted text, so it is itself a safe boundary.
fn redacting_types(
    ws: &WorkspaceIndex,
    secret_structs: &BTreeMap<String, String>,
    manual_debug: &BTreeSet<String>,
) -> BTreeSet<String> {
    let mut redacting = manual_debug.clone();
    loop {
        let mut changed = false;
        for (fi, file) in ws.files.iter().enumerate() {
            if !ws.metas[fi].is_src_ctx {
                continue;
            }
            for s in &file.items.structs {
                if redacting.contains(&s.name)
                    || s.derive_debug_line.is_none()
                    || DESIGNATED_SECRET_TYPES.contains(&s.name.as_str())
                {
                    continue;
                }
                let safe = s.fields.iter().all(|f| {
                    let secret = is_taint_secret_ident(&f.name)
                        || f.type_idents.iter().any(|t| secret_structs.contains_key(t));
                    !secret || f.type_idents.iter().any(|t| redacting.contains(t))
                });
                if safe && redacting.insert(s.name.clone()) {
                    changed = true;
                }
            }
        }
        if !changed {
            return redacting;
        }
    }
}

/// Function names whose return value is tainted: secret-shaped name or
/// a return type mentioning a secret struct.
fn secret_returning_fns(
    ws: &WorkspaceIndex,
    secret_structs: &BTreeMap<String, String>,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for idx in 0..ws.fns.len() {
        let item = ws.fn_item(idx);
        let ret_secret = item.ret_idents.iter().any(|t| {
            secret_structs.contains_key(t)
                || (t == "Self"
                    && item
                        .impl_type
                        .as_ref()
                        .is_some_and(|ty| secret_structs.contains_key(ty)))
        });
        if is_taint_secret_ident(&item.name) || ret_secret {
            out.insert(item.name.clone());
        }
    }
    out
}

fn check_debug_derives(
    file: &SourceFile,
    secret_structs: &BTreeMap<String, String>,
    redacting: &BTreeSet<String>,
    fi: usize,
    out: &mut Vec<(usize, Finding)>,
) {
    for s in &file.items.structs {
        let Some(line) = s.derive_debug_line else {
            continue;
        };
        if file.in_test_code(s.line) {
            continue;
        }
        // A designated secret type must never derive Debug at all.
        if DESIGNATED_SECRET_TYPES.contains(&s.name.as_str()) {
            out.push((
                fi,
                Finding {
                    line,
                    severity: Severity::Deny,
                    message: format!(
                        "derive(Debug) on `{}` formats private key material; write a \
                         manual redacting `impl fmt::Debug` that prints only public \
                         parameters",
                        s.name
                    ),
                },
            ));
            continue;
        }
        let offending: Vec<&str> = s
            .fields
            .iter()
            .filter(|f| {
                let secret = is_taint_secret_ident(&f.name)
                    || f.type_idents.iter().any(|t| secret_structs.contains_key(t));
                let redacted = f.type_idents.iter().any(|t| redacting.contains(t));
                secret && !redacted
            })
            .map(|f| f.name.as_str())
            .collect();
        if !offending.is_empty() {
            out.push((
                fi,
                Finding {
                    line,
                    severity: Severity::Deny,
                    message: format!(
                        "derive(Debug) on `{}` formats secret field(s) `{}` whose types \
                         have no redacting Debug impl; add a manual `impl fmt::Debug` or \
                         route the field through a type that redacts",
                        s.name,
                        offending.join("`, `")
                    ),
                },
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Flow-sensitive local taint.
// ---------------------------------------------------------------------

/// The per-local taint lattice (`Tainted` is top).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tn {
    Clean,
    Tainted,
}

impl Lattice for Tn {
    fn join_from(&mut self, other: &Self) -> bool {
        if *other > *self {
            *self = *other;
            return true;
        }
        false
    }
}

type Env = JoinMap<Tn>;

/// Shared inputs for the per-fn flow.
struct TaintCtx<'a> {
    secret_returning: &'a BTreeSet<String>,
    secret_structs: &'a BTreeMap<String, String>,
}

/// Env fact wins in both directions; no fact falls back to the name
/// heuristic.
fn ident_tainted(name: &str, env: &Env) -> bool {
    match env.0.get(name) {
        Some(Tn::Tainted) => true,
        Some(Tn::Clean) => false,
        None => is_taint_secret_ident(name),
    }
}

/// The solved flow of one fn: the entry environment of every reached
/// statement, plus whether any return position is tainted.
struct FnTaint {
    states: Vec<(Stmt, Env)>,
    returns_tainted: bool,
}

impl FnTaint {
    fn env_at(&self, tok: usize) -> Option<&Env> {
        self.states
            .iter()
            .find(|(s, _)| s.lo <= tok && tok < s.hi)
            .map(|(_, e)| e)
    }

    /// Flow fact wins in both directions; no fact falls back to the
    /// name heuristic.
    fn tainted_at(&self, name: &str, tok: usize) -> bool {
        match self.env_at(tok) {
            Some(env) => ident_tainted(name, env),
            None => is_taint_secret_ident(name),
        }
    }

    /// Locals the flow knows to be tainted at `tok` (for format-string
    /// capture checks).
    fn tainted_locals_at(&self, tok: usize) -> Vec<&str> {
        self.env_at(tok)
            .map(|e| {
                e.0.iter()
                    .filter(|(_, v)| **v == Tn::Tainted)
                    .map(|(k, _)| k.as_str())
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Solves the taint flow for one fn body.
fn fn_flow(file: &SourceFile, item: &FnItem, cx: &TaintCtx) -> FnTaint {
    let mut ft = FnTaint {
        states: Vec::new(),
        returns_tainted: false,
    };
    let Some(body) = item.body else {
        return ft;
    };
    let cfg = build_cfg(&file.tokens, body);
    let entries = solve(&cfg, Env::default(), |s, env| {
        transfer(file, item, cx, s, env);
    });
    for (bi, block) in cfg.blocks.iter().enumerate() {
        let Some(entry) = &entries[bi] else {
            continue;
        };
        let mut env = entry.clone();
        for s in &block.stmts {
            ft.states.push((s.clone(), env.clone()));
            if let Some((lo, hi)) = return_range(file, s) {
                if classify(file, item, cx, lo, hi, &env) == Tn::Tainted {
                    ft.returns_tainted = true;
                }
            }
            transfer(file, item, cx, s, &mut env);
        }
    }
    ft
}

/// The expression range of a return position: a statement-initial
/// `return`, or a tail expression (no trailing `;`). Non-`()` values
/// in non-tail statement position do not compile, so every `;`-less
/// `Normal` statement is a return position.
fn return_range(file: &SourceFile, s: &Stmt) -> Option<(usize, usize)> {
    if s.role != Role::Normal {
        return None;
    }
    if file.tokens[s.lo].is_ident("return") {
        return Some((s.lo + 1, s.hi));
    }
    if !file.tokens.get(s.hi).is_some_and(|t| t.is_punct(";")) {
        return Some((s.lo, s.hi));
    }
    None
}

/// Transfer across one statement: bindings/reassignments classify
/// their rhs, `zeroize` kills, `for` headers bind their pattern.
fn transfer(file: &SourceFile, item: &FnItem, cx: &TaintCtx, s: &Stmt, env: &mut Env) {
    let toks = &file.tokens;
    // `for PAT in EXPR` binds the pattern idents with EXPR's taint.
    if s.role == Role::For {
        let mut j = s.lo + 1;
        let mut pat = Vec::new();
        while j < s.hi && !toks[j].is_ident("in") {
            if toks[j].kind == TokenKind::Ident && !toks[j].is_ident("mut") {
                pat.push(toks[j].text.clone());
            }
            j += 1;
        }
        if j < s.hi {
            let v = classify(file, item, cx, j + 1, s.hi, env);
            for name in pat {
                env.0.insert(name, v);
            }
        }
        return;
    }
    if let Some((name, rhs_lo, compound)) = flow::binding_of(toks, s) {
        let mut v = classify(file, item, cx, rhs_lo, s.hi, env);
        // A compound assign keeps the old value's taint.
        if compound && matches!(env.0.get(&name), Some(Tn::Tainted)) {
            v = Tn::Tainted;
        }
        env.0.insert(name, v);
    }
    // `zeroize(&mut x)` / `x.zeroize()` overwrites the bytes: the
    // local no longer carries the secret, whatever its name says.
    for c in &item.calls {
        if c.tok < s.lo || c.tok >= s.hi || c.name != "zeroize" {
            continue;
        }
        if c.is_method {
            if let Some(recv) = c.tok.checked_sub(2).map(|r| &toks[r]) {
                if recv.kind == TokenKind::Ident {
                    env.0.insert(recv.text.clone(), Tn::Clean);
                }
            }
        } else if let Some(arg) = toks[c.args.0..c.args.1]
            .iter()
            .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut"))
        {
            env.0.insert(arg.text.clone(), Tn::Clean);
        }
    }
}

/// Classifies an expression range: `Tainted` if a value position
/// mentions a tainted local (flow env, falling back to the name
/// heuristic for untracked idents such as parameters), a secret field
/// projection (`self.key`), or a call that produces secret material.
///
/// Call results are gated by where the call *starts*: a free fn only
/// taints by its own name; `T::f(..)` only when `T` is a secret type;
/// `recv.f(..)` only when the receiver is tainted (so the polluted
/// bare-name `secret_returning` set cannot blanket every `from_bytes`
/// or `new` in the workspace). A sanitizer call makes the whole
/// expression ciphertext, and public projections (`key.len()`) stay
/// clean.
fn classify(
    file: &SourceFile,
    item: &FnItem,
    cx: &TaintCtx,
    lo: usize,
    hi: usize,
    env: &Env,
) -> Tn {
    let toks = &file.tokens;
    let hi = hi.min(toks.len());
    for c in &item.calls {
        if c.tok >= lo
            && c.tok < hi
            && c.name
                .split('_')
                .any(|w| SANITIZER_COMPONENTS.contains(&w.to_ascii_lowercase().as_str()))
        {
            // A sealing/encryption call: its result is ciphertext, so
            // this expression stays clean even if secrets flow in.
            return Tn::Clean;
        }
    }
    let mut tainted = false;
    for j in lo..hi {
        let t = &toks[j];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hot = if let Some(c) = item.calls.iter().find(|c| c.tok == j) {
            call_result_tainted(toks, c, cx, env)
        } else {
            // Field names in struct literals / type ascriptions
            // (`key: ..`) and path qualifiers (`keys::OP`) are not
            // value uses.
            if toks
                .get(j + 1)
                .is_some_and(|n| n.is_punct(":") || n.is_punct("::"))
            {
                continue;
            }
            if j > lo && toks[j - 1].is_punct("::") {
                // Path tail (`mod::CONST`): SCREAMING consts are
                // exempt by name anyway; skip.
                continue;
            }
            if j > lo && toks[j - 1].is_punct(".") {
                // Field projection: the env tracks locals, not
                // fields, so only the name heuristic applies
                // (`self.key` is secret, `req.nonce` is not).
                is_taint_secret_ident(&t.text)
            } else {
                ident_tainted(&t.text, env)
            }
        };
        if hot && !flow::postfix_projects_public(toks, j, PUBLIC_PROJECTIONS) {
            tainted = true;
        }
    }
    if tainted {
        Tn::Tainted
    } else {
        Tn::Clean
    }
}

/// Does this call produce secret material?
fn call_result_tainted(
    toks: &[crate::lexer::Token],
    c: &crate::items::CallSite,
    cx: &TaintCtx,
    env: &Env,
) -> bool {
    if is_taint_secret_ident(&c.name) {
        return true;
    }
    if !cx.secret_returning.contains(&c.name) {
        return false;
    }
    if c.is_method {
        // `recv.f(..)`: the shared name only counts when the receiver
        // itself carries the secret.
        return c.tok.checked_sub(2).is_some_and(|r| {
            toks[r].kind == TokenKind::Ident && ident_tainted(&toks[r].text, env)
        });
    }
    match &c.qualifier {
        // `T::f(..)`: only a secret type's constructor/accessor taints.
        Some(q) => cx.secret_structs.contains_key(q) || is_taint_secret_ident(q),
        // A free fn owns its name: `derive_subkey(..)` taints.
        None => true,
    }
}

fn check_fn_sinks(
    file: &SourceFile,
    item: &FnItem,
    ft: &FnTaint,
    fi: usize,
    out: &mut Vec<(usize, Finding)>,
) {
    for m in &item.macros {
        if !PRINT_MACROS.contains(&m.name.as_str()) {
            continue;
        }
        let mut hit: Option<String> = None;
        for (off, t) in file.tokens[m.args.0..m.args.1].iter().enumerate() {
            let tok = m.args.0 + off;
            match t.kind {
                TokenKind::Ident if ft.tainted_at(&t.text, tok) => {
                    hit = Some(t.text.clone());
                }
                // `println!("{session_key}")` inline captures.
                TokenKind::Str => {
                    for name in ft
                        .tainted_locals_at(tok)
                        .into_iter()
                        .chain(capture_candidates(&t.text))
                    {
                        if ft.tainted_at(name, tok)
                            && (t.text.contains(&format!("{{{name}}}"))
                                || t.text.contains(&format!("{{{name}:")))
                        {
                            hit = Some(name.to_string());
                        }
                    }
                }
                _ => {}
            }
            if hit.is_some() {
                break;
            }
        }
        if let Some(ident) = hit {
            out.push((
                fi,
                Finding {
                    line: m.line,
                    severity: Severity::Deny,
                    message: format!(
                        "secret `{ident}` flows into `{}!` in `{}`; secrets must never \
                         reach console/logging sinks — log a digest or drop the field",
                        m.name, item.name
                    ),
                },
            ));
        }
    }

    if WIRE_BOUNDARY_FILES.contains(&file.path.as_str()) {
        return;
    }
    for c in &item.calls {
        if !c.is_method || !WIRE_METHODS.contains(&c.name.as_str()) {
            continue;
        }
        // Receiver ident: `recv . name (` — two tokens before the name.
        let Some(r) = c.tok.checked_sub(2) else {
            continue;
        };
        let recv = &file.tokens[r];
        if recv.kind == TokenKind::Ident && ft.tainted_at(&recv.text, r) {
            out.push((
                fi,
                Finding {
                    line: c.line,
                    severity: Severity::Deny,
                    message: format!(
                        "secret `{}` is serialized via `.{}()` in `{}` outside the \
                         approved sealing boundary ({}); key material leaves the TPM \
                         model only wrapped or sealed",
                        recv.text,
                        c.name,
                        item.name,
                        WIRE_BOUNDARY_FILES.join(", ")
                    ),
                },
            ));
        }
    }
}

/// Rule 4: a tainted identifier must not appear in the argument list
/// of any [`SINK_FAMILIES`] call. Runs workspace-wide — each
/// family serializes its arguments wherever the call is made.
fn check_workspace_sinks(
    file: &SourceFile,
    item: &FnItem,
    cx: &TaintCtx,
    fi: usize,
    out: &mut Vec<(usize, Finding)>,
) {
    if !item
        .calls
        .iter()
        .any(|c| SINK_FAMILIES.iter().any(|f| f.matches(c)))
    {
        return;
    }
    let ft = fn_flow(file, item, cx);
    for family in SINK_FAMILIES {
        for c in item.calls.iter().filter(|c| family.matches(c)) {
            let args = &file.tokens[c.args.0..c.args.1];
            let hit = args.iter().enumerate().find_map(|(j, t)| {
                if t.kind != TokenKind::Ident || !ft.tainted_at(&t.text, c.args.0 + j) {
                    return None;
                }
                // Path qualifiers (`keys::OP`, `JournalRecord::Settle`)
                // name a key, a record shape or a constant, not a value.
                if args.get(j + 1).is_some_and(|n| n.is_punct("::")) {
                    return None;
                }
                Some(t.text.clone())
            });
            if let Some(ident) = hit {
                out.push((
                    fi,
                    Finding {
                        line: c.line,
                        severity: Severity::Deny,
                        message: format!(
                            "secret `{ident}` flows into {} `{}` in `{}`; {}",
                            family.label, c.name, item.name, family.advice
                        ),
                    },
                ));
            }
        }
    }
}

/// Identifier-shaped words inside a format string, candidates for
/// inline-capture checks.
fn capture_candidates(s: &str) -> impl Iterator<Item = &str> {
    s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}
