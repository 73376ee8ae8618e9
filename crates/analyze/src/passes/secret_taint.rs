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
//! **Taint is flow-sensitive**: the rules read the shared engine
//! ([`crate::taint`]) with this lint's table. A binding or
//! *reassignment* from a secret-mentioning expression taints the local
//! on the paths that execute it, `zeroize(&mut x)` / `x.zeroize()` kills
//! the taint, a sealing call (`seal`/`encrypt`/`wrap`) makes its part of
//! the expression ciphertext, and a binding from a clean expression
//! clears a secret-*named* local. Public projections (`key.len()`) do
//! not taint. A fn whose *return position* is tainted is
//! secret-returning — unless its name marks the result public or
//! one-way (`hash`/`hmac`/`digest`: MAC tags and digests authenticate
//! data, they do not reveal it) — so `let sub = derive_subkey(seed)`
//! taints `sub` any number of calls deep. The workspace-wide sink rule
//! reads the same summaries.
//!
//! Nonces are deliberately *not* sources here: in this protocol the
//! nonce is the quote's public `externalData`, not a secret.

use std::collections::BTreeSet;

use crate::graph::WorkspaceIndex;
use crate::items::{CallSite, FieldItem, FnItem, StructItem};
use crate::lexer::TokenKind;
use crate::passes::flow::postfix_projects_public;
use crate::passes::{name_has, Finding, Pass};
use crate::source::SourceFile;
use crate::taint::{is_call, Engine, FnFlow, Table};

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
    name_has(ident, SECRET_COMPONENTS) && !name_has(ident, PUBLIC_COMPONENTS)
}

/// Does this fn name mark its result as public or one-way, exempting
/// it from the return summary?
fn launders_by_name(name: &str) -> bool {
    name_has(name, PUBLIC_COMPONENTS) || name_has(name, ONE_WAY_COMPONENTS)
}

/// Is this field secret: secret-named, or of a secret-carrying type?
fn is_secret_field(f: &FieldItem, secret_structs: &BTreeSet<String>) -> bool {
    is_taint_secret_ident(&f.name) || f.ty.idents().iter().any(|t| secret_structs.contains(t))
}

fn in_scope(path: &str) -> bool {
    path.starts_with("crates/tpm/src/")
        || path.starts_with("crates/crypto/src/")
        || path.starts_with("crates/core/src/")
}

/// What secret-taint tracks: secret-shaped names and calls, sealed by a
/// sealing call, cleared by `zeroize`.
const TABLE: Table = Table {
    scope: in_scope,
    named: is_taint_secret_ident,
    source: is_taint_secret_ident,
    sanitizer: |toks, j| is_call(toks, j) && name_has(&toks[j].text, SANITIZER_COMPONENTS),
    checks: false,
    opaque_calls: false,
    public: PUBLIC_PROJECTIONS,
    public_fn: launders_by_name,
    kills: &["zeroize"],
};

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
        let secret_structs = secret_structs(ws);
        let redacting = redacting_types(ws, &secret_structs);
        let engine = Engine::run(ws, &TABLE, secret_returning_fns(ws, &secret_structs));
        let mut out = Vec::new();
        let mut deny = |fi: usize, found: Vec<(u32, String)>| {
            out.extend(
                found
                    .into_iter()
                    .map(|(line, m)| (fi, Finding::deny(line, m))),
            );
        };
        for (fi, file) in ws.files.iter().enumerate() {
            if in_scope(&file.path) && ws.metas[fi].is_src_ctx {
                deny(fi, check_debug_derives(file, &secret_structs, &redacting));
            }
        }
        for idx in 0..ws.fns.len() {
            let (fi, item) = (ws.fns[idx].file, ws.fn_item(idx));
            let file = &ws.files[fi];
            let scoped = in_scope(&file.path);
            let sinks = (item.calls.iter()).any(|c| SINK_FAMILIES.iter().any(|f| f.matches(c)));
            if ws.is_live_fn(idx) && (scoped || sinks) {
                deny(fi, check_fn_sinks(file, item, &engine.flow(idx), scoped));
            }
        }
        out
    }
}

/// Grows `set` with the structs `admit` accepts (in library source, and
/// in scope when `scoped`) until nothing changes.
fn struct_fixpoint(
    ws: &WorkspaceIndex,
    mut set: BTreeSet<String>,
    scoped: bool,
    admit: impl Fn(&StructItem, &BTreeSet<String>) -> bool,
) -> BTreeSet<String> {
    loop {
        let before = set.len();
        for (fi, file) in ws.files.iter().enumerate() {
            if !ws.metas[fi].is_src_ctx || scoped && !in_scope(&file.path) {
                continue;
            }
            for s in &file.items.structs {
                if !set.contains(&s.name) && admit(s, &set) {
                    set.insert(s.name.clone());
                }
            }
        }
        if set.len() == before {
            return set;
        }
    }
}

/// Structs that (transitively) carry secret material.
fn secret_structs(ws: &WorkspaceIndex) -> BTreeSet<String> {
    let designated = DESIGNATED_SECRET_TYPES.iter().map(|t| t.to_string());
    struct_fixpoint(ws, designated.collect(), true, |s, secret| {
        s.fields.iter().any(|f| is_secret_field(f, secret))
    })
}

/// Types whose Debug output is redacted: manual impls anywhere in
/// library source (the approved redaction boundary), plus structs whose
/// derived Debug only ever reaches secrets through types that already
/// redact. A derive over fully-redacted fields prints only redacted
/// text, so it is itself a safe boundary.
fn redacting_types(ws: &WorkspaceIndex, secret_structs: &BTreeSet<String>) -> BTreeSet<String> {
    let manual_debug = (ws.files.iter().enumerate())
        .filter(|(fi, _)| ws.metas[*fi].is_src_ctx)
        .flat_map(|(_, f)| f.items.impls.iter())
        .filter(|i| i.trait_name.as_deref() == Some("Debug"))
        .map(|i| i.type_name.clone());
    struct_fixpoint(ws, manual_debug.collect(), false, |s, redacting| {
        s.derive_debug_line.is_some()
            && !DESIGNATED_SECRET_TYPES.contains(&s.name.as_str())
            && s.fields.iter().all(|f| {
                !is_secret_field(f, secret_structs)
                    || f.ty.idents().iter().any(|t| redacting.contains(t))
            })
    })
}

/// The return summary's seed, per fn: a secret-shaped name, or a return
/// type mentioning a secret struct.
fn secret_returning_fns(ws: &WorkspaceIndex, secret_structs: &BTreeSet<String>) -> Vec<bool> {
    (0..ws.fns.len())
        .map(|idx| {
            let item = ws.fn_item(idx);
            let ret = item.ret.as_ref().map(|r| r.idents()).unwrap_or_default();
            is_taint_secret_ident(&item.name)
                || ret.iter().any(|t| {
                    secret_structs.contains(t)
                        || (t == "Self"
                            && (item.impl_type.as_ref())
                                .is_some_and(|ty| secret_structs.contains(ty)))
                })
        })
        .collect()
}

/// Rule 1 over one file's structs, as `(line, message)`.
fn check_debug_derives(
    file: &SourceFile,
    secret_structs: &BTreeSet<String>,
    redacting: &BTreeSet<String>,
) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for s in &file.items.structs {
        let Some(line) = s.derive_debug_line.filter(|_| !file.in_test_code(s.line)) else {
            continue;
        };
        // A designated secret type must never derive Debug at all.
        if DESIGNATED_SECRET_TYPES.contains(&s.name.as_str()) {
            out.push((
                line,
                format!(
                    "derive(Debug) on `{}` formats private key material; write a \
                     manual redacting `impl fmt::Debug` that prints only public \
                     parameters",
                    s.name
                ),
            ));
            continue;
        }
        let offending: Vec<&str> = (s.fields.iter())
            .filter(|f| {
                is_secret_field(f, secret_structs)
                    && !f.ty.idents().iter().any(|t| redacting.contains(t))
            })
            .map(|f| f.name.as_str())
            .collect();
        if !offending.is_empty() {
            out.push((
                line,
                format!(
                    "derive(Debug) on `{}` formats secret field(s) `{}` whose types \
                     have no redacting Debug impl; add a manual `impl fmt::Debug` or \
                     route the field through a type that redacts",
                    s.name,
                    offending.join("`, `")
                ),
            ));
        }
    }
    out
}

/// Rules 2–4 over one fn, as `(line, message)`: print sinks and wire
/// sinks when the fn is in scope, the [`SINK_FAMILIES`] everywhere.
fn check_fn_sinks(
    file: &SourceFile,
    item: &FnItem,
    flow: &FnFlow,
    scoped: bool,
) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let print = item
        .macros
        .iter()
        .filter(|m| scoped && PRINT_MACROS.contains(&m.name.as_str()));
    for m in print {
        if let Some(ident) = first_secret(file, flow, m.args, true) {
            out.push((
                m.line,
                format!(
                    "secret `{ident}` flows into `{}!` in `{}`; secrets must never \
                     reach console/logging sinks — log a digest or drop the field",
                    m.name, item.name
                ),
            ));
        }
    }
    for c in &item.calls {
        // Wire sinks: the receiver ident, two tokens before the name.
        let wire = scoped
            && c.is_method
            && WIRE_METHODS.contains(&c.name.as_str())
            && !WIRE_BOUNDARY_FILES.contains(&file.path.as_str());
        if let Some(r) = c.tok.checked_sub(2).filter(|_| wire) {
            let recv = &file.tokens[r];
            if recv.kind == TokenKind::Ident && flow.tainted_at(&recv.text, r) {
                out.push((
                    c.line,
                    format!(
                        "secret `{}` is serialized via `.{}()` in `{}` outside the \
                         approved sealing boundary ({}); key material leaves the TPM \
                         model only wrapped or sealed",
                        recv.text,
                        c.name,
                        item.name,
                        WIRE_BOUNDARY_FILES.join(", ")
                    ),
                ));
            }
        }
        // Rule 4, workspace-wide: each family serializes its arguments
        // wherever the call is made.
        for family in SINK_FAMILIES.iter().filter(|f| f.matches(c)) {
            if let Some(ident) = first_secret(file, flow, c.args, false) {
                out.push((
                    c.line,
                    format!(
                        "secret `{ident}` flows into {} `{}` in `{}`; {}",
                        family.label, c.name, item.name, family.advice
                    ),
                ));
            }
        }
    }
    out
}

/// The first secret value in the token range `lo..hi`: a tainted ident
/// that is not a path qualifier (`keys::OP`, `JournalRecord::Settle`
/// name a key, a record shape or a constant, not a value) and whose
/// postfix chain does not project it public (`session_key.len()`, as
/// the engine's classifier reads it), or, with `captures`, a tainted
/// `{name}` inline capture in a format string.
fn first_secret(
    file: &SourceFile,
    flow: &FnFlow,
    (lo, hi): (usize, usize),
    captures: bool,
) -> Option<String> {
    let toks = &file.tokens;
    (lo..hi).find_map(|j| {
        let t = &toks[j];
        match t.kind {
            TokenKind::Ident => (!toks.get(j + 1).is_some_and(|n| n.is_punct("::"))
                && flow.tainted_at(&t.text, j)
                && !postfix_projects_public(toks, j, PUBLIC_PROJECTIONS))
            .then(|| t.text.clone()),
            TokenKind::Str if captures => (t
                .text
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')))
            .find(|name| {
                !name.is_empty()
                    && flow.tainted_at(name, j)
                    && (t.text.contains(&format!("{{{name}}}"))
                        || t.text.contains(&format!("{{{name}:")))
            })
            .map(str::to_string),
            _ => None,
        }
    })
}
