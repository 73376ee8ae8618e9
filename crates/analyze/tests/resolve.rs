//! The call resolver ([`utp_analyze::graph`]): each call site is placed
//! on the fns it names — through module paths, `use` imports, the
//! `impl` self type and receiver types — or reported foreign or unknown.

use utp_analyze::graph::{module_of, Resolution, WorkspaceIndex};
use utp_analyze::source::SourceFile;

fn ws(files: &[(&str, &str)]) -> WorkspaceIndex {
    WorkspaceIndex::build(files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect())
}

fn fn_idx(w: &WorkspaceIndex, path: &str) -> usize {
    (0..w.fns.len())
        .find(|&i| w.paths[i] == path)
        .unwrap_or_else(|| panic!("no fn {path} in {:?}", w.paths))
}

/// The resolution of the call to `name` inside fn `caller`, with targets
/// as paths.
fn call(w: &WorkspaceIndex, caller: &str, name: &str) -> (&'static str, Vec<String>) {
    let idx = fn_idx(w, caller);
    let k = (w.fn_item(idx).calls.iter().position(|c| c.name == name))
        .unwrap_or_else(|| panic!("no call to {name} in {caller}"));
    let res = &w.calls[idx][k];
    let kind = match res {
        Resolution::Resolved(_) => "resolved",
        Resolution::Foreign => "foreign",
        Resolution::Unknown(_) => "unknown",
    };
    (
        kind,
        res.targets().iter().map(|&t| w.paths[t].clone()).collect(),
    )
}

#[test]
fn module_paths_come_from_the_file() {
    assert_eq!(module_of("crates/core/src/verifier.rs"), ["verifier"]);
    assert_eq!(module_of("crates/obs/src/json/mod.rs"), ["json"]);
    assert!(module_of("crates/core/src/lib.rs").is_empty());
    let w = ws(&[(
        "crates/core/src/verifier.rs",
        "pub mod inner { pub fn f() {} }\npub struct S;\nimpl S { pub fn g(&self) {} }\n",
    )]);
    assert_eq!(
        w.paths,
        ["utp_core::verifier::inner::f", "utp_core::verifier::S::g"]
    );
}

#[test]
fn imports_renames_and_groups_place_free_calls() {
    let w = ws(&[
        (
            "crates/server/src/a.rs",
            "use utp_core::verifier::{check_evidence as check, self};\n\
             pub fn f() { check(); verifier::settle(); helper(); }\n",
        ),
        (
            "crates/core/src/verifier.rs",
            "pub fn check_evidence() {}\npub fn settle() {}\n",
        ),
        ("crates/core/src/other.rs", "pub fn check_evidence() {}\n"),
        ("crates/server/src/b.rs", "pub fn helper() {}\n"),
    ]);
    let check = vec!["utp_core::verifier::check_evidence".to_string()];
    assert_eq!(call(&w, "utp_server::a::f", "check"), ("resolved", check));
    let settle = vec!["utp_core::verifier::settle".to_string()];
    assert_eq!(call(&w, "utp_server::a::f", "settle"), ("resolved", settle));
    // Not imported, not defined here: the same-crate fan-out, unplaced.
    let helper = vec!["utp_server::b::helper".to_string()];
    assert_eq!(call(&w, "utp_server::a::f", "helper"), ("unknown", helper));
}

#[test]
fn receivers_are_typed_through_params_lets_fields_and_guards() {
    let w = ws(&[
        (
            "crates/core/src/verifier.rs",
            "use parking_lot::Mutex;\n\
             pub struct NonceLedger;\n\
             impl NonceLedger { pub fn settle(&mut self) {} }\n\
             struct Shard { ledger: Mutex<NonceLedger> }\n\
             pub struct Settler { shards: Vec<Shard> }\n\
             impl Settler {\n\
                 fn shard_of(&self) -> &Shard { &self.shards[0] }\n\
                 pub fn settle_evidence(&self) {\n\
                     let shard = self.shard_of();\n\
                     shard.ledger.lock().settle();\n\
                 }\n\
             }\n",
        ),
        (
            "crates/server/src/store.rs",
            "pub struct Store;\nimpl Store { pub fn settle(&mut self) {} }\n",
        ),
        (
            "shims/parking_lot/src/lib.rs",
            "pub struct Mutex<T> { inner: T }\nimpl<T> Mutex<T> { pub fn lock(&self) -> T { todo!() } }\n",
        ),
    ]);
    // `shard` is a placed call's return type, `ledger` a field type, and
    // the guard yields the locked `NonceLedger` — never `Store::settle`.
    let settle = vec!["utp_core::verifier::NonceLedger::settle".to_string()];
    assert_eq!(
        call(&w, "utp_core::verifier::Settler::settle_evidence", "settle"),
        ("resolved", settle)
    );
}

#[test]
fn option_patterns_and_self_calls_are_typed() {
    let w = ws(&[(
        "crates/server/src/service.rs",
        "pub struct Journal;\n\
         impl Journal { pub fn append_record(&self) {} }\n\
         pub struct Settlement { journal: Option<Journal> }\n\
         impl Settlement {\n\
             fn verdict(&self) { if let Some(journal) = &self.journal { journal.append_record(); } }\n\
             fn run(&self) { match &self.journal { Some(j) => j.append_record(), None => {} } Self::verdict(self); }\n\
         }\n",
    )]);
    let append = vec!["utp_server::service::Journal::append_record".to_string()];
    let verdict = "utp_server::service::Settlement::verdict";
    assert_eq!(
        call(&w, verdict, "append_record"),
        ("resolved", append.clone())
    );
    let run = "utp_server::service::Settlement::run";
    assert_eq!(call(&w, run, "append_record"), ("resolved", append));
    assert_eq!(
        call(&w, run, "verdict"),
        ("resolved", vec![verdict.to_string()])
    );
}

#[test]
fn foreign_types_have_no_edges_and_untyped_receivers_fan_out() {
    let w = ws(&[
        (
            "crates/tpm/src/x.rs",
            "pub struct K;\nimpl K { pub fn new() -> K { K } pub fn to_bytes(&self) {} }\n\
             pub fn f(v: Vec<u8>, pair: (K, u8)) {\n\
                 let w = Vec::new(); v.to_bytes(); let (k, _) = pair; k.to_bytes();\n\
             }\n",
        ),
        (
            "crates/server/src/b.rs",
            "pub struct S;\nimpl S { pub fn to_bytes(&self) {} }\n",
        ),
    ]);
    assert_eq!(call(&w, "utp_tpm::x::f", "new"), ("foreign", vec![]));
    // A tuple pattern is not typed: the importable method fan-out (the
    // server impl is not importable from the TPM crate).
    let f = fn_idx(&w, "utp_tpm::x::f");
    let calls = &w.calls[f];
    let to_bytes: Vec<&Resolution> = (w.fn_item(f).calls.iter().zip(calls))
        .filter(|(c, _)| c.name == "to_bytes")
        .map(|(_, r)| r)
        .collect();
    assert_eq!(
        to_bytes[0],
        &Resolution::Foreign,
        "Vec<u8>::to_bytes is std"
    );
    assert!(matches!(to_bytes[1], Resolution::Unknown(v) if v.len() == 1));
}

#[test]
fn trait_dispatch_reaches_every_implementor_but_not_outside_the_machine() {
    let w = ws(&[
        (
            "crates/flicker/src/pal.rs",
            "pub trait Operator { fn respond(&mut self); }\n\
             pub struct PalEnv<'a> { operator: &'a mut dyn Operator }\n\
             impl PalEnv<'_> { pub fn prompt(&mut self) { self.operator.respond(); } }\n",
        ),
        (
            "crates/core/src/operator.rs",
            "use utp_flicker::pal::Operator;\npub struct Human;\nimpl Operator for Human { fn respond(&mut self) {} }\n",
        ),
    ]);
    let (kind, targets) = call(&w, "utp_flicker::pal::PalEnv::prompt", "respond");
    assert_eq!(kind, "resolved");
    assert!(targets.contains(&"utp_core::operator::Human::respond".to_string()));
    // The person at the keyboard is not part of the measured session.
    let human = fn_idx(&w, "utp_core::operator::Human::respond");
    assert!(!w.reach.reachable[human]);
}
