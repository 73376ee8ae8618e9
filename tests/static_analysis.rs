//! Tier-1 gate: `cargo test -q` at the workspace root runs `utp-analyze`
//! over every `.rs` file and fails on any deny-level finding, so the TCB
//! discipline the paper's minimal-TCB argument rests on is enforced on
//! every test run, not just when someone remembers to run the binary.

use utp_analyze::{analyze_workspace, deny_count, diag::render_text};

#[test]
fn static_analysis_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let diags = analyze_workspace(root)
        .expect("workspace walk failed")
        .diagnostics;
    assert_eq!(
        deny_count(&diags),
        0,
        "utp-analyze found deny-level violations; fix them or annotate with \
         `// utp-analyze: allow(<lint>) <reason>`:\n{}",
        render_text(&diags)
    );
}

/// The lines of `[header]` in a manifest, up to the next header.
fn section<'a>(manifest: &'a str, header: &str) -> Option<Vec<&'a str>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.find(|l| *l == header)?;
    Some(lines.take_while(|l| !l.starts_with('[')).collect())
}

/// `unsafe_code` is forbidden by the workspace lint table, which covers
/// every target (lib, bins, tests, examples) of each package that opts
/// in. A package that does not opt in escapes it, so every workspace
/// member must: the root, `crates/*` and `shims/*`.
#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
    };
    let workspace = read(&root.join("Cargo.toml"));
    let rust = section(&workspace, "[workspace.lints.rust]").unwrap_or_default();
    assert!(
        rust.contains(&r#"unsafe_code = "forbid""#),
        "[workspace.lints.rust] must forbid unsafe_code: {rust:?}"
    );
    let members = section(&workspace, "[workspace]").unwrap_or_default();
    assert!(
        members.contains(&r#"members = ["crates/*", "shims/*"]"#),
        "workspace members changed; update this test: {members:?}"
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("read member dir") {
            let manifest = entry.expect("member entry").path().join("Cargo.toml");
            if manifest.exists() {
                manifests.push(manifest);
            }
        }
    }
    assert!(manifests.len() > 15, "found only {manifests:?}");
    for manifest in manifests {
        let text = read(&manifest);
        let lints = section(&text, "[lints]").unwrap_or_default();
        assert!(
            lints.contains(&"workspace = true"),
            "{} must opt in to the workspace lints with `[lints] workspace = true`",
            manifest.display()
        );
    }
}
