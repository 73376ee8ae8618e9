//! CLI for the `utp-analyze` static analyzer.
//!
//! ```text
//! utp-analyze [--root <path>] [--format text|json] [--list-passes]
//!             [--pass <name>]
//!             [--tcb-report <out.json>] [--check-tcb-baseline <base.json>]
//!             [--dataflow-report <out.json>] [--authz-report <out.json>]
//!             [--check-authz-spec <spec.json>]
//! ```
//!
//! Exit status: 0 — clean (no deny-level findings, baseline ok); 1 — at
//! least one deny-level finding, a TCB-size regression, or an authz-spec
//! gate failure; 2 — usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use utp_analyze::{analyze_workspace_filtered, deny_count, diag, passes, report, spec, workspace};

enum Format {
    Text,
    Json,
}

fn usage() -> &'static str {
    "usage: utp-analyze [--root <path>] [--format text|json] [--list-passes]\n\
     \x20                  [--pass <name>]\n\
     \x20                  [--tcb-report <out.json>] [--check-tcb-baseline <base.json>]\n\
     \x20                  [--dataflow-report <out.json>] [--authz-report <out.json>]\n\
     \x20                  [--check-authz-spec <spec.json>]\n\
     \n\
     Runs the UTP workspace's TCB / constant-time / panic-freedom passes\n\
     over every .rs file and reports structured diagnostics. Exits 1 if\n\
     any deny-level finding remains unannotated, or if the measured TCB\n\
     grew beyond the baseline's declared threshold.\n\
     \n\
     --pass                run a single pass by lint id (see --list-passes);\n\
     \x20                    other passes' waivers are not flagged unused\n\
     --tcb-report          write the measured TCB-size report as JSON\n\
     --check-tcb-baseline  fail on TCB growth beyond the baseline's\n\
     \x20                    max_growth_pct (see scripts/tcb_report.json)\n\
     --dataflow-report     write CFG coverage and flow-pass finding\n\
     \x20                    counts as JSON (fallback_functions > 0 means\n\
     \x20                    some body degraded to flow-insensitive)\n\
     --authz-report        write authorization-spec coverage (grant/sink/\n\
     \x20                    order site counts, anchor check) as JSON\n\
     --check-authz-spec    fail when the given spec file drifts from the\n\
     \x20                    analyzer's embedded copy, when any spec'd\n\
     \x20                    path no longer anchors in the workspace, or\n\
     \x20                    when a source or order rule matches no site\n\
     \x20                    (see scripts/authz_spec.json)"
}

fn main() -> ExitCode {
    run().unwrap_or_else(|code| code)
}

/// Reports a usage or I/O error; exit status 2.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(2)
}

/// The operand of a flag, or a usage error saying what it expects.
fn operand(args: &mut impl Iterator<Item = String>, expects: &str) -> Result<String, ExitCode> {
    args.next().ok_or_else(|| fail(expects))
}

/// Writes a report, creating missing parent directories.
fn write(path: &Option<PathBuf>, text: &str) -> Result<(), ExitCode> {
    let Some(path) = path else { return Ok(()) };
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, text).map_err(|e| fail(format!("cannot write {}: {e}", path.display())))
}

fn read(path: &PathBuf, what: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path)
        .map_err(|e| fail(format!("cannot read {what} {}: {e}", path.display())))
}

fn run() -> Result<ExitCode, ExitCode> {
    let mut format = Format::Text;
    let (mut root, mut report_out, mut dataflow_out, mut authz_out) = (None, None, None, None);
    let (mut baseline, mut authz_spec_path, mut only_pass) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let a = &mut args;
        match arg.as_str() {
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        let got = other.unwrap_or("nothing");
                        return Err(fail(format!(
                            "--format expects `text` or `json`, got `{got}`"
                        )));
                    }
                }
            }
            "--root" => root = Some(PathBuf::from(operand(a, "--root expects a path")?)),
            "--tcb-report" => {
                report_out = Some(PathBuf::from(operand(
                    a,
                    "--tcb-report expects an output path",
                )?))
            }
            "--dataflow-report" => {
                dataflow_out = Some(PathBuf::from(operand(
                    a,
                    "--dataflow-report expects an output path",
                )?))
            }
            "--authz-report" => {
                authz_out = Some(PathBuf::from(operand(
                    a,
                    "--authz-report expects an output path",
                )?))
            }
            "--check-authz-spec" => {
                authz_spec_path = Some(PathBuf::from(operand(
                    a,
                    "--check-authz-spec expects a spec JSON path",
                )?))
            }
            "--check-tcb-baseline" => {
                baseline = Some(PathBuf::from(operand(
                    a,
                    "--check-tcb-baseline expects a baseline JSON path",
                )?))
            }
            "--pass" => {
                let name = operand(a, "--pass expects a lint id (see --list-passes)")?;
                let known: Vec<&str> = passes::registry().iter().map(|p| p.id()).collect();
                if !known.contains(&name.as_str()) {
                    return Err(fail(format!(
                        "--pass `{name}` is not a known pass (known: {})",
                        known.join(", ")
                    )));
                }
                only_pass = Some(name);
            }
            "--list-passes" => {
                for pass in passes::registry() {
                    println!("{:<28} {}", pass.id(), pass.description());
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(fail(format!("unknown argument `{other}`\n{}", usage()))),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            workspace::find_workspace_root(&cwd).ok_or_else(|| {
                fail(format!(
                    "could not locate a workspace root above {}",
                    cwd.display()
                ))
            })?
        }
    };
    let analysis = analyze_workspace_filtered(&root, only_pass.as_deref())
        .map_err(|e| fail(format!("analysis failed: {e}")))?;
    let diags = &analysis.diagnostics;
    let report_json = analysis.tcb_report.to_json();
    write(&report_out, &report_json)?;
    write(&dataflow_out, &analysis.dataflow_report.to_json())?;
    write(&authz_out, &analysis.authz_report.to_json())?;

    match format {
        Format::Text => print!("{}", diag::render_text(diags)),
        Format::Json => {
            // One combined document: findings plus the TCB report.
            let findings = diag::render_json(diags);
            let findings = findings.trim_end().trim_end_matches('}');
            let tcb = report_json
                .trim_start()
                .trim_start_matches('{')
                .trim_end()
                .trim_end_matches('}');
            println!("{findings},{tcb}}}");
        }
    }

    let mut failed = deny_count(diags) > 0;
    if let Some(path) = &baseline {
        match report::check_baseline(&analysis.tcb_report, &read(path, "baseline")?) {
            Ok(msg) => eprintln!("tcb-baseline: {msg}"),
            Err(msg) => {
                eprintln!("tcb-baseline: FAIL: {msg}");
                failed = true;
            }
        }
    }
    if let Some(path) = &authz_spec_path {
        let failures = match spec::parse(&read(path, "authz spec")?) {
            Ok(parsed) if parsed != *spec::embedded() => vec![format!(
                "{} differs from the analyzer's embedded copy (rebuild utp-analyze after \
                 editing the spec)",
                path.display()
            )],
            Ok(_) => analysis.authz_report.failures(),
            Err(e) => vec![format!("{} does not parse: {e}", path.display())],
        };
        for f in &failures {
            eprintln!("authz-spec: FAIL: {f}");
        }
        if failures.is_empty() {
            eprintln!(
                "authz-spec: ok ({} in sync, all names anchored, every source and rule matched)",
                path.display()
            );
        }
        failed |= !failures.is_empty();
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
