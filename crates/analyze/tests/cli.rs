//! End-to-end CLI checks: flag plumbing, JSON document shape, report
//! side-outputs, and exit codes. These run the real binary against the
//! real workspace, so they double as a smoke test that the repo stays
//! analyzer-clean through the CLI path (not just the library path the
//! self-check uses).

use std::path::{Path, PathBuf};
use std::process::Command;

use utp_obs::json::Json;

fn workspace_root() -> PathBuf {
    utp_analyze::workspace::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/analyze lives inside the utp workspace")
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_utp-analyze"))
}

#[test]
fn clean_workspace_exits_zero_and_writes_both_reports() {
    let dir = std::env::temp_dir().join(format!("utp-analyze-cli-{}", std::process::id()));
    let tcb = dir.join("tcb_report.json");
    // Nested path on purpose: the CLI must create missing parents for
    // the dataflow report (CI writes into target/analyze/).
    let dataflow = dir.join("nested/dataflow_report.json");
    let authz = dir.join("nested/authz_report.json");
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let out = bin()
        .args(["--root".as_ref(), workspace_root().as_os_str()])
        .args(["--format", "json"])
        .args(["--tcb-report".as_ref(), tcb.as_os_str()])
        .args(["--dataflow-report".as_ref(), dataflow.as_os_str()])
        .args(["--authz-report".as_ref(), authz.as_os_str()])
        .args([
            "--check-authz-spec".as_ref(),
            workspace_root().join("scripts/authz_spec.json").as_os_str(),
        ])
        .output()
        .expect("run utp-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "expected exit 0 on a clean workspace:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The combined JSON document carries findings plus the TCB report.
    assert!(stdout.contains("\"findings\""), "stdout:\n{stdout}");
    assert!(stdout.contains("\"tcb_report\""), "stdout:\n{stdout}");

    let tcb_json = std::fs::read_to_string(&tcb).expect("tcb report written");
    assert!(tcb_json.contains("\"measured_functions\""));

    let df_json = std::fs::read_to_string(&dataflow).expect("dataflow report written");
    for key in [
        "\"dataflow_report\"",
        "\"functions\"",
        "\"blocks\"",
        "\"statements\"",
        "\"fallback_functions\"",
        "\"unknown_call_sites\"",
        "\"findings_by_lint\"",
        "\"authorization-flow\"",
        "\"ct-discipline\"",
        "\"lock-discipline\"",
        "\"protocol-order\"",
        "\"secret-taint\"",
        "\"untrusted-arith\"",
    ] {
        assert!(df_json.contains(key), "missing {key} in:\n{df_json}");
    }
    // The clean-run invariant seen through the CLI: every flow lint
    // reports zero post-suppression findings on this workspace.
    for lint in [
        "authorization-flow",
        "ct-discipline",
        "lock-discipline",
        "protocol-order",
        "secret-taint",
        "untrusted-arith",
    ] {
        assert!(
            df_json.contains(&format!("\"{lint}\": 0")),
            "expected zero {lint} findings in:\n{df_json}"
        );
    }

    // The authz coverage report: every source and every order rule
    // matched at least one real site (the passes are not vacuously
    // clean) and every spec path anchors.
    let authz_json = std::fs::read_to_string(&authz).expect("authz report written");
    let doc = Json::parse(&authz_json).expect("authz report parses");
    let report = doc.get("authz_report").expect("authz_report key");
    for key in ["grant_sites", "order_sites"] {
        let sites = report.get(key).and_then(Json::entries).expect(key);
        assert!(!sites.is_empty(), "no {key} in:\n{authz_json}");
        for (name, n) in sites {
            assert!(
                n.as_u64().is_some_and(|n| n > 0),
                "{key} `{name}` matched no site:\n{authz_json}"
            );
        }
    }
    assert!(report.get("sink_sites").is_some(), "{authz_json}");
    assert!(
        authz_json.contains("\"missing_anchors\": []"),
        "{authz_json}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("authz-spec: ok"),
        "spec gate did not pass:\n{stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pass_filter_runs_one_pass_and_rejects_unknown_names() {
    // Unknown pass name: usage error listing the known ids.
    let out = bin()
        .args(["--pass", "no-such-pass"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a known pass") && stderr.contains("authorization-flow"),
        "stderr:\n{stderr}"
    );

    // A fake workspace with a secret-taint deny: running only that pass
    // still finds it; running only an unrelated pass exits clean, and
    // the other pass's findings must not appear.
    let root = std::env::temp_dir().join(format!("utp-analyze-pass-{}", std::process::id()));
    let tpm_src = root.join("crates/tpm/src");
    std::fs::create_dir_all(&tpm_src).expect("create fake workspace");
    let leaky = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/taint/leaky.rs"),
    )
    .expect("read leaky fixture");
    std::fs::write(tpm_src.join("leaky.rs"), leaky).expect("write fixture");

    let out = bin()
        .args(["--root".as_ref(), root.as_os_str()])
        .args(["--pass", "secret-taint"])
        .output()
        .expect("run utp-analyze");
    assert_eq!(out.status.code(), Some(1), "filtered pass still gates");
    assert!(String::from_utf8_lossy(&out.stdout).contains("secret-taint"));

    let out = bin()
        .args(["--root".as_ref(), root.as_os_str()])
        .args(["--pass", "lock-discipline"])
        .output()
        .expect("run utp-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "unrelated pass must not see the taint finding:\n{stdout}"
    );
    assert!(!stdout.contains("secret-taint"), "stdout:\n{stdout}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deny_findings_exit_nonzero_in_json_mode_too() {
    // Machine-readable output must not soften the exit code: CI pipes
    // `--format json` and still relies on exit 1 to fail the build.
    let root = std::env::temp_dir().join(format!("utp-analyze-deny-{}", std::process::id()));
    let tpm_src = root.join("crates/tpm/src");
    std::fs::create_dir_all(&tpm_src).expect("create fake workspace");
    let leaky = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/taint/leaky.rs"),
    )
    .expect("read leaky fixture");
    std::fs::write(tpm_src.join("leaky.rs"), leaky).expect("write fixture");

    let out = bin()
        .args(["--root".as_ref(), root.as_os_str()])
        .args(["--format", "json"])
        .output()
        .expect("run utp-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "deny findings must exit 1 in JSON mode:\n{stdout}"
    );
    assert!(stdout.contains("\"secret-taint\""), "stdout:\n{stdout}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn missing_flag_operand_is_a_usage_error() {
    for flag in [
        "--dataflow-report",
        "--tcb-report",
        "--root",
        "--format",
        "--pass",
        "--authz-report",
        "--check-authz-spec",
    ] {
        let out = bin().arg(flag).output().expect("run utp-analyze");
        assert_eq!(
            out.status.code(),
            Some(2),
            "`utp-analyze {flag}` (no operand) must exit 2, stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_argument_is_a_usage_error() {
    let out = bin().arg("--no-such-flag").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
}
