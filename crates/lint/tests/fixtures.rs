//! The fixture corpus: every rule must fire on its known-bad snippet
//! with the right rule ID and span, and the real workspace must
//! self-scan clean.

use std::path::{Path, PathBuf};

use pimdsm_lint::{run_all, Diagnostic, Workspace};

/// Repo root (two levels above this crate's manifest).
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Scans the real workspace plus one fixture file classified as `krate`
/// `src/` code, returning only the diagnostics from the fixture.
fn scan_fixture(name: &str, krate: &str) -> Vec<Diagnostic> {
    let mut ws = Workspace::load(&root()).expect("scan workspace");
    let rel = format!("crates/{krate}/src/{name}");
    let raw = std::fs::read_to_string(fixture_path(name)).expect("read fixture");
    ws.add_source_as(rel.clone(), raw, krate);
    run_all(&ws).into_iter().filter(|d| d.rel == rel).collect()
}

/// Line (1-indexed) of the first occurrence of `needle` in the fixture.
fn line_of(name: &str, needle: &str) -> usize {
    let text = std::fs::read_to_string(fixture_path(name)).unwrap();
    let off = text.find(needle).expect("needle present in fixture");
    text[..off].matches('\n').count() + 1
}

#[test]
fn workspace_self_scan_is_clean() {
    let ws = Workspace::load(&root()).expect("scan workspace");
    assert!(ws.files.len() > 50, "workspace walk found the sources");
    let diags = run_all(&ws);
    assert!(
        diags.is_empty(),
        "workspace must have zero violations:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn s001_fires_on_schema_drift() {
    let diags = scan_fixture("s001_schema_drift.rs", "core");
    assert!(diags.iter().all(|d| d.rule == "S001"), "{diags:?}");
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags
        .iter()
        .any(|d| d.msg.contains("`dropped_on_restore`") && d.msg.contains("from_json")));
    assert!(diags
        .iter()
        .any(|d| d.msg.contains("`never_written`") && d.msg.contains("to_json")));
}

#[test]
fn o001_fires_on_unregistered_trace_vocabulary() {
    let diags = scan_fixture("o001_unknown_category.rs", "proto");
    assert!(diags.iter().all(|d| d.rule == "O001"), "{diags:?}");
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().any(|d| d.msg.contains("proto.hanlder")));
    assert!(diags.iter().any(|d| d.msg.contains("mystery")));
    let typo_line = line_of("o001_unknown_category.rs", "proto.hanlder");
    assert!(diags.iter().any(|d| d.line == typo_line));
}

#[test]
fn o001_covers_the_svc_crate_vocabulary() {
    let diags = scan_fixture("o001_svc_event.rs", "svc");
    assert!(diags.iter().all(|d| d.rule == "O001"), "{diags:?}");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].msg.contains("reqeust"), "{diags:?}");
    assert_eq!(
        diags[0].line,
        line_of("o001_svc_event.rs", "reqeust"),
        "span points at the bad emission"
    );
}

#[test]
fn cli_exits_zero_on_clean_workspace_and_lists_rules() {
    let bin = env!("CARGO_BIN_EXE_pimdsm-lint");
    let out = std::process::Command::new(bin)
        .args(["--root"])
        .arg(root())
        .output()
        .expect("run pimdsm-lint");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    let list = std::process::Command::new(bin)
        .arg("--list")
        .output()
        .expect("run pimdsm-lint --list");
    let ids: Vec<String> = String::from_utf8_lossy(&list.stdout)
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(str::to_string))
        .collect();
    assert_eq!(ids, ["O001", "S001"], "--list names exactly the kept rules");
}
