//! The determinism rules that moved from `pimdsm-lint` into the
//! workspace `clippy.toml` (D001-D003, D004's direct sources) and into
//! `clippy::allow_attributes_without_reason` (L000) keep a known-bad
//! fixture: `fixtures/clippy` is linted by the real `cargo clippy`, and
//! every line marked `// expect: <lint>` must be reported by exactly that
//! lint, with nothing reported anywhere else. A mistyped path in
//! `clippy.toml` silently bans nothing; this test is what notices.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use pimdsm_obs::JsonValue;

#[test]
fn clippy_rejects_every_retired_rules_known_bad_case() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/clippy");
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .arg("--manifest-path")
        .arg(fixture.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture"))
        .args(["--", "-W", "clippy::allow_attributes_without_reason"])
        // Let clippy find the workspace `clippy.toml` the way every
        // workspace crate does: by walking up from the manifest.
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("run cargo clippy on the fixture package");
    assert!(
        out.status.success(),
        "cargo clippy failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut reported = BTreeSet::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let msg = pimdsm_obs::json::parse(line).expect("cargo emits one JSON object per line");
        if msg.get("reason").and_then(JsonValue::as_str) != Some("compiler-message") {
            continue;
        }
        let msg = msg.get("message").expect("compiler-message has a message");
        let Some(code) = msg.get("code").and_then(|c| c.get("code")) else {
            continue; // the "N warnings emitted" summary
        };
        let primary = msg
            .get("spans")
            .and_then(JsonValue::as_arr)
            .and_then(|spans| {
                spans
                    .iter()
                    .find(|s| s.get("is_primary") == Some(&JsonValue::Bool(true)))
            })
            .expect("a lint diagnostic has a primary span");
        let line = primary.get("line_start").and_then(JsonValue::as_u64);
        reported.insert((
            line.expect("span line") as usize,
            code.as_str().unwrap().to_string(),
        ));
    }

    let source = std::fs::read_to_string(fixture.join("src/lib.rs")).expect("read fixture");
    let expected: BTreeSet<(usize, String)> = source
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let (_, lint) = l.split_once("// expect: ")?;
            Some((i + 1, lint.trim().to_string()))
        })
        .collect();
    assert_eq!(expected.len(), 16, "the fixture's markers were lost");
    assert_eq!(
        reported, expected,
        "clippy's reports must match the fixture's `expect:` markers"
    );
}
