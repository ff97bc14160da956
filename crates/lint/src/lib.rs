//! `pimdsm-lint` — the source checks the toolchain cannot express.
//!
//! The simulator's evaluation rests on cycle-exact, reproducible runs.
//! Most of that contract is enforced by the compiler: the workspace
//! `clippy.toml` bans unordered collections, wall-clock reads and
//! ambient environment access, `Txn` is `#[must_use]` with a debug-build
//! drop guard, and `pimdsm_prof::phase!` rejects unregistered names at
//! compile time (see DESIGN.md, "Static analysis & determinism
//! contract"). This crate keeps the two rules that relate *string
//! contents* across files, which no type can carry:
//!
//! | ID   | invariant |
//! |------|-----------|
//! | S001 | every pub stats field appears in both `to_json` and `from_json` |
//! | O001 | emitted trace names/categories ⊆ obs registry, and vice versa |
//!
//! It is dependency-free by design (the build environment is offline),
//! so instead of a `syn` AST it uses a masking lexer plus just enough
//! structure extraction; see [`scan`].

use std::fmt;
use std::path::{Path, PathBuf};

pub mod rules;
pub mod scan;

pub use rules::RULES;
use scan::SourceFile;

/// Crates whose `src/` is simulation path: the trace emitters O001 reads.
pub const SIM_CRATES: &[&str] = &[
    "engine",
    "faults",
    "mem",
    "net",
    "proto",
    "core",
    "svc",
    "workloads",
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (`S001`, `O001`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub rel: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human explanation.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.rel, self.line, self.rule, self.msg
        )
    }
}

/// A scanned file plus its rule-scoping classification.
#[derive(Debug)]
pub struct FileEntry {
    /// The parsed source.
    pub file: SourceFile,
    /// Owning crate, named by its `crates/<name>` directory (`core` for
    /// the `pimdsm` package); the workspace-root harness is `repro`.
    pub krate: String,
    /// Whether the file is test/bench/example code (both rules skip
    /// those; `#[cfg(test)]` modules inside `src/` are additionally
    /// skipped per-region).
    pub is_test_code: bool,
}

/// The scanned workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned files, in deterministic (sorted-path) order.
    pub files: Vec<FileEntry>,
}

impl Workspace {
    /// Scans every workspace `.rs` file under `crates/*/{src,tests,benches}`,
    /// `src/`, `tests/` and `examples/`. Skips `target/`, hidden
    /// directories and the lint fixture corpus (which is known-bad on
    /// purpose).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the directory walk.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        walk(root, &mut paths)?;
        paths.sort();
        let mut ws = Workspace { files: Vec::new() };
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let raw = std::fs::read_to_string(&path)?;
            let (krate, is_test_code) = classify(&rel);
            ws.files.push(FileEntry {
                file: SourceFile::parse(rel, raw),
                krate,
                is_test_code,
            });
        }
        Ok(ws)
    }

    /// Adds a source as if it lived in `krate`'s `src/` — used by the
    /// fixture tests to scan a known-bad snippet in a given crate.
    pub fn add_source_as(&mut self, rel: String, raw: String, krate: &str) {
        self.files.push(FileEntry {
            file: SourceFile::parse(rel, raw),
            krate: krate.to_string(),
            is_test_code: false,
        });
    }
}

/// Classifies a workspace-relative path into `(crate, is_test_code)`.
fn classify(rel: &str) -> (String, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", name, "src", ..] => ((*name).to_string(), false),
        ["crates", name, "tests" | "benches" | "examples", ..] => ((*name).to_string(), true),
        ["src", ..] => ("repro".to_string(), false),
        ["tests" | "examples" | "benches", ..] => ("repro".to_string(), true),
        _ => ("other".to_string(), true),
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == "results" || name.starts_with('.')
            {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule. The result is sorted by `(file, line, rule)`.
pub fn run_all(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = [rules::s001(ws), rules::o001(ws)].concat();
    diags.sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));
    diags.dedup();
    diags
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
