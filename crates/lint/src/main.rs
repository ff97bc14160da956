//! CLI driver: `cargo run -p pimdsm-lint [-- --root <dir>] [--list]`.
//!
//! Exits 0 when the workspace has zero violations, 1 otherwise (and 2 on
//! usage/I/O errors). Both rules are deny-level and have no suppression
//! syntax: fix the source or the registry.

use std::path::PathBuf;
use std::process::ExitCode;

use pimdsm_lint::{find_workspace_root, run_all, Workspace, RULES};

#[allow(
    clippy::disallowed_methods,
    reason = "a command-line tool reads its own arguments"
)]
fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--list" => {
                for (id, desc) in RULES {
                    println!("{id}  {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "pimdsm-lint: trace-vocabulary and report-schema checks\n\n\
                     USAGE: pimdsm-lint [--root <workspace-dir>] [--list] [--quiet]\n\n\
                     --root    workspace to scan (default: nearest [workspace] above cwd)\n\
                     --list    print the rule table and exit\n\
                     --quiet   suppress the per-finding lines, print only the summary"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("could not locate a [workspace] Cargo.toml; pass --root");
            return ExitCode::from(2);
        }
    };

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let diags = run_all(&ws);
    if !quiet {
        for d in &diags {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        println!(
            "pimdsm-lint: clean ({} files, {} rules)",
            ws.files.len(),
            RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("pimdsm-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
