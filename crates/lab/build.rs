//! Embeds a workspace *source fingerprint* into the crate.
//!
//! The lab's content-addressed result cache must invalidate whenever the
//! simulator's behavior could have changed. Rather than trying to track
//! which crate a given experiment exercises, the build script hashes the
//! **contents** of every Rust source file in the workspace (plus the
//! manifests) into a single 64-bit FNV-1a digest and exports it as the
//! `PIMDSM_WORKSPACE_FINGERPRINT` compile-time environment variable.
//! Cache entries record the fingerprint they were produced under; a code
//! change — any code change — makes every old entry a miss.
//!
//! Hashing file contents (not mtimes) means a `touch` or a rebuild without
//! edits keeps the cache warm.

use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let workspace = manifest_dir
        .parent()
        .and_then(Path::parent)
        .expect("crates/lab sits two levels below the workspace root")
        .to_path_buf();

    let mut files = Vec::new();
    collect_sources(&workspace.join("crates"), &mut files);
    collect_sources(&workspace.join("src"), &mut files);
    for name in ["Cargo.toml", "Cargo.lock"] {
        let p = workspace.join(name);
        if p.is_file() {
            files.push(p);
        }
    }
    // Sort by path so the digest does not depend on directory walk order.
    files.sort();

    let mut hash = Fnv::new();
    for f in &files {
        // Hash the workspace-relative path too, so renames invalidate.
        if let Ok(rel) = f.strip_prefix(&workspace) {
            hash.update(rel.to_string_lossy().as_bytes());
        }
        if let Ok(contents) = fs::read(f) {
            hash.update(&contents);
        }
        println!("cargo:rerun-if-changed={}", f.display());
    }
    // Re-run when files are added or removed anywhere in the tree.
    println!(
        "cargo:rerun-if-changed={}",
        workspace.join("crates").display()
    );
    println!("cargo:rerun-if-changed={}", workspace.join("src").display());
    println!(
        "cargo:rustc-env=PIMDSM_WORKSPACE_FINGERPRINT={:016x}",
        hash.finish()
    );
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Skip build outputs if any ever nest here.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// 64-bit FNV-1a. Tiny, dependency-free, and stable across platforms —
/// exactly what a build-script fingerprint needs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}
