//! Workspace discovery: which `.rs` files a run scans and where the
//! `analyze.allow` baseline lives.
//!
//! The walk starts from the repo root and descends `src/`, `crates/`,
//! `tests/`, and `examples/`, skipping build output (`target/`) and
//! anything the [`Config`] excludes (the
//! `crates/compat/` stand-ins). Paths come back repo-relative with `/`
//! separators, sorted, so findings are stable across machines.

use crate::model::SourceFile;
use crate::rules::Config;
use std::fs;
use std::path::{Path, PathBuf};

/// Scan roots relative to the repo root.
const ROOTS: [&str; 4] = ["src", "crates", "tests", "examples"];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "node_modules"];

/// Collects and lexes every analyzable `.rs` file under `root`.
pub fn load_sources(root: &Path, cfg: &Config) -> Result<Vec<SourceFile>, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for r in ROOTS {
        let dir = root.join(r);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = rel_path(root, &p);
        if cfg.skipped(&rel) {
            continue;
        }
        let src = fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        files.push(SourceFile::new(&rel, &src));
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.iter().any(|s| *s == name) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The package a repo-relative path belongs to: `crates/<name>` for
/// files under a crate directory, `.` for the root package (`src/`,
/// `tests/`, `examples/`).
pub(crate) fn package_of(path: &str) -> &str {
    match path.strip_prefix("crates/").and_then(|rest| rest.find('/')) {
        Some(end) => &path[.."crates/".len() + end],
        None => ".",
    }
}

/// `root`-relative path with `/` separators.
fn rel_path(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Reads the `analyze.allow` baseline next to the workspace root;
/// a missing file is an empty baseline, not an error.
pub fn load_allow(root: &Path) -> Result<String, String> {
    let p = root.join("analyze.allow");
    if !p.exists() {
        return Ok(String::new());
    }
    fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))
}
