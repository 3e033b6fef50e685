//! pp-analyze: in-repo static analysis for the invariants this
//! workspace actually depends on.
//!
//! Generic lints (clippy) cannot know that this repo promises
//! bit-identical replay, poison-tolerant locking, and a panic-free
//! scheduler surface. This crate lexes every workspace source file
//! with its own small Rust lexer — no external parser — and runs six
//! project-specific rules over the token streams (see
//! [`rules::CATALOGUE`]). Violations that are deliberate carry
//! narrowly-scoped waivers in `analyze.allow`; a waiver that stops
//! matching anything is itself a failure, so the baseline only ever
//! shrinks.
//!
//! Run it as `cargo run -p pp-analyze` (or `./ci.sh --analyze`); add
//! `--json` for the machine-readable report.

#![forbid(unsafe_code)]

pub mod allow;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod workspace;

use allow::AllowList;
use model::SourceFile;
use report::Analysis;
use rules::Config;
use std::collections::BTreeMap;
use std::path::Path;

/// Analyzes the workspace rooted at `root` with the default [`Config`]
/// and the `analyze.allow` baseline found there.
pub fn analyze_root(root: &Path) -> Result<Analysis, String> {
    let cfg = Config::default();
    let files = workspace::load_sources(root, &cfg)?;
    let allow = AllowList::parse(&workspace::load_allow(root)?)?;
    Ok(analyze_files(files, &cfg, &allow))
}

/// Analyzes in-memory `(path, source)` pairs — the entry point the
/// fixture tests drive, and what [`analyze_root`] delegates to.
pub fn analyze_sources(sources: &[(&str, &str)], cfg: &Config, allow: &AllowList) -> Analysis {
    let files = sources
        .iter()
        .filter(|(p, _)| !cfg.skipped(p))
        .map(|(p, s)| SourceFile::new(p, s))
        .collect();
    analyze_files(files, cfg, allow)
}

fn analyze_files(files: Vec<SourceFile>, cfg: &Config, allow: &AllowList) -> Analysis {
    let raw = rules::run_rules(&files, cfg);
    let (findings, waived, stale) = allow.apply(raw);
    let mut non_test_lines: BTreeMap<String, usize> = BTreeMap::new();
    for f in &files {
        *non_test_lines
            .entry(workspace::package_of(&f.path).to_string())
            .or_default() += f.non_test_lines();
    }
    Analysis {
        findings,
        waived,
        stale,
        files_scanned: files.len(),
        non_test_lines: non_test_lines.into_iter().collect(),
    }
}
