//! Source-level guard that the README's environment-knob table lists
//! exactly the knobs the code reads.
//!
//! Every runtime knob is an `MBU_*` name passed to `std::env::var` in some
//! crate's `src/`. The README's *Environment knobs* table is the one place
//! users learn about them, so the two sets must match: a knob added
//! without a row is undocumented, and a row left behind by a deleted knob
//! advertises a switch that does nothing.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The leading `MBU_[A-Z0-9_]*` identifier of `text`, if any.
fn knob_prefix(text: &str) -> Option<&str> {
    if !text.starts_with("MBU_") {
        return None;
    }
    let end = text
        .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(text.len());
    Some(&text[..end])
}

/// Every `MBU_*` string literal passed straight to `env::var(…)` in the
/// `src/` trees of the workspace crates.
fn knobs_read_by_code(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("readable crates dir") {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    assert!(!files.is_empty(), "no crate sources found under {root:?}");

    let mut knobs = BTreeSet::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source file");
        for (at, _) in text.match_indices("env::var(") {
            let arg = text[at + "env::var(".len()..].trim_start();
            if let Some(name) = arg.strip_prefix('"').and_then(knob_prefix) {
                knobs.insert(name.to_owned());
            }
        }
    }
    knobs
}

/// The knob names in the first column of the README's *Environment
/// knobs* table.
fn knobs_in_readme(root: &Path) -> BTreeSet<String> {
    let readme = fs::read_to_string(root.join("README.md")).expect("readable README.md");
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Environment knobs"))
        .expect("README has an `## Environment knobs` section");
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(knob_prefix)
        .map(str::to_owned)
        .collect()
}

#[test]
fn readme_knob_table_matches_the_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let code = knobs_read_by_code(root);
    let readme = knobs_in_readme(root);
    assert!(!code.is_empty(), "no `env::var(\"MBU_…\")` reads found");
    let undocumented: Vec<_> = code.difference(&readme).collect();
    let stale: Vec<_> = readme.difference(&code).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "README knob table out of sync with the code:\n  \
         read by the code but missing from the table: {undocumented:?}\n  \
         in the table but read nowhere: {stale:?}"
    );
}
