//! Reproduction coverage: every table and figure in the experiment
//! registry has a bench target on disk, and the registry matches the
//! DESIGN.md experiment index, whose module column names only modules
//! that exist.

use diffy::core::experiment::ExperimentId;
use std::path::{Path, PathBuf};

#[test]
fn every_experiment_has_a_bench_target_file() {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/benches");
    for e in ExperimentId::ALL {
        let file = bench_dir.join(format!("{}.rs", e.bench_target()));
        assert!(
            file.exists(),
            "{} ({}) missing bench file {}",
            e.paper_artefact(),
            e.bench_target(),
            file.display()
        );
    }
}

#[test]
fn every_bench_target_is_declared_in_the_manifest() {
    let manifest = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/Cargo.toml"),
    )
    .expect("read bench manifest");
    for e in ExperimentId::ALL {
        assert!(
            manifest.contains(&format!("name = \"{}\"", e.bench_target())),
            "{} not declared in crates/bench/Cargo.toml",
            e.bench_target()
        );
    }
}

#[test]
fn design_doc_indexes_every_experiment() {
    let design = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"),
    )
    .expect("read DESIGN.md");
    for e in ExperimentId::ALL {
        assert!(
            design.contains(e.bench_target()),
            "DESIGN.md experiment index is missing {}",
            e.bench_target()
        );
    }
}

/// Expands one level of braces: `memsys::{am,wm}` is `memsys::am` and
/// `memsys::wm`.
fn expand_braces(name: &str) -> Vec<String> {
    match (name.find('{'), name.rfind('}')) {
        (Some(open), Some(close)) => name[open + 1..close]
            .split(',')
            .map(|leaf| format!("{}{}{}", &name[..open], leaf.trim(), &name[close + 1..]))
            .collect(),
        _ => vec![name.to_string()],
    }
}

#[test]
fn design_doc_index_names_only_real_modules() {
    // Every backticked `crate::path` in the "Key modules" column of
    // DESIGN.md §4 must be `crates/<crate>/src/<path>.rs` or a directory
    // there (a bare crate name is its `src`). Cells are counted from the
    // right, because "What it reports" may itself hold a `|`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let cells = |row: &str| -> Vec<String> {
        row.trim()
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().to_string())
            .collect()
    };
    let mut lines = design
        .lines()
        .skip_while(|l| !l.contains("| Key modules |"));
    let header = cells(lines.next().expect("DESIGN.md has a Key modules column"));
    let column = header.iter().position(|c| c == "Key modules").unwrap();
    let from_right = header.len() - 1 - column;
    let mut rows = 0;
    let mut missing = Vec::new();
    for row in lines.skip(1).take_while(|l| l.starts_with('|')) {
        rows += 1;
        let row_cells = cells(row);
        let names: Vec<&str> = row_cells[row_cells.len() - 1 - from_right]
            .split('`')
            .skip(1)
            .step_by(2)
            .collect();
        assert!(!names.is_empty(), "DESIGN.md §4 row names no module: {row}");
        for name in names.into_iter().flat_map(expand_braces) {
            let mut parts = name.split("::");
            let krate = parts.next().unwrap();
            let src = root.join("crates").join(krate).join("src");
            let module: PathBuf = src.join(parts.collect::<PathBuf>());
            if !module.with_extension("rs").is_file() && !module.is_dir() {
                missing.push(name);
            }
        }
    }
    assert_eq!(rows, ExperimentId::ALL.len(), "DESIGN.md §4 index rows");
    assert!(
        missing.is_empty(),
        "DESIGN.md §4 names modules that do not exist: {missing:?}"
    );
}

#[test]
fn experiments_doc_records_every_artefact() {
    let doc = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md"),
    )
    .expect("read EXPERIMENTS.md");
    for e in ExperimentId::ALL {
        assert!(
            doc.contains(e.paper_artefact()),
            "EXPERIMENTS.md is missing {}",
            e.paper_artefact()
        );
    }
}
