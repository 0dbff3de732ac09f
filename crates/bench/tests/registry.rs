//! The harness table is the single source of truth for `results/`: these
//! tests hold the table to itself and the committed directory to the table.

use faasbatch_bench::regen::{compare, regen_into};
use faasbatch_bench::{Harness, HARNESSES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn committed_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn harness_names_are_unique_and_described() {
    let mut names = BTreeSet::new();
    for h in HARNESSES {
        assert!(!h.name.is_empty() && !h.what.is_empty(), "{:?}", h.name);
        assert!(names.insert(h.name), "duplicate harness `{}`", h.name);
        assert!(
            !matches!(h.name, "list" | "regen" | "help"),
            "`{}` shadows a subcommand",
            h.name
        );
    }
}

#[test]
fn every_committed_result_has_exactly_one_owner() {
    let mut owned = BTreeSet::new();
    for h in HARNESSES {
        for &file in h.files {
            assert!(owned.insert(file.to_owned()), "`{file}` has two owners");
        }
    }
    let committed: BTreeSet<String> = std::fs::read_dir(committed_results())
        .expect("results/ exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name != "README.md")
        .collect();
    assert_eq!(
        owned, committed,
        "the files the table owns (left) must be exactly results/ minus README.md (right)"
    );
}

/// The file-owning harnesses cheap enough for an unoptimised test build;
/// `regen --check` (CI) covers the rest at full size.
fn quick_harnesses() -> Vec<Harness> {
    let quick = [
        "six_schedulers",
        "headline_attribution",
        "ablation_autoscaler",
    ];
    HARNESSES
        .iter()
        .filter(|h| quick.contains(&h.name))
        .copied()
        .collect()
}

#[test]
fn regen_is_byte_reproducible_and_matches_the_committed_files() {
    let harnesses = quick_harnesses();
    assert_eq!(harnesses.len(), 3);
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (tmp.join("regen-a"), tmp.join("regen-b"));
    for dir in [&a, &b] {
        let _ = std::fs::remove_dir_all(dir);
        let problems = regen_into(&harnesses, dir, &mut std::io::sink()).unwrap();
        assert!(problems.is_empty(), "{problems:?}");
    }
    // Run against run: `b` holds nothing the table does not own, and
    // every owned file has `a`'s bytes.
    assert_eq!(compare(&harnesses, &b, &a).unwrap(), Vec::<String>::new());
    // Run against the repository: only other harnesses' files are
    // reported (as un-owned by this subset), never a byte difference.
    for problem in compare(&harnesses, &committed_results(), &a).unwrap() {
        assert!(problem.ends_with("no harness owns it"), "{problem}");
    }
}

#[test]
fn check_names_the_file_and_line_that_moved() {
    let harness: Vec<Harness> = quick_harnesses()
        .into_iter()
        .filter(|h| h.name == "six_schedulers")
        .collect();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (good, bad) = (tmp.join("check-good"), tmp.join("check-bad"));
    for dir in [&good, &bad] {
        let _ = std::fs::remove_dir_all(dir);
    }
    regen_into(&harness, &good, &mut std::io::sink()).unwrap();
    // The harness is deterministic (the test above holds it to that), so
    // a copy of one run stands in for a second.
    std::fs::create_dir(&bad).unwrap();
    for &file in harness[0].files {
        std::fs::copy(good.join(file), bad.join(file)).unwrap();
    }
    // One altered byte, one orphan, one missing file.
    let victim = bad.join("timeline_io_memory.csv");
    let mut bytes = std::fs::read(&victim).unwrap();
    let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[second_line] ^= 1;
    std::fs::write(&victim, bytes).unwrap();
    std::fs::write(bad.join("orphan.json"), "{}").unwrap();
    std::fs::remove_file(bad.join("timeline_io_containers.csv")).unwrap();

    let problems = compare(&harness, &bad, &good).unwrap();
    assert_eq!(problems.len(), 3, "{problems:?}");
    assert!(problems
        .iter()
        .any(|p| p.starts_with("timeline_io_memory.csv: differs") && p.contains("line 2")));
    assert!(problems
        .iter()
        .any(|p| p.starts_with("orphan.json:") && p.ends_with("no harness owns it")));
    assert!(problems
        .iter()
        .any(|p| p.starts_with("timeline_io_containers.csv:") && p.ends_with("not committed")));
}

/// The backticked name in column `column` of every row of the first
/// Markdown table after `heading` in `doc` (a path from this crate).
fn table_column(doc: &str, heading: &str, column: usize) -> Vec<String> {
    let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(doc)).unwrap();
    let section = &text[text.find(heading).expect(heading)..];
    section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .map(|row| {
            let cell = row.split('|').nth(column + 1).unwrap_or_default();
            let name = cell.split('`').nth(1);
            name.unwrap_or_else(|| panic!("no `name` in {row}"))
                .to_owned()
        })
        .collect()
}

#[test]
fn every_harness_the_docs_name_is_a_row_of_the_table() {
    let rows: BTreeSet<&str> = HARNESSES.iter().map(|h| h.name).collect();
    let index = table_column("../../DESIGN.md", "## 5. Experiment index", 4);
    let owners = table_column("../../results/README.md", "| file | owning harness", 1);
    assert!(!index.is_empty() && !owners.is_empty());
    for name in index.iter().chain(&owners) {
        assert!(rows.contains(name.as_str()), "`{name}` is not a harness");
    }
}
