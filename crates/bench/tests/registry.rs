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

/// Every deterministic table is in a file `regen --check` holds; only the
/// figures with live wall-clock panels print alone.
#[test]
fn only_the_wall_clock_figures_own_no_file() {
    let print_only: Vec<&str> = HARNESSES
        .iter()
        .filter(|h| h.files.is_empty())
        .map(|h| h.name)
        .collect();
    assert_eq!(
        print_only,
        [
            "fig01_sharing_vs_monopoly",
            "fig04_client_creation_latency",
            "fig05_client_creation_memory"
        ]
    );
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
        "trace_figures",
        "ablations",
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
    assert_eq!(harnesses.len(), 5);
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

/// The backticked numbers in the EXPERIMENTS.md sections whose headings
/// start with one of `headings`, each running to the next `## ` heading.
fn quoted_numbers(headings: &[&str]) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).unwrap();
    let mut quoted = Vec::new();
    for heading in headings {
        let section = &doc[doc.find(heading).expect(heading) + heading.len()..];
        let section = &section[..section.find("\n## ").unwrap_or(section.len())];
        quoted.extend(
            section
                .split('`')
                .skip(1)
                .step_by(2)
                .filter(|quote| quote.starts_with(|c: char| c.is_ascii_digit() || c == '−'))
                .map(str::to_owned),
        );
    }
    quoted
}

/// Asserts every number quoted under `headings` is a cell of the committed
/// `file`: a run of its text between blanks, commas and `=` signs.
fn assert_quoted_numbers_are_cells(headings: &[&str], file: &str, at_least: usize) {
    let printed = std::fs::read_to_string(committed_results().join(file)).unwrap();
    let cells: BTreeSet<&str> = printed
        .split(|c: char| c.is_whitespace() || c == ',' || c == '=')
        .collect();
    let quoted = quoted_numbers(headings);
    assert!(
        quoted.len() >= at_least,
        "the sections quote their numbers: {quoted:?}"
    );
    for quote in quoted {
        assert!(
            cells.contains(quote.as_str()),
            "`{quote}` is not a cell of results/{file}"
        );
    }
}

/// EXPERIMENTS.md's ablation section quotes `results/ablations.txt` exactly.
#[test]
fn the_quoted_ablation_numbers_are_printed() {
    assert_quoted_numbers_are_cells(&["## Ablations (beyond the paper)"], "ablations.txt", 80);
}

/// EXPERIMENTS.md's Figs. 2, 3, 9 and 10 quote `results/trace_figures.txt`
/// exactly.
#[test]
fn the_quoted_trace_figure_numbers_are_printed() {
    let headings = ["## Fig. 2 —", "## Fig. 3 —", "## Fig. 9 —", "## Fig. 10 —"];
    assert_quoted_numbers_are_cells(&headings, "trace_figures.txt", 30);
}

/// EXPERIMENTS.md's Figs. 11–14 quote `results/six_schedulers.txt` exactly.
#[test]
fn the_quoted_comparison_figure_numbers_are_printed() {
    let headings = [
        "## Fig. 11 —",
        "## Fig. 12 —",
        "## Fig. 13 —",
        "## Fig. 14 —",
    ];
    assert_quoted_numbers_are_cells(&headings, "six_schedulers.txt", 70);
}
