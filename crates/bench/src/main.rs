//! `faasbatch-bench` — the one figure/ablation binary.
//!
//! ```text
//! faasbatch-bench list                        # every harness and the results/ files it owns
//! faasbatch-bench <name>                      # run one harness, writing its files under results/
//! faasbatch-bench regen [--out DIR] [--check] # run them all; --check byte-compares with results/
//! ```

use faasbatch_bench::regen::{compare, regen_into};
use faasbatch_bench::{Output, HARNESSES};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where harnesses write and where the committed copies live, relative to
/// the working directory (the repository root).
const RESULTS: &str = "results";

const USAGE: &str = "\
usage: faasbatch-bench list | <name> | regen [--out DIR] [--check]
  list           every harness, what it reproduces, the results/ files it owns
  <name>         run one harness at full size: tables on stdout, files under results/
  regen          run every harness, rewriting results/ (or DIR with --out)
  regen --check  regenerate into a scratch directory (or DIR) instead and
                 byte-compare with results/: exit 1 naming each file that
                 differs (with its first differing line), has no owning
                 harness, or was not produced";

/// A command-line mistake: the message plus the usage text.
fn usage_error(msg: impl std::fmt::Display) -> String {
    format!("{msg}\n\n{USAGE}")
}

fn list() -> io::Result<()> {
    let mut out = io::stdout().lock();
    for h in HARNESSES {
        writeln!(out, "  {:<30} {}", h.name, h.what)?;
        for file in h.files {
            writeln!(out, "  {:<30}   -> {RESULTS}/{file}", "")?;
        }
    }
    Ok(())
}

/// `regen [--out DIR] [--check]`.
fn regen(args: &[String]) -> Result<(), String> {
    let mut out_dir: Option<PathBuf> = None;
    let mut check = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" if !check => check = true,
            "--out" if out_dir.is_none() => {
                let dir = args.next();
                out_dir = Some(
                    dir.ok_or_else(|| usage_error("missing value for --out"))?
                        .into(),
                );
            }
            other => {
                return Err(usage_error(format_args!(
                    "unexpected or repeated argument: {other}"
                )))
            }
        }
    }
    // `--check` never writes to the committed copies: without `--out` it
    // regenerates into a scratch directory and removes it afterwards.
    let scratch = (check && out_dir.is_none())
        .then(|| std::env::temp_dir().join(format!("faasbatch-regen-{}", std::process::id())));
    let dir = out_dir
        .or_else(|| scratch.clone())
        .unwrap_or_else(|| RESULTS.into());

    let run = || -> io::Result<Vec<String>> {
        let mut log = io::stderr().lock();
        writeln!(log, "regenerating into {}", dir.display())?;
        let mut problems = regen_into(HARNESSES, &dir, &mut log)?;
        if check {
            problems.extend(compare(HARNESSES, Path::new(RESULTS), &dir)?);
        }
        Ok(problems)
    };
    let problems = run();
    if let Some(scratch) = scratch {
        let _ = std::fs::remove_dir_all(scratch);
    }
    let problems = problems.map_err(|e| e.to_string())?;
    if problems.is_empty() {
        if check {
            eprintln!("{RESULTS}/ is byte-identical to what the harnesses produce");
        }
        return Ok(());
    }
    for problem in &problems {
        eprintln!("{RESULTS}/{problem}");
    }
    Err(format!(
        "{} result file(s) out of line with the harness table",
        problems.len()
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        None => Err(usage_error("missing command")),
        Some((cmd, _)) if matches!(cmd.as_str(), "help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        Some((cmd, rest)) if cmd == "regen" => regen(rest),
        Some((name, [_, ..])) => Err(usage_error(format_args!("`{name}` takes no arguments"))),
        Some((cmd, [])) if cmd == "list" => list().map_err(|e| e.to_string()),
        Some((name, [])) => match HARNESSES.iter().find(|h| h.name == name) {
            Some(h) => (h.run)(&mut Output::new(RESULTS, Box::new(io::stdout().lock())))
                .map_err(|e| format!("{name}: {e}")),
            None => Err(usage_error(format_args!("unknown harness: {name}"))),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
