//! Writes the paper's tables and figures at full scale, with their
//! shape-claim verdicts and the known reproduction gaps, to
//! `docs/PAPER_RESULTS.md`.
//!
//! ```text
//! cargo run --release -p rstore-bench --bin paper_results           # rewrite the file
//! cargo run --release -p rstore-bench --bin paper_results -- --check  # fail if it is stale
//! ```
//!
//! Every column is deterministic, so `--check` compares bytes.

use rstore_bench::paper;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let check = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--check") => true,
        Some(_) => {
            eprintln!("usage: paper_results [--check]");
            return ExitCode::from(2);
        }
    };
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/PAPER_RESULTS.md");
    let fresh = paper::results_markdown(&paper::all(1.0));
    if !check {
        std::fs::write(&path, fresh).expect("write docs/PAPER_RESULTS.md");
        println!("wrote docs/PAPER_RESULTS.md");
        return ExitCode::SUCCESS;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    if committed == fresh {
        println!("docs/PAPER_RESULTS.md is up to date");
        return ExitCode::SUCCESS;
    }
    let (old, new): (Vec<&str>, Vec<&str>) =
        (committed.split('\n').collect(), fresh.split('\n').collect());
    let line = (0..old.len().max(new.len()))
        .find(|&i| old.get(i) != new.get(i))
        .unwrap_or(0);
    eprintln!(
        "docs/PAPER_RESULTS.md is stale; regenerate it with `paper_results`.\n\
         first difference at line {}:\n  committed: {}\n  fresh:     {}",
        line + 1,
        old.get(line).unwrap_or(&"<end of file>"),
        new.get(line).unwrap_or(&"<end of file>"),
    );
    ExitCode::FAILURE
}
