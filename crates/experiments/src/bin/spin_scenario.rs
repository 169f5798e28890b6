//! Run declarative scenario files: parse, compile, simulate, and check
//! each against its pinned expectations.
//!
//! ```text
//! spin-scenario [FILE ...] [--json] [--jobs N] [--reps R]
//! ```
//!
//! With no files, runs the whole `scenarios/` corpus under the current
//! directory. Each file prints one table to stdout and one
//! `scenario <file>: digest 0x...` line to stderr (capture it to pin a
//! new scenario's `expect.digest`). A bad command line exits 2 with the
//! usage text; a file that fails to load or compile, or any expectation
//! failure — digest mismatch, too few NACKs/retransmits — exits 1.

use spin_experiments::{emit, scenario_runner, sweep, Opts};

const USAGE: &str = "usage: spin-scenario [FILE ...] [--json] [--jobs N] [--reps R]\n\
  FILE ...   scenario JSON files (default: scenarios/*.json)\n\
  --json     machine-readable tables\n\
  --jobs N   sweep workers (0 = all cores)\n\
  --reps R   replications per scenario, mean ± 95% CI when R > 1\n\
  --quick    accepted for harness compatibility (corpus files are already quick-sized)";

/// A failed run: a file did not load or compile, or missed an expectation.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// A bad command line.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut files: Vec<String> = Vec::new();
    let mut opts = Opts::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            // The corpus files are sized for smoke runs already; the flag
            // is accepted so generic harnesses can pass it everywhere.
            "--quick" => opts.quick = true,
            "--jobs" => {
                let n = it
                    .next()
                    .and_then(|n| n.parse::<usize>().ok())
                    .unwrap_or_else(|| usage_error("--jobs needs a worker count"));
                opts.jobs = n;
                sweep::set_jobs(n);
            }
            "--reps" => {
                opts.reps = it
                    .next()
                    .and_then(|r| r.parse::<u32>().ok())
                    .filter(|&r| r >= 1)
                    .unwrap_or_else(|| usage_error("--reps needs a replication count >= 1"));
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            flag if flag.starts_with('-') => usage_error(&format!("bad argument {flag:?}")),
            file => files.push(file.to_string()),
        }
    }
    let scenarios = scenario_runner::load(&files).unwrap_or_else(|e| die(&e));
    let (tables, digests) =
        scenario_runner::run_tables(&scenarios, opts.reps).unwrap_or_else(|e| die(&e));
    for (file, d) in &digests {
        eprintln!("scenario {file}: digest {d:#018x}");
    }
    emit(opts, &tables);
}
