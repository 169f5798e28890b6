//! # spin-experiments — regenerating every table and figure
//!
//! One module per evaluation artifact of the paper, each producing
//! [`spin_sim::stats::Table`]s with the same rows/series the paper reports.
//! The binaries under `src/bin/` are thin wrappers; `--quick` shrinks
//! sweeps for smoke runs, `--json` emits machine-readable records, and
//! `--jobs N` sets the sweep workers ([`sweep::set_jobs`]).
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig3`]    | Fig. 3b/3c ping-pong, Fig. 3d accumulate |
//! | [`fig4`]    | Fig. 4 HPUs needed (Little's law) |
//! | [`fig5`]    | Fig. 5a binomial broadcast |
//! | [`fig5b`]   | Fig. 5b matching-protocol behaviour |
//! | [`fig7`]    | Fig. 7a strided datatypes, Fig. 7c RAID-5 |
//! | [`table5`]  | Table 5c application speedups |
//! | [`spc`]     | §5.3 SPC trace replay |
//! | [`ablation`]| HPU count / yield-on-DMA / handler-cost ablations |
//! | [`noise_figures`] | OS-noise exposure: ping-pong + KV latency, quiet vs noisy (beyond the paper) |
//! | [`saturation`] | closed-loop overload: goodput + recovery latency (beyond the paper) |
//! | [`sharding`] | large-world incast scenario driving the sharded parallel engine (beyond the paper) |
//! | [`chaos`] | scheduled fault intensity vs goodput and recovery latency (beyond the paper) |
//! | [`scenario_runner`] | declarative scenario files (`spin-scenario` binary) through the sweep harness |

use spin_sim::stats::Table;

pub mod ablation;
pub mod chaos;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig5b;
pub mod fig7;
pub mod noise_figures;
pub mod saturation;
pub mod scenario_runner;
pub mod sharding;
pub mod spc;
pub mod sweep;
pub mod table5;

/// Common experiment options parsed from argv.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// Shrink sweeps for fast smoke runs.
    pub quick: bool,
    /// Emit JSON instead of text tables.
    pub json: bool,
    /// Sweep worker threads (`--jobs N`); `0`, the default, means one per
    /// available core. Output is bit-identical at every setting (see
    /// [`sweep`]).
    pub jobs: usize,
    /// Replications per sweep point (`--reps R`, default 1). Experiments
    /// that support it run each point `R` times through independent
    /// `(point, replication, seed)` cells and report mean ± 95% CI series;
    /// `R = 1` reproduces the single-run output byte-for-byte.
    pub reps: u32,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            quick: false,
            json: false,
            jobs: 0,
            reps: 1,
        }
    }
}

impl Opts {
    /// Parse from `std::env::args`. Exits 0 on `--help`; exits non-zero on
    /// an unknown argument so sweep scripts fail loudly instead of running
    /// the wrong configuration. The worker count goes to
    /// [`sweep::set_jobs`], so every sweep in the binary honors it.
    pub fn from_args() -> Self {
        const USAGE: &str = "options: --quick (small sweeps)  --json (machine-readable)  --jobs N (sweep workers, 0 = all cores)  --reps R (replications per point, mean ± 95% CI when R > 1)";
        match Self::parse(std::env::args().skip(1)) {
            Ok(Some(o)) => {
                sweep::set_jobs(o.jobs);
                o
            }
            Ok(None) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(bad) => {
                eprintln!("error: bad argument {bad:?}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parse an argument list without touching the process: `Ok(None)`
    /// means `--help` was requested, `Err` carries the offending
    /// argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<Self>, String> {
        let mut o = Opts::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => o.quick = true,
                "--json" => o.json = true,
                "--jobs" => {
                    let n = it.next().ok_or_else(|| "--jobs (missing N)".to_string())?;
                    o.jobs = n
                        .parse()
                        .map_err(|_| format!("--jobs {n} (not a worker count)"))?;
                }
                "--reps" => {
                    let r = it.next().ok_or_else(|| "--reps (missing R)".to_string())?;
                    o.reps = r
                        .parse::<u32>()
                        .ok()
                        .filter(|&r| r >= 1)
                        .ok_or_else(|| format!("--reps {r} (not a replication count >= 1)"))?;
                }
                "--help" | "-h" => return Ok(None),
                _ => return Err(a),
            }
        }
        Ok(Some(o))
    }
}

/// Print tables per the options.
pub fn emit(opts: Opts, tables: &[Table]) {
    if opts.json {
        println!("{}", serde_json::to_string_pretty(tables).expect("json"));
    } else {
        for t in tables {
            println!("{}", t.render());
        }
    }
}

/// Power-of-two sweep `[2^lo .. 2^hi]`, thinned when quick.
pub fn pow2_sweep(lo: u32, hi: u32, quick: bool) -> Vec<usize> {
    let step = if quick { 2 } else { 1 };
    (lo..=hi).step_by(step).map(|e| 1usize << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps() {
        assert_eq!(pow2_sweep(2, 5, false), vec![4, 8, 16, 32]);
        assert_eq!(pow2_sweep(2, 6, true), vec![4, 16, 64]);
    }

    #[test]
    fn opts_parse_accepts_known_and_rejects_unknown() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = Opts::parse(args(&["--quick", "--json"])).unwrap().unwrap();
        assert!(o.quick && o.json);
        let o = Opts::parse(args(&[])).unwrap().unwrap();
        assert!(!o.quick && !o.json);
        assert_eq!(Opts::parse(args(&["--help"])), Ok(None));
        assert_eq!(Opts::parse(args(&["--quik"])), Err("--quik".to_string()));
        assert_eq!(
            Opts::parse(args(&["--json", "extra"])),
            Err("extra".to_string())
        );
    }

    #[test]
    fn opts_parse_jobs() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Absent flag: one worker per core.
        assert_eq!(Opts::parse(args(&[])).unwrap().unwrap().jobs, 0);
        let o = Opts::parse(args(&["--jobs", "4", "--quick"]))
            .unwrap()
            .unwrap();
        assert_eq!(o.jobs, 4);
        assert!(o.quick);
        assert_eq!(
            Opts::parse(args(&["--jobs", "0"])).unwrap().unwrap().jobs,
            0
        );
        // Missing or malformed N fails loudly instead of being swallowed.
        assert_eq!(
            Opts::parse(args(&["--jobs"])),
            Err("--jobs (missing N)".to_string())
        );
        assert!(Opts::parse(args(&["--jobs", "many"])).is_err());
        assert!(Opts::parse(args(&["--jobs", "-1"])).is_err());
    }

    #[test]
    fn opts_parse_reps() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Absent flag: single replication (byte-identical legacy output).
        assert_eq!(Opts::parse(args(&[])).unwrap().unwrap().reps, 1);
        let o = Opts::parse(args(&["--reps", "5", "--quick"]))
            .unwrap()
            .unwrap();
        assert_eq!(o.reps, 5);
        assert!(o.quick);
        // Zero, missing, or malformed R fails loudly: a sweep needs at
        // least one replication per point.
        assert!(Opts::parse(args(&["--reps", "0"])).is_err());
        assert!(Opts::parse(args(&["--reps", "-2"])).is_err());
        assert!(Opts::parse(args(&["--reps", "few"])).is_err());
        assert_eq!(
            Opts::parse(args(&["--reps"])),
            Err("--reps (missing R)".to_string())
        );
    }
}
