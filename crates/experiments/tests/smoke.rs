//! Smoke tests for every experiment entry point: each `fig*` / `table*` /
//! `ablation*` binary must run a tiny (`--quick`) configuration without
//! panicking and produce non-trivial simulated results.
//!
//! Two layers: the table-producing library functions are called in-process
//! (so a failure points at the exact experiment), and each binary is then
//! executed for real via `CARGO_BIN_EXE_*` to cover argv parsing and the
//! `emit` path.

use spin_core::config::NicKind;
use spin_experiments::{
    ablation, chaos, fig3, fig4, fig5, fig5b, fig7, noise_figures, saturation, spc, table5,
};
use spin_sim::stats::Table;
use std::process::Command;

/// A produced table must have rows, finite measurements, and at least one
/// non-zero value — the latter is the "simulation actually advanced time"
/// check, since every y column is derived from simulated end times.
fn assert_nontrivial(t: &Table) {
    assert!(!t.rows.is_empty(), "table {} has no rows", t.name);
    let mut nonzero = 0usize;
    for row in &t.rows {
        assert!(!row.ys.is_empty(), "table {} row x={} empty", t.name, row.x);
        for (series, v) in &row.ys {
            assert!(
                v.is_finite(),
                "table {} series {series} at x={} is {v}",
                t.name,
                row.x
            );
            if *v != 0.0 {
                nonzero += 1;
            }
        }
    }
    assert!(nonzero > 0, "table {} is all zeros", t.name);
}

#[test]
fn fig3_pingpong_tables_quick() {
    assert_nontrivial(&fig3::pingpong_table(NicKind::Integrated, true));
    assert_nontrivial(&fig3::pingpong_table(NicKind::Discrete, true));
}

#[test]
fn fig3_accumulate_table_quick() {
    assert_nontrivial(&fig3::accumulate_table(true));
}

#[test]
fn fig4_tables_quick() {
    assert_nontrivial(&fig4::hpus_table(true));
    assert_nontrivial(&fig4::headline_table());
}

#[test]
fn fig5_bcast_table_quick() {
    assert_nontrivial(&fig5::bcast_table(true));
}

#[test]
fn fig5b_matching_table_quick() {
    assert_nontrivial(&fig5b::matching_table(true));
}

#[test]
fn fig7_tables_quick() {
    assert_nontrivial(&fig7::ddt_table(true));
    assert_nontrivial(&fig7::raid_table(true));
}

#[test]
fn table5_apps_table_quick() {
    assert_nontrivial(&table5::apps_table(true));
}

#[test]
fn spc_table_quick() {
    assert_nontrivial(&spc::spc_table(true));
}

#[test]
fn ablation_tables_quick() {
    assert_nontrivial(&ablation::hpu_count_table(true));
    assert_nontrivial(&ablation::handler_cost_table(true));
}

#[test]
fn saturation_tables_quick() {
    for t in saturation::saturation_tables(true, 1) {
        assert_nontrivial(&t);
    }
}

#[test]
fn chaos_tables_quick() {
    for t in chaos::chaos_tables(true, 1) {
        assert_nontrivial(&t);
    }
}

#[test]
fn noise_tables_quick() {
    for t in noise_figures::noise_tables(true, 1) {
        assert_nontrivial(&t);
    }
}

// ------------------------------------------------------- binary execution

/// Run one compiled experiment binary with `--quick` and sanity-check its
/// table output (a `# <name>` header and at least one data line).
fn run_binary(exe: &str, extra: &[&str]) -> String {
    let out = Command::new(exe)
        .arg("--quick")
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}; stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("experiment output is UTF-8")
}

macro_rules! binary_smoke {
    ($($test:ident => $env:literal),+ $(,)?) => {$(
        #[test]
        fn $test() {
            // `--jobs 2` rides along on every binary: the flag must parse
            // everywhere and a 2-worker sweep must emit the same table
            // shape a default run does.
            let text = run_binary(env!($env), &["--jobs", "2"]);
            assert!(text.contains("# "), "no table header in output:\n{text}");
            assert!(
                text.lines().count() >= 3,
                "suspiciously short output:\n{text}"
            );
        }
    )+};
}

binary_smoke! {
    bin_fig3_pingpong => "CARGO_BIN_EXE_fig3_pingpong",
    bin_fig3_accumulate => "CARGO_BIN_EXE_fig3_accumulate",
    bin_fig4_hpus => "CARGO_BIN_EXE_fig4_hpus",
    bin_fig5_bcast => "CARGO_BIN_EXE_fig5_bcast",
    bin_fig5b_matching => "CARGO_BIN_EXE_fig5b_matching",
    bin_fig7_ddt => "CARGO_BIN_EXE_fig7_ddt",
    bin_fig7_raid => "CARGO_BIN_EXE_fig7_raid",
    bin_table5_apps => "CARGO_BIN_EXE_table5_apps",
    bin_table_spc => "CARGO_BIN_EXE_table_spc",
    bin_ablation_hpus => "CARGO_BIN_EXE_ablation_hpus",
    bin_saturation => "CARGO_BIN_EXE_saturation",
    bin_noise_pingpong => "CARGO_BIN_EXE_noise_pingpong",
    bin_noise_kv => "CARGO_BIN_EXE_noise_kv",
    bin_spin_chaos => "CARGO_BIN_EXE_spin-chaos",
}

#[test]
fn bin_saturation_json() {
    let text = run_binary(env!("CARGO_BIN_EXE_saturation"), &["--json"]);
    let trimmed = text.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "not a JSON array:\n{}",
        trimmed.chars().take(200).collect::<String>()
    );
    for table in [
        "saturation-goodput-int",
        "saturation-goodput-dis",
        "saturation-recovery-int",
        "saturation-recovery-dis",
    ] {
        assert!(trimmed.contains(table), "missing {table} in JSON output");
    }
}

#[test]
fn unknown_argument_exits_nonzero() {
    // `Opts::from_args` must fail loudly on typos instead of silently
    // running the wrong configuration.
    let out = Command::new(env!("CARGO_BIN_EXE_saturation"))
        .arg("--quikc")
        .output()
        .expect("spawn saturation");
    assert!(!out.status.success(), "typo'd argument was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--quikc"),
        "stderr names the bad arg: {stderr}"
    );
}

#[test]
fn jobs_flag_matches_serial_output_and_rejects_garbage() {
    // The whole point of `--jobs`: a parallel run's bytes equal a serial
    // run's bytes (the in-process determinism test covers more sweeps;
    // this pins the flag-to-env wiring through a real binary).
    let serial = run_binary(
        env!("CARGO_BIN_EXE_fig3_pingpong"),
        &["--jobs", "1", "--json"],
    );
    let parallel = run_binary(
        env!("CARGO_BIN_EXE_fig3_pingpong"),
        &["--jobs", "4", "--json"],
    );
    assert!(serial == parallel, "--jobs changed the emitted bytes");

    // A malformed worker count exits 2 like any other bad argument.
    let out = Command::new(env!("CARGO_BIN_EXE_saturation"))
        .args(["--jobs", "many"])
        .output()
        .expect("spawn saturation");
    assert!(!out.status.success(), "garbage --jobs was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--jobs"),
        "stderr names the bad arg: {stderr}"
    );
}

#[test]
fn bin_spin_scenario_runs_corpus_files_and_prints_digests() {
    // Test cwd is the crate directory, so corpus paths go via the repo
    // root. The digest capture lines land on stderr; tables on stdout.
    let out = Command::new(env!("CARGO_BIN_EXE_spin-scenario"))
        .args([
            "../../scenarios/fat_tree_golden.json",
            "../../scenarios/fat_tree_saturate_loss.json",
        ])
        .output()
        .expect("spawn spin-scenario");
    assert!(
        out.status.success(),
        "spin-scenario failed; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# scenario-fat-tree-golden"), "{stdout}");
    assert!(
        stdout.contains("# scenario-fat-tree-saturate-loss"),
        "{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("digest 0xc168fc2e110a6a9b"),
        "golden digest line missing: {stderr}"
    );
}

#[test]
fn bin_spin_scenario_reps_output_is_jobs_invariant() {
    // A replicated, jitter-impaired scenario sweep must emit the same
    // bytes at any worker count (cell seeds are position-derived).
    let args = |jobs: &'static str| {
        [
            "../../scenarios/dragonfly_pingpong_jitter.json",
            "--reps",
            "3",
            "--jobs",
            jobs,
            "--json",
        ]
    };
    let serial = run_binary(env!("CARGO_BIN_EXE_spin-scenario"), &args("1"));
    let parallel = run_binary(env!("CARGO_BIN_EXE_spin-scenario"), &args("4"));
    assert!(serial == parallel, "--jobs changed the emitted bytes");
    assert!(serial.contains("±95%"), "reps>1 output lacks CI series");
}

#[test]
fn bin_spin_scenario_fails_loudly_on_a_digest_mismatch() {
    let path = std::env::temp_dir().join("spin-scenario-smoke-mismatch.json");
    std::fs::write(
        &path,
        r#"{
          "name": "mismatch",
          "topology": {"FatTree": {"nodes": 4, "ports": 4}},
          "workload": {"Gather": {"put_bytes": 1024, "ring_bytes": 64, "stride": 1}},
          "expect": {"digest": "0x1"}
        }"#,
    )
    .expect("write temp scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_spin-scenario"))
        .arg(&path)
        .output()
        .expect("spawn spin-scenario");
    assert_eq!(out.status.code(), Some(1), "a failed expectation exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pinned 0x1"), "stderr: {stderr}");
}

#[test]
fn bin_spin_scenario_exit_codes_tell_usage_from_failure() {
    // A bad command line exits 2 with the usage text, like every other
    // binary; a scenario that cannot run exits 1.
    for args in [
        &["--jobs", "x"][..],
        &["--reps", "0"],
        &["--reps", "abc"],
        &["--reps"],
        &["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_spin-scenario"))
            .args(args)
            .output()
            .expect("spawn spin-scenario");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: spin-scenario"),
            "{args:?}: {stderr}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_spin-scenario"))
        .arg("no-such-scenario.json")
        .output()
        .expect("spawn spin-scenario");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "missing file: {stderr}");
    assert!(!stderr.contains("usage:"), "missing file: {stderr}");
}

#[test]
fn bin_all_experiments_json() {
    // The umbrella binary also exercises `--json`: output must be a JSON
    // array of tables with the expected field names.
    let text = run_binary(env!("CARGO_BIN_EXE_all_experiments"), &["--json"]);
    let trimmed = text.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "not a JSON array:\n{}",
        trimmed.chars().take(200).collect::<String>()
    );
    for field in ["\"name\"", "\"x_label\"", "\"y_label\"", "\"rows\""] {
        assert!(trimmed.contains(field), "missing {field} in JSON output");
    }
}
