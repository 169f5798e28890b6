//! The benchmark's generators, gates and runner.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use spin_core::world::ShardMode;
use spin_experiments::sharding::delivery_digest;
use spin_perfbench::{op, Engine, Workload};
use spin_scenario::{digest, Scenario, Workload as Load};
use std::process::Command;

const SEEDS: [u64; 3] = [0, 7, 1 << 40];

#[test]
fn every_generated_scenario_compiles_and_passes_its_gate_at_several_seeds() {
    for w in Workload::ALL {
        for seed in SEEDS {
            let o = op(w, &w.scenario_json(seed), Engine::Serial)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
            assert!(o.completed > 0, "{} seed {seed}", w.name());
        }
    }
}

#[test]
fn one_seed_always_produces_the_same_scenario() {
    for w in Workload::ALL {
        assert_eq!(w.scenario_json(5), w.scenario_json(5), "{}", w.name());
        let seeded = w.scenario_json(5) != w.scenario_json(6);
        assert_eq!(seeded, w != Workload::PingPongStream, "{}", w.name());
    }
    // The seeded draws themselves are pinned, so a later change to the
    // generator cannot silently move the workloads.
    assert_eq!(Workload::Incast1k.scenario(1).roles.root, 152);
    assert_eq!(
        Workload::LossySaturation.scenario(1).faults[0].at_ns,
        414_532
    );
}

#[test]
fn sharded_engines_match_serial_on_the_incast() {
    let w = Workload::Incast1k;
    let json = w.scenario_json(3);
    let serial = op(w, &json, Engine::Serial).unwrap();
    let exact = op(w, &json, Engine::Sharded(ShardMode::Exact)).unwrap();
    let relaxed = op(w, &json, Engine::Sharded(ShardMode::Relaxed)).unwrap();
    assert_eq!(digest(&exact.out.report), digest(&serial.out.report));
    assert_eq!(
        delivery_digest(&relaxed.out.report),
        delivery_digest(&serial.out.report)
    );
}

#[test]
fn incast_gate_rejects_a_run_that_drops() {
    // Two rounds at 1k nodes trip a portal-table disable: the run drops
    // packets and ends sooner, which must fail rather than read as faster.
    let mut scenario = Workload::Incast1k.scenario(1);
    scenario.workload = Load::Incast { rounds: 2 };
    let e = op(Workload::Incast1k, &scenario.to_json(), Engine::Serial)
        .err()
        .expect("a dropping incast passed the gate");
    assert!(e.contains("puts"), "{e}");
}

#[test]
fn gates_reject_a_scenario_of_another_workload() {
    let json = Workload::PingPongStream.scenario_json(1);
    let e = op(Workload::LossySaturation, &json, Engine::Serial)
        .err()
        .expect("a ping-pong passed the saturation gate");
    assert!(e.contains("cannot gate"), "{e}");
    assert!(Scenario::from_json(&json).is_ok());
}

fn runner(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spin-perfbench"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("runner starts");
    (out.status.code(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn runner_prints_every_end_to_end_metric_last() {
    let args = [
        "--workload",
        "lossy_saturation",
        "--seed",
        "2",
        "--seconds",
        "0.2",
    ];
    let (code, stdout) = runner(&[&args[..], &["--trace", "0"]].concat(), &[]);
    assert_eq!(code, Some(0));
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for name in ["setup_s", "run_s", "peak_rss_mib", "success_rate"] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}: {last}"
        );
    }
    let (code, stdout) = runner(&[&args[..], &["--trace", "1"]].concat(), &[]);
    assert_eq!(code, Some(0));
    let last = stdout.lines().last().unwrap();
    for name in [
        "core.world_new_s",
        "core.recovery.useful_ratio",
        "trace.overhead_frac",
    ] {
        assert!(last.contains(&format!("\"{name}\"")), "{name}: {last}");
    }
}

#[test]
fn runner_refuses_knobs_that_change_the_program() {
    let args = ["--workload", "pingpong_stream", "--seconds", "0.1"];
    for var in ["SPIN_SHARDS", "SPIN_JOBS", "SPIN_EVENT_QUEUE"] {
        let (code, stdout) = runner(&args, &[(var, "1")]);
        assert_eq!(code, Some(2), "{var}");
        assert!(!stdout.contains("\"correct\""), "{var}: {stdout}");
    }
    let (code, _) = runner(&["--workload", "nope"], &[]);
    assert_eq!(code, Some(2));
}
