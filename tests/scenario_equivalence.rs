//! Scenario ↔ hand-coded equivalence: a declarative scenario file must
//! compile into *exactly* the world its hand-coded twin constructs — not
//! a similar one. Three proofs:
//!
//! 1. `scenarios/fat_tree_golden.json` reproduces the pinned fat-tree
//!    determinism golden byte-for-byte (same digest as the hand-coded
//!    gather builder, on the serial and the sharded engine);
//! 2. `scenarios/incast48.json` reproduces the 48-node incast world of
//!    `spin_experiments::sharding`: the whole report, `Debug` text and
//!    all, on the serial and the sharded engine;
//! 3. a property test: impaired scenarios (jitter, loss, background)
//!    stay bit-identical across engine shard counts — the impairment
//!    RNG streams replay independently of execution order.

use proptest::prelude::*;
use spin_core::config::{MachineConfig, NicKind};
use spin_experiments::sharding;
use spin_scenario::{
    digest, Expect, Impairment, MachineKnobs, NicChoice, NoiseChoice, Roles, Scenario,
    ScenarioCompiler, TopologyConfig, Workload,
};

/// The fat-tree golden fingerprint pinned by `tests/determinism.rs`.
const FAT_TREE_GOLDEN: u64 = 0xc168fc2e110a6a9b;

fn load(path: &str) -> ScenarioCompiler {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    ScenarioCompiler::new(Scenario::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}")))
}

#[test]
fn fat_tree_scenario_is_byte_identical_to_the_pinned_golden() {
    // The hand-coded twin: exactly what tests/determinism.rs pins.
    let mut config = MachineConfig::paper(NicKind::Integrated);
    config.net.switch_ports = 4;
    config.host.mem_size = 1 << 20;
    let hand = spin_apps::gather::builder(config, 12, 0, 6000, 256, 5).run_serial();
    assert_eq!(
        digest(&hand.report),
        FAT_TREE_GOLDEN,
        "hand-coded golden moved; recapture both it and the scenario corpus"
    );

    let c = load("scenarios/fat_tree_golden.json");
    assert_eq!(digest(&c.run(1).unwrap().report), FAT_TREE_GOLDEN, "serial");
    assert_eq!(
        digest(&c.run(4).unwrap().report),
        FAT_TREE_GOLDEN,
        "4 shards"
    );
}

#[test]
fn incast_scenario_is_byte_identical_to_the_sharding_benchmark() {
    let want = format!("{:?}", sharding::incast_builder(48, 6).run_serial().report);
    let c = load("scenarios/incast48.json");
    assert_eq!(
        format!("{:?}", c.run(1).unwrap().report),
        want,
        "serial twin diverged from sharding::incast_builder(48, 6)"
    );
    assert_eq!(
        format!("{:?}", c.run(4).unwrap().report),
        want,
        "4-shard twin diverged from sharding::incast_builder(48, 6)"
    );
}

#[test]
fn roles_root_places_the_gather_root_on_the_declared_rank() {
    let c = load("scenarios/dragonfly_gather.json");
    assert_eq!(c.scenario().roles.root, 3, "corpus file moved its root");
    let out = c.run(1).unwrap();
    let armed: Vec<_> = out
        .report
        .marks
        .iter()
        .filter(|(_, label, _)| label == "root-armed")
        .map(|(rank, _, _)| *rank)
        .collect();
    assert_eq!(armed, vec![3], "gather root did not land on rank 3");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Impaired worlds are engine-invariant: for any small topology,
    /// seed, and impairment mix (jitter, loss + recovery, background),
    /// the serial engine and every shard count produce bit-identical
    /// reports.
    #[test]
    fn impaired_scenarios_are_bit_identical_across_shard_counts(
        nodes in 3u32..7,
        seed in any::<u64>(),
        jitter_ns in 0u64..500,
        loss_idx in 0usize..3,
        background_ns in 0u64..1000,
    ) {
        let loss = [0.0, 0.1, 0.3][loss_idx];
        let scenario = Scenario {
            name: "prop-impaired".to_string(),
            description: String::new(),
            topology: TopologyConfig::FatTree { nodes, ports: 4 },
            machine: MachineKnobs {
                nic: NicChoice::Integrated,
                seed: Some(seed),
                // Loss requires recovery; harmless for the others.
                recovery: true,
                mem_size: None,
                noise: NoiseChoice::None,
            },
            impairments: vec![Impairment {
                src: None,
                dst: Some(0),
                latency_ns: 50,
                jitter_ns,
                loss,
                background_ns,
            }],
            roles: Roles { root: 0 },
            workload: Workload::Gather {
                put_bytes: 2048,
                ring_bytes: 128,
                stride: 1,
            },
            faults: vec![],
            expect: Expect::default(),
        };
        let c = ScenarioCompiler::new(scenario);
        let serial = format!("{:?}", c.run(1).unwrap().report);
        for shards in [2usize, 4] {
            let sharded = format!("{:?}", c.run(shards).unwrap().report);
            prop_assert_eq!(
                serial, sharded,
                "nodes={} seed={:#x} jitter={} loss={} bg={} diverged at {} shards",
                nodes, seed, jitter_ns, loss, background_ns, shards
            );
        }
    }
}
