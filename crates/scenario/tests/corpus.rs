//! The `scenarios/` corpus as a regression suite: every file must parse,
//! compile, run clean on the serial reference engine AND the exact
//! sharded engine with identical reports, and satisfy its own pinned
//! `expect` block on both. Every file outside [`RELAXED_EXEMPT`] must also
//! keep serial's `delivery_digest` at 2 and 4 relaxed shards. A second test
//! audits that the corpus keeps covering the declared matrix (all three
//! topology families, four-plus workload kinds, at least one jitter and one
//! loss impairment).
//!
//! To re-pin after an intentional semantic change, run with
//! `SCENARIO_CAPTURE=1` and copy the printed digests into the files
//! (the determinism goldens gate what counts as intentional).

use spin_core::world::{delivery_digest, ShardMode};
use spin_scenario::{digest, Scenario, ScenarioCompiler, TopologyConfig};

/// Corpus files outside the relaxed engine's contract, each with the
/// reason. The relaxed engine gives up serial's same-instant tie-break
/// order, so it keeps the delivery view only on runs with no flow-control
/// event, no recovery, no fault and no value derived from simulated time.
/// A file not listed here is in scope.
const RELAXED_EXEMPT: [(&str, &str); 5] = [
    (
        "dragonfly_gather.json",
        "flow control: at 2 and 3 shards a ring put reaches root 3 before its \
         me_append takes effect, so the PT disables and gather puts drop",
    ),
    (
        "dragonfly_pingpong_jitter.json",
        "time-derived value: the reported half_rtt_us follows the shifted end times",
    ),
    (
        "fat_tree_flap_incast.json",
        "fault and recovery: the sends the flap catches, and so the retransmits, move",
    ),
    (
        "fat_tree_saturate_loss.json",
        "recovery under flow control and loss: NACK and retransmit counts follow arrival order",
    ),
    (
        "fat_tree_spine_reroute.json",
        "fault: at 3 and 4 shards the spine failure catches more sends, moving node 0's reroutes",
    ),
];

fn corpus() -> Vec<(String, Scenario)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("corpus file");
            let s = Scenario::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, s)
        })
        .collect()
}

#[test]
fn corpus_runs_clean_and_shard_invariant_on_every_file() {
    let capture = std::env::var_os("SCENARIO_CAPTURE").is_some();
    let corpus = corpus();
    assert!(corpus.len() >= 8, "corpus shrank to {} files", corpus.len());
    for (exempt, _) in RELAXED_EXEMPT {
        assert!(
            corpus.iter().any(|(f, _)| f == exempt),
            "relaxed exemption {exempt} names no corpus file"
        );
    }
    for (file, s) in &corpus {
        let c = ScenarioCompiler::new(s.clone());
        let serial = c.run(1).unwrap_or_else(|e| panic!("{file}: {e}"));
        let sharded = c.run(4).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            format!("{:?}", serial.report),
            format!("{:?}", sharded.report),
            "{file}: serial and 4-shard reports diverged"
        );
        let d = digest(&serial.report);
        if capture {
            println!("{file}: digest {d:#018x}");
            continue;
        }
        if !RELAXED_EXEMPT.iter().any(|(f, _)| f == file) {
            for k in [2, 4] {
                let relaxed = (c.compile().unwrap()).run_with_shards_mode(k, ShardMode::Relaxed);
                assert_eq!(
                    delivery_digest(&relaxed.report),
                    delivery_digest(&serial.report),
                    "{file}: {k} relaxed shards changed the delivery view"
                );
            }
        }
        assert!(
            s.expect.digest.is_some(),
            "{file}: corpus files must pin expect.digest (run with SCENARIO_CAPTURE=1)"
        );
        c.check(&serial.report)
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        c.check(&sharded.report)
            .unwrap_or_else(|e| panic!("{file} (4 shards): {e}"));
    }
}

#[test]
fn corpus_covers_the_declared_matrix() {
    let corpus = corpus();
    let family = |t: &TopologyConfig| match t {
        TopologyConfig::FatTree { .. } => "fat-tree",
        TopologyConfig::Dragonfly { .. } => "dragonfly",
        TopologyConfig::Torus { .. } => "torus",
    };
    let families: std::collections::BTreeSet<_> =
        corpus.iter().map(|(_, s)| family(&s.topology)).collect();
    assert_eq!(
        families.into_iter().collect::<Vec<_>>(),
        ["dragonfly", "fat-tree", "torus"],
        "corpus must span all three topology families"
    );
    let kinds: std::collections::BTreeSet<_> =
        corpus.iter().map(|(_, s)| s.workload.kind()).collect();
    assert!(kinds.len() >= 4, "only {kinds:?} workload kinds covered");
    let imps = |f: &dyn Fn(&spin_scenario::Impairment) -> bool| {
        corpus.iter().any(|(_, s)| s.impairments.iter().any(f))
    };
    assert!(imps(&|i| i.jitter_ns > 0), "no jitter-impaired scenario");
    assert!(imps(&|i| i.loss > 0.0), "no loss-impaired scenario");
    // The loss scenario must prove recovery engaged, not merely run.
    assert!(
        corpus
            .iter()
            .any(|(_, s)| s.impairments.iter().any(|i| i.loss > 0.0)
                && s.expect.min_nacks > 0
                && s.expect.min_retransmits > 0),
        "loss scenario pins no recovery minimums"
    );
}
