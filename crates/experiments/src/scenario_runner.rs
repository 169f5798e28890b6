//! Drives declarative scenario files through the sweep harness.
//!
//! The `spin-scenario` binary feeds this module a list of JSON files (or
//! the default `scenarios/` corpus). Each file becomes one sweep point;
//! replication 0 runs the scenario exactly as pinned — same seed, serial
//! engine — and is checked against its `expect` block,
//! while replications ≥ 1 reseed the machine from the harness cell seed
//! so `--reps R` reports mean ± 95% CI over genuinely independent runs.
//! A digest line per file goes to stderr (capture them to pin a new
//! scenario), one table per file goes to stdout.

use crate::sweep;
use spin_scenario::{digest, Scenario, ScenarioCompiler};
use spin_sim::stats::Table;

/// Per-file pinned digests, paired with the source file name.
pub type Digests = Vec<(String, u64)>;

/// The distilled observables one replication reports.
#[derive(Debug, Clone, Copy)]
struct RepRow {
    end_us: f64,
    events: f64,
    packets: f64,
    nacks: f64,
    retransmits: f64,
}

/// Load scenario files; with no paths, the `scenarios/` corpus directory
/// under the current directory (sorted by name).
pub fn load(paths: &[String]) -> Result<Vec<(String, Scenario)>, String> {
    let mut files: Vec<String> = paths.to_vec();
    if files.is_empty() {
        let dir = std::path::Path::new("scenarios");
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("no scenario files given and no scenarios/ corpus: {e}"))?;
        for entry in entries {
            let p = entry.map_err(|e| format!("scenarios/: {e}"))?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p.to_string_lossy().into_owned());
            }
        }
        files.sort();
        if files.is_empty() {
            return Err("scenarios/ contains no .json files".to_string());
        }
    }
    files
        .into_iter()
        .map(|f| {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("{f}: {e}"))?;
            let s = Scenario::from_json(&text).map_err(|e| format!("{f}: {e}"))?;
            Ok((f, s))
        })
        .collect()
}

/// Run every scenario `reps` times through independent harness cells and
/// fold each into one table (plus its pinned digest, for the stderr
/// capture lines). Replication 0 is the pinned run — its digest is
/// checked against `expect` and returned; a check failure fails the whole
/// sweep.
pub fn run_tables(
    scenarios: &[(String, Scenario)],
    reps: u32,
) -> Result<(Vec<Table>, Digests), String> {
    let cells = sweep::run_cells(scenarios, reps, |(file, scenario), cell| {
        let pinned = cell.replication == 0;
        let mut s = scenario.clone();
        if !pinned {
            // Independent replication: reseed every stochastic stream
            // (noise, jitter, loss, background) from the harness cell.
            s.machine.seed = Some(cell.seed);
        }
        let compiler = ScenarioCompiler::new(s);
        let out = compiler.run(1).map_err(|e| format!("{file}: {e}"))?;
        if pinned {
            compiler
                .check(&out.report)
                .map_err(|e| format!("{file}: {e}"))?;
        }
        let r = &out.report;
        let row = RepRow {
            end_us: r.end_time.ps() as f64 / 1e6,
            events: r.events_executed as f64,
            packets: r.net_packets as f64,
            nacks: r.node_stats.iter().map(|n| n.recovery_nacks).sum::<u64>() as f64,
            retransmits: r
                .node_stats
                .iter()
                .map(|n| n.recovery_retransmits)
                .sum::<u64>() as f64,
        };
        Ok((row, pinned.then(|| digest(r))))
    });
    let mut tables = Vec::with_capacity(scenarios.len());
    let mut digests = Vec::with_capacity(scenarios.len());
    for ((file, scenario), runs) in scenarios.iter().zip(cells) {
        let runs: Vec<(RepRow, Option<u64>)> = runs.into_iter().collect::<Result<_, String>>()?;
        let pinned_digest = runs[0].1.expect("replication 0 is the pinned run");
        digests.push((file.clone(), pinned_digest));
        tables.push(table_for(&scenario.name, &runs));
    }
    Ok((tables, digests))
}

fn table_for(name: &str, runs: &[(RepRow, Option<u64>)]) -> Table {
    let mut t = Table::new(&format!("scenario-{name}"), "run", "value");
    type Get = fn(&RepRow) -> f64;
    let series: [(&str, Get); 5] = [
        ("end (us)", |r| r.end_us),
        ("events", |r| r.events),
        ("packets", |r| r.packets),
        ("nacks", |r| r.nacks),
        ("retransmits", |r| r.retransmits),
    ];
    let mut ys = Vec::new();
    for (label, get) in series {
        // A single replication reproduces its sample bitwise, so
        // `--reps 1` output carries the pinned run's exact observables.
        sweep::fold_reps(&mut ys, label, runs.iter().map(|(row, _)| get(row)));
    }
    t.push(0.0, ys);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(extra: &str) -> (String, Scenario) {
        let json = format!(
            r#"{{
              "name": "runner-test",
              "topology": {{"FatTree": {{"nodes": 4, "ports": 4}}}},
              "workload": {{"Gather": {{"put_bytes": 2048, "ring_bytes": 128, "stride": 1}}}}{extra}
            }}"#
        );
        ("mem.json".to_string(), Scenario::from_json(&json).unwrap())
    }

    #[test]
    fn single_rep_reports_pinned_observables_and_digest() {
        let s = scenario("");
        let want = {
            let out = ScenarioCompiler::new(s.1.clone()).run(1).unwrap();
            (digest(&out.report), out.report.events_executed as f64)
        };
        let (tables, digests) = run_tables(std::slice::from_ref(&s), 1).unwrap();
        assert_eq!(digests, vec![("mem.json".to_string(), want.0)]);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].get(0.0, "events"), Some(want.1));
        // Single replication: no CI companions.
        assert_eq!(tables[0].get(0.0, "events ±95%"), None);
    }

    #[test]
    fn replications_add_ci_companions_and_keep_the_pinned_digest() {
        let s = scenario(r#", "machine": {"noise": "Daemon25us"}"#);
        let (tables, digests) = run_tables(std::slice::from_ref(&s), 3).unwrap();
        let pinned = ScenarioCompiler::new(s.1.clone()).run(1).unwrap();
        assert_eq!(digests[0].1, digest(&pinned.report));
        assert!(tables[0].get(0.0, "end (us) ±95%").is_some());
        // Reseeded replications make the mean a genuine aggregate.
        assert!(tables[0].get(0.0, "events").unwrap() > 0.0);
    }

    #[test]
    fn expectation_failures_surface_the_file_name() {
        let s = scenario(r#", "expect": {"digest": "0x1"}"#);
        let e = run_tables(std::slice::from_ref(&s), 1).unwrap_err();
        assert!(e.contains("mem.json"), "{e}");
        assert!(e.contains("pinned 0x1"), "{e}");
    }
}
