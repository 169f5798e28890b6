//! OS-noise figures (beyond the paper's artifact set, following its
//! §4.4.1 argument): host-exposed transports absorb OS detours, offloaded
//! handlers do not. Two tables, both designed for `--reps R`:
//!
//! * **ping-pong** — half round-trip over message size, RDMA vs sPIN
//!   streaming, quiet and under 2.5 kHz / 25 µs daemon noise;
//! * **KV inserts** — mean per-insert completion latency of the offloaded
//!   KV store, quiet vs daemon vs timer-tick noise (only the host-driven
//!   client is exposed; the server path runs on the NIC).
//!
//! Noise arrivals are an exponential renewal process, so a single run can
//! land between detours; replications reseed the noise streams through
//! independent `(point, replication, seed)` cells and the `±95%` series
//! quantify the spread.

use crate::{pow2_sweep, sweep};
use spin_apps::kvstore;
use spin_apps::pingpong::{self, PingPongMode};
use spin_core::config::{MachineConfig, NicKind};
use spin_sim::noise::NoiseModel;
use spin_sim::stats::Table;

/// One sweep point: x plus per-series samples.
type PointRow = (f64, Vec<(String, f64)>);

/// Fold replications into one table: per series the mean, plus a `±95%`
/// companion when more than one replication ran. A single replication
/// reproduces its sample bitwise.
fn aggregate(name: &str, x_label: &str, y_label: &str, rows: &[Vec<PointRow>]) -> Table {
    let mut table = Table::new(name, x_label, y_label);
    for reps in rows {
        let x = reps[0].0;
        let mut ys = Vec::new();
        for (si, (series, _)) in reps[0].1.iter().enumerate() {
            let samples = reps.iter().map(|rep| {
                let (s, v) = &rep.1[si];
                debug_assert_eq!(s, series, "series order is fixed across cells");
                *v
            });
            sweep::fold_reps(&mut ys, series, samples);
        }
        table.push(x, ys);
    }
    table
}

fn pingpong_sweep(quick: bool, reps: u32) -> Vec<Vec<PointRow>> {
    let sizes = pow2_sweep(10, if quick { 14 } else { 17 }, quick);
    // The daemon's mean detour interval is 400 us, so the run must span
    // milliseconds of simulated time for noise to land at all.
    let rounds = if quick { 512 } else { 1024 };
    sweep::run_cells(&sizes, reps, move |&bytes, cell| {
        let mut ys = Vec::new();
        for (mode, label) in [
            (PingPongMode::Rdma, "RDMA"),
            (PingPongMode::SpinStream, "sPIN stream"),
        ] {
            for (noise, suffix) in [(None, ""), (Some(NoiseModel::daemon_25us()), " noisy")] {
                let mut cfg = MachineConfig::paper(NicKind::Integrated).with_seed(cell.seed);
                cfg.noise = noise;
                let t = pingpong::run(cfg, mode, bytes, rounds);
                ys.push((format!("{label}{suffix}"), t));
            }
        }
        (bytes as f64, ys)
    })
}

/// Ping-pong under OS noise: half RTT (µs) over message size, quiet and
/// noisy, RDMA vs sPIN streaming.
pub fn noise_pingpong_table(quick: bool, reps: u32) -> Table {
    aggregate(
        "noise-pingpong",
        "bytes",
        "half RTT (us)",
        &pingpong_sweep(quick, reps),
    )
}

fn kv_sweep(quick: bool, reps: u32) -> Vec<Vec<PointRow>> {
    // Inserts pipeline at ~65 ns each, so the stream needs tens of
    // thousands of them to span multiple mean detour intervals.
    let inserts: Vec<usize> = if quick {
        vec![8192, 16384]
    } else {
        vec![8192, 16384, 32768]
    };
    sweep::run_cells(&inserts, reps, move |&n, cell| {
        let mut ys = Vec::new();
        for (noise, label) in [
            (None, "quiet"),
            (Some(NoiseModel::daemon_25us()), "daemon 25us"),
            (Some(NoiseModel::tick_10us()), "tick 10us"),
        ] {
            let mut cfg = MachineConfig::paper(NicKind::Integrated).with_seed(cell.seed);
            cfg.noise = noise;
            let (out, _) = kvstore::run_inserts(cfg, 3, 4096, n, cell.seed);
            let end_us = out.report.end_time.ps() as f64 / 1e6;
            ys.push((label.to_string(), end_us / n as f64));
        }
        (n as f64, ys)
    })
}

/// Offloaded KV inserts under OS noise: mean per-insert latency (µs) over
/// workload size, for three noise signatures.
pub fn noise_kv_table(quick: bool, reps: u32) -> Table {
    aggregate(
        "noise-kv",
        "inserts",
        "per-insert latency (us)",
        &kv_sweep(quick, reps),
    )
}

/// Both OS-noise tables.
pub fn noise_tables(quick: bool, reps: u32) -> Vec<Table> {
    vec![
        noise_pingpong_table(quick, reps),
        noise_kv_table(quick, reps),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of `noisy - quiet` over every row of a table.
    fn penalty(t: &Table, quiet: &str, noisy: &str) -> f64 {
        t.rows
            .iter()
            .map(|r| t.get(r.x, noisy).unwrap() - t.get(r.x, quiet).unwrap())
            .sum()
    }

    #[test]
    fn noise_penalizes_the_host_exposed_transport_more() {
        let t = noise_pingpong_table(true, 3);
        let rdma = penalty(&t, "RDMA", "RDMA noisy");
        let spin = penalty(&t, "sPIN stream", "sPIN stream noisy");
        assert!(rdma > 0.0, "daemon noise never stretched RDMA: {rdma}");
        // The offloaded reply path dodges the server host's detours: its
        // total noise penalty stays below the host-exposed transport's.
        assert!(spin < rdma, "sPIN penalty {spin} >= RDMA penalty {rdma}");
        // reps = 3 adds CI companions.
        assert!(t.get(t.rows[0].x, "RDMA ±95%").is_some());
    }

    #[test]
    fn kv_latency_rises_with_noise_intensity() {
        let t = noise_kv_table(true, 3);
        let daemon = penalty(&t, "quiet", "daemon 25us");
        assert!(
            t.get(t.rows[0].x, "quiet").unwrap() > 0.0,
            "KV inserts completed in zero time"
        );
        assert!(
            daemon > 0.0,
            "daemon noise never stretched the insert stream: {daemon}"
        );
        assert!(t.get(t.rows[0].x, "quiet ±95%").is_some());
    }

    #[test]
    fn single_replication_emits_no_ci_series() {
        let t = noise_kv_table(true, 1);
        let x = t.rows[0].x;
        assert!(t.get(x, "quiet").is_some());
        assert!(t.get(x, "quiet ±95%").is_none());
    }
}
