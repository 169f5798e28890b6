//! Chaos harness: scheduled fault intensity vs. goodput and recovery,
//! RDMA vs. sPIN.
//!
//! Sweeps the number of access-link flaps injected at the receiver of a
//! closed-loop saturation run (the `spin-apps` saturate workload under
//! recovery). Every flap kills the receiver's access link for a fixed
//! window: messages charged into it drop at the source, surface as
//! synthesized `PtDisabled` NACKs, and ride the backoff → probing machine
//! until the link returns. Per transport and flap count the sweep reports:
//!
//! * **goodput** — delivered Gbit/s over the whole (fault-stretched) run:
//!   graceful degradation means it declines with downtime instead of
//!   collapsing, and *nothing* is lost (`completed == sent` is asserted
//!   for every cell);
//! * **recovery latency** — mean NACK-to-redelivery time per recovered
//!   message, the time the fault actually cost each affected message;
//! * **resilience counters** — dead-link drops and retransmitted wire
//!   bytes, proving the fault machinery (not luck) carried the run.

use crate::sweep;
use spin_apps::saturate::{self, SaturateMode, SaturateParams};
use spin_core::config::{MachineConfig, NicKind};
use spin_core::fault::{FaultKind, FaultPlan};
use spin_core::world::Report;
use spin_sim::stats::{OnlineStats, Table};
use spin_sim::time::Time;

fn params(quick: bool) -> SaturateParams {
    SaturateParams {
        senders: 3,
        messages: if quick { 8 } else { 16 },
        bytes: 8192,
        interval: Time::from_us(2),
        service: Time::from_us(2),
    }
}

/// Flap counts swept (the fault-intensity axis).
fn flap_counts(quick: bool) -> Vec<u32> {
    if quick {
        vec![0, 2, 4]
    } else {
        vec![0, 1, 2, 4, 6, 8]
    }
}

/// Deterministic flap schedule: `flaps` windows of 12 µs on the
/// receiver's access link, 30 µs apart — wide enough that exponential
/// probing (capped at 4 µs) always reconnects well before the probe
/// budget, so no delivery is ever abandoned.
fn flap_plan(flaps: u32) -> FaultPlan {
    let mut plan = FaultPlan::default();
    for i in 0..flaps {
        let down = Time::from_us(10 + 30 * u64::from(i));
        plan = plan
            .with(down, FaultKind::LinkDown { node: 0 })
            .with(down + Time::from_us(12), FaultKind::LinkUp { node: 0 });
    }
    plan
}

/// Fault-side observables of one run.
struct Resilience {
    dead_link_drops: u64,
    retransmitted_bytes: u64,
    downed_us: f64,
}

fn resilience(report: &Report) -> Resilience {
    Resilience {
        dead_link_drops: report.node_stats.iter().map(|s| s.drops_on_dead_link).sum(),
        retransmitted_bytes: report
            .node_stats
            .iter()
            .map(|s| s.retransmitted_bytes)
            .sum(),
        downed_us: report.links_downed_ns as f64 / 1000.0,
    }
}

type PointRow = (f64, Vec<(String, saturate::SaturateOutcome, Resilience)>);

fn chaos_sweep(quick: bool, reps: u32) -> Vec<Vec<PointRow>> {
    let p = params(quick);
    sweep::run_cells(&flap_counts(quick), reps, |&flaps, cell| {
        let ys = SaturateMode::ALL
            .iter()
            .map(|&mode| {
                let mut cfg = MachineConfig::paper(NicKind::Integrated)
                    .with_recovery()
                    .with_seed(cell.seed);
                if flaps > 0 {
                    cfg = cfg.with_faults(flap_plan(flaps));
                }
                let out = saturate::run(cfg, mode, p);
                let o = saturate::outcome(&out.report, p);
                // The graceful-degradation contract: faults slow the run,
                // they never lose traffic.
                assert_eq!(
                    o.completed, o.sent,
                    "{mode:?} lost messages under {flaps} flap(s)"
                );
                (mode.label().to_string(), o, resilience(&out.report))
            })
            .collect();
        (f64::from(flaps), ys)
    })
}

fn tables_from_sweep(rows: &[Vec<PointRow>]) -> Vec<Table> {
    let mut goodput = Table::new("chaos-goodput", "link flaps", "goodput (Gbit/s)");
    let mut recovery = Table::new("chaos-recovery", "link flaps", "mean recovery latency (us)");
    let mut resil = Table::new("chaos-resilience", "link flaps", "count");
    for reps in rows {
        let x = reps[0].0;
        let mut g_ys = Vec::new();
        let mut r_ys = Vec::new();
        let mut c_ys = Vec::new();
        for (si, (name, ..)) in reps[0].1.iter().enumerate() {
            let (mut g, mut r) = (Vec::new(), Vec::new());
            let mut drops = OnlineStats::new();
            let mut rtx = OnlineStats::new();
            let mut downed = OnlineStats::new();
            for rep in reps {
                let (s, o, res) = &rep.1[si];
                debug_assert_eq!(s, name, "transport order is fixed across cells");
                g.push(o.goodput_gbps);
                r.push(o.recovery_latency_us);
                drops.push(res.dead_link_drops as f64);
                rtx.push(res.retransmitted_bytes as f64);
                downed.push(res.downed_us);
            }
            sweep::fold_reps(&mut g_ys, name, g);
            sweep::fold_reps(&mut r_ys, name, r);
            c_ys.push((format!("{name} dead-link drops"), drops.mean()));
            c_ys.push((format!("{name} retransmitted B"), rtx.mean()));
            if si == 0 {
                // Plan-static, transport-independent: report it once.
                c_ys.push(("downtime us".to_string(), downed.mean()));
            }
        }
        goodput.push(x, g_ys);
        recovery.push(x, r_ys);
        resil.push(x, c_ys);
    }
    vec![goodput, recovery, resil]
}

/// The chaos tables (goodput, recovery latency, resilience counters vs.
/// flap count). With `reps > 1` every goodput/latency series gains a
/// `±95%` confidence-interval companion; `reps = 1` output is
/// byte-identical to the single-run sweep.
pub fn chaos_tables(quick: bool, reps: u32) -> Vec<Table> {
    tables_from_sweep(&chaos_sweep(quick, reps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaps_degrade_goodput_gracefully_and_the_counters_prove_it() {
        let tables = tables_from_sweep(&chaos_sweep(true, 1));
        let (goodput, resil) = (&tables[0], &tables[2]);
        let clean = goodput.rows.first().unwrap().x;
        let worst = goodput.rows.last().unwrap().x;
        assert_eq!(clean, 0.0, "the sweep starts from a fault-free baseline");
        for series in ["RDMA", "sPIN"] {
            let healthy = goodput.get(clean, series).unwrap();
            let faulted = goodput.get(worst, series).unwrap();
            // Every cell already asserted completed == sent; here the
            // goodput declines under downtime but survives it.
            assert!(healthy > faulted, "{series}: {healthy} <= {faulted}");
            assert!(faulted > 0.0, "{series} collapsed under flaps");
            assert_eq!(
                resil.get(clean, &format!("{series} dead-link drops")),
                Some(0.0)
            );
            assert!(
                resil
                    .get(worst, &format!("{series} dead-link drops"))
                    .unwrap()
                    > 0.0,
                "{series} never hit the dead link"
            );
            assert!(
                resil
                    .get(worst, &format!("{series} retransmitted B"))
                    .unwrap()
                    > 0.0,
                "{series} never retransmitted"
            );
        }
        assert!(resil.get(worst, "downtime us").unwrap() > 0.0);
    }
}
