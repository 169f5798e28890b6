//! The parallel sweep harness every experiment routes through.
//!
//! A sweep is a list of **points** (message sizes, process counts, offered
//! loads, traces, ...) each simulated for one or more **replications**.
//! Every `(point, replication)` pair is an independent simulation — it
//! owns its own `Engine`, `World`, and RNG stream — so the harness
//! decomposes the sweep into [`Cell`]s, fans the cells out across cores
//! with the vendored rayon's order-preserving `par_iter().map().collect()`,
//! and merges the results back in `(point, replication)` order.
//!
//! **Determinism:** the merged output is bit-identical to a serial run.
//! Three properties guarantee it:
//!
//! 1. every cell's seed is a pure function of its coordinates
//!    ([`spin_sim::rng::cell_seed`]), never of scheduling;
//! 2. cells share no mutable state (each builds its own machine);
//! 3. the parallel collect preserves input order across chunk boundaries
//!    (pinned by a regression test in `vendor/rayon`).
//!
//! `tests/sweep_determinism.rs` asserts the end-to-end consequence: the
//! emitted JSON of a fig3 + saturation run is byte-identical between
//! `SPIN_JOBS=1` and `SPIN_JOBS=4`.
//!
//! **Worker count:** `--jobs N` on any experiment binary (see
//! [`crate::Opts`]) or the `SPIN_JOBS` environment variable; `0`/unset
//! means one worker per available core. `SPIN_JOBS=1` forces the serial
//! reference path.

use rayon::prelude::*;
use spin_sim::rng::cell_seed;

/// Base seed experiment sweeps derive per-cell seeds from (arbitrary but
/// fixed: changing it would re-seed every noise-bearing sweep).
pub const BASE_SEED: u64 = 0x5EED_0005_C171;

/// Identity of one independent simulation cell inside a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Index of the sweep point this cell belongs to.
    pub point: usize,
    /// Replication index within the point.
    pub replication: u32,
    /// Deterministic per-cell RNG seed (pass to
    /// `MachineConfig::with_seed` when the workload draws randomness).
    pub seed: u64,
}

/// Resolved worker count: the `SPIN_JOBS` environment variable when set to
/// a positive integer, otherwise one worker per available core. Delegates
/// to the vendored rayon's policy so the harness's serial short-circuit
/// and the pool's actual worker count can never disagree.
pub fn jobs() -> usize {
    rayon::current_num_threads()
}

/// Run `f` for every `(point, replication)` cell, fanned out across cores,
/// and return the results grouped by point in input order:
/// `out[p][r]` is the result of replication `r` of `points[p]`.
///
/// The output is bit-identical to the serial run regardless of the worker
/// count (see the module docs); `jobs() == 1` short-circuits to a plain
/// serial loop so the reference path stays trivially inspectable.
pub fn run_cells<P, R, F>(points: &[P], replications: u32, f: F) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&P, Cell) -> R + Sync,
{
    assert!(replications > 0, "a sweep needs at least one replication");
    let cells: Vec<Cell> = (0..points.len())
        .flat_map(|p| {
            (0..replications).map(move |r| Cell {
                point: p,
                replication: r,
                seed: cell_seed(BASE_SEED, p as u64, u64::from(r)),
            })
        })
        .collect();
    let flat: Vec<R> = if jobs() == 1 {
        cells.iter().map(|c| f(&points[c.point], *c)).collect()
    } else {
        cells.par_iter().map(|c| f(&points[c.point], *c)).collect()
    };
    // Merge deterministically: cells were generated point-major, and the
    // collect preserved their order, so the groups are consecutive runs.
    let mut out: Vec<Vec<R>> = Vec::with_capacity(points.len());
    let mut it = flat.into_iter();
    for _ in 0..points.len() {
        out.push(it.by_ref().take(replications as usize).collect());
    }
    out
}

/// The single-replication specialization most deterministic sweeps use:
/// one cell per point, results in point order.
pub fn map_points<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P, Cell) -> R + Sync,
{
    run_cells(points, 1, f)
        .into_iter()
        .map(|mut reps| reps.pop().expect("one replication per point"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_points_times_replications_in_order() {
        let points = [10usize, 20, 30];
        let got = run_cells(&points, 2, |&p, c| (p, c.point, c.replication, c.seed));
        assert_eq!(got.len(), 3);
        for (pi, reps) in got.iter().enumerate() {
            assert_eq!(reps.len(), 2);
            for (ri, &(p, cp, cr, seed)) in reps.iter().enumerate() {
                assert_eq!(p, points[pi]);
                assert_eq!(cp, pi);
                assert_eq!(cr, ri as u32);
                assert_eq!(seed, cell_seed(BASE_SEED, pi as u64, ri as u64));
            }
        }
    }

    #[test]
    fn map_points_preserves_order() {
        let points: Vec<u64> = (0..100).collect();
        let got = map_points(&points, |&p, c| p * 2 + c.point as u64);
        assert_eq!(got, points.iter().map(|p| p * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_forced_parallel_agree() {
        // Belt and braces on top of tests/sweep_determinism.rs: the
        // harness itself merges identically under both paths. (Env-var
        // mutation is safe here: this is the only test in the crate that
        // touches SPIN_JOBS, and it restores the prior value.)
        let prior = std::env::var("SPIN_JOBS").ok();
        let points: Vec<u64> = (0..37).collect();
        let run = || run_cells(&points, 3, |&p, c| (p, c.replication, c.seed));
        std::env::set_var("SPIN_JOBS", "1");
        assert_eq!(jobs(), 1);
        let serial = run();
        std::env::set_var("SPIN_JOBS", "4");
        assert_eq!(jobs(), 4);
        let parallel = run();
        match prior {
            Some(v) => std::env::set_var("SPIN_JOBS", v),
            None => std::env::remove_var("SPIN_JOBS"),
        }
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        run_cells(&[1], 0, |&p: &i32, _| p);
    }
}
