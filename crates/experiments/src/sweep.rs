//! The parallel sweep harness every experiment routes through.
//!
//! A sweep is a list of **points** (message sizes, process counts, offered
//! loads, traces, ...) each simulated for one or more **replications**.
//! Every `(point, replication)` pair is an independent simulation — it
//! owns its own `Engine`, `World`, and RNG stream — so the harness
//! decomposes the sweep into [`Cell`]s, fans the cells out over
//! `std::thread::scope` workers that claim them one at a time, and merges
//! the results back in `(point, replication)` order.
//!
//! **Determinism:** the merged output is bit-identical to a serial run.
//! Three properties guarantee it:
//!
//! 1. every cell's seed is a pure function of its coordinates
//!    ([`spin_sim::rng::cell_seed`]), never of scheduling;
//! 2. cells share no mutable state (each builds its own machine);
//! 3. every result lands in the slot of its cell's index, whichever worker
//!    claimed it (pinned by a cost-skewed order test below).
//!
//! `tests/sweep_determinism.rs` asserts the end-to-end consequence: the
//! emitted JSON of a fig3 + saturation run is byte-identical between one
//! worker and 3, 4 or 7.
//!
//! **Worker count:** `--jobs N` on any experiment binary (see
//! [`crate::Opts`]), which calls [`set_jobs`]; `0`, the default, means one
//! worker per available core, and `1` runs the serial reference path.

use spin_sim::rng::cell_seed;
use spin_sim::stats::OnlineStats;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Sweep workers set by [`set_jobs`]; `0` means one per available core.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the worker count of every later sweep in this process: `0` for one
/// per available core, `1` for the serial reference path. Output is the
/// same at every setting.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Resolved worker count: the [`set_jobs`] value when positive, otherwise
/// one worker per available core.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// `f(0), f(1), ..., f(len - 1)` on `jobs` scoped threads, in index order.
/// Each worker claims the next unclaimed index from one atomic counter, so
/// a few costly cells at the head do not idle the others; each result lands
/// in its index's slot, so the output is the same for every worker count
/// and every claim order.
fn par_map<R: Send>(len: usize, jobs: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(len))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("the claim counter hands out every index once"))
        .collect()
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
    let jobs = jobs();
    let flat: Vec<R> = if jobs == 1 {
        cells.iter().map(|c| f(&points[c.point], *c)).collect()
    } else {
        par_map(cells.len(), jobs, |i| f(&points[cells[i].point], cells[i]))
    };
    // Merge deterministically: cells were generated point-major, and the
    // map preserved their order, so the groups are consecutive runs.
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

/// Fold one series' replications into table columns: the mean under
/// `label`, plus the half-width of its 95% confidence interval under
/// `"{label} ±95%"` when more than one replication ran. Pushing one sample
/// into an empty [`OnlineStats`] reproduces it exactly, so `--reps 1`
/// output is the single-run sweep's, byte for byte.
pub fn fold_reps(ys: &mut Vec<(String, f64)>, label: &str, samples: impl IntoIterator<Item = f64>) {
    let mut s = OnlineStats::new();
    samples.into_iter().for_each(|x| s.push(x));
    ys.push((label.to_string(), s.mean()));
    if s.count() > 1 {
        let ci95 = 1.96 * s.stddev() / (s.count() as f64).sqrt();
        ys.push((format!("{label} ±95%"), ci95));
    }
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
        // harness itself merges identically under both paths. (No other
        // test in this crate calls `set_jobs`, and this one restores the
        // default.)
        let points: Vec<u64> = (0..37).collect();
        let run = || run_cells(&points, 3, |&p, c| (p, c.replication, c.seed));
        set_jobs(1);
        assert_eq!(jobs(), 1);
        let serial = run();
        set_jobs(4);
        assert_eq!(jobs(), 4);
        let parallel = run();
        set_jobs(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_map_keeps_input_order_under_skewed_cost() {
        // The deterministic merge rests on this: results come back in
        // input order even when the worker count does not divide the item
        // count and early items cost far more than late ones. Item `i`
        // spins for a time proportional to `n - i`, so items finish in
        // roughly reverse order; a completion-ordered map would fail.
        let skewed_work = |i: usize, n: usize| -> usize {
            let mut acc = i as u64;
            for _ in 0..(n - i) * 300 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            i
        };
        for jobs in [2, 3, 5, 16] {
            for n in [0, 1, 2, 7, 64, 65, 331] {
                let got = par_map(n, jobs, |i| skewed_work(i, n));
                assert_eq!(got, (0..n).collect::<Vec<_>>(), "jobs={jobs} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        run_cells(&[1], 0, |&p: &i32, _| p);
    }
}
