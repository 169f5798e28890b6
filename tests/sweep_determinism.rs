//! End-to-end determinism proof for the parallel sweep harness: the JSON
//! an experiment emits must be **byte-identical** between a serial run
//! (one worker) and parallel runs at 4, 3 and 7 workers. This is the
//! property the whole conversion rests on: fanning the
//! `(point, replication, seed)` cells across cores must be a pure
//! performance knob, never a result knob.
//!
//! Everything runs inside ONE test function: the worker count is
//! process-wide ([`sweep::set_jobs`]), and Rust runs tests in the same
//! binary concurrently, so splitting the legs into separate `#[test]`s
//! would race it.

use spin_core::config::NicKind;
use spin_experiments::{fig3, saturation, sweep};

#[test]
fn parallel_sweep_json_is_byte_identical_to_serial() {
    // A small fig3 sweep (pingpong sizes × transports, multi-packet
    // payloads through the CoW injection path) plus the saturation sweep
    // (closed-loop recovery, every NIC kind, overcommitted receivers) —
    // the two sweep families with the most machinery underneath them.
    let emit = || {
        let mut tables = vec![
            fig3::pingpong_table(NicKind::Integrated, true),
            fig3::accumulate_table(true),
        ];
        tables.extend(saturation::saturation_tables(true, 1));
        serde_json::to_string_pretty(&tables).expect("tables serialize")
    };

    sweep::set_jobs(1);
    assert_eq!(sweep::jobs(), 1, "serial leg must actually be serial");
    let serial = emit();

    // The work queue hands indices to whichever worker asks first, so the
    // claim interleaving differs at every worker count — ragged counts
    // (3, 7) that never divide the cell grid evenly must still emit the
    // same bytes, through index-keyed result slots.
    for jobs in [4, 3, 7] {
        sweep::set_jobs(jobs);
        assert_eq!(sweep::jobs(), jobs);
        let parallel = emit();
        assert!(
            serial == parallel,
            "sweep output diverged between 1 and {jobs} workers:\n\
             serial {} bytes, parallel {} bytes",
            serial.len(),
            parallel.len()
        );
    }
    sweep::set_jobs(0);
    // Sanity: the comparison compared something real.
    assert!(serial.len() > 1_000, "suspiciously small output");
}
