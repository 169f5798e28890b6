//! Sweep + injection A/B baseline emitter: measures (a) the parallel
//! sweep harness against its forced-serial reference path and (b) the
//! copy-on-write injection snapshot against the old materializing copy,
//! and emits the `BENCH_sweep.json` document.
//!
//! ```text
//! sweep_baseline [--json] [--out PATH] [--rounds N] [--quick]
//! ```
//!
//! Methodology (the interleaved pairing of `BENCH_eventqueue.json`): both
//! legs of every cell live in this one binary — the serial sweep path is
//! selected with `SPIN_JOBS=1` and the copying injection path survives as
//! `HostMemory::read_bytes` — so each round times A and B back to back,
//! alternating which goes first per round, and the reported cell is the
//! median across rounds. Interleaving cancels the clock drift a
//! single-vCPU machine shows across standalone runs.
//!
//! Every round also asserts the two legs produce identical checksums:
//! the sweep A/B doubles as a live serial-vs-parallel determinism check,
//! and the injection A/B proves the CoW snapshot returns the same bytes
//! the copy did.

use spin_core::config::NicKind;
use spin_experiments::{fig3, saturation};
use spin_hpu::memory::{HostMemory, HOST_PAGE};
use std::time::Instant;

/// FNV-1a over a byte stream (stable output digest).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}

// ------------------------------------------------------------ sweep cells

/// One serial-vs-parallel cell: a sweep run under a forced worker count.
struct SweepCell {
    name: String,
    /// Runs the sweep with `SPIN_JOBS` forced to `jobs`, returning a
    /// digest of the emitted JSON.
    runner: Box<dyn Fn(usize) -> u64>,
}

fn with_jobs(jobs: usize, f: impl FnOnce() -> u64) -> u64 {
    std::env::set_var("SPIN_JOBS", jobs.to_string());
    let out = f();
    std::env::remove_var("SPIN_JOBS");
    out
}

fn fig3_digest(quick: bool) -> u64 {
    let tables = [
        fig3::pingpong_table(NicKind::Integrated, quick),
        fig3::accumulate_table(quick),
    ];
    fnv1a(serde_json::to_string(&tables[..]).expect("json").as_bytes())
}

fn saturation_digest(quick: bool) -> u64 {
    let tables = saturation::saturation_tables(quick, 1);
    fnv1a(serde_json::to_string(&tables).expect("json").as_bytes())
}

// -------------------------------------------------------- injection cells

/// One copy-vs-CoW cell: the same packetization workload through the
/// pre-PR materializing copy (leg A: one `Bytes::copy_from_slice` of the
/// whole payload out of a flat buffer, exactly what `read_bytes` on the
/// old `Vec<u8>`-backed memory did) and the O(1) `read_slice` snapshot
/// (leg B).
struct InjectCell {
    name: String,
    msg_bytes: usize,
    msgs_per_iter: usize,
}

const MTU: usize = 4096;

/// Packetize `msg_bytes` starting at a deliberately page-misaligned
/// offset, folding a digest over every packet view. `cow` selects the
/// leg; `flat` mirrors `mem`'s contents contiguously so the copy leg
/// pays precisely the old single-memcpy cost.
fn inject_iter(mem: &HostMemory, flat: &[u8], msg_bytes: usize, msgs: usize, cow: bool) -> u64 {
    // One packetize-and-digest walk shared by both legs, so the digest
    // fold can never drift between them; only the packet-view producer
    // differs.
    let packetize = |packet_at: &dyn Fn(usize, usize) -> bytes::Bytes| {
        let mut acc = 0u64;
        let mut p = 0;
        while p < msg_bytes {
            let size = MTU.min(msg_bytes - p);
            let pkt = packet_at(p, size);
            acc = acc
                .rotate_left(1)
                .wrapping_add(u64::from(pkt[0]) ^ pkt.len() as u64);
            p += size;
        }
        acc
    };
    let mut acc = 0u64;
    for m in 0..msgs {
        // Offsets stride through the region and land off page boundaries
        // (worst case for the CoW leg: some packets straddle segments).
        let off = (m * (msg_bytes + 8192) + 100) % (mem.len() - msg_bytes);
        acc = acc.wrapping_add(if cow {
            let view = mem.read_slice(off, msg_bytes).expect("view");
            packetize(&|p, size| view.slice(p, size))
        } else {
            let full = bytes::Bytes::copy_from_slice(&flat[off..off + msg_bytes]);
            packetize(&|p, size| full.slice(p..p + size))
        });
    }
    acc
}

// ----------------------------------------------------------------- driver

struct Measured {
    name: String,
    a_label: &'static str,
    b_label: &'static str,
    a_median_ns: u64,
    b_median_ns: u64,
    check: u64,
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Interleaved paired rounds of two closures that must agree on a digest.
fn measure_pair(
    name: &str,
    a_label: &'static str,
    b_label: &'static str,
    rounds: u32,
    a: impl Fn() -> u64,
    b: impl Fn() -> u64,
) -> Measured {
    // Warm both legs (and check agreement once before timing).
    let wa = std::hint::black_box(a());
    let wb = std::hint::black_box(b());
    assert_eq!(wa, wb, "{name}: legs disagreed on the digest");
    let mut a_samples = Vec::new();
    let mut b_samples = Vec::new();
    let mut check = 0;
    for round in 0..rounds {
        let time_one = |f: &dyn Fn() -> u64| {
            let t0 = Instant::now();
            let c = std::hint::black_box(f());
            (t0.elapsed().as_nanos() as u64, c)
        };
        let ((a_ns, ca), (b_ns, cb)) = if round % 2 == 0 {
            let ra = time_one(&a);
            let rb = time_one(&b);
            (ra, rb)
        } else {
            let rb = time_one(&b);
            let ra = time_one(&a);
            (ra, rb)
        };
        assert_eq!(ca, cb, "{name}: digest diverged in round {round}");
        a_samples.push(a_ns);
        b_samples.push(b_ns);
        check = ca;
    }
    Measured {
        name: name.to_string(),
        a_label,
        b_label,
        a_median_ns: median(a_samples),
        b_median_ns: median(b_samples),
        check,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut out_path: Option<String> = None;
    let mut rounds: u32 = 7;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).expect("--out needs a path").clone());
            }
            "--rounds" => {
                i += 1;
                rounds = args.get(i).expect("--rounds needs N").parse().expect("N");
                assert!(rounds > 0, "--rounds must be at least 1");
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if quick {
        rounds = rounds.min(3);
    }

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // The parallel leg always fans out over at least 4 workers so the
    // harness machinery (cell decomposition, chunked threads, ordered
    // merge) is exercised even when the box is small; wall-clock gains
    // obviously need the cores to be real.
    let par_jobs = cores.max(4);

    // Sweep A/B: serial reference vs fanned-out harness.
    let sweep_cells = [
        SweepCell {
            name: format!(
                "sweep_fig3_pingpong+accumulate_{}",
                if quick { "quick" } else { "full" }
            ),
            runner: Box::new(move |jobs| with_jobs(jobs, || fig3_digest(quick))),
        },
        SweepCell {
            name: format!("sweep_saturation_{}", if quick { "quick" } else { "full" }),
            runner: Box::new(move |jobs| with_jobs(jobs, || saturation_digest(quick))),
        },
    ];
    let sweep_results: Vec<Measured> = sweep_cells
        .iter()
        .map(|c| {
            measure_pair(
                &c.name,
                "serial",
                "parallel",
                rounds,
                || (c.runner)(1),
                || (c.runner)(par_jobs),
            )
        })
        .collect();

    // Injection A/B: materializing copy vs CoW page snapshot. The memory
    // is pre-filled so pages are unique (no shared-zero shortcut) and the
    // send offsets are page-misaligned (CoW worst case).
    let mut mem = HostMemory::new(16 << 20);
    let flat: Vec<u8> = (0..mem.len()).map(|i| (i % 253) as u8).collect();
    mem.write(0, &flat).expect("fill");
    let inject_cells = [
        InjectCell {
            name: "inject_64KiB_x64".into(),
            msg_bytes: 64 * 1024,
            msgs_per_iter: 64,
        },
        InjectCell {
            name: "inject_1MiB_x16".into(),
            msg_bytes: 1 << 20,
            msgs_per_iter: 16,
        },
        InjectCell {
            name: "inject_4MiB_x8".into(),
            msg_bytes: 4 << 20,
            msgs_per_iter: 8,
        },
    ];
    let inject_results: Vec<Measured> = inject_cells
        .iter()
        .map(|c| {
            measure_pair(
                &c.name,
                "copy",
                "cow",
                rounds.max(5),
                || inject_iter(&mem, &flat, c.msg_bytes, c.msgs_per_iter, false),
                || inject_iter(&mem, &flat, c.msg_bytes, c.msgs_per_iter, true),
            )
        })
        .collect();

    let emit_cells = |doc: &mut String, cells: &[Measured], gain_label: &str| {
        for (i, m) in cells.iter().enumerate() {
            let gain = if m.b_median_ns == 0 {
                0.0
            } else {
                m.a_median_ns as f64 / m.b_median_ns as f64
            };
            doc.push_str(&format!(
                "    {{ \"name\": \"{}\", \"{}_median_ns\": {}, \"{}_median_ns\": {}, \"{}\": {:.2}, \"check\": {} }}{}\n",
                m.name,
                m.a_label,
                m.a_median_ns,
                m.b_label,
                m.b_median_ns,
                gain_label,
                gain,
                m.check,
                if i + 1 == cells.len() { "" } else { "," }
            ));
        }
    };

    if json || out_path.is_some() {
        let mut doc = String::from("{\n");
        doc.push_str(&format!(
            "  \"harness\": \"spin-bench sweep_baseline v1 (rounds={rounds}, median ns/iter)\",\n"
        ));
        doc.push_str(
            "  \"methodology\": \"Paired A/B on one machine, both legs in one binary: per round each cell runs leg A then leg B back to back, alternating order, interleaved for all rounds; each cell is the median across rounds (the BENCH_eventqueue.json methodology). sweep_* forces the harness worker count via SPIN_JOBS (1 = serial reference path) and digests the emitted JSON — every round asserts the serial and parallel digests are identical, so the A/B doubles as a determinism check. inject_* packetizes messages at page-misaligned offsets: leg A is one Bytes::copy_from_slice of the whole payload out of a flat contiguous mirror — exactly the single memcpy the pre-PR Vec-backed read_bytes paid — leg B takes the O(1) read_slice CoW snapshot of the paged HostMemory; digests over every packet are asserted identical. Reproduce with: cargo run --release -p spin-bench --bin sweep_baseline -- --json\",\n",
        );
        doc.push_str(&format!(
            "  \"environment\": {{ \"cores\": {cores}, \"parallel_jobs\": {par_jobs}, \"host_page_bytes\": {HOST_PAGE}, \"mtu\": {MTU} }},\n"
        ));
        doc.push_str(
            "  \"change\": \"parallel sweep harness (crates/experiments/src/sweep.rs: (point, replication, seed) cells fanned out over the vendored rayon with an order-preserving merge; SPIN_JOBS / --jobs selects workers) + copy-on-write paged HostMemory (HOST_PAGE-sized Arc pages, recorded under environment; injection snapshots a payload by bumping page refcounts instead of copying it)\",\n",
        );
        doc.push_str("  \"sweep_ab\": [\n");
        emit_cells(&mut doc, &sweep_results, "speedup_x");
        doc.push_str("  ],\n");
        doc.push_str("  \"inject_ab\": [\n");
        emit_cells(&mut doc, &inject_results, "speedup_x");
        doc.push_str("  ],\n");
        doc.push_str(
            "  \"note\": \"sweep_* wall-clock gain scales with real cores: on a 1-vCPU box the parallel leg timeshares and the speedup reads ~1.0x — the determinism assertion (identical digests every round) is the machine-independent result there, and tests/sweep_determinism.rs + the CI SPIN_JOBS=4 step enforce it on multi-core runners. inject_* gains are copy-bandwidth wins and hold on any machine.\",\n",
        );
        doc.push_str(
            "  \"equivalence\": \"every round asserts leg digests are equal (sweep: FNV over the emitted JSON; inject: FNV fold over every packet view); tests/sweep_determinism.rs pins byte-identical SPIN_JOBS=1 vs 4 output and crates/hpu/tests/memory_model.rs proves the CoW memory against a flat Vec<u8> model\"\n",
        );
        doc.push_str("}\n");
        if let Some(path) = &out_path {
            std::fs::write(path, &doc).expect("write baseline json");
            eprintln!("wrote {path}");
        }
        if json {
            print!("{doc}");
        }
    } else {
        println!(
            "{:<44} {:>14} {:>14} {:>9}",
            "bench", "A_ns", "B_ns", "speedup"
        );
        for m in sweep_results.iter().chain(&inject_results) {
            println!(
                "{:<44} {:>14} {:>14} {:>8.2}x",
                format!("{} ({}/{})", m.name, m.a_label, m.b_label),
                m.a_median_ns,
                m.b_median_ns,
                m.a_median_ns as f64 / m.b_median_ns.max(1) as f64
            );
        }
    }
}
