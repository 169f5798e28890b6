//! The simulator benchmark runner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload in a closed loop of one (one simulation
//! at a time, the next starting when the last ends) for `--seconds` and
//! reports the end-to-end metrics. `--trace 1` spends the same time on the
//! per-layer view: it times each crate's public entry points from outside
//! and reads each layer's work counts from the `Report`. Nothing inside
//! the simulator is instrumented. Every run is gated; the last stdout line
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use spin_core::world::{ShardMode, World};
use spin_experiments::sharding::delivery_digest;
use spin_hpu::memory::HostMemory;
use spin_perfbench::{op, total, Engine, Op, Workload};
use spin_scenario::{digest, Scenario, ScenarioCompiler};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Each of these changes the program being measured, so the runner
/// refuses to start under any of them.
const REFUSED_ENV: [&str; 5] = [
    "SPIN_SHARDS",
    "SPIN_SHARD_MODE",
    "SPIN_BATCH_DISPATCH",
    "SPIN_EVENT_QUEUE",
    "SPIN_JOBS",
];
/// Fewest timed samples a phase takes, however long they last.
const MIN_SAMPLES: usize = 3;
/// Back-to-back set-ups `setup_s` is taken from.
const SETUP_REPS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("error: {var} is set; it changes the program being measured, so unset it");
        return ExitCode::from(2);
    }
    keep_freed_memory();
    let w = args.workload;
    let json = w.scenario_json(args.seed);
    println!(
        "workload {}: engine {}, closed loop of one, {} s, trace {}",
        w.name(),
        Engine::Serial.label(),
        args.seconds,
        u8::from(args.trace)
    );
    println!("seed {}: {}", args.seed, w.seed_effect(args.seed));
    let spin_env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SPIN_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "provenance: commit {}, nproc {}, SPIN_* [{}]",
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        spin_env.join(" ")
    );

    let mut bench = Bench::new(w, json);
    let budget = Duration::from_secs_f64(args.seconds);
    let metrics = match bench.warm_up() {
        None => Vec::new(),
        Some(warm) if args.trace => bench.traced(warm, budget),
        Some(_) => bench.untraced(budget),
    };
    for line in &bench.errors {
        eprintln!("failed op: {line}");
    }
    let correct = bench.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    for m in &metrics {
        println!("{:<36} {} {}  ({})", m.name, m.value, m.unit, m.note);
    }
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.attempted,
        bench.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// One invocation: the workload, its document, and the tally of ops.
struct Bench {
    workload: Workload,
    json: String,
    /// Digest every serial and exact sharded run must reproduce: the
    /// warm-up run's.
    reference: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Bench {
    fn new(workload: Workload, json: String) -> Bench {
        Bench {
            workload,
            json,
            reference: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Run one op on `engine` and count it; a panic, a failed gate or a
    /// digest other than `expect` fails it.
    fn checked(&mut self, engine: Engine, expect: Option<u64>) -> Option<Op> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| op(self.workload, &self.json, engine)))
            .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_text(&panic))))
            .and_then(|o| match expect {
                Some(want) if digest(&o.out.report) != want => Err(format!(
                    "{} digest {:#x} != reference {want:#x}",
                    engine.label(),
                    digest(&o.out.report)
                )),
                _ => Ok(o),
            });
        result.map_err(|e| self.fail(e)).ok()
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// One untimed op that pins the reference digest and lets lazy set-up
    /// and caches settle before timing.
    fn warm_up(&mut self) -> Option<Op> {
        let warm = self.checked(Engine::Serial, None)?;
        self.reference = digest(&warm.out.report);
        Some(warm)
    }

    /// Closed-loop ops for at least `budget`, as `(setup, run)` seconds.
    fn samples(&mut self, budget: Duration) -> Vec<(f64, f64)> {
        let start = Instant::now();
        let mut ops = Vec::new();
        while start.elapsed() < budget || ops.len() < MIN_SAMPLES {
            if let Some(o) = self.checked(Engine::Serial, Some(self.reference)) {
                ops.push((o.setup.as_secs_f64(), o.run.as_secs_f64()));
            }
            if self.attempted > 4 && self.failed * 2 > self.attempted {
                break;
            }
        }
        ops
    }

    /// Set the scenario up `SETUP_REPS` times back to back. The first
    /// set-up after a run pays for the allocator sorting out that run's
    /// freed memory, which doubles it and varies from process to process;
    /// back to back, parse and compile are all that is timed.
    fn setups(&self) -> Vec<f64> {
        (0..SETUP_REPS)
            .map(|_| {
                let (t, builder) = timed(|| {
                    ScenarioCompiler::new(Scenario::from_json(&self.json).expect("parsed once"))
                        .compile()
                        .expect("compiled once")
                });
                drop(builder);
                t
            })
            .collect()
    }

    fn untraced(&mut self, budget: Duration) -> Vec<Metric> {
        let setup = self.setups();
        let run: Vec<f64> = self.samples(budget).iter().map(|o| o.1).collect();
        let spread = |v: &[f64]| {
            let n = v.len();
            format!(
                "fastest of {n}; median {}, p90 {} with {} beyond it",
                median(v),
                quantile(v, 0.9),
                n - (n * 9).div_ceil(10)
            )
        };
        let rss = peak_rss_mib();
        vec![
            metric("setup_s", fastest(&setup), "s", spread(&setup)),
            metric("run_s", fastest(&run), "s", spread(&run)),
            metric(
                "peak_rss_mib",
                rss.unwrap_or(f64::NAN),
                "MiB",
                "peak resident memory of this process, which runs only this workload",
            ),
            metric(
                "success_rate",
                (self.attempted - self.failed) as f64 / self.attempted as f64,
                "ratio",
                format!(
                    "1 - error_rate; {} of {} ops failed",
                    self.failed, self.attempted
                ),
            ),
        ]
    }

    /// The per-layer view. Half the budget runs plain ops, the baseline of
    /// the tracing overhead, and half runs traced ops; `incast_1k` gives a
    /// third of it instead to comparing the serial and both sharded
    /// engines on its scenario.
    fn traced(&mut self, warm: Op, budget: Duration) -> Vec<Metric> {
        let trio = self.workload == Workload::Incast1k;
        let share = budget / if trio { 3 } else { 2 };
        let Op { out, completed, .. } = warm;
        let (report, config) = (out.report, out.world.config.clone());
        let n = out.world.nodes.len() as u32;
        drop(out.world);

        let plain: Vec<f64> = self.samples(share).iter().map(|o| o.0 + o.1).collect();

        // A traced op is a plain op followed by standalone calls into the
        // layers the run builds on, each timed and dropped on its own.
        let mut spans: Vec<[f64; 7]> = Vec::new();
        let start = Instant::now();
        while start.elapsed() < share || spans.len() < MIN_SAMPLES {
            let Some(o) = self.checked(Engine::Serial, Some(self.reference)) else {
                break;
            };
            drop(o.out);
            let (parse, scenario) = timed(|| Scenario::from_json(&self.json));
            let compiler = ScenarioCompiler::new(scenario.expect("parsed once already"));
            let (compile, _) = timed(|| compiler.compile().expect("compiled once already"));
            let (net, network) = timed(|| black_box(config.build_network(n)));
            drop(network);
            let mem = config.host.mem_size;
            let (host, pages) =
                timed(|| black_box((0..n).map(|_| HostMemory::new(mem)).collect::<Vec<_>>()));
            drop(pages);
            let cfg = config.clone();
            let (world, w) = timed(|| black_box(World::new(cfg, n)));
            drop(w);
            let run = o.run.as_secs_f64();
            let wall = o.setup.as_secs_f64() + run + net + host + world;
            spans.push([parse, compile, net, host, world, run, wall]);
        }
        let span = |i: usize| fastest(&spans.iter().map(|s| s[i]).collect::<Vec<_>>());
        let [parse, compile, net, host, world, run, wall] = std::array::from_fn(span);

        let mut engines: Vec<[f64; 3]> = Vec::new();
        let start = Instant::now();
        while trio && (start.elapsed() < share || engines.len() < MIN_SAMPLES) {
            match self.engine_trio() {
                Some(t) => engines.push(t),
                None => break,
            }
        }
        let engine = |i: usize| fastest(&engines.iter().map(|s| s[i]).collect::<Vec<_>>());
        let [serial, exact, relaxed] = if trio {
            std::array::from_fn(engine)
        } else {
            [0.0; 3]
        };

        let r = &report;
        let event_loop = run - world;
        let retransmits = total(r, |s| s.recovery_retransmits);
        let (k, e) = (spans.len(), engines.len());
        let of_k = format!("fastest of {k} traced ops");
        let of_e = if trio {
            format!("fastest of {e} runs per engine, 2 shards")
        } else {
            "not run: the engines are compared on incast_1k only".to_string()
        };
        let speedup = |t: f64| if trio { serial / t } else { 0.0 };
        let mut metrics = vec![
            metric("scenario.parse_s", parse, "s", &of_k),
            metric("scenario.compile_s", compile, "s", &of_k),
            metric("net.build_s", net, "s", format!("{of_k}; {n} nodes")),
            metric(
                "hpu.host_memory_s",
                host,
                "s",
                format!("{of_k}; {n} x {mem} B", mem = config.host.mem_size),
            ),
            metric("core.world_new_s", world, "s", &of_k),
            metric(
                "core.world_new_ns_per_node",
                world * 1e9 / f64::from(n),
                "ns",
                &of_k,
            ),
            metric(
                "core.event_loop_s",
                event_loop,
                "s",
                "run_s of traced ops - core.world_new_s",
            ),
            metric(
                "sim.ns_per_event",
                event_loop * 1e9 / r.events_executed as f64,
                "ns",
                "event loop / events",
            ),
            metric(
                "net.ns_per_packet",
                event_loop * 1e9 / r.net_packets as f64,
                "ns",
                "event loop / packets",
            ),
            metric(
                "hpu.busy_ns",
                r.node_stats.iter().map(|s| s.hpu_busy_ns).sum(),
                "ns",
                "simulated, summed over nodes",
            ),
            metric(
                "core.recovery.useful_ratio",
                completed as f64 / (completed + retransmits) as f64,
                "ratio",
                format!("{completed} completed / (completed + retransmits)"),
            ),
            metric("core.shard.serial_s", serial, "s", &of_e),
            metric("core.shard.exact_s", exact, "s", &of_e),
            metric("core.shard.relaxed_s", relaxed, "s", &of_e),
            metric(
                "core.shard.exact_speedup",
                speedup(exact),
                "ratio",
                "serial_s / exact_s",
            ),
            metric(
                "core.shard.relaxed_speedup",
                speedup(relaxed),
                "ratio",
                "serial_s / relaxed_s",
            ),
            metric(
                "trace.overhead_frac",
                wall / fastest(&plain) - 1.0,
                "ratio",
                format!(
                    "traced op ({k}) over plain op ({}) wall time, minus 1",
                    plain.len()
                ),
            ),
        ];
        // Work counts of the reference run, summed over nodes.
        let counts: [(&'static str, u64, &'static str); 15] = [
            ("sim.events", r.events_executed, "count"),
            ("net.packets", r.net_packets, "count"),
            ("net.bytes", r.net_bytes, "B"),
            (
                "hpu.handler_runs",
                total(r, |s| {
                    s.handler_runs.0 + s.handler_runs.1 + s.handler_runs.2
                }),
                "count",
            ),
            (
                "hpu.dma_ops",
                total(r, |s| s.dma_reads + s.dma_writes),
                "count",
            ),
            ("hpu.dma_bytes", total(r, |s| s.dma_bytes), "B"),
            ("hpu.rejected", total(r, |s| s.hpu_rejected), "count"),
            (
                "portals.flow_control_events",
                total(r, |s| s.flow_control_events),
                "count",
            ),
            (
                "portals.packets_dropped",
                total(r, |s| s.packets_dropped),
                "count",
            ),
            (
                "core.recovery.nacks",
                total(r, |s| s.recovery_nacks),
                "count",
            ),
            ("core.recovery.retransmits", retransmits, "count"),
            (
                "core.recovery.retransmitted_bytes",
                total(r, |s| s.retransmitted_bytes),
                "B",
            ),
            (
                "core.recovery.abandoned",
                total(r, |s| s.recovery_abandoned),
                "count",
            ),
            (
                "core.fault.dead_link_drops",
                total(r, |s| s.drops_on_dead_link),
                "count",
            ),
            ("core.fault.downtime_ns", r.links_downed_ns, "ns"),
        ];
        metrics
            .extend(counts.map(|(name, v, unit)| metric(name, v as f64, unit, "from the report")));
        metrics
    }

    /// Time one run each on the serial, exact and relaxed engines. Exact
    /// must reproduce the serial digest, relaxed its delivery digest.
    fn engine_trio(&mut self) -> Option<[f64; 3]> {
        let serial = self.checked(Engine::Serial, Some(self.reference))?;
        let delivered = delivery_digest(&serial.out.report);
        let serial_s = serial.run.as_secs_f64();
        drop(serial);
        let exact = self.checked(Engine::Sharded(ShardMode::Exact), Some(self.reference))?;
        let exact_s = exact.run.as_secs_f64();
        drop(exact);
        let relaxed = self.checked(Engine::Sharded(ShardMode::Relaxed), None)?;
        if delivery_digest(&relaxed.out.report) != delivered {
            self.fail("relaxed delivery digest differs from serial".to_string());
            return None;
        }
        Some([serial_s, exact_s, relaxed.run.as_secs_f64()])
    }
}

/// Keep memory the simulator frees mapped in this process, so a run reuses
/// the pages the last one touched. Otherwise glibc hands the large
/// per-world allocations back to the kernel after each run and the next
/// run faults them in again: about a third of an `incast_1k` run, and on a
/// shared virtual machine the part whose cost swings most from minute to
/// minute. `peak_rss_mib` still reports the memory a run needs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: mallopt only adjusts glibc allocator parameters; it is
    // called before any thread is spawned, with documented parameters.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        mallopt(M_MMAP_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// The estimator every timing reports. Each op repeats the identical
/// simulation (the digest check proves it), so the time one op takes over
/// the fastest is the machine's, not the program's: other tenants of a
/// shared host slow whole stretches of a run by up to 70%, while the
/// fastest op moves by a few percent from run to run.
fn fastest(v: &[f64]) -> f64 {
    quantile(v, 0.0)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v`; NaN when empty.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({name} unresolved)"))
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}
