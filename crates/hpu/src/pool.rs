//! The HPU core pool and execution-context accounting.
//!
//! §4.2 models each NIC with four 2.5 GHz cores; §3.2 specifies what happens
//! when a packet matches but "no HPU execution contexts are available": the
//! NIC triggers flow control for the portal table entry and drops packets.
//! We model contexts as a bound on the per-core backlog: a core can have at
//! most `contexts_per_hpu` handler executions outstanding (running +
//! queued); admission fails when every core is saturated at the packet's
//! arrival time.
//!
//! Scheduling is earliest-available-core with deterministic tie-breaks, and
//! a handler never migrates between cores (§3.2.2).

use spin_sim::resource::PooledResource;
use spin_sim::time::Time;

/// HPU pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct HpuConfig {
    /// Number of HPU cores (`PTL_NUM_HPUS`). Paper default: 4.
    pub cores: usize,
    /// Execution contexts per core: how many handler executions may be
    /// outstanding on one core before admission fails (massive
    /// multithreading, §4.1). The flow-control tests use small values.
    pub contexts_per_hpu: usize,
    /// Model the §4.1 "deschedule while waiting for DMA" optimization: when
    /// true, blocking-DMA wait time does not occupy the core (another
    /// context runs); when false the core stalls. Ablated in the benches.
    pub yield_on_dma: bool,
}

impl Default for HpuConfig {
    fn default() -> Self {
        HpuConfig {
            cores: 4,
            // Generous context depth per §4.1: buffering is cheap ("we
            // expect that this can easily be made available and more space
            // can be added to hide more latency") and Little's law sizes it
            // for multi-microsecond handler latencies at line rate.
            contexts_per_hpu: 512,
            // §4.1's intended microarchitecture: "if handler threads wait
            // for DMA accesses, they could be descheduled to make room for
            // different threads" — without this, blocking DMA stalls turn
            // every DMA-touching handler chain HPU-bound (ablated in the
            // bench suite).
            yield_on_dma: true,
        }
    }
}

impl HpuConfig {
    /// The paper's 4-core NIC.
    pub fn paper() -> Self {
        Self::default()
    }
}

/// One admitted handler execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpuSlot {
    /// Core the handler is pinned to (`PTL_MY_HPU`).
    pub core: usize,
    /// When the handler starts executing.
    pub start: Time,
}

/// The HPU core pool.
#[derive(Debug, Clone)]
pub struct HpuPool {
    config: HpuConfig,
    cores: PooledResource,
    /// Completion times of outstanding executions per core (pruned lazily).
    outstanding: Vec<Vec<Time>>,
    admitted: u64,
    rejected: u64,
}

impl HpuPool {
    /// A pool per the config.
    pub fn new(config: HpuConfig) -> Self {
        HpuPool {
            cores: PooledResource::new(config.cores),
            outstanding: vec![Vec::new(); config.cores],
            config,
            admitted: 0,
            rejected: 0,
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &HpuConfig {
        &self.config
    }

    /// Number of cores (`PTL_NUM_HPUS`).
    pub fn num_hpus(&self) -> usize {
        self.config.cores
    }

    /// Try to admit a handler execution arriving at `now`.
    ///
    /// Returns the core it would be pinned to, or `None` when every core
    /// already has `contexts_per_hpu` outstanding executions — the §3.2
    /// flow-control condition.
    pub fn admit(&mut self, now: Time) -> Option<usize> {
        // Prune completed executions.
        for core in &mut self.outstanding {
            core.retain(|&end| end > now);
        }
        // Earliest-available core among those with a free context.
        let mut best: Option<usize> = None;
        for idx in 0..self.config.cores {
            if self.outstanding[idx].len() >= self.config.contexts_per_hpu {
                continue;
            }
            match best {
                None => best = Some(idx),
                Some(b) => {
                    if self.cores.server_next_free(idx) < self.cores.server_next_free(b) {
                        best = Some(idx);
                    }
                }
            }
        }
        if best.is_none() {
            self.rejected += 1;
        }
        best
    }

    /// Whether any core has a free execution context at `now`, without
    /// admitting anything: the receiver-side drain check uses this to
    /// decide when a flow-controlled portal table entry may be re-enabled.
    /// Prunes completed executions (deterministic, time-driven).
    pub fn has_free_context(&mut self, now: Time) -> bool {
        for core in &mut self.outstanding {
            core.retain(|&end| end > now);
        }
        self.outstanding
            .iter()
            .any(|c| c.len() < self.config.contexts_per_hpu)
    }

    /// Reserve core `core` for a handler arriving at `now` that occupies the
    /// core for `occupancy` and completes (including any non-occupying DMA
    /// waits) at start + `duration`. Returns the slot actually granted.
    ///
    /// `occupancy <= duration`; they differ when `yield_on_dma` is on.
    pub fn schedule(&mut self, core: usize, now: Time, occupancy: Time, duration: Time) -> HpuSlot {
        debug_assert!(occupancy <= duration);
        let (start, _end) = self.cores.reserve_on(core, now, occupancy);
        self.outstanding[core].push(start + duration);
        self.admitted += 1;
        HpuSlot { core, start }
    }

    /// When the given core next becomes free.
    pub fn core_next_free(&self, core: usize) -> Time {
        self.cores.server_next_free(core)
    }

    /// Handler executions admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Admissions rejected (flow-control triggers).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Aggregate busy time (utilization reporting).
    pub fn busy_total(&self) -> Time {
        self.cores.busy_total()
    }

    /// Mean core utilization over `makespan`.
    pub fn utilization(&self, makespan: Time) -> f64 {
        self.cores.utilization(makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cores: usize, ctx: usize) -> HpuPool {
        HpuPool::new(HpuConfig {
            cores,
            contexts_per_hpu: ctx,
            yield_on_dma: false,
        })
    }

    #[test]
    fn packets_spread_across_cores() {
        let mut p = pool(4, 8);
        let d = Time::from_ns(100);
        let mut cores = Vec::new();
        for _ in 0..4 {
            let c = p.admit(Time::ZERO).unwrap();
            let slot = p.schedule(c, Time::ZERO, d, d);
            assert_eq!(slot.start, Time::ZERO);
            cores.push(c);
        }
        cores.sort_unstable();
        assert_eq!(cores, vec![0, 1, 2, 3]);
        // Fifth queues on core 0.
        let c = p.admit(Time::ZERO).unwrap();
        let slot = p.schedule(c, Time::ZERO, d, d);
        assert_eq!(slot.core, 0);
        assert_eq!(slot.start, d);
    }

    #[test]
    fn context_exhaustion_triggers_rejection() {
        let mut p = pool(2, 2);
        let d = Time::from_us(10);
        for _ in 0..4 {
            let c = p.admit(Time::ZERO).unwrap();
            p.schedule(c, Time::ZERO, d, d);
        }
        // All 2*2 contexts busy until 10/20 us.
        assert!(p.admit(Time::ZERO).is_none());
        assert_eq!(p.rejected(), 1);
        // Once one execution completes, admission works again.
        assert!(p.admit(Time::from_us(10) + Time::from_ps(1)).is_some());
    }

    #[test]
    fn duration_vs_occupancy() {
        // With yield-on-DMA the core frees before the handler completes.
        let mut p = pool(1, 4);
        let occupancy = Time::from_ns(20);
        let duration = Time::from_ns(500); // long DMA wait
        let c = p.admit(Time::ZERO).unwrap();
        p.schedule(c, Time::ZERO, occupancy, duration);
        // Core is free at 20 ns even though the handler completes at 500 ns.
        assert_eq!(p.core_next_free(0), occupancy);
        // But the context stays occupied until 500 ns.
        let c2 = p.admit(Time::from_ns(30)).unwrap();
        p.schedule(c2, Time::from_ns(30), occupancy, duration);
        let c3 = p.admit(Time::from_ns(60)).unwrap();
        p.schedule(c3, Time::from_ns(60), occupancy, duration);
        let c4 = p.admit(Time::from_ns(90)).unwrap();
        p.schedule(c4, Time::from_ns(90), occupancy, duration);
        assert!(p.admit(Time::from_ns(120)).is_none(), "4 contexts held");
    }

    #[test]
    fn utilization_accounting() {
        let mut p = pool(2, 8);
        for _ in 0..2 {
            let c = p.admit(Time::ZERO).unwrap();
            p.schedule(c, Time::ZERO, Time::from_ns(50), Time::from_ns(50));
        }
        assert!((p.utilization(Time::from_ns(100)) - 0.5).abs() < 1e-9);
        assert_eq!(p.admitted(), 2);
    }
}
