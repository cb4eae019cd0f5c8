//! The in-situ data-analytics workload (Hadoop 2.7.1 running HiBench-like
//! jobs, including pagerank).
//!
//! The paper treats Hadoop purely as a *competing noise source* ("we do
//! not focus on the in-situ workload itself", Sec. IV-A), so the model
//! emits exactly what perturbs the simulation:
//!
//! * **Task waves** — map/shuffle/reduce containers: CPU-bound busy
//!   intervals on whichever cores the scheduler may use, oversubscribed
//!   (YARN typically runs more containers than cores);
//! * **GC pauses** — short full-CPU bursts on all of that JVM's cores;
//! * **Daemon/IRQ pressure** — NodeManager heartbeats, HDFS I/O and GbE
//!   traffic raise kernel-thread activity node-wide (the node runtime
//!   applies it to Linux's daemons and IRQ sources);
//! * **Cache pollution** — streaming shuffles pollute the LLC of the
//!   socket the tasks run on and consume memory bandwidth node-wide.

use hwmodel::cpu::CoreId;
use simcore::{Cycles, StreamRng};

/// One competing-load interval to register with the Linux occupancy map.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoadInterval {
    /// Core the container threads occupy.
    pub core: CoreId,
    /// Start instant.
    pub start: Cycles,
    /// End instant.
    pub end: Cycles,
    /// Number of runnable threads it contributes.
    pub tasks: u32,
}

/// Everything the Hadoop job inflicts on a node.
#[derive(Clone, Debug)]
pub struct HadoopLoad {
    /// Busy intervals for the CFS contention model.
    pub intervals: Vec<LoadInterval>,
    /// LLC pollution (0..1) on sockets hosting Hadoop tasks (applies
    /// during busy phases).
    pub same_socket_pollution: f64,
    /// Memory/QPI bandwidth pressure (0..1) felt by the other socket
    /// (applies during busy phases).
    pub cross_socket_pollution: f64,
    /// The job's busy phases (map/shuffle waves). Interference — task
    /// contention, IRQ pressure, cache pollution — only exists inside
    /// these windows, which is why *when* a measurement runs relative to
    /// the job's phases dominates run-to-run variation (the paper's
    /// Fig. 7/9 effect).
    pub busy_phases: Vec<(Cycles, Cycles)>,
}

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct HadoopParams {
    /// Container waves per second of simulated time.
    pub wave_rate: f64,
    /// Containers per wave (YARN oversubscription: more than cores).
    pub containers_per_wave: u32,
    /// Mean container burst length.
    pub burst_mean: Cycles,
    /// GC pause rate per second (stop-the-world, all container cores).
    pub gc_rate: f64,
    /// Mean GC pause length.
    pub gc_mean: Cycles,
    /// Shuffle-storm rate per second: brief deep oversubscription of one
    /// core (a wave of mapper outputs landing at once). This is what
    /// drives the worst-case ~16x FWQ samples of Fig. 5c.
    pub storm_rate: f64,
    /// Runnable threads piled onto each storm core.
    pub storm_tasks: u32,
    /// Mean storm length.
    pub storm_mean: Cycles,
    /// Number of cores hit by one storm (shuffle fan-in).
    pub storm_fanin: u32,
    /// Mean busy-phase length (a map/shuffle wave of the job).
    pub phase_busy_mean: Cycles,
    /// Mean quiet-phase length (barrier/disk-bound stretches).
    pub phase_quiet_mean: Cycles,
}

impl Default for HadoopParams {
    fn default() -> Self {
        HadoopParams {
            wave_rate: 5.0,
            containers_per_wave: 32,
            burst_mean: Cycles::from_ms(300),
            gc_rate: 0.8,
            gc_mean: Cycles::from_ms(40),
            storm_rate: 1.2,
            storm_tasks: 15,
            storm_mean: Cycles::from_us(300),
            storm_fanin: 4,
            phase_busy_mean: Cycles::from_secs(18),
            phase_quiet_mean: Cycles::from_secs(22),
        }
    }
}

/// Generate the job's busy-phase schedule. The Hadoop job is
/// *cluster-wide*: all node managers run the same map/shuffle waves, so
/// one schedule is shared by every node of a run — that correlation is
/// what makes run-to-run variation large (an unlucky run overlaps a map
/// wave on every node at once).
pub fn generate_phases(
    params: &HadoopParams,
    duration: Cycles,
    rng: &StreamRng,
) -> Vec<(Cycles, Cycles)> {
    let mut phases: Vec<(Cycles, Cycles)> = Vec::new();
    let mut pr = rng.stream("phases", 0);
    // Random phase alignment: the job is already mid-flight when the
    // HPC measurement starts.
    let mut t = -pr.range_f64(0.0, params.phase_busy_mean.as_secs_f64()
        + params.phase_quiet_mean.as_secs_f64());
    let dur_s = duration.as_secs_f64();
    let mut busy = pr.chance(0.45);
    while t < dur_s {
        let len = if busy {
            pr.exp_mean(params.phase_busy_mean.as_secs_f64())
        } else {
            pr.exp_mean(params.phase_quiet_mean.as_secs_f64())
        };
        if busy {
            let s0 = t.max(0.0);
            let e0 = (t + len).min(dur_s);
            if e0 > s0 {
                phases.push((
                    Cycles((s0 * simcore::time::DEFAULT_FREQ_HZ as f64) as u64),
                    Cycles((e0 * simcore::time::DEFAULT_FREQ_HZ as f64) as u64),
                ));
            }
        }
        t += len;
        busy = !busy;
    }
    phases
}

/// Generate the load a Hadoop node-manager inflicts over `[0, duration)`
/// for a given cluster-wide phase schedule, with its containers
/// schedulable on `allowed_cores` (the crucial knob: under cgroup-only
/// isolation this includes the HPC cores; with `isolcpus` or McKernel it
/// does not).
pub fn generate_with_phases(
    params: &HadoopParams,
    allowed_cores: &[CoreId],
    duration: Cycles,
    phases: Vec<(Cycles, Cycles)>,
    rng: &StreamRng,
) -> HadoopLoad {
    assert!(!allowed_cores.is_empty(), "Hadoop needs somewhere to run");
    let in_phase = |t: f64| {
        let c = (t * simcore::time::DEFAULT_FREQ_HZ as f64) as u64;
        phases.iter().any(|&(a, b)| a.raw() <= c && c < b.raw())
    };

    let mut intervals = Vec::new();
    let mut r = rng.stream("hadoop", 0);
    let dur_s = duration.as_secs_f64();

    // Container waves (only inside busy phases).
    let mut t = 0.0f64;
    let mut wave = 0u64;
    while t < dur_s {
        t += r.exp_mean(1.0 / params.wave_rate);
        if t >= dur_s {
            break;
        }
        wave += 1;
        if !in_phase(t) {
            continue;
        }
        let wave_start = Cycles((t * simcore::time::DEFAULT_FREQ_HZ as f64) as u64);
        let mut wr = rng.stream("wave", wave);
        for _ in 0..params.containers_per_wave {
            let core = allowed_cores
                [wr.range_u64(0, allowed_cores.len() as u64) as usize];
            let len = Cycles(
                (wr.exp_mean(params.burst_mean.raw() as f64) as u64).max(1_000_000),
            );
            let jitter = Cycles(wr.range_u64(0, params.burst_mean.raw() / 2));
            let start = wave_start + jitter;
            let end = (start + len).min(duration);
            if start < end {
                intervals.push(LoadInterval {
                    core,
                    start,
                    end,
                    tasks: 1,
                });
            }
        }
    }
    // GC pauses (busy phases only).
    let mut gt = 0.0f64;
    let mut gc = 0u64;
    while gt < dur_s {
        gt += r.exp_mean(1.0 / params.gc_rate);
        if gt >= dur_s {
            break;
        }
        gc += 1;
        if !in_phase(gt) {
            continue;
        }
        let mut gr = rng.stream("gc", gc);
        let start = Cycles((gt * simcore::time::DEFAULT_FREQ_HZ as f64) as u64);
        let len = Cycles((gr.exp_mean(params.gc_mean.raw() as f64) as u64).max(100_000));
        let end = (start + len).min(duration);
        if start < end {
            for &core in allowed_cores {
                intervals.push(LoadInterval {
                    core,
                    start,
                    end,
                    tasks: 1,
                });
            }
        }
    }
    // Shuffle storms (busy phases only).
    let mut st = 0.0f64;
    let mut storm = 0u64;
    while st < dur_s {
        st += r.exp_mean(1.0 / params.storm_rate);
        if st >= dur_s {
            break;
        }
        storm += 1;
        if !in_phase(st) {
            continue;
        }
        let mut sr = rng.stream("storm", storm);
        let start = Cycles((st * simcore::time::DEFAULT_FREQ_HZ as f64) as u64);
        let len = Cycles((sr.exp_mean(params.storm_mean.raw() as f64) as u64).max(150_000));
        let end = (start + len).min(duration);
        for _ in 0..params.storm_fanin {
            let core = allowed_cores[sr.range_u64(0, allowed_cores.len() as u64) as usize];
            if start < end {
                intervals.push(LoadInterval {
                    core,
                    start,
                    end,
                    tasks: params.storm_tasks,
                });
            }
        }
    }
    HadoopLoad {
        intervals,
        same_socket_pollution: 0.8,
        cross_socket_pollution: 0.65,
        busy_phases: phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cores(range: std::ops::Range<u16>) -> Vec<CoreId> {
        range.map(CoreId).collect()
    }

    /// One node's load the way a node builds it: the cluster-wide phase
    /// schedule from one stream, the node's containers from another.
    fn generate(allowed_cores: &[CoreId], duration: Cycles, seed: u64) -> HadoopLoad {
        let params = HadoopParams::default();
        let rng = StreamRng::root(seed);
        let phases = generate_phases(&params, duration, &rng.stream("hadoop-phases", 0));
        generate_with_phases(&params, allowed_cores, duration, phases, &rng.stream("hadoop", 0))
    }

    #[test]
    fn generates_substantial_load_in_busy_phases() {
        let dur = Cycles::from_secs(200);
        let load = generate(&cores(0..10), dur, 3);
        assert!(load.intervals.len() > 100, "{}", load.intervals.len());
        assert!(!load.busy_phases.is_empty());
        // All intervals in range, on allowed cores, starting inside a
        // busy phase.
        for iv in &load.intervals {
            assert!(iv.core.0 < 10);
            assert!(iv.start < iv.end);
            assert!(iv.end <= dur);
            // Container jitter may push a burst slightly past its phase
            // boundary; starts must still be anchored to a phase.
            let slack = Cycles::from_ms(200); // >= burst jitter
            assert!(
                load.busy_phases
                    .iter()
                    .any(|&(a, b)| a <= iv.start && iv.start < b + slack),
                "interval outside phases"
            );
        }
        // Phases cover a nontrivial but partial fraction of the run.
        let covered: u64 = load.busy_phases.iter().map(|&(a, b)| (b - a).raw()).sum();
        let frac = covered as f64 / dur.raw() as f64;
        assert!((0.1..0.9).contains(&frac), "phase coverage {frac}");
    }

    #[test]
    fn phase_layout_varies_by_seed() {
        let dur = Cycles::from_secs(100);
        let a = generate(&cores(0..10), dur, 1);
        let b = generate(&cores(0..10), dur, 2);
        assert_ne!(a.busy_phases, b.busy_phases);
    }

    #[test]
    fn oversubscription_piles_tasks_on_cores() {
        // Few cores, many containers.
        let load = generate(&cores(0..4), Cycles::from_secs(120), 7);
        // Some instant must see >= 3 concurrent tasks on one core.
        let mut max_overlap = 0u32;
        for iv in &load.intervals {
            let overlap: u32 = load
                .intervals
                .iter()
                .filter(|o| o.core == iv.core && o.start <= iv.start && iv.start < o.end)
                .map(|o| o.tasks)
                .sum();
            max_overlap = max_overlap.max(overlap);
        }
        assert!(max_overlap >= 3, "max overlap {max_overlap}");
    }

    #[test]
    fn cgroup_confinement_respects_allowed_cores() {
        // Hadoop confined to NUMA 0 (cores 0..10) never touches 10..20.
        let load = generate(&cores(0..10), Cycles::from_secs(120), 9);
        assert!(load.intervals.iter().all(|iv| iv.core.0 < 10));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&cores(0..10), Cycles::from_secs(60), 11);
        let b = generate(&cores(0..10), Cycles::from_secs(60), 11);
        assert_eq!(a.intervals, b.intervals);
        let c = generate(&cores(0..10), Cycles::from_secs(60), 12);
        assert_ne!(a.intervals, c.intervals);
    }
}
