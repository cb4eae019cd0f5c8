//! Execute application work on a Linux core.
//!
//! Composes the three noise mechanisms — timer ticks, kernel daemons, and
//! CFS timeslicing against competing tasks — into one question the
//! simulation asks constantly: *a thread starts `work` cycles of
//! computation on core C at time t; when does it finish, and what happened
//! to it?* McKernel cores answer the same question with `finish = t + work`
//! (plus cache interference handled elsewhere), which is the entire point
//! of the paper.

use crate::cfs::CfsParams;
use crate::daemons::DaemonSource;
use crate::epoch::{epochs_in, EpochMemo};
use crate::occupancy::CoreOccupancy;
use crate::tick::{Interruption, TickSource};
use hwmodel::cpu::CoreId;
use simcore::{Cycles, StreamFamily, StreamRng};

/// How far past `t` [`LinuxCoreRuntime::quiet_until`] looks for the next
/// daemon arrival: 100 epochs. Only a tickless core with no competitor
/// can need the cap, which bounds the search for a rare or gated daemon.
const QUIET_HORIZON: Cycles = Cycles::from_secs(1);

/// Work shorter than this runs inside the task's own timeslice: a spinning
/// MPI process or FWQ probe is not continuously descheduled — it only pays
/// when its slice happens to expire mid-quantum (short-burst co-runner
/// wakeups, softirq work). Longer quanta see the full CFS fair share.
const SLICE_MODEL_THRESHOLD: Cycles = Cycles(2_800_000); // 1 ms

/// Result of running a quantum on a Linux core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecOutcome {
    /// Completion instant.
    pub finish: Cycles,
    /// Time stolen by ticks + daemons.
    pub stolen: Cycles,
    /// Extra wall time due to CFS sharing with competing tasks.
    pub contention: Cycles,
    /// Number of kernel interruptions experienced.
    pub interruptions: u32,
    /// Largest single interruption (the paper correlates collective
    /// latency with the *largest* delay on any node).
    pub max_interruption: Cycles,
}

/// Noise-generating runtime of one Linux core.
#[derive(Debug)]
pub struct LinuxCoreRuntime {
    /// Which core this is.
    pub core: CoreId,
    /// The tick, and each daemon, with the interruptions of the epoch it
    /// drew last (see [`LinuxCoreRuntime::noise_over`]).
    tick: Option<(TickSource, EpochMemo)>,
    daemons: Vec<(DaemonSource, EpochMemo)>,
    params: CfsParams,
    /// The short-quantum slice-expiry draw at `start` reads
    /// `slices.at(start)`.
    slices: StreamFamily,
}

impl LinuxCoreRuntime {
    /// Runtime with explicit sources; `rng` decorrelates its slice draws
    /// from other cores'. `tick = None` models a core with the tick fully
    /// suppressed (used by the A4 scheduler ablation; real RHEL6 cannot
    /// do this — that is McKernel's trick).
    pub fn with_rng(
        core: CoreId,
        tick: Option<TickSource>,
        daemons: Vec<DaemonSource>,
        rng: StreamRng,
    ) -> Self {
        LinuxCoreRuntime {
            core,
            tick: tick.map(|t| (t, EpochMemo::default())),
            daemons: daemons.into_iter().map(|d| (d, EpochMemo::default())).collect(),
            params: CfsParams::default(),
            slices: rng.family("slice"),
        }
    }

    /// Attach an additional noise source (e.g. phase-gated IRQ pressure
    /// from a co-located job).
    pub fn push_daemon(&mut self, d: DaemonSource) {
        self.daemons.push((d, EpochMemo::default()));
    }

    /// Run `work` cycles starting at `start`, against the competing load in
    /// `occ`. See module docs.
    pub fn execute(&mut self, start: Cycles, work: Cycles, occ: &CoreOccupancy) -> ExecOutcome {
        // Short work executes within the task's own timeslice: it only
        // pays contention when the slice expires mid-quantum, as a short
        // stochastic stall (co-runners are woken, run briefly, yield).
        if work < SLICE_MODEL_THRESHOLD {
            let n = occ.competitors_at(self.core, start);
            let mut contention = Cycles::ZERO;
            if n > 0 {
                let slice = self.params.timeslice(n + 1);
                let mut r = self.slices.at(start.raw());
                let p_hit = work.raw() as f64 / slice.raw() as f64;
                if r.chance(p_hit.min(1.0)) {
                    let mean = Cycles::from_us(6).raw() as f64 * f64::from(n.min(4));
                    contention = Cycles((r.exp_mean(mean) as u64).min(
                        Cycles::from_us(20).raw(),
                    ));
                }
            }
            let busy_end = start + work + contention;
            let (stolen, count, max_one) = self.noise_over(start, busy_end);
            return ExecOutcome {
                finish: busy_end + stolen,
                stolen,
                contention,
                interruptions: count,
                max_interruption: max_one,
            };
        }
        // Phase 1: CFS contention stretch, walking uniform load segments.
        let horizon = start + work * 64 + Cycles::from_secs(2); // generous cap
        let mut t = start;
        let mut remaining = work.raw();
        let mut contention = Cycles::ZERO;
        while remaining > 0 {
            let seg = occ.segment_at(self.core, t, horizon);
            let n = seg.competitors;
            if n == 0 {
                // Uncontended: run to completion or segment end.
                let span = (seg.end - t).raw().min(remaining);
                t += Cycles(span);
                remaining -= span;
                if seg.end >= horizon && remaining > 0 {
                    // No more load changes: finish uncontended.
                    t += Cycles(remaining);
                    remaining = 0;
                }
            } else {
                let seg_len = (seg.end - t).raw();
                let share = u64::from(n) + 1;
                // Work accomplished in this segment under fair sharing,
                // including context-switch tax per slice round.
                let slice = self.params.timeslice(n + 1).raw().max(1);
                let eff_slice = slice.saturating_sub(2 * self.params.ctx_switch.raw()).max(1);
                let progress = (seg_len / share) * eff_slice / slice;
                if progress >= remaining {
                    // Finishes inside the segment.
                    let need_wall =
                        remaining * share * slice / eff_slice;
                    contention += Cycles(need_wall - remaining);
                    t += Cycles(need_wall);
                    remaining = 0;
                } else {
                    remaining -= progress;
                    contention += Cycles(seg_len - progress);
                    t = seg.end;
                }
            }
        }
        let busy_end = t;
        let (stolen, count, max_one) = self.noise_over(start, busy_end);
        ExecOutcome {
            finish: busy_end + stolen,
            stolen,
            contention,
            interruptions: count,
            max_interruption: max_one,
        }
    }

    /// Until when this core stays quiet from `t`: every quantum that
    /// starts at or after `t` and ends by the instant returned finishes
    /// in exactly its work, so FWQ may append it without calling
    /// [`LinuxCoreRuntime::execute`]. It is the least of the next tick
    /// instant, the end of `t`'s competitor-free occupancy segment (`t`
    /// itself when `t` has competitors), each daemon's next arrival at
    /// or after `t`, and [`QUIET_HORIZON`] past `t` (see DESIGN.md D2).
    pub fn quiet_until(&mut self, t: Cycles, occ: &CoreOccupancy) -> Cycles {
        let seg = occ.segment_at(self.core, t, Cycles::MAX);
        if seg.competitors > 0 {
            return t;
        }
        let mut quiet = seg.end.min(Cycles(t.raw().saturating_add(QUIET_HORIZON.raw())));
        if let Some((tick, _)) = &self.tick {
            quiet = quiet.min(tick.next_at(t));
        }
        for (d, memo) in &mut self.daemons {
            quiet = memo.next_at(d, t, quiet);
        }
        quiet
    }

    /// Tick + daemon interruptions over the occupied window, extended to
    /// fixpoint (interruptions during makeup time can themselves be
    /// interrupted). Returns (stolen, count, max single).
    ///
    /// The first pass tallies `[start, busy_end)`, and each later pass
    /// only the window it adds, `[previous end, busy_end + stolen)`: any
    /// split of a window composes (see [`crate::epoch`]), so the running
    /// sum is the whole window's tally. The fixpoint stops after eight
    /// passes or at the first pass that adds nothing. Each source draws
    /// an epoch into its memo once, so the passes of one call, and the
    /// consecutive short quanta of FWQ and OSU, mostly read the epoch
    /// already drawn.
    fn noise_over(&mut self, start: Cycles, busy_end: Cycles) -> (Cycles, u32, Cycles) {
        let mut tally = Tally::default();
        let (mut from, mut to) = (start, busy_end);
        for _ in 0..8 {
            let before = tally.count;
            self.tally_window(from, to, &mut tally);
            if tally.count == before {
                break;
            }
            (from, to) = (to, busy_end + tally.stolen);
        }
        (tally.stolen, tally.count, tally.max)
    }

    /// Add every tick and daemon interruption in `[from, to)` to `tally`.
    fn tally_window(&mut self, from: Cycles, to: Cycles, tally: &mut Tally) {
        for e in epochs_in(from, to) {
            if let Some((tick, memo)) = &mut self.tick {
                tally.add_in(memo.get(tick, e), from, to);
            }
            for (d, memo) in &mut self.daemons {
                tally.add_in(memo.get(d, e), from, to);
            }
        }
    }
}

/// Count, total and largest cost of a set of interruptions.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Tally {
    stolen: Cycles,
    count: u32,
    max: Cycles,
}

impl Tally {
    /// Add the interruptions of the time-ordered `ints` in `[from, to)`.
    fn add_in(&mut self, ints: &[Interruption], from: Cycles, to: Cycles) {
        for i in ints.iter().skip_while(|i| i.at < from).take_while(|i| i.at < to) {
            self.stolen += i.cost;
            self.count += 1;
            self.max = self.max.max(i.cost);
        }
    }
}

/// A noiseless runtime for comparison — what an LWK core does: no tick,
/// no daemons, cooperative scheduling, nothing shares the core.
pub fn noiseless_execute(start: Cycles, work: Cycles) -> ExecOutcome {
    ExecOutcome {
        finish: start + work,
        stolen: Cycles::ZERO,
        contention: Cycles::ZERO,
        interruptions: 0,
        max_interruption: Cycles::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::StreamRng;

    impl LinuxCoreRuntime {
        /// Every tick and daemon interruption in `[from, to)`, queried
        /// afresh.
        fn interruptions_in(&self, from: Cycles, to: Cycles) -> Vec<Interruption> {
            let mut all: Vec<Interruption> = Vec::new();
            if let Some((t, _)) = &self.tick {
                all.extend(t.interruptions_in(from, to));
            }
            for (d, _) in &self.daemons {
                all.extend(d.interruptions_in(from, to));
            }
            all
        }

        /// The reference for [`LinuxCoreRuntime::noise_over`]: the same
        /// fixpoint, with every pass re-querying its whole window. Also
        /// says whether stolen time shrank from one pass to the next.
        fn noise_over_requery(
            &self,
            start: Cycles,
            busy_end: Cycles,
        ) -> ((Cycles, u32, Cycles), bool) {
            let mut stolen = Cycles::ZERO;
            let mut window_end = busy_end;
            let (mut count, mut max_one) = (0u32, Cycles::ZERO);
            let mut shrank = false;
            for _ in 0..8 {
                let ints = self.interruptions_in(start, window_end);
                let new_stolen: Cycles = ints.iter().map(|i| i.cost).sum();
                count = ints.len() as u32;
                max_one = ints.iter().map(|i| i.cost).max().unwrap_or(Cycles::ZERO);
                if new_stolen == stolen {
                    break;
                }
                shrank |= new_stolen < stolen;
                stolen = new_stolen;
                window_end = busy_end + stolen;
            }
            ((stolen, count, max_one), shrank)
        }
    }

    #[test]
    fn fold_matches_the_requery_reference_in_lock_step() {
        let mut r = StreamRng::root(0x10c5);
        let (mut windows, mut multi, mut shrank) = (0, 0, 0);
        for activity in [1.0, 4.0, 40.0, 400.0] {
            // Shape 0: tick and the standard daemons; 1: tickless; 2: the
            // standard core plus phase-gated IRQs.
            for shape in 0..3 {
                let core_rng = r.stream("core", windows);
                let daemons = DaemonSource::standard_set(&core_rng)
                    .into_iter()
                    .map(|d| d.with_activity(activity));
                let tick = (shape != 1).then(|| TickSource::hz1000(core_rng.stream("tick", 0)));
                let mut rt = LinuxCoreRuntime::with_rng(
                    CoreId(0),
                    tick,
                    daemons.collect(),
                    core_rng.stream("exec", 0),
                );
                if shape == 2 {
                    // Phase-gated IRQ pressure, as a co-located job adds.
                    let phases: Vec<(Cycles, Cycles)> = (0..40)
                        .map(|k| (Cycles::from_ms(25 * k), Cycles::from_ms(25 * k + 9)))
                        .collect();
                    rt.push_daemon(
                        DaemonSource::eth_irq(core_rng.stream("eth", 0))
                            .with_activity(5.0 * activity)
                            .with_windows(phases),
                    );
                }
                let n = if activity >= 400.0 { 200 } else { 400 };
                for w in 0..n {
                    let start = match w % 4 {
                        0 => Cycles::ZERO,
                        _ => Cycles(r.range_u64(0, Cycles::from_secs(1).raw())),
                    };
                    let work = match w % 5 {
                        0 => Cycles::ZERO,
                        1 => Cycles(r.range_u64(1, 4_000)),
                        2 => Cycles(r.range_u64(1, Cycles::from_ms(3).raw())),
                        _ => Cycles(r.range_u64(1, Cycles::from_ms(40).raw())),
                    };
                    let (want, shrinks) = rt.noise_over_requery(start, start + work);
                    assert_eq!(
                        rt.noise_over(start, start + work),
                        want,
                        "activity {activity} shape {shape} start {start:?} work {work:?}"
                    );
                    windows += 1;
                    multi += u64::from(want.1 > 1);
                    shrank += u64::from(shrinks);
                }
            }
        }
        assert!(
            multi > windows / 4,
            "{multi} of {windows} windows saw several interruptions"
        );
        assert_eq!(shrank, 0, "a window's stolen time shrank between passes");

        // The FWQ regime, on a tickless core at activity 400 (about 140
        // daemon arrivals per 10 ms epoch), so every interruption is a
        // daemon's. First back-to-back 4,000-cycle quanta from the middle
        // of epoch 0 into epoch 3: consecutive calls mostly read the
        // epoch a daemon's memo already holds. Then quanta alternating
        // between epochs 4 and 7, so every call must redraw it.
        let core_rng = r.stream("fwq-core", 0);
        let daemons = DaemonSource::standard_set(&core_rng)
            .into_iter()
            .map(|d| d.with_activity(400.0))
            .collect();
        let mut rt =
            LinuxCoreRuntime::with_rng(CoreId(0), None, daemons, core_rng.stream("exec", 0));
        let quantum = Cycles(4_000);
        let mut lock_step = |start: Cycles| {
            let (want, _) = rt.noise_over_requery(start, start + quantum);
            assert_eq!(
                rt.noise_over(start, start + quantum),
                want,
                "quantum at {start:?}"
            );
            want
        };
        let epoch = Cycles::from_ms(10);
        let (mut t, mut quanta, mut hit) = (epoch / 2, 0u32, 0u32);
        while t < epoch * 3 + epoch / 2 {
            let (stolen, count, _) = lock_step(t);
            t += quantum + stolen;
            quanta += 1;
            hit += u32::from(count > 0);
        }
        assert!(
            hit > 100,
            "{hit} of {quanta} back-to-back quanta were interrupted"
        );
        let mut hit = 0u32;
        for k in 0..4_000u64 {
            let base = if k % 2 == 0 { epoch * 4 } else { epoch * 7 };
            hit += u32::from(lock_step(base + quantum * k).1 > 0);
        }
        assert!(
            hit > 20,
            "{hit} of 4000 alternating quanta were interrupted"
        );
    }

    #[test]
    fn any_split_composes() {
        // A window's interruptions are its two parts' at any cut: inside
        // an epoch, on a tick instant, and one cycle either side of one.
        // Each source is queried afresh; a whole core's sources are
        // tallied through its memos, which every query leaves drawn at
        // some other epoch.
        let rng = StreamRng::root(0x5b11).stream("core", 0);
        let phases: Vec<(Cycles, Cycles)> = (0..40)
            .map(|k| (Cycles::from_ms(25 * k + 3), Cycles::from_ms(25 * k + 14)))
            .collect();
        let tick = TickSource::hz1000(rng.stream("tick", 0));
        let ungated = DaemonSource::kworker(rng.stream("kw", 0)).with_activity(40.0);
        let gated = DaemonSource::eth_irq(rng.stream("eth", 0))
            .with_activity(20.0)
            .with_windows(phases);
        type Query<'a> = &'a dyn Fn(Cycles, Cycles) -> Vec<Interruption>;
        let sources: [(&str, Query); 3] = [
            ("tick", &|a, b| tick.interruptions_in(a, b)),
            ("ungated daemon", &|a, b| ungated.interruptions_in(a, b)),
            ("gated daemon", &|a, b| gated.interruptions_in(a, b)),
        ];
        let mut daemons = DaemonSource::standard_set(&rng);
        daemons.extend([ungated.clone(), gated.clone()]);
        let mut rt = LinuxCoreRuntime::with_rng(
            CoreId(0),
            Some(tick.clone()),
            daemons,
            rng.stream("exec", 0),
        );
        let fresh = |rt: &LinuxCoreRuntime, from, to| {
            let mut t = Tally::default();
            let mut ints = rt.interruptions_in(from, to);
            ints.sort_by_key(|i| i.at);
            t.add_in(&ints, from, to);
            t
        };
        let mut r = StreamRng::root(0xc07);
        let ms = Cycles::from_ms(1).raw();
        let (mut cuts, mut hit) = (0, 0);
        for w in 0..3_000u64 {
            let from = Cycles(r.range_u64(0, Cycles::from_secs(1).raw()));
            let to = from + Cycles(r.range_u64(1, Cycles::from_ms(40).raw()));
            let cut = match w % 4 {
                0 => r.range_u64(from.raw(), to.raw() + 1),
                side => {
                    let (k0, k1) = (from.raw().div_ceil(ms), to.raw() / ms);
                    if k0 > k1 {
                        continue;
                    }
                    let at = ms * r.range_u64(k0, k1 + 1);
                    (at + side - 2).clamp(from.raw(), to.raw())
                }
            };
            let cut = Cycles(cut);
            for (name, query) in &sources {
                let mut parts = query(from, cut);
                parts.extend(query(cut, to));
                assert_eq!(parts, query(from, to), "{name}: {from:?}..{cut:?}..{to:?}");
            }
            let want = fresh(&rt, from, to);
            let mut parts = Tally::default();
            rt.tally_window(from, cut, &mut parts);
            rt.tally_window(cut, to, &mut parts);
            assert_eq!(parts, want, "core: {from:?}..{cut:?}..{to:?}");
            cuts += 1;
            hit += u32::from(want.count > 0);
        }
        assert!(cuts > 2_500 && hit > cuts / 2, "{hit} of {cuts} windows hit");
    }

    fn busy_runtime() -> LinuxCoreRuntime {
        let rng = StreamRng::root(11).stream("core", 0);
        LinuxCoreRuntime::with_rng(
            CoreId(0),
            Some(TickSource::hz1000(rng.stream("tick", 0))),
            DaemonSource::standard_set(&rng),
            rng.stream("exec", 0),
        )
    }

    #[test]
    fn uncontended_work_stretches_only_by_noise() {
        let mut rt = busy_runtime();
        let occ = {
            let mut o = CoreOccupancy::new();
            o.seal();
            o
        };
        let work = Cycles::from_ms(100);
        let out = rt.execute(Cycles::from_us(1), work, &occ);
        assert_eq!(out.contention, Cycles::ZERO);
        assert!(out.stolen > Cycles::ZERO, "100ms hits ~100 ticks");
        assert!(out.interruptions >= 90);
        assert_eq!(out.finish, Cycles::from_us(1) + work + out.stolen);
        // Noise is percent-scale, not integer-factor scale.
        let overhead = out.stolen.raw() as f64 / work.raw() as f64;
        assert!(overhead < 0.05, "overhead {overhead}");
    }

    #[test]
    fn short_quantum_usually_clean_sometimes_hit() {
        // FWQ regime: 4k-cycle quanta; most miss the tick, some don't.
        let mut rt = busy_runtime();
        let mut occ = CoreOccupancy::new();
        occ.seal();
        let mut t = Cycles(1);
        let (mut clean, mut hit) = (0, 0);
        for _ in 0..20_000 {
            let out = rt.execute(t, Cycles(4_000), &occ);
            if out.stolen == Cycles::ZERO {
                clean += 1;
            } else {
                hit += 1;
            }
            t = out.finish;
        }
        assert!(clean > 15_000, "clean {clean}");
        assert!(hit > 10, "hit {hit}");
    }

    #[test]
    fn contention_stretches_by_fair_share() {
        let mut rt = busy_runtime();
        let mut occ = CoreOccupancy::new();
        // 15 competitors throughout: the Fig. 5c worst case.
        occ.add_load(CoreId(0), Cycles::ZERO, Cycles::from_secs(100), 15);
        occ.seal();
        let work = Cycles::from_ms(10);
        let out = rt.execute(Cycles(1), work, &occ);
        let ratio = (out.finish - Cycles(1)).raw() as f64 / work.raw() as f64;
        assert!((14.0..20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn contention_ends_when_load_ends() {
        let mut rt = busy_runtime();
        let mut occ = CoreOccupancy::new();
        occ.add_load(CoreId(0), Cycles::ZERO, Cycles::from_ms(1), 3);
        occ.seal();
        // 10ms of work, only the first 1ms contended.
        let out = rt.execute(Cycles(1), Cycles::from_ms(10), &occ);
        let wall = (out.finish - Cycles(1)).raw() as f64;
        let ratio = wall / Cycles::from_ms(10).raw() as f64;
        assert!(ratio < 1.15, "ratio {ratio}");
        assert!(out.contention > Cycles::ZERO);
    }

    #[test]
    fn noiseless_is_exact() {
        let out = noiseless_execute(Cycles(1_000), Cycles(4_000));
        assert_eq!(out.finish, Cycles(5_000));
        assert_eq!(out.interruptions, 0);
        assert_eq!(out.stolen, Cycles::ZERO);
    }

    #[test]
    fn tickless_runtime_has_only_daemon_noise() {
        let rng = StreamRng::root(13).stream("core", 1);
        let mut rt = LinuxCoreRuntime::with_rng(
            CoreId(1),
            None,
            vec![DaemonSource::watchdog(rng.stream("watchdog", 0))],
            rng.stream("exec", 0),
        );
        let mut occ = CoreOccupancy::new();
        occ.seal();
        let out = rt.execute(Cycles(1), Cycles::from_secs(2), &occ);
        // Watchdog only: ~2 events in 2 seconds.
        assert!(out.interruptions <= 5, "{}", out.interruptions);
        assert!(out.stolen < Cycles::from_us(100));
    }

    #[test]
    fn determinism() {
        let mut rt1 = busy_runtime();
        let mut rt2 = busy_runtime();
        let mut occ = CoreOccupancy::new();
        occ.add_load(CoreId(0), Cycles::from_ms(2), Cycles::from_ms(5), 2);
        occ.seal();
        let a = rt1.execute(Cycles(123), Cycles::from_ms(7), &occ);
        let b = rt2.execute(Cycles(123), Cycles::from_ms(7), &occ);
        assert_eq!(a, b);
    }
}
