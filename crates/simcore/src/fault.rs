//! Deterministic fault injection for the offload stack.
//!
//! A [`FaultPlan`] owns its **own** RNG stream (derived from the
//! experiment master seed with a dedicated label), so enabling faults
//! never perturbs the draws seen by any other stochastic component —
//! and a disabled plan draws nothing at all, which keeps fault-free
//! experiments bit-identical to builds that predate this module.
//!
//! The plan models the fault taxonomy of the offload boundary:
//!
//! * **message drop** — an IKC message vanishes in flight;
//! * **message delay** — an IKC message arrives late (exponential
//!   extra latency);
//! * **message corruption** — payload bytes flip; the receiver's
//!   checksum must catch it;
//! * **queue-full back-pressure** — a send is rejected as if the ring
//!   were full, for a sustained burst of attempts;
//! * **proxy crash** — the proxy process dies once the in-flight
//!   offload depth reaches a configured threshold;
//! * **delegator stall** — the Linux-side dispatcher freezes for a
//!   while (e.g. preempted by a busy FWK), adding latency only.
//!
//! Every injected fault is appended to an event log; tests fingerprint
//! the log to assert byte-identical schedules across runs, and the
//! recovery machinery is judged by the log's retry/crash entries.

use crate::rng::StreamRng;
use crate::time::Cycles;

/// Fault-injection knobs. All rates are per-message probabilities in
/// `[0, 1]`; the default is everything off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Master switch; when false the plan draws no randomness at all.
    pub enabled: bool,
    /// Probability that a message is dropped in flight.
    pub drop_rate: f64,
    /// Probability that a message is delayed (on top of normal cost).
    pub delay_rate: f64,
    /// Mean of the exponential extra delay, nanoseconds.
    pub delay_mean_ns: f64,
    /// Probability that a message payload is corrupted in flight.
    pub corrupt_rate: f64,
    /// Probability that a send hits sustained queue-full back-pressure.
    pub backpressure_rate: f64,
    /// Consecutive rejected attempts per back-pressure burst.
    pub backpressure_burst: u32,
    /// Crash the proxy once this many offloads are in flight at once.
    pub proxy_crash_at_inflight: Option<u32>,
    /// Probability that a delegator dispatch stalls.
    pub stall_rate: f64,
    /// Mean of the exponential stall duration, nanoseconds.
    pub stall_mean_ns: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

impl FaultConfig {
    /// No faults; the plan will consume no randomness.
    pub fn off() -> Self {
        FaultConfig {
            enabled: false,
            drop_rate: 0.0,
            delay_rate: 0.0,
            delay_mean_ns: 20_000.0,
            corrupt_rate: 0.0,
            backpressure_rate: 0.0,
            backpressure_burst: 4,
            proxy_crash_at_inflight: None,
            stall_rate: 0.0,
            stall_mean_ns: 50_000.0,
        }
    }

    /// Uniform message-loss fault model: drop each message (request or
    /// reply leg independently) with probability `p`.
    pub fn message_loss(p: f64) -> Self {
        FaultConfig {
            enabled: true,
            drop_rate: p,
            ..FaultConfig::off()
        }
    }

    /// Set the corruption rate (builder style).
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.enabled = true;
        self.corrupt_rate = p;
        self
    }

    /// Set the delay fault (builder style).
    pub fn with_delay(mut self, p: f64, mean_ns: f64) -> Self {
        self.enabled = true;
        self.delay_rate = p;
        self.delay_mean_ns = mean_ns;
        self
    }

    /// Set queue-full back-pressure (builder style).
    pub fn with_backpressure(mut self, p: f64, burst: u32) -> Self {
        self.enabled = true;
        self.backpressure_rate = p;
        self.backpressure_burst = burst;
        self
    }

    /// Arm a proxy crash at the given in-flight depth (builder style).
    pub fn with_proxy_crash_at(mut self, depth: u32) -> Self {
        self.enabled = true;
        self.proxy_crash_at_inflight = Some(depth);
        self
    }

    /// Set delegator stalls (builder style).
    pub fn with_stalls(mut self, p: f64, mean_ns: f64) -> Self {
        self.enabled = true;
        self.stall_rate = p;
        self.stall_mean_ns = mean_ns;
        self
    }
}

/// What the plan decided to do to one in-flight message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgFault {
    /// Deliver normally.
    None,
    /// The message vanishes; the sender's timeout must recover.
    Drop,
    /// The message arrives this much later than modeled.
    Delay(Cycles),
    /// Payload bytes flipped; the checksum must catch it.
    Corrupt,
}

/// One entry of the fault schedule, for determinism fingerprints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated time of the injection.
    pub at: Cycles,
    /// Which message leg was hit (e.g. `"req"`, `"rep"`).
    pub leg: &'static str,
    /// Offload sequence number the fault applied to.
    pub seq: u64,
    /// The injected fault.
    pub kind: FaultKind,
}

/// Kinds of injected faults, as logged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Message dropped.
    Dropped,
    /// Message delayed by the given amount.
    Delayed(Cycles),
    /// Message payload corrupted.
    Corrupted,
    /// Send rejected by simulated queue-full back-pressure.
    QueueFull,
    /// Proxy process crashed.
    ProxyCrash,
    /// Delegator dispatch stalled for the given time.
    DelegatorStall(Cycles),
    /// A fabric link port went down for the given time (link flap).
    LinkDown(Cycles),
}

/// A seeded, scoped fault injector. See the module docs.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: StreamRng,
    /// Scoped gate: injection only happens while active (setup phases
    /// run with the plan suspended so faults target steady state).
    active: bool,
    log: Vec<FaultEvent>,
    backpressure_left: u32,
    crash_fired: bool,
}

impl FaultPlan {
    /// Build a plan over its own RNG stream. Derive `rng` with a
    /// dedicated label, e.g. `root.stream("fault", node_index)`.
    pub fn new(cfg: FaultConfig, rng: StreamRng) -> Self {
        FaultPlan {
            active: cfg.enabled,
            cfg,
            rng,
            log: Vec::new(),
            backpressure_left: 0,
            crash_fired: false,
        }
    }

    /// A plan that injects nothing and draws nothing.
    pub fn disabled() -> Self {
        FaultPlan::new(FaultConfig::off(), StreamRng::root(0))
    }

    /// The configuration this plan runs.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when the plan can inject right now.
    pub fn is_active(&self) -> bool {
        self.active && self.cfg.enabled
    }

    /// Scoped gate: suspend or resume injection (setup vs. steady
    /// state). Suspension does not consume randomness.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Decide the fate of one message on leg `leg` for offload `seq`.
    ///
    /// Draw order is fixed (drop, corrupt, delay) so the schedule is a
    /// pure function of the config and the stream seed.
    pub fn draw_msg_fault(&mut self, leg: &'static str, seq: u64, now: Cycles) -> MsgFault {
        if !self.is_active() {
            return MsgFault::None;
        }
        if self.cfg.drop_rate > 0.0 && self.rng.chance(self.cfg.drop_rate) {
            self.log.push(FaultEvent { at: now, leg, seq, kind: FaultKind::Dropped });
            return MsgFault::Drop;
        }
        if self.cfg.corrupt_rate > 0.0 && self.rng.chance(self.cfg.corrupt_rate) {
            self.log.push(FaultEvent { at: now, leg, seq, kind: FaultKind::Corrupted });
            return MsgFault::Corrupt;
        }
        if self.cfg.delay_rate > 0.0 && self.rng.chance(self.cfg.delay_rate) {
            let d = Cycles::from_ns(self.rng.exp_mean(self.cfg.delay_mean_ns) as u64);
            self.log.push(FaultEvent { at: now, leg, seq, kind: FaultKind::Delayed(d) });
            return MsgFault::Delay(d);
        }
        MsgFault::None
    }

    /// Should this send see queue-full back-pressure? Bursts reject
    /// [`FaultConfig::backpressure_burst`] consecutive attempts.
    pub fn draw_backpressure(&mut self, seq: u64, now: Cycles) -> bool {
        if !self.is_active() {
            return false;
        }
        if self.backpressure_left > 0 {
            self.backpressure_left -= 1;
            self.log.push(FaultEvent { at: now, leg: "send", seq, kind: FaultKind::QueueFull });
            return true;
        }
        if self.cfg.backpressure_rate > 0.0 && self.rng.chance(self.cfg.backpressure_rate) {
            self.backpressure_left = self.cfg.backpressure_burst.saturating_sub(1);
            self.log.push(FaultEvent { at: now, leg: "send", seq, kind: FaultKind::QueueFull });
            return true;
        }
        false
    }

    /// Extra latency if the delegator stalls on this dispatch.
    pub fn draw_stall(&mut self, seq: u64, now: Cycles) -> Option<Cycles> {
        if !self.is_active() || self.cfg.stall_rate == 0.0 {
            return None;
        }
        if self.rng.chance(self.cfg.stall_rate) {
            let d = Cycles::from_ns(self.rng.exp_mean(self.cfg.stall_mean_ns) as u64);
            self.log.push(FaultEvent {
                at: now,
                leg: "delegator",
                seq,
                kind: FaultKind::DelegatorStall(d),
            });
            return Some(d);
        }
        None
    }

    /// Report the current in-flight offload depth; returns true exactly
    /// once, when the configured crash threshold is first reached.
    pub fn proxy_should_crash(&mut self, inflight: u32, seq: u64, now: Cycles) -> bool {
        if !self.is_active() || self.crash_fired {
            return false;
        }
        match self.cfg.proxy_crash_at_inflight {
            Some(th) if inflight >= th => {
                self.crash_fired = true;
                self.log.push(FaultEvent { at: now, leg: "proxy", seq, kind: FaultKind::ProxyCrash });
                true
            }
            _ => false,
        }
    }

    /// The full injection schedule so far.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Number of injected faults of each coarse kind:
    /// `(drops, corruptions, delays, queue_fulls, stalls, crashes)`.
    pub fn counts(&self) -> (u64, u64, u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0, 0, 0);
        for e in &self.log {
            match e.kind {
                FaultKind::Dropped => c.0 += 1,
                FaultKind::Corrupted => c.1 += 1,
                FaultKind::Delayed(_) => c.2 += 1,
                FaultKind::QueueFull => c.3 += 1,
                FaultKind::DelegatorStall(_) => c.4 += 1,
                FaultKind::ProxyCrash => c.5 += 1,
                // Link flaps are logged by LinkFaultPlan, never by an
                // offload-boundary FaultPlan.
                FaultKind::LinkDown(_) => {}
            }
        }
        c
    }

    /// FNV-1a fold of the entire schedule — equal fingerprints mean
    /// byte-identical fault sequences.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for e in &self.log {
            eat(e.at.raw());
            eat(e.leg.len() as u64);
            for b in e.leg.as_bytes() {
                eat(u64::from(*b));
            }
            eat(e.seq);
            let (tag, arg) = match e.kind {
                FaultKind::Dropped => (1u64, 0u64),
                FaultKind::Corrupted => (2, 0),
                FaultKind::Delayed(d) => (3, d.raw()),
                FaultKind::QueueFull => (4, 0),
                FaultKind::DelegatorStall(d) => (5, d.raw()),
                FaultKind::ProxyCrash => (6, 0),
                FaultKind::LinkDown(d) => (7, d.raw()),
            };
            eat(tag);
            eat(arg);
        }
        h
    }

    /// Consume the plan and return its RNG stream. After a run with the
    /// plan disabled, the stream must be byte-identical to a fresh
    /// sibling — the zero-draw contract, asserted by the regression
    /// tests below.
    pub fn into_rng(self) -> StreamRng {
        self.rng
    }
}

/// Fault-injection knobs for one fabric link (a NIC port). Same
/// contract as [`FaultConfig`]: all rates are per-message probabilities
/// and a disabled config makes the plan draw no randomness at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaultConfig {
    /// Master switch; when false the plan draws no randomness at all.
    pub enabled: bool,
    /// Probability that a packet is dropped in flight.
    pub drop_rate: f64,
    /// Probability that a packet arrives with flipped bits (caught by
    /// the receiver's ICRC, triggering a NACK).
    pub corrupt_rate: f64,
    /// Probability that a packet sees a transient delay spike.
    pub delay_rate: f64,
    /// Mean of the exponential delay spike, nanoseconds.
    pub delay_mean_ns: f64,
    /// Mean link-flap arrivals per simulated second (Poisson).
    pub flap_per_sec: f64,
    /// Mean downtime of one flap, nanoseconds (exponential).
    pub flap_down_mean_ns: f64,
    /// Horizon over which the flap schedule is pre-generated, seconds.
    pub flap_horizon_secs: u64,
}

impl Default for LinkFaultConfig {
    fn default() -> Self {
        LinkFaultConfig::off()
    }
}

impl LinkFaultConfig {
    /// No faults; the plan will consume no randomness.
    pub fn off() -> Self {
        LinkFaultConfig {
            enabled: false,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            delay_rate: 0.0,
            delay_mean_ns: 5_000.0,
            flap_per_sec: 0.0,
            flap_down_mean_ns: 200_000.0,
            flap_horizon_secs: 600,
        }
    }

    /// Uniform packet-loss model: drop each packet with probability `p`.
    pub fn loss(p: f64) -> Self {
        LinkFaultConfig {
            enabled: true,
            drop_rate: p,
            ..LinkFaultConfig::off()
        }
    }

    /// Set the corruption rate (builder style).
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.enabled = true;
        self.corrupt_rate = p;
        self
    }

    /// Set transient delay spikes (builder style).
    pub fn with_delay(mut self, p: f64, mean_ns: f64) -> Self {
        self.enabled = true;
        self.delay_rate = p;
        self.delay_mean_ns = mean_ns;
        self
    }

    /// Set link flaps (builder style): Poisson arrivals at `per_sec`
    /// with exponential downtimes of mean `down_mean_ns`.
    pub fn with_flaps(mut self, per_sec: f64, down_mean_ns: f64) -> Self {
        self.enabled = true;
        self.flap_per_sec = per_sec;
        self.flap_down_mean_ns = down_mean_ns;
        self
    }
}

// ---------------------------------------------------------------------------
// Hierarchical failure domains (node → rack)
// ---------------------------------------------------------------------------

/// Hierarchical failure-domain layout. Nodes pack into racks (sharing a
/// ToR switch and a PDU): one rack fault takes out the *whole rack* at
/// once, which is how real clusters die — in correlated bursts, not
/// independent single-node events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DomainTopology {
    /// Total node count.
    pub nodes: usize,
    /// Nodes per rack (last rack may be partial).
    pub nodes_per_rack: usize,
}

impl DomainTopology {
    /// A layout with the given packing. Panics on zero sizes.
    pub fn new(nodes: usize, nodes_per_rack: usize) -> Self {
        assert!(nodes >= 1 && nodes_per_rack >= 1);
        DomainTopology { nodes, nodes_per_rack }
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.nodes.div_ceil(self.nodes_per_rack)
    }

    /// The rack holding `node`.
    pub fn rack_of(&self, node: usize) -> usize {
        node / self.nodes_per_rack
    }

    /// The next rack in ring order (a *different* failure domain
    /// whenever more than one rack exists) — the canonical cross-domain
    /// buddy target for hierarchical checkpointing.
    pub fn partner_rack(&self, rack: usize) -> usize {
        (rack + 1) % self.num_racks()
    }

    /// Every node inside `scope`, ascending.
    pub fn nodes_in(&self, scope: DomainScope) -> Vec<usize> {
        let range = match scope {
            DomainScope::Node(n) => n..(n + 1).min(self.nodes),
            DomainScope::Rack(r) => {
                let lo = r * self.nodes_per_rack;
                lo..((r + 1) * self.nodes_per_rack).min(self.nodes)
            }
        };
        range.collect()
    }
}

/// Which subtree of the fault hierarchy an event hits. The derived
/// order ranks every node before every rack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DomainScope {
    /// A single node (the PR 5 fail-stop, as a degenerate domain).
    Node(usize),
    /// A whole rack (ToR switch / PDU failure).
    Rack(usize),
}

/// What a domain event does to its subtree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DomainEventKind {
    /// Every node in the subtree fail-stops at the event time
    /// (permanent: PDU trip, switch bricked).
    FailStop,
    /// Every link in the subtree goes down for the given interval
    /// (transient: switch reboot / firmware update), flapping all ports
    /// simultaneously.
    Blackout(Cycles),
}

/// One correlated fault: a whole domain subtree dies or blacks out at
/// one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DomainEvent {
    /// Simulated time of the event.
    pub at: Cycles,
    /// The subtree it hits.
    pub scope: DomainScope,
    /// What happens to the subtree.
    pub kind: DomainEventKind,
}

/// Correlated fault-injection knobs. Rates are Poisson arrivals *per
/// domain instance* per simulated hour; the default is everything off
/// and an off config draws no randomness at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DomainFaultConfig {
    /// Master switch; when false the plan derives no RNG streams.
    pub enabled: bool,
    /// Fail-stop arrivals per node per hour.
    pub node_fail_per_hour: f64,
    /// Fail-stop arrivals per rack per hour.
    pub rack_fail_per_hour: f64,
    /// Transient whole-rack blackout arrivals per rack per hour.
    pub rack_blackout_per_hour: f64,
    /// Mean blackout duration, nanoseconds (exponential).
    pub blackout_mean_ns: f64,
    /// Horizon over which schedules are pre-generated, seconds.
    pub horizon_secs: u64,
}

impl Default for DomainFaultConfig {
    fn default() -> Self {
        DomainFaultConfig::off()
    }
}

impl DomainFaultConfig {
    /// No correlated faults; the plan will consume no randomness.
    pub fn off() -> Self {
        DomainFaultConfig {
            enabled: false,
            node_fail_per_hour: 0.0,
            rack_fail_per_hour: 0.0,
            rack_blackout_per_hour: 0.0,
            blackout_mean_ns: 2_000_000.0,
            horizon_secs: 600,
        }
    }

    /// Set per-node fail-stop arrivals (builder style).
    pub fn with_node_fails(mut self, per_hour: f64) -> Self {
        self.enabled = true;
        self.node_fail_per_hour = per_hour;
        self
    }

    /// Set per-rack fail-stop arrivals (builder style).
    pub fn with_rack_fails(mut self, per_hour: f64) -> Self {
        self.enabled = true;
        self.rack_fail_per_hour = per_hour;
        self
    }

    /// Set transient rack blackouts (builder style).
    pub fn with_rack_blackouts(mut self, per_hour: f64, mean_ns: f64) -> Self {
        self.enabled = true;
        self.rack_blackout_per_hour = per_hour;
        self.blackout_mean_ns = mean_ns;
        self
    }
}

/// A seeded, hierarchical correlated-fault injector.
///
/// Every domain instance at every level owns its **own** RNG stream
/// (derived from the experiment master seed with a per-level label and
/// the domain index), so enabling rack faults never perturbs the node
/// fault schedule, changing the topology only re-seeds the domains that
/// moved, and a disabled plan derives no streams at all — the same
/// zero-draw contract as [`FaultPlan`] and [`LinkFaultPlan`].
///
/// The whole schedule is pre-generated at construction (like link
/// flaps), so consumers replay it RNG-free. Fail-stop arrivals keep only
/// the *first* event per domain — the subtree is already dead for any
/// later arrival — while blackouts repeat. Deterministic events can be
/// added on top with [`DomainFaultPlan::inject`], which never draws.
#[derive(Clone, Debug)]
pub struct DomainFaultPlan {
    cfg: DomainFaultConfig,
    topo: DomainTopology,
    events: Vec<DomainEvent>,
}

impl DomainFaultPlan {
    /// Build a plan over per-domain streams derived from `rng`.
    pub fn new(cfg: DomainFaultConfig, topo: DomainTopology, rng: &StreamRng) -> Self {
        let mut plan = DomainFaultPlan { cfg, topo, events: Vec::new() };
        if !cfg.enabled {
            return plan;
        }
        let horizon = Cycles::from_secs(cfg.horizon_secs);
        // First Poisson arrival within the horizon, or None.
        let first_arrival = |stream: &mut StreamRng, per_hour: f64| -> Option<Cycles> {
            if per_hour <= 0.0 {
                return None;
            }
            let gap_mean_ns = 3.6e12 / per_hour;
            let t = Cycles::from_ns(stream.exp_mean(gap_mean_ns) as u64).max(Cycles(1));
            (t < horizon).then_some(t)
        };
        for n in 0..topo.nodes {
            let mut s = rng.stream("domfault.node", n as u64);
            if let Some(at) = first_arrival(&mut s, cfg.node_fail_per_hour) {
                plan.events.push(DomainEvent {
                    at,
                    scope: DomainScope::Node(n),
                    kind: DomainEventKind::FailStop,
                });
            }
        }
        for r in 0..topo.num_racks() {
            let mut s = rng.stream("domfault.rack", r as u64);
            if let Some(at) = first_arrival(&mut s, cfg.rack_fail_per_hour) {
                plan.events.push(DomainEvent {
                    at,
                    scope: DomainScope::Rack(r),
                    kind: DomainEventKind::FailStop,
                });
            }
            // Blackouts repeat: separate stream so enabling them never
            // shifts the fail-stop schedule.
            if cfg.rack_blackout_per_hour > 0.0 && cfg.blackout_mean_ns > 0.0 {
                let mut s = rng.stream("domfault.rackblackout", r as u64);
                let gap_mean_ns = 3.6e12 / cfg.rack_blackout_per_hour;
                let mut t = Cycles::ZERO;
                loop {
                    t += Cycles::from_ns(s.exp_mean(gap_mean_ns) as u64).max(Cycles(1));
                    if t >= horizon {
                        break;
                    }
                    let dur =
                        Cycles::from_ns(s.exp_mean(cfg.blackout_mean_ns) as u64).max(Cycles(1));
                    plan.events.push(DomainEvent {
                        at: t,
                        scope: DomainScope::Rack(r),
                        kind: DomainEventKind::Blackout(dur),
                    });
                    t += dur;
                }
            }
        }
        plan.sort_events();
        plan
    }

    /// A plan over `topo` that injects nothing and draws nothing.
    pub fn disabled(topo: DomainTopology) -> Self {
        DomainFaultPlan::new(DomainFaultConfig::off(), topo, &StreamRng::root(0))
    }

    fn sort_events(&mut self) {
        self.events.sort_by_key(|e| (e.at, e.scope));
    }

    /// Add a deterministic event (RNG-free), keeping the schedule
    /// sorted. This is how experiments arm "kill rack 1 at t=X".
    pub fn inject(&mut self, event: DomainEvent) {
        self.events.push(event);
        self.sort_events();
    }

    /// The configuration this plan runs.
    pub fn config(&self) -> &DomainFaultConfig {
        &self.cfg
    }

    /// The domain layout.
    pub fn topology(&self) -> &DomainTopology {
        &self.topo
    }

    /// The full schedule, sorted by (time, scope): at one instant node
    /// events precede rack events.
    pub fn events(&self) -> &[DomainEvent] {
        &self.events
    }

    /// Number of events of each kind: `(fail_stops, blackouts)`.
    pub fn counts(&self) -> (u64, u64) {
        let mut c = (0, 0);
        for e in &self.events {
            match e.kind {
                DomainEventKind::FailStop => c.0 += 1,
                DomainEventKind::Blackout(_) => c.1 += 1,
            }
        }
        c
    }

    /// FNV-1a fold of the schedule — equal fingerprints mean
    /// byte-identical correlated-fault sequences.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for e in &self.events {
            eat(e.at.raw());
            let (lvl, idx) = match e.scope {
                DomainScope::Node(n) => (0u64, n as u64),
                DomainScope::Rack(r) => (1, r as u64),
            };
            eat(lvl);
            eat(idx);
            let (tag, arg) = match e.kind {
                DomainEventKind::FailStop => (1u64, 0u64),
                DomainEventKind::Blackout(d) => (2, d.raw()),
            };
            eat(tag);
            eat(arg);
        }
        h
    }
}

/// Per-link fault injector for the fabric layer. Owns its own RNG
/// stream (derive with e.g. `root.stream("linkfault", port)`); a
/// disabled plan draws nothing, keeping fault-free runs bit-identical.
///
/// Link flaps are pre-generated at construction as a sorted list of
/// `[start, end)` downtime intervals, so queries during retransmission
/// (`down_until`) are RNG-free and tolerate out-of-order timestamps —
/// the retransmit layer probes link state at times that are not
/// globally monotone across ports.
#[derive(Clone, Debug)]
pub struct LinkFaultPlan {
    cfg: LinkFaultConfig,
    rng: StreamRng,
    log: Vec<FaultEvent>,
    /// Sorted, non-overlapping downtime intervals `[start, end)`.
    down: Vec<(Cycles, Cycles)>,
    seq: u64,
    forced: u64,
}

impl LinkFaultPlan {
    /// Build a plan over its own RNG stream. The flap schedule (if
    /// configured) is drawn eagerly here, in construction order, so it
    /// is a pure function of the config and the stream seed.
    pub fn new(cfg: LinkFaultConfig, rng: StreamRng) -> Self {
        let mut plan = LinkFaultPlan {
            cfg,
            rng,
            log: Vec::new(),
            down: Vec::new(),
            seq: 0,
            forced: 0,
        };
        if cfg.enabled && cfg.flap_per_sec > 0.0 && cfg.flap_down_mean_ns > 0.0 {
            let horizon = Cycles::from_secs(cfg.flap_horizon_secs);
            let gap_mean_ns = 1e9 / cfg.flap_per_sec;
            let mut t = Cycles::ZERO;
            let mut flap = 0u64;
            loop {
                t += Cycles::from_ns(plan.rng.exp_mean(gap_mean_ns) as u64).max(Cycles(1));
                if t >= horizon {
                    break;
                }
                let dur =
                    Cycles::from_ns(plan.rng.exp_mean(cfg.flap_down_mean_ns) as u64).max(Cycles(1));
                plan.down.push((t, t + dur));
                plan.log.push(FaultEvent {
                    at: t,
                    leg: "link",
                    seq: flap,
                    kind: FaultKind::LinkDown(dur),
                });
                flap += 1;
                // Next arrival gap starts after the link is back up, so
                // intervals never overlap and stay sorted.
                t += dur;
            }
        }
        plan
    }

    /// A plan that injects nothing and draws nothing.
    pub fn disabled() -> Self {
        LinkFaultPlan::new(LinkFaultConfig::off(), StreamRng::root(0))
    }

    /// The configuration this plan runs.
    pub fn config(&self) -> &LinkFaultConfig {
        &self.cfg
    }

    /// Force a `[start, end)` downtime interval into the flap schedule
    /// (RNG-free; works on disabled plans too). This is how correlated
    /// domain blackouts flap every port of a subtree at one instant
    /// even when per-link random faults are off. Overlapping intervals
    /// are merged so `down_until`'s sorted/non-overlapping invariant
    /// holds.
    pub fn force_down(&mut self, start: Cycles, end: Cycles) {
        assert!(start < end, "empty blackout interval");
        self.log.push(FaultEvent {
            at: start,
            leg: "domain",
            seq: self.forced,
            kind: FaultKind::LinkDown(end - start),
        });
        self.forced += 1;
        self.down.push((start, end));
        self.down.sort_unstable();
        let mut merged: Vec<(Cycles, Cycles)> = Vec::with_capacity(self.down.len());
        for &(s, e) in &self.down {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.down = merged;
    }

    /// The full downtime schedule: sorted, non-overlapping
    /// `[start, end)` intervals. This is the immutable part of the plan
    /// a partitioned simulation snapshots so every partition can answer
    /// [`LinkFaultPlan::down_until`] without sharing the plan itself.
    pub fn down_windows(&self) -> &[(Cycles, Cycles)] {
        &self.down
    }

    /// If the link is down at `now`, the time it comes back up.
    /// RNG-free: the flap schedule was drawn at construction.
    pub fn down_until(&self, now: Cycles) -> Option<Cycles> {
        let i = self.down.partition_point(|&(start, _)| start <= now);
        if i == 0 {
            return None;
        }
        let (_, end) = self.down[i - 1];
        (now < end).then_some(end)
    }

    /// Decide the fate of one packet injected at `now`. Draw order is
    /// fixed (drop, corrupt, delay), same discipline as
    /// [`FaultPlan::draw_msg_fault`]; a disabled plan returns
    /// [`MsgFault::None`] without touching the stream.
    pub fn draw_packet_fault(&mut self, now: Cycles) -> MsgFault {
        let seq = self.seq;
        self.seq += 1;
        if !self.cfg.enabled {
            return MsgFault::None;
        }
        if self.cfg.drop_rate > 0.0 && self.rng.chance(self.cfg.drop_rate) {
            self.log.push(FaultEvent { at: now, leg: "wire", seq, kind: FaultKind::Dropped });
            return MsgFault::Drop;
        }
        if self.cfg.corrupt_rate > 0.0 && self.rng.chance(self.cfg.corrupt_rate) {
            self.log.push(FaultEvent { at: now, leg: "wire", seq, kind: FaultKind::Corrupted });
            return MsgFault::Corrupt;
        }
        if self.cfg.delay_rate > 0.0 && self.rng.chance(self.cfg.delay_rate) {
            let d = Cycles::from_ns(self.rng.exp_mean(self.cfg.delay_mean_ns) as u64);
            self.log.push(FaultEvent { at: now, leg: "wire", seq, kind: FaultKind::Delayed(d) });
            return MsgFault::Delay(d);
        }
        MsgFault::None
    }

    /// Uniform jitter fraction in `[0, 1)` for one retransmit backoff.
    /// Only called on an actual retransmit (which implies a fault
    /// already fired), and a disabled plan returns 0 without drawing —
    /// so dead-peer retransmits over a fault-free link use the exact
    /// nominal backoff and the zero-draw contract holds.
    pub fn draw_retrans_jitter(&mut self) -> f64 {
        if !self.cfg.enabled {
            return 0.0;
        }
        self.rng.uniform()
    }

    /// The full injection schedule so far (flaps first, then per-packet
    /// faults in draw order).
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Number of injected faults of each kind:
    /// `(drops, corruptions, delays, flaps)`.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for e in &self.log {
            match e.kind {
                FaultKind::Dropped => c.0 += 1,
                FaultKind::Corrupted => c.1 += 1,
                FaultKind::Delayed(_) => c.2 += 1,
                FaultKind::LinkDown(_) => c.3 += 1,
                _ => {}
            }
        }
        c
    }

    /// Consume the plan and return its RNG stream (zero-draw contract
    /// verification; see [`FaultPlan::into_rng`]).
    pub fn into_rng(self) -> StreamRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: FaultConfig) -> FaultPlan {
        FaultPlan::new(cfg, StreamRng::root(99).stream("fault", 0))
    }

    #[test]
    fn disabled_plan_draws_nothing() {
        let mut p = FaultPlan::disabled();
        for s in 0..1000 {
            assert_eq!(p.draw_msg_fault("req", s, Cycles::ZERO), MsgFault::None);
            assert!(!p.draw_backpressure(s, Cycles::ZERO));
            assert!(p.draw_stall(s, Cycles::ZERO).is_none());
        }
        assert!(p.log().is_empty());
        assert_eq!(p.counts(), (0, 0, 0, 0, 0, 0));
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::message_loss(0.2)
            .with_corruption(0.1)
            .with_delay(0.1, 10_000.0);
        let mut a = plan(cfg);
        let mut b = plan(cfg);
        for s in 0..500 {
            let t = Cycles::from_us(s);
            assert_eq!(a.draw_msg_fault("req", s, t), b.draw_msg_fault("req", s, t));
        }
        assert_eq!(a.log(), b.log());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let mut p = plan(FaultConfig::message_loss(0.3));
        let n = 20_000;
        let dropped = (0..n)
            .filter(|&s| p.draw_msg_fault("req", s, Cycles::ZERO) == MsgFault::Drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn suspension_gates_injection_without_consuming_randomness() {
        let cfg = FaultConfig::message_loss(1.0);
        let mut a = plan(cfg);
        let mut b = plan(cfg);
        // a: suspended draws then active draws. b: active draws only.
        a.set_active(false);
        for s in 0..100 {
            assert_eq!(a.draw_msg_fault("req", s, Cycles::ZERO), MsgFault::None);
        }
        a.set_active(true);
        for s in 0..50 {
            assert_eq!(
                a.draw_msg_fault("req", s, Cycles::ZERO),
                b.draw_msg_fault("req", s, Cycles::ZERO),
                "suspended window must not shift the stream"
            );
        }
    }

    #[test]
    fn backpressure_comes_in_bursts() {
        let mut p = plan(FaultConfig::off().with_backpressure(1.0, 3));
        assert!(p.draw_backpressure(0, Cycles::ZERO));
        assert!(p.draw_backpressure(1, Cycles::ZERO));
        assert!(p.draw_backpressure(2, Cycles::ZERO));
        assert_eq!(p.counts().3, 3);
    }

    #[test]
    fn proxy_crash_fires_once_at_threshold() {
        let mut p = plan(FaultConfig::off().with_proxy_crash_at(4));
        assert!(!p.proxy_should_crash(3, 0, Cycles::ZERO));
        assert!(p.proxy_should_crash(4, 1, Cycles::ZERO));
        assert!(!p.proxy_should_crash(9, 2, Cycles::ZERO), "fires only once");
        assert_eq!(p.counts().5, 1);
    }

    #[test]
    fn stalls_add_latency_only() {
        let mut p = plan(FaultConfig::off().with_stalls(1.0, 30_000.0));
        let d = p.draw_stall(0, Cycles::ZERO).expect("stall at rate 1");
        assert!(d > Cycles::ZERO);
    }

    fn link_plan(cfg: LinkFaultConfig) -> LinkFaultPlan {
        LinkFaultPlan::new(cfg, StreamRng::root(99).stream("linkfault", 0))
    }

    #[test]
    fn link_plan_same_seed_same_schedule() {
        let cfg = LinkFaultConfig::loss(0.2)
            .with_corruption(0.1)
            .with_delay(0.1, 5_000.0)
            .with_flaps(3.0, 100_000.0);
        let mut a = link_plan(cfg);
        let mut b = link_plan(cfg);
        for s in 0..500 {
            let t = Cycles::from_us(s);
            assert_eq!(a.draw_packet_fault(t), b.draw_packet_fault(t));
        }
        assert_eq!(a.log(), b.log());
    }

    #[test]
    fn link_flap_schedule_is_sorted_and_queryable_out_of_order() {
        let p = link_plan(LinkFaultConfig::off().with_flaps(50.0, 300_000.0));
        let (_, _, _, flaps) = p.counts();
        assert!(flaps > 0, "50/s over the horizon must produce flaps");
        // Find one downtime interval via the log, then query around it
        // in arbitrary order.
        let (at, dur) = p
            .log()
            .iter()
            .find_map(|e| match e.kind {
                FaultKind::LinkDown(d) => Some((e.at, d)),
                _ => None,
            })
            .expect("at least one flap logged");
        assert_eq!(p.down_until(at), Some(at + dur));
        assert_eq!(p.down_until(at + dur), None, "interval is half-open");
        assert_eq!(p.down_until(Cycles::ZERO), None, "links start up");
        assert_eq!(p.down_until(at + Cycles(dur.raw() / 2)), Some(at + dur));
    }

    #[test]
    fn link_loss_rate_is_roughly_honored() {
        let mut p = link_plan(LinkFaultConfig::loss(0.3));
        let n = 20_000;
        let dropped = (0..n)
            .filter(|_| p.draw_packet_fault(Cycles::ZERO) == MsgFault::Drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed {rate}");
    }

    /// Satellite regression: the "a disabled plan draws nothing" doc
    /// contract, asserted nowhere before this test. Exercise every draw
    /// entry point of a disabled plan, then check its stream is
    /// byte-identical to an untouched sibling derived the same way.
    #[test]
    fn disabled_plans_consume_zero_rng_draws() {
        let root = StreamRng::root(7);

        let mut plan = FaultPlan::new(FaultConfig::off(), root.stream("fault", 3));
        for s in 0..256 {
            let t = Cycles::from_us(s);
            plan.draw_msg_fault("req", s, t);
            plan.draw_msg_fault("rep", s, t);
            plan.draw_backpressure(s, t);
            plan.draw_stall(s, t);
            plan.proxy_should_crash(s as u32, s, t);
        }
        let mut used = plan.into_rng();
        let mut sibling = root.stream("fault", 3);
        for i in 0..64 {
            assert_eq!(
                used.next_u64(),
                sibling.next_u64(),
                "disabled FaultPlan advanced its stream (draw {i})"
            );
        }

        let mut plan = LinkFaultPlan::new(LinkFaultConfig::off(), root.stream("linkfault", 5));
        for s in 0..256 {
            let t = Cycles::from_us(s);
            assert_eq!(plan.draw_packet_fault(t), MsgFault::None);
            assert_eq!(plan.down_until(t), None);
            assert_eq!(plan.draw_retrans_jitter(), 0.0);
        }
        assert!(plan.log().is_empty());
        let mut used = plan.into_rng();
        let mut sibling = root.stream("linkfault", 5);
        for i in 0..64 {
            assert_eq!(
                used.next_u64(),
                sibling.next_u64(),
                "disabled LinkFaultPlan advanced its stream (draw {i})"
            );
        }

        // force_down is RNG-free even on a disabled plan (domain
        // blackouts must flap links without breaking the contract).
        let mut plan = LinkFaultPlan::new(LinkFaultConfig::off(), root.stream("linkfault", 6));
        plan.force_down(Cycles::from_us(10), Cycles::from_us(20));
        assert_eq!(plan.down_until(Cycles::from_us(15)), Some(Cycles::from_us(20)));
        let mut used = plan.into_rng();
        let mut sibling = root.stream("linkfault", 6);
        for i in 0..64 {
            assert_eq!(
                used.next_u64(),
                sibling.next_u64(),
                "force_down advanced the stream (draw {i})"
            );
        }

        // A disabled DomainFaultPlan derives no streams and generates no
        // events — its schedule is seed-independent, and deterministic
        // injection stays RNG-free.
        let topo = DomainTopology::new(8, 2);
        let a = DomainFaultPlan::new(DomainFaultConfig::off(), topo, &StreamRng::root(1));
        let b = DomainFaultPlan::new(DomainFaultConfig::off(), topo, &StreamRng::root(2));
        assert!(a.events().is_empty());
        assert_eq!(a.fingerprint(), b.fingerprint(), "disabled plan must ignore the seed");
        let mut c = DomainFaultPlan::disabled(topo);
        c.inject(DomainEvent {
            at: Cycles::from_ms(1),
            scope: DomainScope::Rack(1),
            kind: DomainEventKind::FailStop,
        });
        assert_eq!(c.counts(), (1, 0));
    }

    #[test]
    fn domain_topology_maps_subtrees() {
        let topo = DomainTopology::new(10, 4);
        assert_eq!(topo.num_racks(), 3);
        assert_eq!(topo.rack_of(5), 1);
        assert_eq!(topo.nodes_in(DomainScope::Node(3)), vec![3]);
        assert_eq!(topo.nodes_in(DomainScope::Rack(1)), vec![4, 5, 6, 7]);
        assert_eq!(topo.nodes_in(DomainScope::Rack(2)), vec![8, 9], "partial rack");
        assert_eq!(topo.partner_rack(0), 1);
        assert_eq!(topo.partner_rack(2), 0, "ring wraps");
        // partner_rack is a different domain whenever one exists.
        for r in 0..topo.num_racks() {
            assert_ne!(topo.partner_rack(r), r);
        }
    }

    #[test]
    fn domain_plan_same_seed_same_schedule() {
        let topo = DomainTopology::new(16, 4);
        let cfg = DomainFaultConfig::off()
            .with_node_fails(40.0)
            .with_rack_fails(10.0)
            .with_rack_blackouts(30.0, 500_000.0);
        let a = DomainFaultPlan::new(cfg, topo, &StreamRng::root(0xD0));
        let b = DomainFaultPlan::new(cfg, topo, &StreamRng::root(0xD0));
        assert_eq!(a.events(), b.events());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!a.events().is_empty(), "at those rates events must land");
        // Sorted by time.
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        let c = DomainFaultPlan::new(cfg, topo, &StreamRng::root(0xD1));
        assert_ne!(a.fingerprint(), c.fingerprint(), "own streams, not shared");
    }

    #[test]
    fn domain_streams_are_independent_per_level() {
        // Enabling rack blackouts must not shift the node fail-stop
        // schedule: each domain instance draws from its own stream.
        let topo = DomainTopology::new(16, 4);
        let root = StreamRng::root(0xD0);
        let just_nodes =
            DomainFaultPlan::new(DomainFaultConfig::off().with_node_fails(60.0), topo, &root);
        let both = DomainFaultPlan::new(
            DomainFaultConfig::off()
                .with_node_fails(60.0)
                .with_rack_blackouts(50.0, 400_000.0),
            topo,
            &root,
        );
        let nodes_only = |p: &DomainFaultPlan| {
            p.events()
                .iter()
                .filter(|e| matches!(e.scope, DomainScope::Node(_)))
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(nodes_only(&just_nodes), nodes_only(&both));
        assert!(both.counts().1 > 0, "blackouts must have fired");
    }

    #[test]
    fn forced_down_intervals_merge_with_flaps() {
        let mut p = link_plan(LinkFaultConfig::off().with_flaps(50.0, 300_000.0));
        let (at, dur) = p
            .log()
            .iter()
            .find_map(|e| match e.kind {
                FaultKind::LinkDown(d) => Some((e.at, d)),
                _ => None,
            })
            .expect("at least one flap logged");
        // Overlap the tail of an existing flap: the merged interval must
        // extend the downtime.
        let end = at + dur + Cycles::from_us(100);
        p.force_down(at + Cycles(dur.raw() / 2), end);
        assert_eq!(p.down_until(at), Some(end));
        assert_eq!(p.down_until(end), None);
    }
}
