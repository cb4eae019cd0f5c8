//! Heap allocations on three hot paths, counted by a global allocator: a
//! steady-state offloaded system call, a `read` the bypass serves inside
//! the LWK, and a Linux compute quantum once its core's noise memos are
//! warm.
//!
//! The allocator counts per thread, since the test harness runs tests on
//! several threads at once.

use cluster::node::NodeRuntime;
use cluster::{ClusterConfig, OsVariant};
use hlwk_core::abi::Sysno;
use hlwk_core::mck::syscall::BypassConfig;
use hwmodel::cpu::CoreId;
use linuxsim::daemons::DaemonSource;
use linuxsim::occupancy::CoreOccupancy;
use linuxsim::runtime::LinuxCoreRuntime;
use linuxsim::tick::TickSource;
use simcore::{Cycles, StreamRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`. The count is a
// const-initialised thread-local `Cell` with no destructor, which
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_steady_state_offload_allocates_nothing() {
    let mut cfg = ClusterConfig::paper(OsVariant::McKernel).with_nodes(1);
    cfg.horizon_secs = 5;
    let mut node = NodeRuntime::build(&cfg, 0, &StreamRng::root(1));
    let arena = node.arena_va.raw();
    let mut t = Cycles::from_ms(1);
    let mut getrandom = |node: &mut NodeRuntime| {
        let (ret, done) = node.offload_syscall(Sysno::GetRandom, [arena, 64, 0, 0, 0, 0], t);
        assert_eq!(ret, 64);
        t = done;
    };
    for _ in 0..1_000 {
        getrandom(&mut node);
    }
    let n = allocations(|| {
        for _ in 0..10_000 {
            getrandom(&mut node);
        }
    });
    assert_eq!(n, 0, "10,000 offloaded getrandom(64) calls allocated {n} times");
}

#[test]
fn a_promoted_read_allocates_nothing() {
    let mut cfg = ClusterConfig::paper(OsVariant::McKernel).with_nodes(1);
    cfg.horizon_secs = 5;
    cfg.bypass = BypassConfig {
        enabled: true,
        ..BypassConfig::default()
    };
    let mut node = NodeRuntime::build(&cfg, 0, &StreamRng::root(1));
    // Open a regular file through the offload path, its name written
    // into the arena the job setup faulted in.
    let arena = node.arena_va;
    let pa = node
        .mck
        .as_ref()
        .expect("McKernel node")
        .process(node.app_pid)
        .expect("application process")
        .aspace
        .pt
        .translate(arena)
        .expect("arena faulted at job setup")
        .phys;
    node.hw.mem.write(pa, b"/data/input.bin\0");
    let (fd, mut t) = node.offload_syscall(
        Sysno::Open,
        [arena.raw(), 0, 0, 0, 0, 0],
        Cycles::from_ms(1),
    );
    assert!(fd >= 0, "offloaded open failed: {fd}");
    let mut read = |node: &mut NodeRuntime| {
        let (ret, done) =
            node.offload_syscall(Sysno::Read, [fd as u64, arena.raw(), 64, 0, 0, 0], t);
        assert_eq!(ret, 64);
        t = done;
    };
    // The first reads offload: they heat the profiler until it promotes
    // `read` and lease the fd as a regular file. Later ones are served
    // in the LWK.
    for _ in 0..1_000 {
        read(&mut node);
    }
    let promoted = node.bypass_promoted;
    assert!(promoted > 0, "the warm-up never promoted a read");
    let n = allocations(|| {
        for _ in 0..10_000 {
            read(&mut node);
        }
    });
    assert_eq!(
        node.bypass_promoted - promoted,
        10_000,
        "every read took the bypass"
    );
    assert_eq!(n, 0, "10,000 promoted read(64) calls allocated {n} times");
}

#[test]
fn a_warm_linux_quantum_allocates_nothing() {
    // A standard core plus phase-gated IRQs, under a competitor for part
    // of the run, at FWQ, OSU and mini-app quantum lengths. The first
    // pass sizes each memo for the busiest epoch these windows meet; the
    // second must find every buffer large enough.
    let rng = StreamRng::root(0xa110c).stream("core", 0);
    let mut rt = LinuxCoreRuntime::with_rng(
        CoreId(0),
        Some(TickSource::hz1000(rng.stream("tick", 0))),
        DaemonSource::standard_set(&rng)
            .into_iter()
            .map(|d| d.with_activity(4.0))
            .collect(),
        rng.stream("exec", 0),
    );
    let phases = (0..20)
        .map(|k| (Cycles::from_ms(50 * k), Cycles::from_ms(50 * k + 20)))
        .collect();
    rt.push_daemon(
        DaemonSource::eth_irq(rng.stream("eth", 0))
            .with_activity(20.0)
            .with_windows(phases),
    );
    let mut occ = CoreOccupancy::new();
    occ.add_load(CoreId(0), Cycles::from_ms(300), Cycles::from_ms(420), 3);
    occ.seal();
    let mut r = StreamRng::root(7);
    let windows: Vec<(Cycles, Cycles)> = (0..600)
        .map(|w| {
            let start = Cycles(r.range_u64(0, Cycles::from_secs(1).raw()));
            let work = match w % 3 {
                0 => Cycles(4_000),
                1 => Cycles(r.range_u64(1, Cycles::from_ms(2).raw())),
                _ => Cycles(r.range_u64(1, Cycles::from_ms(300).raw())),
            };
            (start, work)
        })
        .collect();
    let run = |rt: &mut LinuxCoreRuntime| {
        let mut interrupted = 0;
        for &(start, work) in &windows {
            interrupted += u32::from(rt.execute(start, work, &occ).interruptions > 0);
        }
        interrupted
    };
    let warm = run(&mut rt);
    assert!(warm > 300, "{warm} of 600 quanta were interrupted");
    let n = allocations(|| {
        run(&mut rt);
    });
    assert_eq!(n, 0, "600 warm quanta allocated {n} times");
}
