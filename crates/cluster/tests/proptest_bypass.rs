//! Equivalence property for the profile-guided offload bypass (D13):
//! under ANY random syscall sequence, promotion threshold, domain
//! arming, and fault schedule, a node with the bypass armed must
//! produce exactly the same return values, the same final fd offsets,
//! and the same application memory bytes as a node that always
//! offloads. The bypass may change *timing* — never *results*.
//!
//! Mechanism counters (`bypass_promoted`, `linux.offload.serviced`)
//! are deliberately excluded from the equality — they are *supposed*
//! to differ. They appear only in honesty checks proving the fast
//! path actually engaged (a bypass that silently never promotes would
//! pass any equivalence test).
//!
//! The generated sequences deliberately include every fallback edge:
//! unknown fds, buffers in unmapped VMAs, buffers straddling the
//! arena page boundary, futex words in the last 3 bytes of a page,
//! unknown futex ops, SEEK_END and out-of-range whence values, device
//! and procfs fds (never promotable), closes that revoke the fd
//! lease, cold and published time pages, and a mid-sequence proxy
//! death that strands both nodes on the `-EIO` path.

use cluster::{node::NodeRuntime, ClusterConfig, OsVariant};
use hlwk_core::abi::{Fd, Sysno};
use hlwk_core::mck::syscall::BypassConfig;
use hwmodel::addr::PAGE_SIZE;
use proptest::collection::vec;
use proptest::prelude::*;
use simcore::{Cycles, StreamRng};

/// One generated op: (kind, a, b, c) — decoded in `run_sequence` so
/// the strategy stays a plain tuple (the idiom `proptest_recovery`
/// uses for fault schedules).
type RawOp = (u8, u64, u64, u64);

/// An fd number no sequence can legitimately own.
const INVALID_FD: u64 = 9_999;

/// Offsets inside the pre-faulted arena page where the `open()` path
/// strings live. Generated buffer offsets stay below 256 and generated
/// lengths below 300, so fills can never clobber these.
const REGULAR_PATH_OFF: u64 = 3072;
const PROCFS_PATH_OFF: u64 = 3200;

/// Everything result-visible a run produces. Completion time rides
/// along for the cold-bypass exact-equality check; the hot-path
/// comparison only uses it directionally.
struct RunOut {
    rets: Vec<i64>,
    /// (fd, final offset) for every fd the sequence still owns;
    /// `None` offset means the VFS no longer knows the fd (reaped).
    fd_state: Vec<(u64, Option<u64>)>,
    arena: Vec<u8>,
    done: Cycles,
    promoted: u64,
    fallbacks: u64,
    serviced: u64,
}

fn build_node() -> NodeRuntime {
    let mut cfg = ClusterConfig::paper(OsVariant::McKernel).with_nodes(1);
    cfg.horizon_secs = 5;
    NodeRuntime::build(&cfg, 0, &StreamRng::root(77))
}

fn arena_phys(n: &NodeRuntime) -> hwmodel::addr::PhysAddr {
    n.mck
        .as_ref()
        .expect("mckernel node")
        .process(n.app_pid)
        .expect("app")
        .aspace
        .pt
        .translate(n.arena_va)
        .expect("arena faulted at setup")
        .phys
}

fn pick_fd(fds: &[u64], sel: u64) -> u64 {
    if fds.is_empty() || sel % 7 == 0 {
        INVALID_FD
    } else {
        fds[(sel as usize / 7) % fds.len()]
    }
}

/// Buffer addresses spanning every interesting translation case: deep
/// inside the faulted arena page, straddling its end, the page after
/// it, and a VMA-free hole.
fn pick_buf(arena: u64, sel: u64) -> u64 {
    match sel % 8 {
        0 => 0xdead_0000,
        1 => arena + PAGE_SIZE - 6,
        2 => arena + PAGE_SIZE - 2,
        3 => arena + PAGE_SIZE,
        _ => arena + (sel / 8) % 256,
    }
}

/// Drive one full sequence on a fresh node. `bypass` arms the
/// promotion machinery (threshold, MPK-style domains); `kill_after`
/// injects a proxy death after that many decoded ops.
fn run_sequence(ops: &[RawOp], bypass: Option<(u64, bool)>, kill_after: Option<usize>) -> RunOut {
    let mut n = build_node();
    if let Some((promote_after, domains)) = bypass {
        n.mck.as_mut().expect("mckernel node").bypass = BypassConfig {
            enabled: true,
            promote_after,
            domains: false,
        };
        if domains {
            n.enable_domains();
        }
    }
    let pa = arena_phys(&n);
    n.hw.mem.write(pa + REGULAR_PATH_OFF, b"/data/prop.bin\0");
    n.hw.mem.write(pa + PROCFS_PATH_OFF, b"/proc/meminfo\0");
    let arena = n.arena_va.raw();

    let mut rets = Vec::new();
    let mut fds: Vec<u64> = Vec::new();
    let mut t = Cycles::from_ms(1);

    // Deterministic warm prelude: one open plus four reads, so small
    // promotion thresholds are guaranteed to engage regardless of what
    // the random tail contains (the honesty checks key off this).
    let (fd0, t0) = n.offload_syscall(Sysno::Open, [arena + REGULAR_PATH_OFF, 0, 0, 0, 0, 0], t);
    assert!(fd0 >= 0, "prelude open failed: {fd0}");
    rets.push(fd0);
    fds.push(fd0 as u64);
    t = t0;
    for _ in 0..4 {
        let (r, t2) = n.offload_syscall(Sysno::Read, [fd0 as u64, arena, 64, 0, 0, 0], t);
        rets.push(r);
        t = t2 + Cycles(500);
    }

    for (i, &(kind, a, b, c)) in ops.iter().enumerate() {
        if kill_after == Some(i) {
            n.inject_proxy_death(t);
        }
        let call: Option<(Sysno, [u64; 6])> = match kind % 10 {
            0..=2 => Some((
                Sysno::Read,
                [pick_fd(&fds, a), pick_buf(arena, b), c % 300, 0, 0, 0],
            )),
            3 => Some((
                Sysno::Write,
                [pick_fd(&fds, a), pick_buf(arena, b), c % 300, 0, 0, 0],
            )),
            4 => Some((
                Sysno::Lseek,
                [
                    pick_fd(&fds, a),
                    ((b as i64 % 1000) - 200) as u64,
                    c % 4,
                    0,
                    0,
                    0,
                ],
            )),
            5 => {
                // Futex op mix: WAIT / WAKE (bare and PRIVATE) plus an
                // unknown op that must fall back and come home -ENOSYS.
                let op = [0u64, 1, 128, 129, 9][(b % 5) as usize];
                let val = [0u64, 0xABAB_ABAB, c & 0xFFFF_FFFF][(c % 3) as usize];
                Some((Sysno::Futex, [pick_buf(arena, a), op, val, 0, 0, 0]))
            }
            6 => Some((Sysno::ClockGettime, [0; 6])),
            7 => {
                let path = if a % 2 == 0 {
                    REGULAR_PATH_OFF
                } else {
                    PROCFS_PATH_OFF
                };
                Some((Sysno::Open, [arena + path, 0, 0, 0, 0, 0]))
            }
            8 => Some((Sysno::Close, [pick_fd(&fds, a), 0, 0, 0, 0, 0])),
            _ => {
                // Host action, not a syscall: publish the vDSO-style
                // time page (and Linux's vdso value) on this node.
                n.publish_time(a % 2_000_000_000);
                None
            }
        };
        if let Some((sysno, args)) = call {
            let (r, t2) = n.offload_syscall(sysno, args, t);
            match sysno {
                Sysno::Open if r >= 0 => fds.push(r as u64),
                Sysno::Close if r == 0 => fds.retain(|&f| f != args[0]),
                _ => {}
            }
            rets.push(r);
            t = t2 + Cycles(500);
        }
    }

    let proxy = n.proxy_pid;
    let fd_state = fds
        .iter()
        .map(|&fd| {
            let pos =
                proxy.and_then(|p| n.linux.vfs.file(p, Fd(fd as i32)).ok().map(|f| f.pos));
            (fd, pos)
        })
        .collect();
    // The setup-time physical address is reused here: after a proxy
    // death the LWK partition (and its page tables) are reclaimed, but
    // the backing frame's bytes are still the run's observable output.
    let mut arena_bytes = vec![0u8; PAGE_SIZE as usize];
    n.hw.mem.read(pa, &mut arena_bytes);
    RunOut {
        rets,
        fd_state,
        arena: arena_bytes,
        done: t,
        promoted: n.bypass_promoted,
        fallbacks: n.bypass_fallbacks,
        serviced: n.linux.offloads_serviced,
    }
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    (0u8..10, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core property: promoted and always-offload runs of the same
    /// sequence are result-identical, across promotion thresholds
    /// (including never-promotes) and with domains on or off.
    #[test]
    fn bypass_is_result_identical_to_offload(
        ops in vec(raw_op(), 0..40),
        pa_sel in 0usize..5,
        domains in 0u8..2,
    ) {
        let promote_after = [0, 1, 2, 4, u64::MAX][pa_sel];
        let base = run_sequence(&ops, None, None);
        let fast = run_sequence(&ops, Some((promote_after, domains == 1)), None);

        prop_assert_eq!(&base.rets, &fast.rets, "return values diverged");
        prop_assert_eq!(&base.fd_state, &fast.fd_state, "fd offsets diverged");
        prop_assert_eq!(&base.arena, &fast.arena, "app memory diverged");

        // Honesty: the prelude's four reads guarantee promotion for
        // small thresholds, and promotion must shed offloads — this is
        // an equivalence test of a fast path, not of a no-op.
        if promote_after <= 2 {
            prop_assert!(fast.promoted >= 1, "bypass never engaged");
            prop_assert!(
                fast.serviced < base.serviced,
                "promotion did not shed offloads: {} vs {}",
                fast.serviced, base.serviced
            );
        }
        if promote_after == u64::MAX {
            // Armed-but-cold must be indistinguishable from disabled,
            // down to the modeled completion time.
            prop_assert_eq!(fast.promoted, 0, "cold bypass promoted");
            prop_assert_eq!(fast.fallbacks, 0, "cold bypass attempted");
            prop_assert_eq!(base.done, fast.done, "cold bypass changed timing");
            prop_assert_eq!(base.serviced, fast.serviced);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault schedule: a proxy death anywhere in the sequence strands
    /// both nodes identically — the promoted path must be unreachable
    /// after the death (the `-EIO` fast-fail precedes the promotion
    /// check), so results still match call for call.
    #[test]
    fn bypass_is_result_identical_across_proxy_death(
        ops in vec(raw_op(), 1..24),
        kill_after in 0usize..24,
        pa_sel in 0usize..3,
        domains in 0u8..2,
    ) {
        let promote_after = [0, 1, 2][pa_sel];
        let kill = Some(kill_after.min(ops.len() - 1));
        let base = run_sequence(&ops, None, kill);
        let fast = run_sequence(&ops, Some((promote_after, domains == 1)), kill);

        prop_assert_eq!(&base.rets, &fast.rets, "return values diverged");
        prop_assert_eq!(&base.fd_state, &fast.fd_state, "fd state diverged");
        prop_assert_eq!(&base.arena, &fast.arena, "app memory diverged");
    }
}
