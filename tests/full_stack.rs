//! End-to-end integration of the whole hybrid stack: IHK partitioning,
//! LWK boot, proxy pairing, unified address space, device mapping, IKC
//! delegation, and teardown — asserted through the public APIs only.

use cluster::{node::NodeRuntime, Cluster, ClusterConfig, OsVariant};
use hlwk_core::abi::Sysno;
use hwmodel::pci::DeviceClass;
use simcore::{Cycles, StreamRng};

fn mck_node(seed: u64) -> NodeRuntime {
    let mut cfg = ClusterConfig::paper(OsVariant::McKernel)
        .with_nodes(1)
        .with_seed(seed);
    cfg.horizon_secs = 5;
    NodeRuntime::build(&cfg, 0, &StreamRng::root(seed))
}

#[test]
fn boot_leaves_linux_with_numa0_plus_proxy_core() {
    let node = mck_node(1);
    let ihk = node.ihk.as_ref().expect("IHK manager present");
    assert_eq!(ihk.linux_cores().len(), 11);
    // The LWK partition got 16 GiB of NUMA-1 memory.
    let mck = node.mck.as_ref().expect("LWK booted");
    assert_eq!(mck.alloc.len_bytes(), 16 << 30);
    assert!(mck.alloc.base().raw() >= 32 << 30, "memory from NUMA 1");
}

#[test]
fn offloaded_syscall_round_trip_crosses_every_layer() {
    let mut node = mck_node(2);
    let before_offloads = node.mck.as_ref().unwrap().syscalls_offloaded;
    let (ret, done) = node.offload_syscall(
        Sysno::GetRandom,
        [node.arena_va.raw(), 512, 0, 0, 0, 0],
        Cycles::from_ms(3),
    );
    assert_eq!(ret, 512);
    assert!(done > Cycles::from_ms(3));
    // LWK counted the offload...
    assert_eq!(
        node.mck.as_ref().unwrap().syscalls_offloaded,
        before_offloads + 1
    );
    // ...Linux serviced it...
    assert!(node.linux.offloads_serviced >= 1);
    // ...the IKC channels carried request and reply...
    let (sent, received, full) = node.ikc.to_linux.stats();
    assert_eq!(sent, received);
    assert!(sent >= 1);
    assert_eq!(full, 0);
    // ...and the data is really in the application's physical memory.
    let pa = node
        .mck
        .as_ref()
        .unwrap()
        .process(node.app_pid)
        .unwrap()
        .aspace
        .pt
        .translate(node.arena_va)
        .unwrap()
        .phys;
    let mut buf = vec![0u8; 512];
    node.hw.mem.read(pa, &mut buf);
    assert!(buf.iter().any(|&b| b != 0));
}

#[test]
fn unified_address_space_proxy_reads_app_bytes() {
    let mut node = mck_node(3);
    // The app writes a path into its own memory...
    let pa = node
        .mck
        .as_ref()
        .unwrap()
        .process(node.app_pid)
        .unwrap()
        .aspace
        .pt
        .translate(node.arena_va)
        .unwrap()
        .phys;
    node.hw.mem.write(pa, b"/proc/meminfo\0");
    // ...and the proxy dereferences the pointer while servicing open().
    let (fd, _) = node.offload_syscall(
        Sysno::Open,
        [node.arena_va.raw(), 0, 0, 0, 0, 0],
        Cycles::from_ms(5),
    );
    assert!(fd > node.uverbs_fd, "new fd allocated by Linux");
    // Close it again, through the same path.
    let (r, _) = node.offload_syscall(Sysno::Close, [fd as u64, 0, 0, 0, 0, 0], Cycles::from_ms(6));
    assert_eq!(r, 0);
}

#[test]
fn doorbell_page_is_the_real_bar_and_survives_reuse() {
    let node = mck_node(4);
    let bar = node
        .hw
        .device_of_class(DeviceClass::InfinibandHca)
        .unwrap()
        .bars[0];
    let db = node.doorbell_phys.expect("mapped during setup");
    assert!(bar.contains(db));
    // The LWK page table maps it as device memory.
    let proc = node.mck.as_ref().unwrap().process(node.app_pid).unwrap();
    let dev_leaves = proc
        .aspace
        .vm
        .iter()
        .filter(|v| matches!(v.kind, hlwk_core::mck::mem::vm::VmaKind::Device { .. }))
        .count();
    assert_eq!(dev_leaves, 1, "exactly one device mapping (the UAR)");
}

#[test]
fn teardown_restores_pristine_lwk_and_linux() {
    let mut node = mck_node(5);
    node.offload_syscall(
        Sysno::GetRandom,
        [node.arena_va.raw(), 64, 0, 0, 0, 0],
        Cycles::from_ms(1),
    );
    let proxy = node.proxy_pid.unwrap();
    assert!(node.linux.vfs.fd_count(proxy) > 0);
    node.reap_job();
    assert!(node.mck.as_ref().unwrap().is_pristine());
    assert_eq!(node.linux.vfs.fd_count(proxy), 0);
    assert!(node.linux.proxy(proxy).is_none());
}

#[test]
fn cluster_builds_are_deterministic() {
    let build_and_run = |os: OsVariant, seed: u64| {
        let mut cfg = ClusterConfig::paper(os).with_nodes(4).with_seed(seed);
        cfg.insitu = true;
        cfg.horizon_secs = 20;
        let mut c = Cluster::build(cfg);
        let app = workloads::miniapps::MiniApp {
            iterations: 3,
            ..workloads::miniapps::MiniApp::minife()
        };
        c.run_miniapp(&app, Cycles::from_ms(1)).expect("fault-free").raw()
    };
    // Same seed: bit-identical results.
    assert_eq!(
        build_and_run(OsVariant::LinuxCgroup, 42),
        build_and_run(OsVariant::LinuxCgroup, 42)
    );
    // Different seed: the noisy configuration must differ...
    assert_ne!(
        build_and_run(OsVariant::LinuxCgroup, 42),
        build_and_run(OsVariant::LinuxCgroup, 43)
    );
    // ...while a *quiet* McKernel run is seed-independent by construction:
    // an LWK with no noise sources has nothing stochastic in it.
    let quiet = |seed| {
        let cfg = ClusterConfig::paper(OsVariant::McKernel)
            .with_nodes(4)
            .with_seed(seed);
        let mut c = Cluster::build(cfg);
        let app = workloads::miniapps::MiniApp {
            iterations: 3,
            ..workloads::miniapps::MiniApp::minife()
        };
        c.run_miniapp(&app, Cycles::from_ms(1)).expect("fault-free").raw()
    };
    assert_eq!(quiet(42), quiet(43));
}

#[test]
fn every_os_variant_runs_the_same_binary() {
    // "we used the exact same binaries for measurements running on top of
    // Linux and our stack" — the same MiniApp spec runs unmodified on all
    // three variants and produces comparable times.
    let app = workloads::miniapps::MiniApp {
        iterations: 4,
        ..workloads::miniapps::MiniApp::ffvc()
    };
    let mut times = Vec::new();
    for os in OsVariant::all() {
        let cfg = ClusterConfig::paper(os).with_nodes(2).with_seed(9);
        let mut c = Cluster::build(cfg);
        times.push(c.run_miniapp(&app, Cycles::from_ms(1)).expect("fault-free").as_secs_f64());
    }
    let max = times.iter().cloned().fold(0.0, f64::max);
    let min = times.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min < 1.10, "same app, same ballpark: {times:?}");
}

#[test]
fn proc_meminfo_shows_linux_view_minus_the_lwk_partition() {
    // The motivating use case from Sec. I: rich Linux APIs (/proc) work
    // from the LWK through delegation — and return *Linux's* view, in
    // which IHK's 16 GiB reservation has vanished from MemTotal.
    let mut node = mck_node(6);
    let pa = node
        .mck
        .as_ref()
        .unwrap()
        .process(node.app_pid)
        .unwrap()
        .aspace
        .pt
        .translate(node.arena_va)
        .unwrap()
        .phys;
    node.hw.mem.write(pa, b"/proc/meminfo\0");
    let (fd, t1) = node.offload_syscall(
        Sysno::Open,
        [node.arena_va.raw(), 0, 0, 0, 0, 0],
        Cycles::from_ms(2),
    );
    assert!(fd >= 0);
    let buf_va = node.arena_va + 0x1000;
    let (n, _) = node.offload_syscall(
        Sysno::Read,
        [fd as u64, buf_va.raw(), 4096, 0, 0, 0],
        t1,
    );
    assert!(n > 0, "read returned {n}");
    // Fetch what the proxy wrote into the app's buffer.
    let pa = node
        .mck
        .as_ref()
        .unwrap()
        .process(node.app_pid)
        .unwrap()
        .aspace
        .pt
        .translate(buf_va)
        .unwrap()
        .phys;
    let mut content = vec![0u8; n as usize];
    node.hw.mem.read(pa, &mut content);
    let text = String::from_utf8(content).expect("procfs is text");
    // 64 GiB node minus the 16 GiB LWK partition = 48 GiB visible.
    let visible_kb = (48u64 << 30) >> 10;
    assert!(
        text.contains(&format!("{visible_kb}")),
        "MemTotal should reflect the reservation; got:\n{text}"
    );
}
