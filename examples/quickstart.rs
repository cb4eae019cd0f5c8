//! Quickstart: boot the hybrid stack on one node and watch it work.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole IHK/McKernel lifecycle on a simulated paper-testbed
//! node: dynamic partitioning, LWK boot, proxy spawn, an offloaded
//! syscall crossing the unified address space, and the noise difference
//! between a Linux core and an LWK core.

use cluster::{node::NodeRuntime, Cluster, ClusterConfig, OsVariant};
use hlwk_core::abi::Sysno;
use simcore::{Cycles, StreamRng};
use workloads::fwq;

fn main() {
    println!("=== IHK/McKernel quickstart ===\n");

    // 1. Build a paper-testbed node running the hybrid stack. This is not
    //    a stub: IHK reserves 9 NUMA-1 cores + 16 GiB, boots McKernel,
    //    spawns the proxy on core 19, offloads open("/dev/infiniband/
    //    uverbs0") through IKC, and maps the HCA doorbell page via the
    //    Fig. 4 device-mapping flow.
    let cfg = ClusterConfig::paper(OsVariant::McKernel).with_nodes(1).with_seed(7);
    let mut node = NodeRuntime::build(&cfg, 0, &StreamRng::root(cfg.seed));
    println!("LWK booted on cores {:?}", cfg.lwk_cores());
    println!("proxy process pid {:?} on {}", node.proxy_pid, cfg.proxy_core());
    println!("uverbs fd (lives in Linux)   = {}", node.uverbs_fd);
    println!("doorbell page physical addr  = {:?}", node.doorbell_phys);

    // 2. A performance-sensitive syscall stays on the LWK...
    let t0 = Cycles::from_ms(1);
    let (pid, t1) = node.offload_syscall(Sysno::Getpid, [0; 6], t0);
    println!("\ngetpid() -> {pid} in {} (handled in McKernel)", t1 - t0);

    // 3. ...while getrandom() offloads: marshalled over IKC, the proxy
    //    writes the result INTO APPLICATION MEMORY through the unified
    //    address space.
    let (n, t2) = node.offload_syscall(
        Sysno::GetRandom,
        [node.arena_va.raw(), 128, 0, 0, 0, 0],
        t1,
    );
    println!(
        "getrandom(app buffer, 128) -> {n} bytes in {} (offloaded to Linux)",
        t2 - t1
    );
    let stats = node
        .linux
        .proxy(node.proxy_pid.expect("proxy spawned"))
        .expect("registered")
        .uas
        .stats();
    println!("unified address space: {} faults, {} cached hits", stats.0, stats.1);

    // 4. The punchline: the same fixed work quantum on each kernel.
    println!("\nFWQ noise probe (4000-cycle quanta, 100 ms):");
    for os in [OsVariant::LinuxCgroup, OsVariant::McKernel] {
        let cfg = ClusterConfig::paper(os).with_nodes(1).with_seed(7);
        let mut cluster = Cluster::build(cfg);
        let samples = cluster.fwq(
            fwq::DEFAULT_QUANTUM,
            Cycles::from_ms(100),
            Cycles::from_us(1),
        );
        let max = *samples.iter().max().expect("samples");
        let noisy = samples.iter().filter(|&&s| s > 4000).count();
        println!(
            "  {:<22} worst sample {:>6} cycles, {} of {} samples disturbed",
            os.label(),
            max,
            noisy,
            samples.len()
        );
    }
    println!("\nMcKernel's quiet is structural: no timer tick, no kernel threads,");
    println!("cooperative scheduling — there is simply nothing to interrupt the app.");
}
