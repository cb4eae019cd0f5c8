//! A4 — which kernel mechanism buys the quiet?
//!
//! FWQ on four synthetic core configurations: full Linux noise (ticks +
//! daemons), daemons-only (hypothetical tickless Linux), ticks-only
//! (daemonless), and the LWK (neither, cooperative). Shows that both the
//! tick-less design *and* the absence of kernel threads are needed for
//! McKernel-grade flatness.

use bench::header;
use hwmodel::cpu::CoreId;
use linuxsim::daemons::DaemonSource;
use linuxsim::occupancy::CoreOccupancy;
use linuxsim::runtime::{noiseless_execute, LinuxCoreRuntime};
use linuxsim::tick::TickSource;
use simcore::{Cycles, StreamRng, Summary};
use workloads::fwq;

fn measure(mut rt: Option<&mut LinuxCoreRuntime>, occ: &CoreOccupancy) -> Summary {
    let samples = fwq::run_for(
        fwq::DEFAULT_QUANTUM,
        Cycles::from_secs(5),
        Cycles(1),
        |at, w| match rt.as_deref_mut() {
            Some(rt) => {
                let done = rt.execute(at, w, occ).finish;
                (done, rt.quiet_until(done, occ))
            }
            None => (noiseless_execute(at, w).finish, Cycles::MAX),
        },
    );
    let worst = fwq::worst_window(&samples, fwq::WINDOW);
    Summary::from_samples(&worst.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

fn main() {
    header("Ablation A4 — scheduler/noise mechanism decomposition (FWQ, worst window)");
    let rng = StreamRng::root(0xA4).stream("core", 0);
    let core = CoreId(0);
    let mut occ = CoreOccupancy::new();
    occ.seal();

    let mut configs: Vec<(&str, Option<LinuxCoreRuntime>)> = vec![
        (
            "ticks + daemons (Linux)",
            Some(LinuxCoreRuntime::with_rng(
                core,
                Some(TickSource::hz1000(rng.stream("tick", 0))),
                DaemonSource::standard_set(&rng),
                rng.stream("exec", 0),
            )),
        ),
        (
            "daemons only (tickless Linux)",
            Some(LinuxCoreRuntime::with_rng(
                core,
                None,
                DaemonSource::standard_set(&rng),
                rng.stream("exec", 1),
            )),
        ),
        (
            "ticks only (no kernel threads)",
            Some(LinuxCoreRuntime::with_rng(
                core,
                Some(TickSource::hz1000(rng.stream("tick", 0))),
                Vec::new(),
                rng.stream("exec", 2),
            )),
        ),
        ("tick-less cooperative (LWK)", None),
    ];

    println!(
        "{:<34} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "mean(cy)", "max(cy)", "p99(cy)", "slowdown"
    );
    for (label, rt) in &mut configs {
        let s = measure(rt.as_mut(), &occ);
        println!(
            "{:<34} {:>10.0} {:>10.0} {:>10.0} {:>9.1}x",
            label,
            s.mean,
            s.max,
            s.p99,
            s.max / fwq::DEFAULT_QUANTUM.raw() as f64
        );
    }
    println!("\nExpected: removing either the tick or the daemons is not enough —");
    println!("only the LWK configuration is perfectly flat.");
}
