//! Barrier (dissemination algorithm) and reduce-scatter — the two
//! building blocks MVAPICH composes many of its other operations from.
//! Not plotted in the paper's Fig. 6, but the OSU suite measures both, and
//! [`super::allreduce::allreduce_rabenseifner`] is this reduce-scatter
//! followed by a recursive-doubling allgather.

use super::{ceil_log2, Ctx};
use crate::failure::RankFailure;
use crate::host::HostModel;
use simcore::Cycles;

/// Dissemination barrier: ceil(log2 p) rounds; in round `k` rank `r`
/// signals `(r + 2^k) mod p`. Works for any `p`. Returns per-rank exit
/// times (each rank may leave as soon as it has heard from all its
/// transitive predecessors).
pub fn barrier<H: HostModel>(
    ctx: &mut Ctx<'_, H>,
    p: usize,
    start: &[Cycles],
) -> Result<Vec<Cycles>, RankFailure> {
    assert_eq!(start.len(), p);
    let mut clocks = start.to_vec();
    if p == 1 {
        return Ok(clocks);
    }
    let token = 0u64; // zero-byte signal; the wire still carries a header
    for k in 0..ceil_log2(p) {
        let dist = 1usize << k;
        let round = clocks.clone();
        for r in 0..p {
            let dst = (r + dist) % p;
            ctx.xfer_at(r, dst, token, round[r], round[dst], &mut clocks, Vec::new)?;
        }
    }
    Ok(clocks)
}

/// Reduce-scatter (recursive halving, power-of-two): after completion,
/// rank `r` owns the fully reduced chunk `r` of the vector (`bytes/p`
/// each). Charges combine compute per received half.
pub fn reduce_scatter<H: HostModel>(
    ctx: &mut Ctx<'_, H>,
    p: usize,
    bytes: u64,
    start: &[Cycles],
) -> Result<Vec<Cycles>, RankFailure> {
    assert!(p.is_power_of_two(), "recursive halving needs 2^k ranks");
    assert_eq!(start.len(), p);
    let mut clocks = start.to_vec();
    if p == 1 {
        return Ok(clocks);
    }
    let saved = ctx.churn;
    ctx.churn = ctx.internal_churn();
    let mut chunk = bytes / 2;
    for k in 0..ceil_log2(p) {
        let dist = p >> (k + 1);
        let round = clocks.clone();
        for r in 0..p {
            let partner = r ^ dist;
            if r > partner {
                continue;
            }
            let res = ctx
                .xfer_at(r, partner, chunk, round[r], round[partner], &mut clocks, Vec::new)
                .and_then(|_| {
                    ctx.xfer_at(partner, r, chunk, round[partner], round[r], &mut clocks, Vec::new)
                });
            if let Err(e) = res {
                ctx.churn = saved;
                return Err(e);
            }
            let combine = ctx.reduce_cost(chunk);
            clocks[r] = ctx.cpu(r, clocks[r], combine);
            clocks[partner] = ctx.cpu(partner, clocks[partner], combine);
        }
        chunk = (chunk / 2).max(1);
    }
    ctx.churn = saved;
    Ok(clocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::testutil::Rig;

    #[test]
    fn barrier_synchronizes_a_straggler() {
        let p = 8;
        let mut rig = Rig::new(p);
        // Rank 5 arrives 1 ms late; nobody may exit before its signal has
        // had time to disseminate.
        let mut start = vec![Cycles::from_us(10); p];
        start[5] = Cycles::from_ms(1);
        let done = barrier(&mut rig.ctx(), p, &start).expect("fault-free");
        for (r, &d) in done.iter().enumerate() {
            assert!(
                d >= Cycles::from_ms(1),
                "rank {r} exited at {d} before the straggler arrived"
            );
        }
        // And exits happen within a few hops of the straggler's arrival.
        let worst = *done.iter().max().expect("nonempty");
        assert!(worst < Cycles::from_ms(1) + Cycles::from_us(30));
    }

    #[test]
    fn barrier_costs_log_rounds() {
        let p = 64;
        let mut rig = Rig::new(p);
        let start = vec![Cycles::ZERO; p];
        let done = barrier(&mut rig.ctx(), p, &start).expect("fault-free");
        let worst = done.iter().max().expect("nonempty").as_us_f64();
        // 6 rounds of ~1.3us hops, not 63.
        assert!((4.0..25.0).contains(&worst), "{worst}us");
    }

    #[test]
    fn barrier_works_for_odd_p() {
        let p = 7;
        let mut rig = Rig::new(p);
        let mut start = vec![Cycles::ZERO; p];
        start[3] = Cycles::from_us(500);
        let done = barrier(&mut rig.ctx(), p, &start).expect("fault-free");
        assert!(done.iter().all(|&d| d >= Cycles::from_us(500)));
    }

    #[test]
    fn reduce_scatter_moves_one_vector_worth() {
        let p = 8;
        let mut rig = Rig::new(p);
        let start = vec![Cycles::ZERO; p];
        let bytes = 1u64 << 20;
        reduce_scatter(&mut rig.ctx(), p, bytes, &start).expect("fault-free");
        let moved: u64 = rig.records().iter().map(|m| m.bytes).sum();
        // Recursive halving: each rank sends bytes/2 + bytes/4 + ... =
        // ~bytes * (p-1)/p; total ≈ bytes * (p-1).
        let expected = bytes * (p as u64 - 1);
        let ratio = moved as f64 / expected as f64;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn reduce_scatter_plus_allgather_equals_rabenseifner_cost_shape() {
        use crate::collectives::{allgather, allreduce};
        let p = 16;
        let bytes = 1u64 << 20;
        let start = vec![Cycles::ZERO; p];
        let mut a = Rig::new(p);
        let rs = reduce_scatter(&mut a.ctx(), p, bytes, &start).expect("fault-free");
        let composed =
            allgather::allgather_rd(&mut a.ctx(), p, bytes / p as u64, &rs).expect("fault-free");
        let mut b = Rig::new(p);
        let rab =
            allreduce::allreduce_rabenseifner(&mut b.ctx(), p, bytes, &start).expect("fault-free");
        let c = composed.iter().max().expect("nonempty").raw() as f64;
        let r = rab.iter().max().expect("nonempty").raw() as f64;
        assert!((c / r - 1.0).abs() < 0.15, "composed {c} vs rabenseifner {r}");
    }
}
