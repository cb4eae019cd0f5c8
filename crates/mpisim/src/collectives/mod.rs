//! Collective operations (the six the paper benchmarks in Fig. 6/7).
//!
//! Every algorithm advances a vector of per-rank virtual clocks by walking
//! its message DAG through [`crate::p2p::send`]; OS behaviour enters via
//! the [`HostModel`] charged for every software overhead, copy, reduction
//! and registration. Algorithms follow MVAPICH's selection logic:
//!
//! | operation  | small                         | large               |
//! |------------|-------------------------------|---------------------|
//! | scatter    | binomial tree                 | binomial tree       |
//! | gather     | binomial tree                 | binomial tree       |
//! | reduce     | binomial tree                 | binomial tree       |
//! | bcast      | binomial tree                 | binomial tree       |
//! | allreduce  | recursive doubling            | Rabenseifner        |
//! | allgather  | recursive doubling (pow2)     | ring                |
//! | alltoall   | Bruck                         | pairwise exchange   |
//!
//! A [`Recorder`] captures `(src, dst, bytes, blocks)` per message so the
//! test suite can verify *data* correctness (who ends up holding what)
//! independent of timing.

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod barrier;
pub mod tree;

use crate::failure::RankFailure;
use crate::host::HostModel;
use crate::p2p::{self, P2pParams, SendTiming};
use crate::record::RecordSink;
use crate::regcache::RegCache;
use netsim::reliable::ReliableFabric;
use simcore::Cycles;

/// One recorded message with the data blocks it carried (block ids are
/// collective-specific; see each algorithm).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsgRecord {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Block ids carried.
    pub blocks: Vec<u32>,
}

/// Optional message recorder.
pub type Recorder = Option<Vec<MsgRecord>>;

/// Execution context threaded through every collective.
pub struct Ctx<'a, H: HostModel> {
    /// The paper's future-work fix: MPI knows it runs on a hybrid kernel
    /// and pre-registers its internal buffer pool at init, so no
    /// registration `write()` ever offloads on the critical path.
    pub hybrid_aware: bool,
    /// The interconnect (reliable-delivery layer over the switch).
    pub fabric: &'a mut ReliableFabric,
    /// OS hook.
    pub host: &'a mut H,
    /// p2p protocol parameters.
    pub params: &'a P2pParams,
    /// Per-rank registration caches.
    pub regcaches: &'a mut [RegCache],
    /// Optional message log.
    pub recorder: &'a mut Recorder,
    /// Reduction compute cost per KiB (charged at combine points).
    pub reduce_per_kib: Cycles,
    /// Registration-cache churn for the *current* operation: 0 for
    /// operations on cached user buffers; set to [`Ctx::internal_churn`]
    /// while a reduce-family collective cycles MPI-internal buffers (the
    /// Fig. 7 artifact).
    pub churn: f64,
    /// Communicator rank → fabric node map. `None` is the identity (the
    /// fault-free fast path). A shrunk communicator after a node death
    /// runs the same algorithms over the surviving nodes through this
    /// indirection; failures are reported back in *rank* space.
    pub rank_map: Option<&'a [usize]>,
    /// When set, the walk runs in *recording* mode: clocks carry symbolic
    /// tokens, every hook appends a [`crate::record::ReplayOp`] to the
    /// sink instead of touching host/fabric/cache state, and transfers
    /// never fail. The recorded per-node op lists replay one program
    /// per node (see [`crate::pcoll`]).
    pub sink: Option<&'a mut RecordSink>,
}

impl<H: HostModel> Ctx<'_, H> {
    /// Churn policy for MPI-internal buffers. Stock MVAPICH cycles its
    /// pool and re-registers sporadically; a *hybrid-aware* MPI (the
    /// paper's proposed fix, Sec. VI) pre-registers the whole pool at
    /// init and never again — toggled by [`Ctx::hybrid_aware`].
    pub fn internal_churn(&self) -> f64 {
        if self.hybrid_aware {
            0.0
        } else {
            crate::collectives::tree::INTERNAL_BUFFER_CHURN
        }
    }
}

impl<'a, H: HostModel> Ctx<'a, H> {
    /// Default reduction cost: ~2.8 GB/s single-core summing (1 cycle/B).
    pub fn reduce_cost(&self, bytes: u64) -> Cycles {
        Cycles(self.reduce_per_kib.raw() * bytes.div_ceil(1024))
    }

    /// Fabric node backing a communicator rank.
    pub fn node_of(&self, rank: usize) -> usize {
        self.rank_map.map_or(rank, |m| m[rank])
    }

    /// Invert [`Ctx::node_of`] (failure reporting only — O(p), off the
    /// fault-free path).
    fn rank_of(&self, node: usize) -> usize {
        self.rank_map.map_or(node, |m| {
            m.iter()
                .position(|&n| n == node)
                .expect("failed node is in the rank map")
        })
    }

    fn to_rank_space(&self, f: RankFailure) -> RankFailure {
        RankFailure {
            rank: self.rank_of(f.rank),
            observer: self.rank_of(f.observer),
            ..f
        }
    }

    /// Every communicator rank whose backing node is dead at `at`,
    /// ascending. This is how recovery widens one [`RankFailure`] into
    /// the full batch lost in a detection window: a correlated domain
    /// event kills several ranks at one instant, but the in-flight
    /// collective only reports the first peer it touched.
    pub fn dead_ranks(&self, at: Cycles) -> Vec<usize> {
        let p = self.rank_map.map_or(self.fabric.num_nodes(), |m| m.len());
        (0..p)
            .filter(|&r| self.fabric.is_dead(self.node_of(r), at))
            .collect()
    }

    /// Charge CPU work to the node backing `rank`.
    pub fn cpu(&mut self, rank: usize, at: Cycles, work: Cycles) -> Cycles {
        let node = self.node_of(rank);
        if let Some(s) = self.sink.as_mut() {
            return s.record_cpu(node, at, work);
        }
        self.host.cpu(node, at, work)
    }

    /// Charge an OpenMP region to the node backing `rank`.
    pub fn omp(&mut self, rank: usize, at: Cycles, per_thread: Cycles, threads: u32) -> Cycles {
        let node = self.node_of(rank);
        if let Some(s) = self.sink.as_mut() {
            return s.record_omp(node, at, per_thread, threads);
        }
        self.host.omp_region(node, at, per_thread, threads)
    }

    /// Transfer with clock update + optional recording. `blocks` is only
    /// evaluated when recording.
    pub fn xfer(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        clocks: &mut [Cycles],
        blocks: impl FnOnce() -> Vec<u32>,
    ) -> Result<SendTiming, RankFailure> {
        let (src_at, dst_at) = (clocks[src], clocks[dst]);
        self.xfer_at(src, dst, bytes, src_at, dst_at, clocks, blocks)
    }

    /// Transfer departing at explicit instants, max-merged into `clocks`.
    /// Round-based algorithms (ring, pairwise, recursive doubling, Bruck)
    /// post their `sendrecv` pairs *simultaneously* at the top of each
    /// round: using the round-start snapshot as the departure time models
    /// that overlap (a rank's send does not wait for its same-round
    /// receive), while the max-merge keeps the next round causal.
    ///
    /// Ranks are communicator ranks; the rank map (if any) translates to
    /// fabric nodes, and any [`RankFailure`] comes back in rank space.
    #[allow(clippy::too_many_arguments)]
    pub fn xfer_at(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        src_at: Cycles,
        dst_at: Cycles,
        clocks: &mut [Cycles],
        blocks: impl FnOnce() -> Vec<u32>,
    ) -> Result<SendTiming, RankFailure> {
        let (src_node, dst_node) = (self.node_of(src), self.node_of(dst));
        if let Some(s) = self.sink.as_mut() {
            let (s_tok, d_tok) = s.record_xfer(
                src_node, dst_node, bytes, self.churn, src_at, dst_at, clocks[src], clocks[dst],
            );
            clocks[src] = s_tok;
            clocks[dst] = d_tok;
            if let Some(rec) = self.recorder.as_mut() {
                rec.push(MsgRecord { src, dst, bytes, blocks: blocks() });
            }
            return Ok(SendTiming { sender_done: s_tok, receiver_done: d_tok });
        }
        let t = p2p::send(
            self.fabric,
            self.host,
            self.params,
            self.regcaches,
            src_node,
            dst_node,
            bytes,
            src_at,
            dst_at,
            self.churn,
        )
        .map_err(|f| self.to_rank_space(f))?;
        clocks[src] = clocks[src].max(t.sender_done);
        clocks[dst] = clocks[dst].max(t.receiver_done);
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(MsgRecord {
                src,
                dst,
                bytes,
                blocks: blocks(),
            });
        }
        Ok(t)
    }
}

/// Smallest `k` with `2^k >= p`.
pub fn ceil_log2(p: usize) -> u32 {
    usize::BITS - (p - 1).leading_zeros()
}

/// Virtual rank relabeling so any root reduces to root 0.
#[inline]
pub fn vrank(rank: usize, root: usize, p: usize) -> usize {
    (rank + p - root) % p
}

/// Invert [`vrank`].
#[inline]
pub fn unvrank(v: usize, root: usize, p: usize) -> usize {
    (v + root) % p
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::host::IdealHost;
    use netsim::LinkParams;
    use simcore::StreamRng;

    /// Standard small-cluster test rig.
    pub struct Rig {
        pub fabric: ReliableFabric,
        pub host: IdealHost,
        pub params: P2pParams,
        pub regcaches: Vec<RegCache>,
        pub recorder: Recorder,
    }

    impl Rig {
        pub fn new(p: usize) -> Rig {
            Rig {
                fabric: ReliableFabric::new(p, LinkParams::fdr_infiniband()),
                host: IdealHost::new(),
                params: P2pParams::default(),
                regcaches: (0..p)
                    .map(|i| RegCache::new(StreamRng::root(42).stream("rank", i as u64)))
                    .collect(),
                recorder: Some(Vec::new()),
            }
        }

        pub fn ctx(&mut self) -> Ctx<'_, IdealHost> {
            Ctx {
                hybrid_aware: false,
                fabric: &mut self.fabric,
                host: &mut self.host,
                params: &self.params,
                regcaches: &mut self.regcaches,
                recorder: &mut self.recorder,
                reduce_per_kib: Cycles::from_ns(350),
                churn: 0.0,
                rank_map: None,
                sink: None,
            }
        }

        pub fn records(&self) -> &[MsgRecord] {
            self.recorder.as_deref().unwrap_or(&[])
        }
    }

    /// Replay recorded messages as a data-flow: each rank's held block set
    /// grows by every message's blocks, in record order (records are
    /// causally ordered because algorithms emit sends in dependency order).
    pub fn replay_possession(p: usize, initial: Vec<Vec<u32>>, records: &[MsgRecord]) -> Vec<std::collections::BTreeSet<u32>> {
        let mut held: Vec<std::collections::BTreeSet<u32>> = initial
            .into_iter()
            .map(|v| v.into_iter().collect())
            .collect();
        assert_eq!(held.len(), p);
        for m in records {
            for b in &m.blocks {
                assert!(
                    held[m.src].contains(b),
                    "rank {} sent block {} it does not hold",
                    m.src,
                    b
                );
            }
            let blocks: Vec<u32> = m.blocks.clone();
            held[m.dst].extend(blocks);
        }
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn vrank_round_trips() {
        for p in [4usize, 7, 64] {
            for root in [0usize, 3 % p] {
                for r in 0..p {
                    assert_eq!(unvrank(vrank(r, root, p), root, p), r);
                }
                assert_eq!(vrank(root, root, p), 0);
            }
        }
    }
}
