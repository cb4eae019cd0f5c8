//! Noise epochs.
//!
//! Every noise source draws each 10 ms epoch whole, from one stream
//! indexed by the epoch: all of its interruptions, their instants and
//! their costs, whatever window is asked about. A window's noise is then
//! the union of its epochs' interruptions that land inside it, so any
//! split of a window composes. Each Linux core keeps, per source, the
//! epoch it drew last ([`EpochMemo`]), which serves the short quanta of
//! FWQ and OSU.

use crate::tick::Interruption;
use simcore::Cycles;
use std::ops::Range;

/// Epoch length: 10 ms at 2.8 GHz, ten ticks.
pub(crate) const EPOCH: Cycles = Cycles::from_ms(10);

/// The epochs that overlap `[from, to)`; empty when the window is.
pub(crate) fn epochs_in(from: Cycles, to: Cycles) -> Range<u64> {
    if to <= from {
        return 0..0;
    }
    from.raw() / EPOCH.raw()..(to.raw() - 1) / EPOCH.raw() + 1
}

/// A noise source that draws each epoch whole.
pub(crate) trait EpochSource {
    /// Replace `out` with `epoch`'s interruptions, in time order.
    fn draw(&self, epoch: u64, out: &mut Vec<Interruption>);
}

/// Every interruption of `src` in `[from, to)`, in time order.
pub(crate) fn interruptions_in(src: &impl EpochSource, from: Cycles, to: Cycles) -> Vec<Interruption> {
    let (mut all, mut epoch) = (Vec::new(), Vec::new());
    for e in epochs_in(from, to) {
        src.draw(e, &mut epoch);
        all.extend(epoch.iter().filter(|i| from <= i.at && i.at < to));
    }
    all
}

/// One source's interruptions in the epoch it drew last. Its buffer is
/// reused, so once it has held the largest epoch a run meets, a redraw
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct EpochMemo {
    epoch: Option<u64>,
    ints: Vec<Interruption>,
}

impl EpochMemo {
    /// `src`'s interruptions in `epoch`, drawn unless already held.
    pub(crate) fn get(&mut self, src: &impl EpochSource, epoch: u64) -> &[Interruption] {
        if self.epoch != Some(epoch) {
            src.draw(epoch, &mut self.ints);
            self.epoch = Some(epoch);
        }
        &self.ints
    }

    /// The instant of `src`'s first interruption at or after `t`, or
    /// `limit` when none lands before it.
    pub(crate) fn next_at(&mut self, src: &impl EpochSource, t: Cycles, limit: Cycles) -> Cycles {
        let mut e = t.raw() / EPOCH.raw();
        while e.saturating_mul(EPOCH.raw()) < limit.raw() {
            if let Some(i) = self.get(src, e).iter().find(|i| i.at >= t) {
                return i.at.min(limit);
            }
            e += 1;
        }
        limit
    }
}
