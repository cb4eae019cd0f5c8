//! POSIX signal state, implemented inside the LWK.
//!
//! McKernel "implements signaling" locally (Sec. II) — signals never cross
//! to Linux, so delivery costs no IKC hop.

use simcore::FastMap;

/// Signal numbers used by the workloads.
pub mod sig {
    /// SIGINT.
    pub const INT: u8 = 2;
    /// SIGKILL (cannot be caught or blocked).
    pub const KILL: u8 = 9;
    /// SIGUSR1.
    pub const USR1: u8 = 10;
    /// SIGSEGV.
    pub const SEGV: u8 = 11;
    /// SIGUSR2.
    pub const USR2: u8 = 12;
    /// SIGTERM.
    pub const TERM: u8 = 15;
    /// SIGCHLD (default-ignored).
    pub const CHLD: u8 = 17;
}

/// Disposition configured via `rt_sigaction`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SigAction {
    /// Default action for the signal.
    Default,
    /// Explicitly ignored.
    Ignore,
    /// User handler installed.
    Handler,
}

/// What delivering a signal does to the process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Delivery {
    /// Process terminates.
    Terminate,
    /// Signal dropped.
    Ignored,
    /// User handler runs (costs a user-level trampoline, no kernel exit).
    RunHandler,
}

/// Per-process signal state.
#[derive(Debug, Default)]
pub struct SignalState {
    pending: u64,
    blocked: u64,
    actions: FastMap<u8, SigAction>,
}

fn bit(signo: u8) -> u64 {
    assert!((1..=63).contains(&signo), "bad signal {signo}");
    1u64 << signo
}

/// Default action table (terminate vs ignore) for the modeled signals.
fn default_delivery(signo: u8) -> Delivery {
    match signo {
        sig::CHLD => Delivery::Ignored,
        _ => Delivery::Terminate,
    }
}

impl SignalState {
    /// Fresh state: nothing pending, nothing blocked, all defaults.
    pub fn new() -> Self {
        SignalState::default()
    }

    /// `rt_sigaction`: set the disposition. SIGKILL cannot be changed.
    #[allow(clippy::result_unit_err)] // the only failure is "was SIGKILL"
    pub fn set_action(&mut self, signo: u8, action: SigAction) -> Result<(), ()> {
        if signo == sig::KILL {
            return Err(());
        }
        self.actions.insert(signo, action);
        Ok(())
    }

    /// `rt_sigprocmask`: block a signal. SIGKILL cannot be blocked.
    pub fn block(&mut self, signo: u8) {
        if signo != sig::KILL {
            self.blocked |= bit(signo);
        }
    }

    /// Unblock a signal.
    pub fn unblock(&mut self, signo: u8) {
        self.blocked &= !bit(signo);
    }

    /// Post a signal (sender side of `kill`).
    pub fn send(&mut self, signo: u8) {
        self.pending |= bit(signo);
    }

    /// Whether any deliverable (pending & !blocked) signal exists.
    pub fn has_deliverable(&self) -> bool {
        self.pending & !self.blocked != 0
    }

    /// Take the lowest-numbered deliverable signal and resolve its action.
    pub fn deliver_next(&mut self) -> Option<(u8, Delivery)> {
        let ready = self.pending & !self.blocked;
        if ready == 0 {
            return None;
        }
        let signo = ready.trailing_zeros() as u8;
        self.pending &= !bit(signo);
        let delivery = match self.actions.get(&signo).copied().unwrap_or(SigAction::Default) {
            SigAction::Default => default_delivery(signo),
            SigAction::Ignore => Delivery::Ignored,
            SigAction::Handler => Delivery::RunHandler,
        };
        Some((signo, delivery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_term_signal_terminates() {
        let mut s = SignalState::new();
        s.send(sig::TERM);
        assert!(s.has_deliverable());
        assert_eq!(s.deliver_next(), Some((sig::TERM, Delivery::Terminate)));
        assert!(!s.has_deliverable());
    }

    #[test]
    fn handler_overrides_default() {
        let mut s = SignalState::new();
        s.set_action(sig::USR1, SigAction::Handler).unwrap();
        s.send(sig::USR1);
        assert_eq!(s.deliver_next(), Some((sig::USR1, Delivery::RunHandler)));
    }

    #[test]
    fn ignore_drops() {
        let mut s = SignalState::new();
        s.set_action(sig::INT, SigAction::Ignore).unwrap();
        s.send(sig::INT);
        assert_eq!(s.deliver_next(), Some((sig::INT, Delivery::Ignored)));
    }

    #[test]
    fn sigchld_default_ignored() {
        let mut s = SignalState::new();
        s.send(sig::CHLD);
        assert_eq!(s.deliver_next(), Some((sig::CHLD, Delivery::Ignored)));
    }

    #[test]
    fn blocking_defers_until_unblock() {
        let mut s = SignalState::new();
        s.block(sig::USR2);
        s.send(sig::USR2);
        assert!(!s.has_deliverable());
        assert_eq!(s.deliver_next(), None);
        s.unblock(sig::USR2);
        assert_eq!(s.deliver_next(), Some((sig::USR2, Delivery::Terminate)));
    }

    #[test]
    fn sigkill_unblockable_uncatchable() {
        let mut s = SignalState::new();
        assert!(s.set_action(sig::KILL, SigAction::Ignore).is_err());
        s.block(sig::KILL);
        s.send(sig::KILL);
        assert_eq!(s.deliver_next(), Some((sig::KILL, Delivery::Terminate)));
    }

    #[test]
    fn lowest_signal_first_and_no_requeue() {
        let mut s = SignalState::new();
        s.send(sig::TERM);
        s.send(sig::INT);
        assert_eq!(s.deliver_next().unwrap().0, sig::INT);
        assert_eq!(s.deliver_next().unwrap().0, sig::TERM);
        assert_eq!(s.deliver_next(), None);
    }
}
