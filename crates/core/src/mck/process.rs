//! McKernel processes and threads.
//!
//! McKernel "supports processes and multi-threading" (Sec. II). Every
//! process is paired with a proxy process on Linux; that pairing is
//! recorded here and the proxy side lives in [`crate::proxy`].

use crate::abi::{Pid, Tid};
use crate::mck::mem::AddressSpace;
use hwmodel::cpu::CoreId;

/// One McKernel thread.
#[derive(Debug)]
pub struct Thread {
    /// Thread id.
    pub tid: Tid,
    /// Owning process.
    pub pid: Pid,
    /// Core this thread is bound to (McKernel binds HPC threads 1:1;
    /// only an elastic shrink migrates them).
    pub core: CoreId,
}

/// One McKernel process.
#[derive(Debug)]
pub struct Process {
    /// Process id (shared numbering with the Linux proxy pairing).
    pub pid: Pid,
    /// Address space.
    pub aspace: AddressSpace,
    /// Member threads.
    pub threads: Vec<Tid>,
    /// The Linux-side proxy process paired with this process.
    pub proxy_pid: Option<Pid>,
    /// Exit code once exited.
    pub exit_code: Option<i32>,
}

impl Process {
    /// New process with an empty McKernel address space.
    pub fn new(pid: Pid) -> Self {
        Process {
            pid,
            aspace: AddressSpace::new(true),
            threads: Vec::new(),
            proxy_pid: None,
            exit_code: None,
        }
    }

    /// Whether the process has exited.
    pub fn exited(&self) -> bool {
        self.exit_code.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_is_live_and_empty() {
        let p = Process::new(Pid(100));
        assert!(!p.exited());
        assert!(p.threads.is_empty());
        assert_eq!(p.aspace.vm.count(), 0);
        assert!(p.proxy_pid.is_none());
    }

    #[test]
    fn mckernel_process_has_proxy_exclusion() {
        use hwmodel::addr::VirtAddr;
        let p = Process::new(Pid(1));
        assert!(p
            .aspace
            .vm
            .in_excluded(VirtAddr(crate::mck::mem::vm::EXCLUDED_START)));
    }
}
