//! The VFS layer serving delegated I/O.
//!
//! McKernel keeps no file state at all: "the actual set of open files
//! (i.e., file descriptor table, file positions, etc.) are managed by the
//! Linux kernel" (Sec. II). When the proxy executes an offloaded `open`/
//! `read`/`write`/`ioctl`, it lands here. Device files route to the bound
//! driver class; `/proc`//`/sys` reads are generated; regular files get a
//! simple page-cache cost model.

use hlwk_core::abi::{Errno, Fd, Pid};
use hwmodel::pci::DeviceClass;
use simcore::{Cycles, FastMap};

/// What an open file descriptor refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A regular (page-cached) file.
    Regular {
        /// Path for diagnostics.
        path: String,
    },
    /// A character device file bound to a driver.
    Device {
        /// `/dev`-relative name.
        name: String,
        /// Driver class.
        class: DeviceClass,
    },
    /// A `/proc` or `/sys` pseudo file.
    ProcSys {
        /// Full path.
        path: String,
    },
}

/// One open file.
#[derive(Clone, Debug)]
pub struct OpenFile {
    /// Backing object.
    pub kind: FileKind,
    /// Read/write position (regular files).
    pub pos: u64,
}

/// Per-process descriptor table.
#[derive(Debug, Default)]
struct FdTable {
    files: FastMap<i32, OpenFile>,
    next_fd: i32,
}

/// Costs of VFS operations.
#[derive(Clone, Copy, Debug)]
pub struct VfsCosts {
    /// Path walk + inode for `open`.
    pub open: Cycles,
    /// `close`.
    pub close: Cycles,
    /// Base cost of `read`/`write` (page-cache hit).
    pub rw_base: Cycles,
    /// Additional cost per 4 KiB transferred.
    pub rw_per_page: Cycles,
    /// Base cost of an `ioctl` into a driver.
    pub ioctl: Cycles,
    /// Extra per-page cost of uverbs memory-registration commands
    /// (get_user_pages + IOMMU map) — the mechanism behind the paper's
    /// large-message RDMA-registration artifact (Sec. IV-B2).
    pub reg_per_page: Cycles,
    /// Generating a /proc read.
    pub procfs_read: Cycles,
}

impl VfsCosts {
    /// `read`/`write` service cost for `len` bytes on a file of `kind`.
    /// Device writes to a uverbs fd model memory-registration commands:
    /// cost scales with the number of pages being pinned.
    pub fn rw(&self, kind: &FileKind, len: u64) -> Cycles {
        let pages = len.div_ceil(4096).max(1);
        match kind {
            FileKind::Regular { .. } => self.rw_base + self.rw_per_page * pages,
            FileKind::ProcSys { .. } => self.procfs_read,
            FileKind::Device { class, .. } => match class {
                DeviceClass::InfinibandHca => {
                    // uverbs command channel: treat the byte count as the
                    // registration length.
                    self.ioctl + self.reg_per_page * pages
                }
                DeviceClass::EthernetNic => self.ioctl,
            },
        }
    }
}

impl Default for VfsCosts {
    fn default() -> Self {
        VfsCosts {
            open: Cycles::from_us(2),
            close: Cycles::from_ns(400),
            rw_base: Cycles::from_ns(700),
            rw_per_page: Cycles::from_ns(350),
            ioctl: Cycles::from_us(1),
            reg_per_page: Cycles::from_ns(260),
            procfs_read: Cycles::from_us(3),
        }
    }
}

/// The node-wide VFS: fd tables per (proxy) process and device registry.
#[derive(Debug)]
pub struct Vfs {
    tables: FastMap<Pid, FdTable>,
    devices: FastMap<String, DeviceClass>,
    /// Cost table.
    pub costs: VfsCosts,
}

impl Vfs {
    /// Empty VFS with a device registry.
    pub fn new(devices: impl IntoIterator<Item = (String, DeviceClass)>) -> Self {
        Vfs {
            tables: FastMap::default(),
            devices: devices.into_iter().collect(),
            costs: VfsCosts::default(),
        }
    }

    /// Create the fd table for a process (0/1/2 pre-opened).
    pub fn create_process(&mut self, pid: Pid) {
        let mut table = FdTable {
            files: FastMap::default(),
            next_fd: 3,
        };
        for fd in 0..3 {
            table.files.insert(
                fd,
                OpenFile {
                    kind: FileKind::Regular {
                        path: format!("/dev/std{fd}"),
                    },
                    pos: 0,
                },
            );
        }
        self.tables.insert(pid, table);
    }

    /// Tear down a process's descriptors.
    pub fn destroy_process(&mut self, pid: Pid) {
        self.tables.remove(&pid);
    }

    /// `open(path)`. Returns (fd, cost).
    pub fn open(&mut self, pid: Pid, path: &str) -> Result<(Fd, Cycles), Errno> {
        let kind = if let Some(dev) = path.strip_prefix("/dev/") {
            let class = *self.devices.get(dev).ok_or(Errno::ENODEV)?;
            FileKind::Device {
                name: dev.to_string(),
                class,
            }
        } else if path.starts_with("/proc/") || path.starts_with("/sys/") {
            FileKind::ProcSys {
                path: path.to_string(),
            }
        } else {
            FileKind::Regular {
                path: path.to_string(),
            }
        };
        let table = self.tables.get_mut(&pid).ok_or(Errno::ENOENT)?;
        let fd = table.next_fd;
        table.next_fd += 1;
        table.files.insert(fd, OpenFile { kind, pos: 0 });
        Ok((Fd(fd), self.costs.open))
    }

    /// `close(fd)`.
    pub fn close(&mut self, pid: Pid, fd: Fd) -> Result<Cycles, Errno> {
        let table = self.tables.get_mut(&pid).ok_or(Errno::ENOENT)?;
        table.files.remove(&fd.0).ok_or(Errno::EBADF)?;
        Ok(self.costs.close)
    }

    /// Look up an open file.
    pub fn file(&self, pid: Pid, fd: Fd) -> Result<&OpenFile, Errno> {
        self.tables
            .get(&pid)
            .ok_or(Errno::ENOENT)?
            .files
            .get(&fd.0)
            .ok_or(Errno::EBADF)
    }

    /// Look up an open file for update.
    pub fn file_mut(&mut self, pid: Pid, fd: Fd) -> Result<&mut OpenFile, Errno> {
        self.tables
            .get_mut(&pid)
            .ok_or(Errno::ENOENT)?
            .files
            .get_mut(&fd.0)
            .ok_or(Errno::EBADF)
    }

    /// `read`/`write` service cost for `len` bytes on `fd`.
    pub fn rw_cost(&self, pid: Pid, fd: Fd, len: u64) -> Result<Cycles, Errno> {
        Ok(self.costs.rw(&self.file(pid, fd)?.kind, len))
    }

    /// Advance a regular file position (successful read/write of `len`).
    pub fn advance(&mut self, pid: Pid, fd: Fd, len: u64) -> Result<(), Errno> {
        self.file_mut(pid, fd)?.pos += len;
        Ok(())
    }

    /// `lseek(fd, off, whence)` on a regular file: SEEK_SET (0) and
    /// SEEK_CUR (1) reposition; SEEK_END (2) needs a file size this
    /// model does not track, so it is `EINVAL` — deliberately identical
    /// on the offloaded and promoted paths. A resulting negative
    /// position is `EINVAL` per POSIX. Returns the new position.
    pub fn seek(&mut self, pid: Pid, fd: Fd, off: i64, whence: u32) -> Result<i64, Errno> {
        let f = self.file_mut(pid, fd)?;
        if !matches!(f.kind, FileKind::Regular { .. }) {
            return Err(Errno::EINVAL);
        }
        let new = match whence {
            0 => off,
            1 => f.pos as i64 + off,
            _ => return Err(Errno::EINVAL),
        };
        if new < 0 {
            return Err(Errno::EINVAL);
        }
        f.pos = new as u64;
        Ok(new)
    }

    /// `ioctl` service cost on `fd`.
    pub fn ioctl_cost(&self, pid: Pid, fd: Fd) -> Result<Cycles, Errno> {
        let f = self.file(pid, fd)?;
        match &f.kind {
            FileKind::Device { .. } => Ok(self.costs.ioctl),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Open descriptor count for a process.
    pub fn fd_count(&self, pid: Pid) -> usize {
        self.tables.get(&pid).map(|t| t.files.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfs() -> Vfs {
        let mut v = Vfs::new([
            ("infiniband/uverbs0".to_string(), DeviceClass::InfinibandHca),
            ("eth0".to_string(), DeviceClass::EthernetNic),
        ]);
        v.create_process(Pid(500));
        v
    }

    #[test]
    fn std_fds_preopened_and_fd_numbers_grow() {
        let mut v = vfs();
        assert_eq!(v.fd_count(Pid(500)), 3);
        let (fd, _) = v.open(Pid(500), "/tmp/data").unwrap();
        assert_eq!(fd, Fd(3));
        let (fd2, _) = v.open(Pid(500), "/tmp/data2").unwrap();
        assert_eq!(fd2, Fd(4));
    }

    #[test]
    fn device_open_requires_registered_device() {
        let mut v = vfs();
        let (fd, _) = v.open(Pid(500), "/dev/infiniband/uverbs0").unwrap();
        match &v.file(Pid(500), fd).unwrap().kind {
            FileKind::Device { class, .. } => {
                assert_eq!(*class, DeviceClass::InfinibandHca)
            }
            k => panic!("{k:?}"),
        }
        assert_eq!(v.open(Pid(500), "/dev/nvme0"), Err(Errno::ENODEV));
    }

    #[test]
    fn procfs_detected() {
        let mut v = vfs();
        let (fd, _) = v.open(Pid(500), "/proc/self/status").unwrap();
        assert!(matches!(
            v.file(Pid(500), fd).unwrap().kind,
            FileKind::ProcSys { .. }
        ));
        assert_eq!(
            v.rw_cost(Pid(500), fd, 100).unwrap(),
            v.costs.procfs_read
        );
    }

    #[test]
    fn close_then_use_is_ebadf() {
        let mut v = vfs();
        let (fd, _) = v.open(Pid(500), "/tmp/x").unwrap();
        v.close(Pid(500), fd).unwrap();
        assert_eq!(v.rw_cost(Pid(500), fd, 10), Err(Errno::EBADF));
        assert_eq!(v.close(Pid(500), fd), Err(Errno::EBADF));
    }

    #[test]
    fn rw_cost_scales_with_pages() {
        let mut v = vfs();
        let (fd, _) = v.open(Pid(500), "/tmp/big").unwrap();
        let small = v.rw_cost(Pid(500), fd, 100).unwrap();
        let big = v.rw_cost(Pid(500), fd, 1 << 20).unwrap();
        assert!(big > small * 50);
    }

    #[test]
    fn uverbs_write_models_registration() {
        let mut v = vfs();
        let (fd, _) = v.open(Pid(500), "/dev/infiniband/uverbs0").unwrap();
        // Registering 1 MiB costs ~256 page-pin units; 4 KiB costs one.
        let reg_1m = v.rw_cost(Pid(500), fd, 1 << 20).unwrap();
        let reg_4k = v.rw_cost(Pid(500), fd, 4096).unwrap();
        assert!(reg_1m > reg_4k * 20);
        assert!(v.ioctl_cost(Pid(500), fd).is_ok());
    }

    #[test]
    fn ioctl_on_regular_file_is_einval() {
        let mut v = vfs();
        let (fd, _) = v.open(Pid(500), "/tmp/f").unwrap();
        assert_eq!(v.ioctl_cost(Pid(500), fd), Err(Errno::EINVAL));
    }

    #[test]
    fn positions_advance() {
        let mut v = vfs();
        let (fd, _) = v.open(Pid(500), "/tmp/f").unwrap();
        v.advance(Pid(500), fd, 4096).unwrap();
        assert_eq!(v.file(Pid(500), fd).unwrap().pos, 4096);
    }

    #[test]
    fn seek_set_cur_and_error_cases() {
        let mut v = vfs();
        let (fd, _) = v.open(Pid(500), "/tmp/f").unwrap();
        assert_eq!(v.seek(Pid(500), fd, 8192, 0), Ok(8192), "SEEK_SET");
        assert_eq!(v.seek(Pid(500), fd, -4096, 1), Ok(4096), "SEEK_CUR back");
        assert_eq!(v.file(Pid(500), fd).unwrap().pos, 4096);
        assert_eq!(v.seek(Pid(500), fd, 0, 2), Err(Errno::EINVAL), "SEEK_END unmodeled");
        assert_eq!(v.seek(Pid(500), fd, -9999, 1), Err(Errno::EINVAL), "negative pos");
        assert_eq!(v.file(Pid(500), fd).unwrap().pos, 4096, "failed seeks do not move");
        let (dev, _) = v.open(Pid(500), "/dev/eth0").unwrap();
        assert_eq!(v.seek(Pid(500), dev, 0, 0), Err(Errno::EINVAL), "devices do not seek");
        assert_eq!(v.seek(Pid(500), Fd(99), 0, 0), Err(Errno::EBADF));
    }

    #[test]
    fn destroy_process_drops_fds() {
        let mut v = vfs();
        v.destroy_process(Pid(500));
        assert_eq!(v.fd_count(Pid(500)), 0);
        assert_eq!(v.open(Pid(500), "/tmp/x"), Err(Errno::ENOENT));
    }
}
