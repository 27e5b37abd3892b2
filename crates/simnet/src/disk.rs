//! A deterministic per-host disk with injectable durability faults.
//!
//! The dissertation's recovery story (§6.4) assumes a restarted troupe
//! member can rebuild its state; durable local state makes that rebuild
//! cheap (replay a local log, fetch only the delta from peers). This
//! module provides the storage substrate: a simulated disk per host with
//!
//! - **named files** supporting `append` / `read` / `set_contents` /
//!   `fsync` / `truncate` / `remove`;
//! - a **seeded cost model** (per-operation seek, per-byte transfer,
//!   fsync barrier) whose accrued time the world drains into the owning
//!   process's CPU account as [`Syscall::DiskIo`](crate::Syscall) — so
//!   durability has a visible, deterministic price;
//! - **fault hooks**: transient write errors that leave a *partial*
//!   prefix of the attempted append on disk, crash-truncation of the
//!   unsynced tail when the host crashes, an optionally *torn* final
//!   record (a partial prefix of the unsynced tail survives), and rare
//!   bit rot in that torn tail;
//! - `disk.*` metrics in the world's registry.
//!
//! All randomness comes from a [`SimRng`] forked off the world seed and
//! the host id, never from the world's own stream: arming disk faults
//! does not perturb network jitter, and same seed ⇒ same faults.
//!
//! Like everything in the simulator the disk is single-threaded; the
//! handle is an `Rc<RefCell<…>>` so a process can hold it across
//! dispatches while the world retains access for crash handling.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::process::HostId;
use crate::rng::SimRng;
use crate::time::Duration;
use obs::{Counter, Registry};

/// Cost and fault parameters of one simulated disk.
#[derive(Clone, Debug)]
pub struct DiskConfig {
    /// Fixed cost per operation (seek + controller overhead).
    pub per_op: Duration,
    /// Transfer cost per byte, in nanoseconds (sub-microsecond costs
    /// accrue exactly; the drain keeps the remainder).
    pub per_byte_ns: u64,
    /// Cost of an `fsync` barrier.
    pub fsync: Duration,
    /// Probability an `append` fails transiently, leaving a partial
    /// prefix of the attempted bytes on disk.
    pub write_error: f64,
    /// Probability that, at host crash, a partial prefix of the unsynced
    /// tail survives (a *torn* final record) instead of the whole tail
    /// vanishing.
    pub torn_tail: f64,
    /// Probability that a surviving torn tail additionally has one bit
    /// flipped (checksums must catch this).
    pub bit_flip: f64,
}

impl DiskConfig {
    /// A disk that never fails: costs only.
    pub fn faultless() -> DiskConfig {
        DiskConfig {
            write_error: 0.0,
            torn_tail: 0.0,
            bit_flip: 0.0,
            ..DiskConfig::default()
        }
    }

    /// A hostile disk for chaos runs: transient write errors, torn
    /// tails, and occasional bit rot.
    pub fn hostile() -> DiskConfig {
        DiskConfig {
            write_error: 0.02,
            torn_tail: 0.5,
            bit_flip: 0.25,
            ..DiskConfig::default()
        }
    }
}

impl Default for DiskConfig {
    /// Defaults sized for a well-cached early-80s winchester: 0.5 ms
    /// controller overhead per op, ~1 µs/byte transfer, and an fsync
    /// that pays seek plus rotational latency.
    fn default() -> DiskConfig {
        DiskConfig {
            per_op: Duration::from_micros(500),
            per_byte_ns: 1_000,
            fsync: Duration::from_micros(4_000),
            write_error: 0.0,
            torn_tail: 0.0,
            bit_flip: 0.0,
        }
    }
}

/// Why a disk operation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskError {
    /// A transient media/controller error; a partial prefix of the
    /// attempted write may have reached the platter.
    Transient,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Transient => f.write_str("transient disk write error"),
        }
    }
}

#[derive(Clone, Debug, Default)]
struct SimFile {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a crash (advanced by `fsync`).
    synced_len: usize,
}

struct DiskState {
    host: HostId,
    cfg: DiskConfig,
    rng: SimRng,
    files: BTreeMap<String, SimFile>,
    /// Accrued, not-yet-charged I/O time in nanoseconds; the world
    /// drains it into `Syscall::DiskIo` after each dispatch.
    pending_ns: u64,
    metrics: Registry,
    /// Handles to the `disk.h<host>.<name>` counters bumped so far, by
    /// `<name>`. Each is registered at its first bump, not in `Disk::new`:
    /// a key is in the metrics dump only once what it counts has happened.
    counters: BTreeMap<&'static str, Counter>,
}

impl DiskState {
    fn charge_op(&mut self, bytes: usize) {
        self.pending_ns += self.cfg.per_op.as_micros() * 1_000;
        self.pending_ns += bytes as u64 * self.cfg.per_byte_ns;
    }

    fn bump(&mut self, name: &'static str, v: u64) {
        self.counters
            .entry(name)
            .or_insert_with(|| {
                self.metrics
                    .counter(format_args!("disk.h{}.{}", self.host.0, name))
            })
            .add(v);
    }

    /// The named file, created empty on first touch (only that first
    /// touch allocates a key).
    fn file_mut(&mut self, name: &str) -> &mut SimFile {
        if !self.files.contains_key(name) {
            self.files.insert(name.to_string(), SimFile::default());
        }
        self.files.get_mut(name).expect("present or just inserted")
    }
}

/// Handle to one host's simulated disk (cheap to clone).
#[derive(Clone)]
pub struct Disk(Rc<RefCell<DiskState>>);

impl fmt::Debug for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0.borrow();
        f.debug_struct("Disk")
            .field("host", &s.host)
            .field("files", &s.files.len())
            .finish()
    }
}

impl Disk {
    /// Creates a disk for `host`. `seed` must already be host-specific
    /// (the world mixes the host id into its own seed) so that each
    /// disk's fault stream is independent.
    pub fn new(host: HostId, cfg: DiskConfig, seed: u64, metrics: Registry) -> Disk {
        Disk(Rc::new(RefCell::new(DiskState {
            host,
            cfg,
            rng: SimRng::new(seed),
            files: BTreeMap::new(),
            pending_ns: 0,
            metrics,
            counters: BTreeMap::new(),
        })))
    }

    /// Appends `bytes` to the named file (created on first touch).
    ///
    /// On a transient error a *partial prefix* of `bytes` — possibly
    /// empty — still reaches the file: exactly the hazard a checksummed
    /// log format must tolerate.
    pub fn append(&self, file: &str, bytes: &[u8]) -> Result<(), DiskError> {
        let mut s = self.0.borrow_mut();
        s.charge_op(bytes.len());
        let fail = {
            let p = s.cfg.write_error;
            s.rng.chance(p)
        };
        if fail {
            let kept = if bytes.is_empty() {
                0
            } else {
                s.rng.below(bytes.len() as u64 + 1) as usize
            };
            s.file_mut(file).data.extend_from_slice(&bytes[..kept]);
            s.bump("write_errors", 1);
            return Err(DiskError::Transient);
        }
        s.file_mut(file).data.extend_from_slice(bytes);
        s.bump("appends", 1);
        s.bump("bytes_written", bytes.len() as u64);
        Ok(())
    }

    /// Flushes the named file: everything written so far survives a
    /// crash.
    pub fn fsync(&self, file: &str) {
        let mut s = self.0.borrow_mut();
        s.pending_ns += s.cfg.fsync.as_micros() * 1_000;
        if let Some(f) = s.files.get_mut(file) {
            f.synced_len = f.data.len();
        }
        s.bump("fsyncs", 1);
    }

    /// Reads the whole named file, or `None` if it does not exist.
    pub fn read(&self, file: &str) -> Option<Vec<u8>> {
        let mut s = self.0.borrow_mut();
        let data = s.files.get(file).map(|f| f.data.clone())?;
        s.charge_op(data.len());
        s.bump("reads", 1);
        s.bump("bytes_read", data.len() as u64);
        Some(data)
    }

    /// Replaces the named file's contents wholesale. Like a fresh write,
    /// nothing is crash-safe until the next [`fsync`](Disk::fsync).
    pub fn set_contents(&self, file: &str, bytes: &[u8]) {
        let mut s = self.0.borrow_mut();
        s.charge_op(bytes.len());
        let f = s.file_mut(file);
        f.data = bytes.to_vec();
        f.synced_len = 0;
        s.bump("appends", 1);
        s.bump("bytes_written", bytes.len() as u64);
    }

    /// Deletes the named file (no-op if absent).
    pub fn remove(&self, file: &str) {
        let mut s = self.0.borrow_mut();
        s.charge_op(0);
        s.files.remove(file);
    }

    /// Cuts the named file back to `len` bytes (no-op if it is absent or
    /// already that short). Like [`remove`](Disk::remove) it costs one
    /// operation whatever the size and takes effect at once: nothing
    /// past `len` comes back after a crash.
    pub fn truncate(&self, file: &str, len: usize) {
        let mut s = self.0.borrow_mut();
        s.charge_op(0);
        if let Some(f) = s.files.get_mut(file) {
            f.data.truncate(len);
            f.synced_len = f.synced_len.min(len);
        }
    }

    /// Current length of the named file (0 if absent).
    pub fn len(&self, file: &str) -> usize {
        self.0.borrow().files.get(file).map_or(0, |f| f.data.len())
    }

    /// Whether the named file is absent or empty.
    pub fn is_empty(&self, file: &str) -> bool {
        self.len(file) == 0
    }

    /// Crash-durable length of the named file.
    pub fn synced_len(&self, file: &str) -> usize {
        self.0.borrow().files.get(file).map_or(0, |f| f.synced_len)
    }

    /// Drains the accrued I/O time (whole microseconds; the sub-µs
    /// remainder stays accrued). Called by the world after each dispatch
    /// to charge `Syscall::DiskIo`.
    pub fn take_pending(&self) -> Duration {
        let mut s = self.0.borrow_mut();
        let us = s.pending_ns / 1_000;
        s.pending_ns -= us * 1_000;
        Duration::from_micros(us)
    }

    /// Applies crash semantics to every file: the unsynced tail is lost
    /// — except that, with probability `torn_tail`, a partial prefix of
    /// it survives (and with probability `bit_flip` that torn remnant
    /// has one bit flipped). The disk itself survives the crash; a
    /// process restarted on this host reads what endured.
    pub fn crash(&self) {
        let mut s = self.0.borrow_mut();
        let mut torn = 0u64;
        let names: Vec<String> = s.files.keys().cloned().collect();
        for name in names {
            let (synced, total) = {
                let f = &s.files[&name];
                (f.synced_len, f.data.len())
            };
            if total <= synced {
                continue;
            }
            let tail = total - synced;
            let p_torn = s.cfg.torn_tail;
            let keep = if p_torn > 0.0 && s.rng.chance(p_torn) {
                // Torn final record: 1..tail bytes of the unsynced tail
                // survive (keeping all of it would not be a tear).
                1 + s.rng.below(tail as u64) as usize
            } else {
                0
            };
            let flip = if keep > 0 {
                torn += 1;
                let p_flip = s.cfg.bit_flip;
                if p_flip > 0.0 && s.rng.chance(p_flip) {
                    // Flip one bit somewhere in the surviving file.
                    let bit = s.rng.below((synced + keep) as u64 * 8);
                    Some(bit)
                } else {
                    None
                }
            } else {
                None
            };
            let f = s.files.get_mut(&name).expect("file vanished");
            f.data.truncate(synced + keep);
            if let Some(bit) = flip {
                f.data[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        s.bump("crashes", 1);
        if torn > 0 {
            s.bump("torn_tails", torn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(cfg: DiskConfig) -> Disk {
        Disk::new(HostId(7), cfg, 42, Registry::new())
    }

    #[test]
    fn append_read_roundtrip() {
        let d = disk(DiskConfig::faultless());
        d.append("log", b"hello ").unwrap();
        d.append("log", b"world").unwrap();
        assert_eq!(d.read("log").unwrap(), b"hello world");
        assert_eq!(d.len("log"), 11);
        assert!(d.read("absent").is_none());
    }

    #[test]
    fn crash_truncates_unsynced_tail() {
        let d = disk(DiskConfig::faultless());
        d.append("log", b"durable").unwrap();
        d.fsync("log");
        d.append("log", b" volatile").unwrap();
        assert_eq!(d.synced_len("log"), 7);
        d.crash();
        assert_eq!(d.read("log").unwrap(), b"durable");
    }

    #[test]
    fn set_contents_is_unsynced_until_fsync() {
        let d = disk(DiskConfig::faultless());
        d.set_contents("snap", b"v1");
        d.crash();
        assert_eq!(d.len("snap"), 0);
        d.set_contents("snap", b"v2");
        d.fsync("snap");
        d.crash();
        assert_eq!(d.read("snap").unwrap(), b"v2");
    }

    #[test]
    fn torn_tail_keeps_partial_prefix() {
        let mut cfg = DiskConfig::faultless();
        cfg.torn_tail = 1.0;
        let d = disk(cfg);
        d.append("log", b"durable").unwrap();
        d.fsync("log");
        d.append("log", b"0123456789").unwrap();
        d.crash();
        let data = d.read("log").unwrap();
        assert!(data.len() > 7 && data.len() < 17, "torn, not all-or-none");
        assert_eq!(&data[..7], b"durable");
    }

    #[test]
    fn transient_error_leaves_partial_prefix() {
        let mut cfg = DiskConfig::faultless();
        cfg.write_error = 1.0;
        let d = disk(cfg);
        let err = d.append("log", b"0123456789").unwrap_err();
        assert_eq!(err, DiskError::Transient);
        assert!(d.len("log") <= 10);
    }

    #[test]
    fn same_seed_same_faults() {
        let run = || {
            let d = disk(DiskConfig::hostile());
            let mut lens = Vec::new();
            for i in 0..50u8 {
                let _ = d.append("log", &[i; 16]);
                if i % 5 == 0 {
                    d.fsync("log");
                }
                if i % 11 == 0 {
                    d.crash();
                }
                lens.push(d.len("log"));
            }
            lens
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn costs_accrue_and_drain() {
        let d = disk(DiskConfig::faultless());
        d.append("log", &[0u8; 1000]).unwrap();
        d.fsync("log");
        // 500 µs op + 1000 bytes at 1 µs/byte + 4000 µs fsync.
        assert_eq!(d.take_pending(), Duration::from_micros(5_500));
        assert_eq!(d.take_pending(), Duration::ZERO);
    }

    #[test]
    fn truncate_cuts_the_tail_for_good() {
        let d = disk(DiskConfig::faultless());
        d.append("log", b"durable").unwrap();
        d.fsync("log");
        d.append("log", b" tail").unwrap();
        d.take_pending();
        d.truncate("log", 4);
        // One operation, no bytes, no barrier.
        assert_eq!(d.take_pending(), Duration::from_micros(500));
        assert_eq!(d.synced_len("log"), 4);
        d.crash();
        assert_eq!(d.read("log").unwrap(), b"dura");
        d.truncate("log", 9);
        assert_eq!(d.len("log"), 4, "truncate never extends");
        d.truncate("absent", 0);
        assert!(d.read("absent").is_none());
    }

    #[test]
    fn remove_forgets_the_file() {
        let d = disk(DiskConfig::faultless());
        d.append("log", b"x").unwrap();
        d.remove("log");
        assert!(d.read("log").is_none());
        assert_eq!(d.synced_len("log"), 0);
    }
}
