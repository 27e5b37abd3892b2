//! A checksummed commit log and checkpoint slots on the simulated disk.
//!
//! Chapter 5's transactions are deliberately *lightweight* — volatile,
//! with permanence from replication — but §6.4's recovery story gets
//! much cheaper when a restarted member can rebuild most of its state
//! locally: replay a checkpoint plus a commit log from its own disk,
//! then fetch only the *delta* of commits it missed from a surviving
//! peer. This module is that local half, and it must not tax the commit
//! path it protects: what a commit costs the disk does not depend on how
//! many commits came before it. It must also survive a hostile disk
//! ([`DiskConfig`](simnet::DiskConfig)'s fault hooks): every frame
//! carries an FNV-1a checksum, a torn or truncated tail is detected and
//! discarded at the checksum boundary, and a transiently failed append
//! (which may leave a *partial* frame on the platter) is contained as
//! described under *Failed appends*.
//!
//! ## Frames
//!
//! Both kinds of file are made of frames:
//!
//! ```text
//! [u32 len (LE)] [u64 fnv1a(payload) (LE)] [payload]
//! ```
//!
//! Reading stops at the first frame whose header is short, whose payload
//! is short, or whose checksum mismatches — everything before that
//! boundary is intact by induction (appends are framed and fsync'd in
//! frame units), everything after is a crash's torn tail.
//!
//! ## The two kinds of file
//!
//! * `wal.log` — one frame per commit, payload a [`CommitRecord`],
//!   fsync'd before the commit is acknowledged. Holds the commits since
//!   the last checkpoint.
//! * `snap.0`, `snap.1` — two alternating checkpoint slots, each one
//!   frame whose payload is a sequence number, the store image and the
//!   commit [`Ledger`] whole: per client, its committed nonces as ranges,
//!   so a slot costs O(objects + clients) whatever the history. The
//!   sequence number counts the slots ever written. A crash mid-write
//!   ruins at most the slot being replaced.
//!
//! ## Checkpoint order
//!
//! Slot durable → log truncated. A crash in between leaves log records
//! the slot already covers; replay skips them by ledger membership.
//! [`Wal::install`] — a state that need not extend this member's own, a
//! peer's transfer — goes the other way round, log truncated → slot
//! durable, so no record of the old history replays over the new state.
//!
//! ## Recovery rule
//!
//! A slot is *usable* if its frame is intact and its payload decodes to
//! an image and a well-formed ledger. Recovery takes the usable slot with
//! the highest sequence number, restores its image and ledger, and
//! replays the log on top, skipping every record whose key the ledger
//! already holds. The log continues the *newest* checkpoint only, so if
//! either slot file exists but is unusable — it may have been the newer
//! one — the log is dropped; if no slot is usable nothing local is
//! trusted and the member starts empty. What is missing comes from the
//! ordinary peer transfer: recovery degrades to less state, never to a
//! wrong ledger.
//!
//! ## Failed appends
//!
//! A failed log append leaves the commit out of the log (and perhaps a
//! partial frame in it), so the log takes no further record — a later
//! one would replay without its predecessor — until a checkpoint covers
//! the gap; [`Wal::snapshot_due`] says so at once. A checkpoint rewrites
//! a slot whole, which cannot fail, and removes the log, partial frame
//! and all.

use circus::ThreadId;
use obs::fnv1a;
use simnet::{Disk, DiskError};
use wire::{encode_with, from_bytes};

use crate::ledger::Ledger;

/// The log file name on the member's disk.
pub const LOG_FILE: &str = "wal.log";
/// The two alternating checkpoint slots.
pub const SNAP_SLOTS: [&str; 2] = ["snap.0", "snap.1"];

/// A store image: every object's committed value, in object order.
type Image = Vec<(u64, i64)>;

wire::record! {
    /// One committed transaction, as logged: enough to replay the commit
    /// (identity for exactly-once dedup, writes for the store image).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct CommitRecord {
        /// The distributed thread that ran the transaction.
        pub thread: ThreadId,
        /// The client's retry-distinguishing nonce.
        pub nonce: u64,
        /// The committed writes, in object order.
        pub writes: Vec<(u64, i64)>,
    }
}

/// Wraps `payload` in a frame, written over `buf` (grown, exactly, only
/// for a frame longer than any it held).
fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.clear();
    buf.reserve_exact(12 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Wraps `payload` in a fresh frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame_into(&mut frame, payload);
    frame
}

/// The payloads of the intact frames at the front of a file; `off` is
/// where the last one yielded ends.
struct Frames<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Frames<'a> {
    fn new(bytes: &'a [u8]) -> Frames<'a> {
        Frames { bytes, off: 0 }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let header = self.bytes.get(self.off..self.off + 12)?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let payload = self.bytes.get(self.off + 12..self.off + 12 + len)?;
        if fnv1a(payload) != crc {
            return None;
        }
        self.off += 12 + len;
        Some(payload)
    }
}

/// The checkpoint recovery starts from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// The transactions the image holds.
    pub ledger: Ledger,
    /// The store image: every object's committed value.
    pub image: Vec<(u64, i64)>,
}

/// What recovery found on the disk.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// The newest usable checkpoint, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Intact log records to replay on top of it, in append order. Empty
    /// when a slot exists that cannot be used: the log may continue that
    /// one rather than the checkpoint above.
    pub records: Vec<CommitRecord>,
    /// Bytes past the last intact frame (torn/truncated tail), discarded.
    pub torn_bytes: usize,
    /// Total log bytes read.
    pub log_bytes: usize,
}

/// The write-ahead commit log of one troupe member.
pub struct Wal {
    disk: Disk,
    /// Slot the *next* checkpoint goes to (alternates).
    next_slot: usize,
    /// Sequence number of the newest slot written or recovered (0: none).
    seq: u64,
    /// Checkpoint after this many commits since the last one.
    snapshot_every: usize,
    /// Commits appended since the last checkpoint.
    since_snapshot: usize,
    /// A failed append left a commit out of the log, which therefore
    /// takes no further record until a checkpoint covers the gap.
    gap: bool,
    /// The frame of the record being appended, rewritten by every append:
    /// a commit's frame costs no allocation once the buffer has held one
    /// as long.
    frame: Vec<u8>,
}

impl Wal {
    /// A log on `disk` checkpointing every `snapshot_every` commits
    /// (0 = only on demand).
    pub fn new(disk: Disk, snapshot_every: usize) -> Wal {
        Wal {
            disk,
            next_slot: 0,
            seq: 0,
            snapshot_every,
            since_snapshot: 0,
            gap: false,
            frame: Vec::new(),
        }
    }

    /// The underlying disk handle.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Appends one commit record and fsyncs (commit durability). On a
    /// transient disk error the record is not durable and the log may
    /// hold a *partial* frame: from then on every call fails without
    /// touching the disk, and [`Wal::snapshot_due`] holds, until a
    /// checkpoint has covered the commits the log missed.
    pub fn append_commit(&mut self, rec: &CommitRecord) -> Result<(), DiskError> {
        if self.gap {
            return Err(DiskError::Transient);
        }
        encode_with(rec, |payload| frame_into(&mut self.frame, payload));
        if let Err(e) = self.disk.append(LOG_FILE, &self.frame) {
            self.gap = true;
            return Err(e);
        }
        self.disk.fsync(LOG_FILE);
        self.since_snapshot += 1;
        Ok(())
    }

    /// Whether a checkpoint is due: by the periodic cadence, or because
    /// the log is missing a commit.
    pub fn snapshot_due(&self) -> bool {
        self.gap || (self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every)
    }

    /// Makes the state durable: writes `image` and `ledger` into the
    /// alternate slot, then truncates the log. `ledger` must hold every
    /// record in the log (it is this member's own state, grown).
    pub fn checkpoint(&mut self, ledger: &Ledger, image: &[(u64, i64)]) {
        self.write_slot(ledger, image);
        self.truncate_log();
    }

    /// Like [`Wal::checkpoint`] for a state that need not extend this
    /// member's own (state transfer): the log goes first, so a crash in
    /// between recovers the older checkpoint alone rather than old
    /// records on top of the new state.
    pub fn install(&mut self, ledger: &Ledger, image: &[(u64, i64)]) {
        self.truncate_log();
        self.write_slot(ledger, image);
    }

    /// The image and ledger, durable in the alternate slot under the next
    /// sequence number.
    fn write_slot(&mut self, ledger: &Ledger, image: &[(u64, i64)]) {
        let slot = SNAP_SLOTS[self.next_slot];
        self.seq += 1;
        // Decoded by `parse_slot` as `(u64, Image, Ledger)`.
        let framed = encode_with(&(self.seq, image, ledger), frame);
        self.disk.set_contents(slot, &framed);
        self.disk.fsync(slot);
        self.next_slot ^= 1;
    }

    /// Removes the log: every record in it is covered, or (`install`)
    /// must never replay.
    fn truncate_log(&mut self) {
        self.disk.remove(LOG_FILE);
        self.since_snapshot = 0;
        self.gap = false;
    }

    /// Reads the slots and the log back, validating checksums and
    /// stopping replay at the first torn frame (the module's *Recovery
    /// rule*). The caller replays `records` and then checkpoints, which
    /// realigns the log.
    pub fn recover(&mut self) -> Recovered {
        let mut out = Recovered::default();
        let mut best: Option<(usize, u64, Checkpoint)> = None;
        let mut unusable = false;
        for (i, slot) in SNAP_SLOTS.iter().enumerate() {
            let Some(bytes) = self.disk.read(slot) else {
                continue;
            };
            match parse_slot(&bytes) {
                Some((seq, cp)) if best.as_ref().is_none_or(|(_, s, _)| seq > *s) => {
                    best = Some((i, seq, cp));
                }
                Some(_) => {}
                None => unusable = true,
            }
        }
        (self.next_slot, self.seq) = (0, 0);
        if let Some((i, seq, cp)) = best {
            out.checkpoint = Some(cp);
            // Keep alternating away from the surviving slot.
            (self.next_slot, self.seq) = (i ^ 1, seq);
        }

        let log = self.disk.read(LOG_FILE).unwrap_or_default();
        out.log_bytes = log.len();
        let mut good = 0;
        let mut frames = Frames::new(&log);
        while let Some(rec) = frames.next().and_then(|b| from_bytes(b).ok()) {
            out.records.push(rec);
            good = frames.off;
        }
        out.torn_bytes = log.len() - good;
        // The log continues the *newest* checkpoint. A slot that cannot be
        // used may have been newer than the one chosen, so beside one the
        // log proves nothing.
        if unusable {
            out.records.clear();
        }
        self.since_snapshot = out.records.len();
        self.gap = false;
        out
    }
}

/// A slot's sequence number and checkpoint, if its frame is intact and
/// its ledger well-formed.
fn parse_slot(bytes: &[u8]) -> Option<(u64, Checkpoint)> {
    let payload = Frames::new(bytes).next()?;
    let (seq, image, ledger) = from_bytes::<(u64, Image, Ledger)>(payload).ok()?;
    Some((seq, Checkpoint { ledger, image }))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::commit::TroupeStoreService;
    use crate::store::ObjId;
    use crate::txn::Op;
    use circus::{Service, ServiceCtx, StateSince, Step, TroupeId};
    use obs::Registry;
    use simnet::{DiskConfig, HostId, SockAddr, Time};
    use wire::to_bytes;

    fn thread(serial: u32) -> ThreadId {
        ThreadId {
            origin: SockAddr::new(HostId(20), 10),
            serial,
        }
    }

    fn rec(serial: u32, nonce: u64, writes: Vec<(u64, i64)>) -> CommitRecord {
        CommitRecord {
            thread: thread(serial),
            nonce,
            writes,
        }
    }

    fn disk(cfg: DiskConfig) -> Disk {
        Disk::new(HostId(10), cfg, 7, Registry::new())
    }

    /// The ledger holding exactly `nonces`, all from the one client every
    /// test here runs.
    fn ledger_of(nonces: &[u64]) -> Ledger {
        let mut ledger = Ledger::new();
        for &n in nonces {
            ledger.insert(thread(n as u32), n);
        }
        ledger
    }

    #[test]
    fn log_round_trips() {
        let d = disk(DiskConfig::faultless());
        let mut w = Wal::new(d.clone(), 0);
        let records = vec![rec(1, 1, vec![(5, 50)]), rec(2, 2, vec![(6, 60), (7, 70)])];
        for r in &records {
            w.append_commit(r).unwrap();
        }
        let mut w2 = Wal::new(d, 0);
        let got = w2.recover();
        assert_eq!(got.records, records);
        assert_eq!(got.torn_bytes, 0);
        assert!(got.checkpoint.is_none());
    }

    #[test]
    fn torn_tail_is_discarded_at_checksum_boundary() {
        let d = disk(DiskConfig::faultless());
        let mut w = Wal::new(d.clone(), 0);
        w.append_commit(&rec(1, 1, vec![(5, 50)])).unwrap();
        // A torn second frame: manually append half a frame.
        d.append(LOG_FILE, &[9, 0, 0, 0, 1, 2, 3]).unwrap();
        let got = Wal::new(d, 0).recover();
        assert_eq!(got.records.len(), 1);
        assert_eq!(got.torn_bytes, 7);
    }

    #[test]
    fn corrupt_payload_stops_replay() {
        let d = disk(DiskConfig::faultless());
        let mut w = Wal::new(d.clone(), 0);
        w.append_commit(&rec(1, 1, vec![(5, 50)])).unwrap();
        w.append_commit(&rec(2, 2, vec![(6, 60)])).unwrap();
        // Flip a bit in the second frame's payload.
        let n = d.len(LOG_FILE);
        flip(&d, LOG_FILE, n - 1);
        let got = Wal::new(d, 0).recover();
        assert_eq!(got.records.len(), 1, "replay must stop at the bad frame");
        assert!(got.torn_bytes > 0);
    }

    #[test]
    fn checkpoint_truncates_the_log_and_alternates() {
        let d = disk(DiskConfig::faultless());
        let mut w = Wal::new(d.clone(), 2);
        w.append_commit(&rec(1, 1, vec![(5, 50)])).unwrap();
        w.append_commit(&rec(2, 2, vec![(6, 60)])).unwrap();
        assert!(w.snapshot_due());
        w.checkpoint(&ledger_of(&[1, 2]), &[(5, 50), (6, 60)]);
        assert!(d.is_empty(LOG_FILE));
        assert!(!w.snapshot_due());
        let first = d.len(SNAP_SLOTS[0]);
        w.checkpoint(&ledger_of(&[1, 2, 3]), &[(5, 51), (6, 60)]);
        assert_eq!(
            d.len(SNAP_SLOTS[1]),
            first,
            "one more commit costs the slot nothing: it joins its client's range"
        );
        let got = Wal::new(d, 2).recover();
        assert_eq!(
            got.checkpoint,
            Some(Checkpoint {
                ledger: ledger_of(&[1, 2, 3]),
                image: vec![(5, 51), (6, 60)],
            })
        );
        assert!(got.records.is_empty());
    }

    #[test]
    fn unsynced_appends_do_not_survive_a_crash() {
        let d = disk(DiskConfig::faultless());
        let mut w = Wal::new(d.clone(), 0);
        w.append_commit(&rec(1, 1, vec![(5, 50)])).unwrap();
        // Bypass the Wal (no fsync) to model a commit caught mid-append.
        d.append(LOG_FILE, &[1, 2, 3]).unwrap();
        d.crash();
        let got = Wal::new(d, 0).recover();
        assert_eq!(got.records.len(), 1);
        assert_eq!(got.torn_bytes, 0);
    }

    #[test]
    fn partial_frame_from_transient_error_is_contained() {
        let mut cfg = DiskConfig::faultless();
        cfg.write_error = 1.0;
        let d = disk(cfg);
        let mut w = Wal::new(d.clone(), 0);
        let err = w.append_commit(&rec(1, 1, vec![(5, 50)])).unwrap_err();
        assert_eq!(err, DiskError::Transient);
        // The log takes nothing more until a checkpoint covers the gap.
        assert!(w.snapshot_due());
        let torn = d.len(LOG_FILE);
        assert!(w.append_commit(&rec(2, 2, vec![])).is_err());
        assert_eq!(d.len(LOG_FILE), torn, "a refused append touches nothing");
        // Whatever prefix landed, replay yields no record and flags the
        // garbage as torn.
        let got = Wal::new(d.clone(), 0).recover();
        assert!(got.records.is_empty());
        assert_eq!(got.torn_bytes, torn);
    }

    /// Every append rewrites the one frame buffer whole: a short record
    /// after a long one leaves no stale tail on the disk, and an append
    /// that fails after the buffer was reused is contained like any other.
    #[test]
    fn a_reused_frame_buffer_appends_exactly_each_frame() {
        let d = disk(DiskConfig::faultless());
        let mut w = Wal::new(d.clone(), 0);
        let long = rec(1, 1, (0..40).map(|o| (o, -(o as i64))).collect());
        let short = rec(2, 2, vec![(5, 50)]);
        w.append_commit(&long).unwrap();
        w.append_commit(&short).unwrap();
        let framed = |r: &CommitRecord| encode_with(r, frame);
        assert_eq!(
            d.read(LOG_FILE),
            Some([framed(&long), framed(&short)].concat())
        );
        assert_eq!(Wal::new(d, 0).recover().records, vec![long, short.clone()]);

        // The same log, moved to a disk whose every append fails.
        let mut cfg = DiskConfig::faultless();
        cfg.write_error = 1.0;
        let failing = disk(cfg);
        w.disk = failing.clone();
        assert_eq!(w.append_commit(&short), Err(DiskError::Transient));
        let landed = failing.read(LOG_FILE).unwrap_or_default();
        assert!(
            framed(&short).starts_with(&landed),
            "a prefix of this frame alone"
        );
        assert!(w.snapshot_due(), "the gap forces a checkpoint");
        assert!(w.append_commit(&short).is_err());
        w.checkpoint(&ledger_of(&[1, 2]), &[(5, 50)]);
        assert!(!w.snapshot_due() && failing.is_empty(LOG_FILE));
    }

    // ---- the real service on the real files -------------------------

    /// Commits between checkpoints in the crash tests.
    const EVERY: usize = 4;

    /// The `n`th transaction of every history below.
    fn ops(n: u64) -> Vec<Op> {
        vec![Op::Write(ObjId(n % 8), n as i64), Op::Add(ObjId(100), 1)]
    }

    /// The image exactly the transactions `nonces` leave behind, committed
    /// in that order.
    fn replay(nonces: &[u64]) -> Vec<(u64, i64)> {
        let mut image = BTreeMap::new();
        for &n in nonces {
            image.insert(n % 8, n as i64);
            *image.entry(100).or_insert(0) += 1;
        }
        image.into_iter().collect()
    }

    /// A durable member started on whatever `disk` holds.
    fn boot(disk: &Disk, every: usize) -> TroupeStoreService {
        let mut svc = TroupeStoreService::with_durability(2, disk.clone(), every);
        svc.on_start(&Registry::new());
        svc
    }

    /// Runs transaction `n` through `svc` as the only one in flight: the
    /// dispatch votes at once and the vote comes back `go` from every
    /// member (commit) or not (abort).
    fn decide(svc: &mut TroupeStoreService, n: u64, go: bool, metrics: &Registry) {
        let mut ctx = ServiceCtx {
            thread: thread(n as u32),
            caller: TroupeId(0),
            invocation: n,
            now: Time::from_micros(n),
            me: SockAddr::new(HostId(10), 70),
            span: obs::SpanId::NONE,
            metrics: metrics.clone(),
            effects: Vec::new(),
        };
        let step = svc.execute(&mut ctx, n, &ops(n));
        assert!(matches!(step, Step::Call(_)), "no lock to wait for");
        let step = svc.resume(&mut ctx, Ok(to_bytes(&go)));
        assert!(matches!(step, Step::Reply(_)));
    }

    fn commit(svc: &mut TroupeStoreService, n: u64, metrics: &Registry) {
        decide(svc, n, true, metrics);
    }

    fn flip(d: &Disk, file: &str, byte: usize) {
        let mut bytes = d.read(file).expect("file exists");
        bytes[byte] ^= 0x10;
        d.set_contents(file, &bytes);
        d.fsync(file);
    }

    /// Reboots a member on `d` and holds what it recovered to the
    /// contract: the first `expect` transactions of the pre-crash history
    /// `before`, and the image exactly those replay to. Then checks that
    /// recovery left files the next checkpoints can build on: more
    /// commits, another crash, nothing lost.
    fn recover_and_check(d: &Disk, before: &[u64], expect: usize) -> TroupeStoreService {
        let mut svc = boot(d, EVERY);
        assert_eq!(svc.ledger(), &ledger_of(&before[..expect]));
        assert_eq!(svc.tm().store().snapshot(), replay(&before[..expect]));
        let mut grown = before[..expect].to_vec();
        for n in 1000..1000 + 2 * EVERY as u64 + 1 {
            commit(&mut svc, n, &Registry::new());
            grown.push(n);
        }
        d.crash();
        let again = boot(d, EVERY);
        assert_eq!(again.ledger(), &ledger_of(&grown));
        assert_eq!(again.tm().store().snapshot(), replay(&grown));
        svc
    }

    /// Eleven commits through the real service — checkpoints at 4 and 8,
    /// so `snap.0` holds the one after 8, `snap.1` the one after 4 and the
    /// log commits 9–11 — then commit 12, whose checkpoint is due, step by
    /// step on the same files: the log append, then `steps` of slot /
    /// truncation. Returns the pre-crash history and the Wal,
    /// mid-checkpoint.
    fn mid_checkpoint(d: &Disk, steps: usize) -> (Vec<u64>, Wal) {
        let mut svc = boot(d, EVERY);
        for n in 1..=11 {
            commit(&mut svc, n, &Registry::new());
        }
        let history: Vec<u64> = (1..=12).collect();
        let mut wal = Wal::new(d.clone(), EVERY);
        assert_eq!(wal.recover().records.len(), 3);
        wal.append_commit(&rec(12, 12, vec![(4, 12), (100, 12)]))
            .unwrap();
        assert!(wal.snapshot_due());
        if steps >= 1 {
            wal.write_slot(&ledger_of(&history), &replay(&history));
        }
        if steps >= 2 {
            wal.truncate_log();
        }
        (history, wal)
    }

    #[test]
    fn disk_bytes_per_commit_do_not_grow_with_history() {
        let metrics = Registry::new();
        let d = Disk::new(HostId(10), DiskConfig::faultless(), 7, metrics.clone());
        let mut svc = boot(&d, 64);
        let mut blocks = Vec::new();
        for block in 0..4u64 {
            let before = metrics.get("disk.h10.bytes_written");
            for n in 1..=1024 {
                commit(&mut svc, block * 1024 + n, &metrics);
            }
            blocks.push(metrics.get("disk.h10.bytes_written") - before);
        }
        assert_eq!(metrics.get("wal.snapshots"), 4 * 1024 / 64);
        for later in &blocks[1..] {
            assert!(
                later.abs_diff(blocks[0]) * 50 <= blocks[0],
                "bytes written per 1,024 commits must stay within 2 %: {blocks:?}"
            );
        }
    }

    #[test]
    fn crash_after_each_checkpoint_step_loses_nothing() {
        for steps in 0..=2 {
            let d = disk(DiskConfig::faultless());
            let (history, _) = mid_checkpoint(&d, steps);
            d.crash();
            let svc = recover_and_check(&d, &history, 12);
            let info = svc.recovery.expect("recovery ran");
            let expect = match steps {
                // The slot after 8 plus the log.
                0 => (8, 4, 0),
                // The slot after 12 covers the log not yet truncated.
                1 => (12, 0, 4),
                _ => (12, 0, 0),
            };
            assert_eq!(
                (info.snapshot_version, info.replayed, info.deduped),
                expect,
                "after {steps} step(s)"
            );
        }
    }

    #[test]
    fn flipped_bit_in_the_newer_slot_degrades_to_the_older_without_the_log() {
        for steps in [0, 1] {
            let d = disk(DiskConfig::faultless());
            let (history, wal) = mid_checkpoint(&d, steps);
            // The slot written last is the one `next_slot` has left.
            let newer = SNAP_SLOTS[wal.next_slot ^ 1];
            flip(&d, newer, d.len(newer) - 1);
            d.crash();
            // 0 steps: the slot after 8 is gone, the one after 4 remains
            // and the log continues the lost one. 1 step: the slot after
            // 12 is gone, the one after 8 remains; the log (9–12) would in
            // fact fit, but nothing on disk proves that it does.
            let svc = recover_and_check(&d, &history, if steps == 0 { 4 } else { 8 });
            assert_eq!(svc.recovery.expect("recovery ran").replayed, 0);
        }
    }

    #[test]
    fn install_replaces_slot_and_log_or_recovers_the_old_checkpoint() {
        let other = [50, 51, 52];
        // Crash between the log's removal and the new slot: the newest old
        // checkpoint, without the log that continued it.
        let d = disk(DiskConfig::faultless());
        let (history, mut wal) = mid_checkpoint(&d, 0);
        wal.truncate_log();
        d.crash();
        recover_and_check(&d, &history, 8);

        // The whole install: the new state, and no stale log over it,
        // although the slot it displaced held more transactions.
        let d = disk(DiskConfig::faultless());
        let (_, mut wal) = mid_checkpoint(&d, 0);
        wal.install(&ledger_of(&other), &replay(&other));
        d.crash();
        recover_and_check(&d, &other, 3);
    }

    #[test]
    fn abort_gaps_survive_a_checkpoint_and_a_crash() {
        // Nonces 1..=20 with 5 and 11 aborted: three ranges, checkpoints
        // after 4, 8, 12 and 16 commits, 2 in the log at the crash. A
        // volatile survivor ran the same history.
        let metrics = Registry::new();
        let d = disk(DiskConfig::faultless());
        let mut svc = boot(&d, EVERY);
        let mut survivor = TroupeStoreService::new(2);
        for n in 1..=20 {
            let go = n != 5 && n != 11;
            decide(&mut svc, n, go, &metrics);
            decide(&mut survivor, n, go, &metrics);
        }
        let committed: Vec<u64> = (1..=20).filter(|&n| n != 5 && n != 11).collect();
        assert_eq!(svc.ledger(), &ledger_of(&committed));
        assert_eq!(svc.ledger().range_count(), 3);
        let token = svc.recovery_token().expect("a durable member");
        d.crash();
        let mut svc = boot(&d, EVERY);
        let info = svc.recovery.expect("recovery ran");
        assert_eq!((info.snapshot_version, info.replayed), (16, 2));
        assert_eq!(svc.ledger(), &ledger_of(&committed));
        assert_eq!(svc.tm().store().snapshot(), replay(&committed));
        assert_eq!(svc.recovery_token(), Some(token.clone()), "same token");

        // The survivor commits four more; at the recovered member's token
        // it serves exactly those, in its commit order, as the ledger of
        // `(thread, nonce)` keys did — and they close the gap.
        for n in 21..=24 {
            commit(&mut survivor, n, &metrics);
        }
        let StateSince::Delta(delta) = survivor.get_state_since(&token) else {
            panic!("the survivor retains every commit past the token");
        };
        let records = from_bytes::<Vec<CommitRecord>>(&delta).expect("a delta");
        // Transaction n writes n at object n % 8 and makes object 100 the
        // number of commits so far: n − 2 past the two gaps.
        let expect: Vec<CommitRecord> = (21..=24)
            .map(|n: u64| rec(n as u32, n, vec![(n % 8, n as i64), (100, n as i64 - 2)]))
            .collect();
        assert_eq!(records, expect);
        svc.apply_delta(&delta);
        assert_eq!(svc.state_digest(), survivor.state_digest());
    }

    #[test]
    fn every_append_failing_is_covered_by_a_checkpoint_at_once() {
        // The history of `mid_checkpoint`, copied to a disk on which every
        // append fails: each commit of 13–20 misses the log and is made
        // durable by the checkpoint the failure makes due.
        let src = disk(DiskConfig::faultless());
        let (history, _) = mid_checkpoint(&src, 0);
        let mut cfg = DiskConfig::faultless();
        cfg.write_error = 1.0;
        let metrics = Registry::new();
        let d = Disk::new(HostId(10), cfg, 7, metrics.clone());
        for file in [LOG_FILE, SNAP_SLOTS[0], SNAP_SLOTS[1]] {
            d.set_contents(file, &src.read(file).expect("written above"));
            d.fsync(file);
        }
        let mut svc = boot(&d, EVERY);
        assert_eq!(svc.ledger(), &ledger_of(&history));
        for n in 13..=20 {
            commit(&mut svc, n, &metrics);
        }
        assert_eq!(metrics.get("wal.appends"), 0);
        assert_eq!(metrics.get("wal.append_errors"), 8);
        assert_eq!(metrics.get("wal.snapshots"), 8, "one per failed append");
        d.crash();
        let all: Vec<u64> = (1..=20).collect();
        let svc = boot(&d, EVERY);
        assert_eq!(svc.ledger(), &ledger_of(&all));
        assert_eq!(svc.tm().store().snapshot(), replay(&all));
    }

    #[test]
    fn hostile_disk_never_recovers_a_wrong_ledger() {
        // Transient errors on a fifth of all log appends, and a crash every
        // few commits that catches one more commit mid-append and tears and
        // flips whatever was unsynced: the recovered ledger always holds a
        // prefix of the history, the image exactly its replay.
        let cfg = DiskConfig {
            write_error: 0.2,
            ..DiskConfig::hostile()
        };
        let (mut torn_at_crash, mut lost, mut committed) = (0, 0, 0);
        for seed in 0..8u64 {
            let metrics = Registry::new();
            let d = Disk::new(HostId(10), cfg.clone(), seed, metrics.clone());
            let mut svc = boot(&d, EVERY);
            let mut history: Vec<u64> = Vec::new();
            for round in 0..40u64 {
                for _ in 0..3 + (round * 7 + seed) % 11 {
                    let n = history.len() as u64 + 1;
                    commit(&mut svc, n, &metrics);
                    history.push(n);
                    committed += 1;
                }
                // Transaction n + 1's frame, never fsync'd: its writes are
                // what `ops` leaves after n + 1 commits.
                let n = history.len() as u64 + 1;
                let caught = rec(n as u32, n, vec![(n % 8, n as i64), (100, n as i64)]);
                let _ = d.append(LOG_FILE, &encode_with(&caught, frame));
                history.push(n);
                d.crash();
                svc = boot(&d, EVERY);
                let got = svc.ledger().len() as usize;
                assert!(got <= history.len(), "seed {seed} round {round}");
                let kept = &history[..got];
                assert_eq!(svc.ledger(), &ledger_of(kept), "seed {seed} round {round}");
                assert_eq!(
                    svc.tm().store().snapshot(),
                    replay(kept),
                    "seed {seed} round {round}"
                );
                lost += (history.len() - 1).saturating_sub(got);
                history.truncate(got);
            }
            assert!(metrics.get("wal.append_errors") > 0, "seed {seed}");
            torn_at_crash += metrics.get("disk.h10.torn_tails");
        }
        // The matrix was exercised, not vacuous: a bit flipped in the
        // log's synced bytes costs acknowledged commits, never most.
        assert!(torn_at_crash > 0);
        assert!(2 * lost < committed, "lost {lost} of {committed}");
    }
}
