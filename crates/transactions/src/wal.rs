//! A checksummed commit log, an append-only ledger file and checkpoint
//! slots on the simulated disk.
//!
//! Chapter 5's transactions are deliberately *lightweight* — volatile,
//! with permanence from replication — but §6.4's recovery story gets
//! much cheaper when a restarted member can rebuild most of its state
//! locally: replay a checkpoint plus a commit log from its own disk,
//! then fetch only the *delta* of commits it missed from a surviving
//! peer. This module is that local half, and it must not tax the commit
//! path it protects: what a commit costs the disk does not depend on how
//! many commits came before it. It must also survive a hostile disk
//! ([`DiskConfig`](simnet::DiskConfig)'s fault hooks): every frame and
//! slot carries an FNV-1a checksum, a torn or truncated tail is detected
//! and discarded at the checksum boundary, and a transiently failed
//! append (which may leave a *partial* frame on the platter) is contained
//! as described under *Failed appends*.
//!
//! ## Frames
//!
//! The log and the ledger file are both sequences of frames:
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
//! ## The three kinds of file
//!
//! * `wal.log` — one frame per commit, payload a [`CommitRecord`],
//!   fsync'd before the commit is acknowledged. Holds the commits since
//!   the last checkpoint.
//! * `ledger` — the commit ledger, append-only: the payload of each frame
//!   is the 18-byte `(thread, nonce)` keys committed since the previous
//!   frame. A checkpoint *extends* this file; it never rewrites it.
//! * `snap.0`, `snap.1` — two alternating checkpoint slots, each
//!   `[u64 version][u64 fnv1a(payload)][payload]`. The payload is the
//!   store image plus the identity of the ledger prefix the image pairs
//!   with: its byte length and the running FNV-1a of its keys. The
//!   version is that prefix's entry count, a monotone measure of
//!   progress. A crash mid-write ruins at most the slot being replaced.
//!
//! ## Checkpoint order
//!
//! ledger frame durable → slot durable → log truncated. A crash after the
//! first step leaves a frame no slot names (recovery ignores it and
//! replays the log instead); a crash after the second leaves log records
//! the slot already covers (replay skips them by ledger key).
//!
//! ## Recovery rule
//!
//! A slot is *usable* if its checksum holds and the ledger file actually
//! holds the prefix it names — intact frames ending exactly at that byte
//! length, with that many keys and that running digest. Recovery takes
//! the usable slot with the highest version, restores its image and
//! exactly that prefix, and replays the log on top. Ledger bytes past the
//! prefix are ignored, and cut off before the file next grows. The log
//! continues the *newest* checkpoint only, so if either slot file exists
//! but is unusable — it may have been the newer one — the log is dropped;
//! if no slot is usable nothing local is trusted and the member starts
//! empty. What is missing comes from the ordinary peer transfer:
//! recovery degrades to less state, never to a wrong ledger.
//!
//! ## Failed appends
//!
//! A failed log append leaves the commit out of the log (and perhaps a
//! partial frame in it), so the log takes no further record — a later
//! one would replay without its predecessor — until a checkpoint covers
//! the gap; one is due at once and again at every commit until it
//! succeeds. A failed ledger append abandons that checkpoint with slot
//! and log untouched; the partial frame is cut back
//! ([`Disk::truncate`]) before the next one is appended.

use circus::ThreadId;
use obs::{fnv1a, fnv1a_fold, FNV1A_BASIS};
use simnet::{Disk, DiskError};
use wire::{encode_with, from_bytes, Externalize, Internalize, Reader, WireError, Writer};

/// The log file name on the member's disk.
pub const LOG_FILE: &str = "wal.log";
/// The append-only ledger file.
pub const LEDGER_FILE: &str = "ledger";
/// The two alternating checkpoint slots.
pub const SNAP_SLOTS: [&str; 2] = ["snap.0", "snap.1"];

/// A ledger entry: the `(thread, nonce)` identifying one transaction.
pub type LedgerKey = (ThreadId, u64);

/// A store image: every object's committed value, in object order.
type Image = Vec<(u64, i64)>;

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

impl CommitRecord {
    /// The ledger key identifying this transaction.
    pub fn key(&self) -> LedgerKey {
        (self.thread, self.nonce)
    }

    fn decode(bytes: &[u8]) -> Option<CommitRecord> {
        from_bytes::<CommitRecord>(bytes).ok()
    }
}

impl Externalize for CommitRecord {
    fn externalize(&self, w: &mut Writer) {
        self.thread.externalize(w);
        w.put_u64(self.nonce);
        self.writes.externalize(w);
    }
}

impl Internalize for CommitRecord {
    fn internalize(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CommitRecord {
            thread: ThreadId::internalize(r)?,
            nonce: r.get_u64()?,
            writes: Vec::internalize(r)?,
        })
    }
}

/// Wraps `payload` in a frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
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

/// A frame boundary in the ledger file: how many keys and bytes lie
/// before it, and the running FNV-1a of those keys' encodings. Every
/// slot names one; the empty file is one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Mark {
    entries: u64,
    bytes: u64,
    fnv: u64,
}

impl Mark {
    const EMPTY: Mark = Mark {
        entries: 0,
        bytes: 0,
        fnv: FNV1A_BASIS,
    };

    /// The boundary one frame holding `keys` further on, and that frame.
    fn extended(self, keys: &[LedgerKey]) -> (Mark, Vec<u8>) {
        let mut w = Writer::new();
        for key in keys {
            key.externalize(&mut w);
        }
        let payload = w.finish();
        let frame = frame(&payload);
        let mark = Mark {
            entries: self.entries + keys.len() as u64,
            bytes: self.bytes + frame.len() as u64,
            fnv: fnv1a_fold(self.fnv, &payload),
        };
        (mark, frame)
    }
}

/// The checkpoint recovery starts from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// The ledger prefix the image pairs with, in commit order.
    pub ledger: Vec<LedgerKey>,
    /// The store image: every object's committed value.
    pub image: Vec<(u64, i64)>,
}

/// What recovery found on the disk.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// The newest checkpoint whose slot and ledger prefix both check out,
    /// if any.
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
    /// Checkpoint after this many commits since the last one.
    snapshot_every: usize,
    /// Commits appended since the last checkpoint.
    since_snapshot: usize,
    /// Where the ledger file's good prefix ends: the boundary the newest
    /// slot names. Bytes past it are a failed or never-named frame.
    mark: Mark,
    /// A failed append left a commit out of the log, which therefore
    /// takes no further record until a checkpoint covers the gap.
    gap: bool,
}

impl Wal {
    /// A log on `disk` checkpointing every `snapshot_every` commits
    /// (0 = only on demand).
    pub fn new(disk: Disk, snapshot_every: usize) -> Wal {
        Wal {
            disk,
            next_slot: 0,
            snapshot_every,
            since_snapshot: 0,
            mark: Mark::EMPTY,
            gap: false,
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
        if let Err(e) = self.disk.append(LOG_FILE, &encode_with(rec, frame)) {
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

    /// Makes the state durable at a cost independent of its history:
    /// extends the ledger file by the entries of `ledger` it does not
    /// hold yet, writes `image` into the alternate slot, truncates the
    /// log — in that order. `ledger` must extend what the file holds
    /// (the previous checkpoint's, or recovery's). On a transient error
    /// nothing has changed and the checkpoint is still due.
    pub fn checkpoint(
        &mut self,
        ledger: &[LedgerKey],
        image: &[(u64, i64)],
    ) -> Result<(), DiskError> {
        self.extend_ledger(ledger)?;
        self.write_slot(image);
        self.truncate_log();
        Ok(())
    }

    /// Like [`Wal::checkpoint`] for a `ledger` that need not extend the
    /// file's: rewrites the ledger file whole, so it costs O(ledger) and
    /// cannot fail. For the state-transfer and recovery paths only.
    pub fn install(&mut self, ledger: &[LedgerKey], image: &[(u64, i64)]) {
        let (mark, frame) = Mark::EMPTY.extended(ledger);
        self.disk.set_contents(LEDGER_FILE, &frame);
        self.disk.fsync(LEDGER_FILE);
        self.mark = mark;
        self.write_slot(image);
        // The other slot names a prefix of the file just replaced; left
        // in place it would pass for a newer checkpoint lost to damage.
        self.disk.remove(SNAP_SLOTS[self.next_slot]);
        self.truncate_log();
    }

    /// Step 1: one more frame in the ledger file, durable.
    fn extend_ledger(&mut self, ledger: &[LedgerKey]) -> Result<(), DiskError> {
        let fresh = &ledger[self.mark.entries as usize..];
        if fresh.is_empty() {
            return Ok(());
        }
        // Whatever lies past the good prefix — the partial frame of a
        // failed append, a frame whose slot never became durable, a
        // crash's torn tail — goes before the file grows again.
        if self.disk.len(LEDGER_FILE) != self.mark.bytes as usize {
            self.disk.truncate(LEDGER_FILE, self.mark.bytes as usize);
        }
        let (mark, frame) = self.mark.extended(fresh);
        self.disk.append(LEDGER_FILE, &frame)?;
        self.disk.fsync(LEDGER_FILE);
        self.mark = mark;
        Ok(())
    }

    /// Step 2: the image, paired with the ledger prefix ending at
    /// `self.mark`, durable in the alternate slot.
    fn write_slot(&mut self, image: &[(u64, i64)]) {
        let slot = SNAP_SLOTS[self.next_slot];
        // Decoded by `parse_slot` as `(u64, u64, Image)`.
        let mut w = Writer::new();
        w.put_u64(self.mark.bytes);
        w.put_u64(self.mark.fnv);
        w.put_seq_len(image.len());
        for entry in image {
            entry.externalize(&mut w);
        }
        let payload = w.finish();
        let mut content = Vec::with_capacity(16 + payload.len());
        content.extend_from_slice(&self.mark.entries.to_le_bytes());
        content.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        content.extend_from_slice(&payload);
        self.disk.set_contents(slot, &content);
        self.disk.fsync(slot);
        self.next_slot ^= 1;
    }

    /// Step 3, only once the slot is durable: a crash in between leaves a
    /// stale log whose records the slot already covers — replay skips
    /// them by ledger key (idempotent).
    fn truncate_log(&mut self) {
        self.disk.remove(LOG_FILE);
        self.since_snapshot = 0;
        self.gap = false;
    }

    /// Reads the slots, the ledger file and the log back, validating
    /// checksums, pairing a slot with its ledger prefix and stopping
    /// replay at the first torn frame (the module's *Recovery rule*).
    /// The caller replays `records` and then checkpoints, which realigns
    /// the log.
    pub fn recover(&mut self) -> Recovered {
        let mut out = Recovered::default();
        let (mut keys, marks) = self.read_ledger();

        let mut best: Option<(usize, Mark, Image)> = None;
        let mut unusable = false;
        for (i, slot) in SNAP_SLOTS.iter().enumerate() {
            let Some(bytes) = self.disk.read(slot) else {
                continue;
            };
            match parse_slot(&bytes).filter(|(named, _)| marks.contains(named)) {
                Some((named, image)) => {
                    if best
                        .as_ref()
                        .is_none_or(|(_, m, _)| named.entries > m.entries)
                    {
                        best = Some((i, named, image));
                    }
                }
                None => unusable = true,
            }
        }
        self.mark = Mark::EMPTY;
        if let Some((i, named, image)) = best {
            keys.truncate(named.entries as usize);
            out.checkpoint = Some(Checkpoint {
                ledger: keys,
                image,
            });
            self.mark = named;
            // Keep alternating away from the surviving slot.
            self.next_slot = i ^ 1;
        }

        let log = self.disk.read(LOG_FILE).unwrap_or_default();
        out.log_bytes = log.len();
        let mut good = 0;
        let mut frames = Frames::new(&log);
        while let Some(rec) = frames.next().and_then(CommitRecord::decode) {
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

    /// The keys in the intact front of the ledger file, and every frame
    /// boundary among them (the empty prefix first).
    fn read_ledger(&self) -> (Vec<LedgerKey>, Vec<Mark>) {
        let file = self.disk.read(LEDGER_FILE).unwrap_or_default();
        let mut keys: Vec<LedgerKey> = Vec::new();
        let mut marks = vec![Mark::EMPTY];
        let mut frames = Frames::new(&file);
        while let Some(payload) = frames.next() {
            let whole = keys.len();
            let mut r = Reader::new(payload);
            while r.remaining() > 0 {
                match LedgerKey::internalize(&mut r) {
                    Ok(key) => keys.push(key),
                    Err(_) => {
                        keys.truncate(whole);
                        return (keys, marks);
                    }
                }
            }
            marks.push(Mark {
                entries: keys.len() as u64,
                bytes: frames.off as u64,
                fnv: fnv1a_fold(marks[marks.len() - 1].fnv, payload),
            });
        }
        (keys, marks)
    }
}

/// A slot's content, if its checksum holds: the ledger prefix it names
/// and the store image.
fn parse_slot(bytes: &[u8]) -> Option<(Mark, Image)> {
    let entries = u64::from_le_bytes(bytes.get(0..8)?.try_into().expect("8 bytes"));
    let crc = u64::from_le_bytes(bytes.get(8..16)?.try_into().expect("8 bytes"));
    let payload = &bytes[16..];
    if fnv1a(payload) != crc {
        return None;
    }
    let (bytes, fnv, image) = from_bytes::<(u64, u64, Image)>(payload).ok()?;
    Some((
        Mark {
            entries,
            bytes,
            fnv,
        },
        image,
    ))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::commit::{ExecuteRequest, TroupeStoreService, PROC_EXECUTE};
    use crate::store::ObjId;
    use crate::txn::Op;
    use circus::{Service, ServiceCtx, Step, TroupeId};
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
    fn checkpoint_extends_the_ledger_truncates_the_log_and_alternates() {
        let d = disk(DiskConfig::faultless());
        let mut w = Wal::new(d.clone(), 2);
        let (a, b, c) = (
            rec(1, 1, vec![(5, 50)]),
            rec(2, 2, vec![(6, 60)]),
            rec(3, 3, vec![]),
        );
        w.append_commit(&a).unwrap();
        w.append_commit(&b).unwrap();
        assert!(w.snapshot_due());
        w.checkpoint(&[a.key(), b.key()], &[(5, 50), (6, 60)])
            .unwrap();
        assert!(d.is_empty(LOG_FILE));
        assert!(!w.snapshot_due());
        let one_frame = d.len(LEDGER_FILE);
        assert_eq!(one_frame, 12 + 2 * 18);
        w.checkpoint(&[a.key(), b.key(), c.key()], &[(5, 51), (6, 60)])
            .unwrap();
        assert_eq!(
            d.len(LEDGER_FILE),
            one_frame + 12 + 18,
            "the second checkpoint appends only the new key"
        );
        assert!(SNAP_SLOTS.iter().all(|s| !d.is_empty(s)));
        let got = Wal::new(d, 2).recover();
        assert_eq!(
            got.checkpoint,
            Some(Checkpoint {
                ledger: vec![a.key(), b.key(), c.key()],
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

    // ---- the real service on the real files -------------------------

    /// Commits between checkpoints in the crash tests.
    const EVERY: usize = 4;

    /// The `n`th transaction of every history below.
    fn ops(n: u64) -> Vec<Op> {
        vec![Op::Write(ObjId(n % 8), n as i64), Op::Add(ObjId(100), 1)]
    }

    /// The image exactly the transactions in `ledger` leave behind.
    fn replay(ledger: &[LedgerKey]) -> Vec<(u64, i64)> {
        let mut image = BTreeMap::new();
        for &(_, n) in ledger {
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
    /// dispatch votes at once and the vote comes back unanimous.
    fn commit(svc: &mut TroupeStoreService, n: u64, metrics: &Registry) {
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
        let request = ExecuteRequest {
            nonce: n,
            ops: ops(n),
        };
        let step = svc.dispatch(&mut ctx, PROC_EXECUTE, &to_bytes(&request));
        assert!(matches!(step, Step::Call(_)), "no lock to wait for");
        let step = svc.resume(&mut ctx, Ok(to_bytes(&true)));
        assert!(matches!(step, Step::Reply(_)));
    }

    fn flip(d: &Disk, file: &str, byte: usize) {
        let mut bytes = d.read(file).expect("file exists");
        bytes[byte] ^= 0x10;
        d.set_contents(file, &bytes);
        d.fsync(file);
    }

    /// Reboots a member on `d` and holds what it recovered to the
    /// contract: the first `expect` entries of the pre-crash ledger
    /// `before`, and the image exactly those transactions replay to.
    /// Then checks that recovery left files the next checkpoints can
    /// extend: more commits, another crash, nothing lost.
    fn recover_and_check(d: &Disk, before: &[LedgerKey], expect: usize) -> TroupeStoreService {
        let mut svc = boot(d, EVERY);
        assert_eq!(svc.committed_log(), &before[..expect]);
        assert_eq!(svc.tm().store().snapshot(), replay(&before[..expect]));
        for n in 1000..1000 + 2 * EVERY as u64 + 1 {
            commit(&mut svc, n, &Registry::new());
        }
        let grown = svc.committed_log().to_vec();
        d.crash();
        let again = boot(d, EVERY);
        assert_eq!(again.committed_log(), grown);
        assert_eq!(again.tm().store().snapshot(), replay(&grown));
        svc
    }

    /// Eleven commits through the real service — checkpoints at 4 and 8,
    /// so `snap.0` holds v8, `snap.1` v4, the ledger file two frames and
    /// the log commits 9–11 — then commit 12, whose checkpoint is due,
    /// step by step on the same files: the log append, then `steps` of
    /// ledger frame / slot / truncation. Returns the pre-crash ledger and
    /// the Wal, mid-checkpoint.
    fn mid_checkpoint(d: &Disk, steps: usize) -> (Vec<LedgerKey>, Wal) {
        let mut svc = boot(d, EVERY);
        for n in 1..=11 {
            commit(&mut svc, n, &Registry::new());
        }
        let mut ledger = svc.committed_log().to_vec();
        let mut wal = Wal::new(d.clone(), EVERY);
        assert_eq!(wal.recover().records.len(), 3);
        let twelfth = rec(12, 12, vec![(4, 12), (100, 12)]);
        wal.append_commit(&twelfth).unwrap();
        ledger.push(twelfth.key());
        assert!(wal.snapshot_due());
        if steps >= 1 {
            wal.extend_ledger(&ledger).unwrap();
        }
        if steps >= 2 {
            wal.write_slot(&replay(&ledger));
        }
        if steps >= 3 {
            wal.truncate_log();
        }
        (ledger, wal)
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
        for steps in 0..=3 {
            let d = disk(DiskConfig::faultless());
            let (ledger, _) = mid_checkpoint(&d, steps);
            d.crash();
            let svc = recover_and_check(&d, &ledger, 12);
            let info = svc.recovery.expect("recovery ran");
            let expect = match steps {
                // Slot v8 plus the log; a frame no slot names is ignored.
                0 | 1 => (8, 4, 0),
                // Slot v12 covers the log not yet truncated.
                2 => (12, 0, 4),
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
    fn torn_ledger_tail_is_ignored_then_cut() {
        let mut cfg = DiskConfig::faultless();
        cfg.torn_tail = 1.0;
        let d = disk(cfg);
        let (ledger, wal) = mid_checkpoint(&d, 0);
        // The ledger frame caught mid-append: no fsync before the crash.
        let (_, frame) = wal.mark.extended(&ledger[8..]);
        d.append(LEDGER_FILE, &frame).unwrap();
        let whole = d.len(LEDGER_FILE);
        d.crash();
        assert!(d.len(LEDGER_FILE) > d.synced_len(LEDGER_FILE));
        assert!(d.len(LEDGER_FILE) < whole, "torn, not whole");
        recover_and_check(&d, &ledger, 12);
    }

    #[test]
    fn flipped_ledger_bit_degrades_to_the_older_slot_then_to_nothing() {
        // Each frame is 12 + 4 × 18 = 84 bytes. A bit in the second takes
        // slot v8's prefix away: slot v4 remains, and the log, which
        // continues v8, must not be replayed on it.
        let d = disk(DiskConfig::faultless());
        let (ledger, _) = mid_checkpoint(&d, 0);
        flip(&d, LEDGER_FILE, 84 + 40);
        d.crash();
        let svc = recover_and_check(&d, &ledger, 4);
        assert_eq!(svc.recovery.expect("recovery ran").replayed, 0);

        // A bit in the first frame takes both prefixes away.
        let d = disk(DiskConfig::faultless());
        let (ledger, _) = mid_checkpoint(&d, 0);
        flip(&d, LEDGER_FILE, 40);
        d.crash();
        recover_and_check(&d, &ledger, 0);
    }

    #[test]
    fn flipped_bit_in_the_newer_slot_degrades_to_the_older_without_the_log() {
        for steps in [0, 2] {
            let d = disk(DiskConfig::faultless());
            let (ledger, wal) = mid_checkpoint(&d, steps);
            // The slot written last is the one `next_slot` has left.
            let newer = SNAP_SLOTS[wal.next_slot ^ 1];
            flip(&d, newer, d.len(newer) - 1);
            d.crash();
            // 0 steps: v8 is gone, v4 remains and the log continues v8.
            // 2 steps: v12 is gone, v8 remains; the log (9–12) would in
            // fact fit, but nothing on disk proves that it does.
            let svc = recover_and_check(&d, &ledger, if steps == 0 { 4 } else { 8 });
            assert_eq!(svc.recovery.expect("recovery ran").replayed, 0);
        }
    }

    #[test]
    fn install_replaces_ledger_slot_and_log_or_nothing() {
        let other: Vec<LedgerKey> = (50..53).map(|n| (thread(n as u32), n)).collect();
        // Crash between the ledger rewrite and the slot: neither old slot
        // pairs with the new file, and the new ledger has no image yet.
        let d = disk(DiskConfig::faultless());
        mid_checkpoint(&d, 0);
        let (_, frame) = Mark::EMPTY.extended(&other);
        d.set_contents(LEDGER_FILE, &frame);
        d.fsync(LEDGER_FILE);
        d.crash();
        recover_and_check(&d, &[], 0);

        // The whole install: the new state, and no stale log over it.
        let d = disk(DiskConfig::faultless());
        let (_, mut wal) = mid_checkpoint(&d, 0);
        wal.install(&other, &replay(&other));
        d.crash();
        recover_and_check(&d, &other, 3);
    }

    #[test]
    fn every_append_failing_still_recovers_a_prefix() {
        // The history of `mid_checkpoint`, copied to a disk on which every
        // append fails: the boot checkpoint falls back to rewriting the
        // ledger file, commits 13–20 reach neither log nor checkpoint.
        let src = disk(DiskConfig::faultless());
        let (ledger, _) = mid_checkpoint(&src, 0);
        let mut cfg = DiskConfig::faultless();
        cfg.write_error = 1.0;
        let metrics = Registry::new();
        let d = Disk::new(HostId(10), cfg, 7, metrics.clone());
        for file in [LOG_FILE, LEDGER_FILE, SNAP_SLOTS[0], SNAP_SLOTS[1]] {
            d.set_contents(file, &src.read(file).expect("written above"));
            d.fsync(file);
        }
        let mut svc = boot(&d, EVERY);
        assert_eq!(svc.committed_log(), ledger);
        for n in 13..=20 {
            commit(&mut svc, n, &metrics);
        }
        assert_eq!(metrics.get("wal.appends"), 0);
        assert_eq!(metrics.get("wal.append_errors"), 8);
        assert_eq!(metrics.get("wal.snapshots"), 8, "due at every commit");
        let before = svc.committed_log().to_vec();
        d.crash();
        let svc = boot(&d, EVERY);
        assert_eq!(svc.committed_log(), &before[..12]);
        assert_eq!(svc.tm().store().snapshot(), replay(&before[..12]));
    }

    #[test]
    fn hostile_disk_never_recovers_a_wrong_ledger() {
        // Transient errors on a fifth of all appends — log and ledger
        // alike — and a crash every few commits that tears and flips
        // whatever was unsynced: the recovered ledger is always a prefix
        // of the pre-crash one, the image exactly its replay.
        let cfg = DiskConfig {
            write_error: 0.2,
            ..DiskConfig::hostile()
        };
        let (mut torn_log, mut torn_ledger, mut torn_at_crash) = (0, 0, 0);
        let (mut lost, mut committed) = (0, 0);
        for seed in 0..8u64 {
            let metrics = Registry::new();
            let d = Disk::new(HostId(10), cfg.clone(), seed, metrics.clone());
            let mut svc = boot(&d, EVERY);
            let mut n = 0;
            for round in 0..40u64 {
                for _ in 0..3 + (round * 7 + seed) % 11 {
                    n += 1;
                    commit(&mut svc, n, &metrics);
                    // A failed append nothing has healed yet leaves its
                    // partial frame unsynced.
                    torn_log += usize::from(d.len(LOG_FILE) > d.synced_len(LOG_FILE));
                    torn_ledger += usize::from(d.len(LEDGER_FILE) > d.synced_len(LEDGER_FILE));
                }
                let before = svc.committed_log().to_vec();
                d.crash();
                svc = boot(&d, EVERY);
                let got = svc.committed_log();
                assert!(
                    before.starts_with(got),
                    "seed {seed} round {round}: {got:?} is no prefix of {before:?}"
                );
                assert_eq!(
                    svc.tm().store().snapshot(),
                    replay(got),
                    "seed {seed} round {round}"
                );
                lost += before.len() - got.len();
            }
            torn_at_crash += metrics.get("disk.h10.torn_tails");
            committed += n as usize;
        }
        // The matrix was exercised, not vacuous.
        assert!(torn_log > 0 && torn_ledger > 0 && torn_at_crash > 0);
        assert!(
            lost > 0 && 2 * lost < committed,
            "lost {lost} of {committed}"
        );
    }
}
