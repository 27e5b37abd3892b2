//! Isolated layer drills: each sans-io layer exercised alone through its
//! public functions, on the host clock.
//!
//! A drill is a fixed number of iterations over seeded inputs, run in
//! [`BATCHES`] batches; the figure reported is the median batch, in host
//! nanoseconds per iteration. Drills feed the per-layer metrics and the
//! `budget.coverage` model — never an end-to-end metric.

use std::hint::black_box;
use std::time::Instant;

use circus::{Collation, CollationPolicy, Decision, ThreadId};
use obs::Registry;
use pairedmsg::{Endpoint, Event, MsgType, Segment};
use simnet::{Disk, DiskConfig, HostId, Payload, SimRng, SockAddr, Time, TimerWheel};
use transactions::{
    Accept, CommitRecord, ExecuteRequest, LockManager, Mode, ObjId, Op, Propose, TxnId, TxnOutcome,
    Wal,
};
use wire::{from_bytes, to_bytes};

use crate::stats::median;

const BATCHES: usize = 5;

/// Host ns per iteration of `f`, median over [`BATCHES`] batches of
/// `iters` iterations each.
fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES as u64 {
        let t0 = Instant::now();
        for i in 0..iters {
            f(b * iters + i);
        }
        batches.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&mut batches)
}

/// What the drills measured (host ns).
#[derive(Clone, Copy, Debug, Default)]
pub struct Drills {
    /// `TimerWheel` insert + expire, per timer.
    pub wheel_ns_per_timer: f64,
    /// `wire::to_bytes` per KiB produced, over the commit and broadcast
    /// message shapes.
    pub wire_encode_ns_per_kib: f64,
    /// `wire::from_bytes` per KiB consumed, same shapes.
    pub wire_decode_ns_per_kib: f64,
    /// One 64-byte call/return exchange between two `Endpoint`s.
    pub exchange_ns: f64,
    /// One 8 KiB call/return exchange (multi-segment both ways).
    pub exchange_bulk_ns: f64,
    /// `Segment::encode` of a 64-byte data segment.
    pub segment_encode_ns: f64,
    /// `Segment::decode` of the same.
    pub segment_decode_ns: f64,
    /// One unanimous collation of three 64-byte votes.
    pub collate_ns: f64,
    /// Two exclusive acquires plus `release_all`, per transaction.
    pub lock_ns: f64,
    /// `Wal::append_commit` (append + fsync on the simulated disk).
    pub wal_append_ns: f64,
    /// `Wal::recover`, per record replayed.
    pub wal_replay_ns_per_record: f64,
}

/// Runs every drill. `scale` shrinks the iteration counts for `--smoke`.
pub fn run_all(seed: u64, scale: f64) -> Drills {
    let n = |full: u64| ((full as f64 * scale) as u64).max(64);
    let (wire_encode_ns_per_kib, wire_decode_ns_per_kib) = wire_drill(seed, n(20_000));
    let (segment_encode_ns, segment_decode_ns) = segment_drill(n(200_000));
    let (wal_append_ns, wal_replay_ns_per_record) = wal_drill(seed, n(20_000));
    Drills {
        wheel_ns_per_timer: wheel_drill(seed, n(200_000)),
        wire_encode_ns_per_kib,
        wire_decode_ns_per_kib,
        exchange_ns: exchange_drill(64, 61_000, n(20_000)),
        exchange_bulk_ns: exchange_drill(8192, 377_000, n(2_000)),
        segment_encode_ns,
        segment_decode_ns,
        collate_ns: collate_drill(n(100_000)),
        lock_ns: lock_drill(seed, n(100_000)),
        wal_append_ns,
        wal_replay_ns_per_record,
    }
}

/// Steady-state wheel: 64 timers pending, each expiry arms a successor a
/// protocol-like distance ahead (retransmit, probe and TTL horizons).
fn wheel_drill(seed: u64, iters: u64) -> f64 {
    const HORIZONS_US: [u64; 4] = [300_000, 2_000_000, 10_000_000, 60_000_000];
    let mut rng = SimRng::new(seed ^ 0x0057_4845_454C); // "WHEEL"
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut seq = 0u64;
    for i in 0..64 {
        wheel.insert(1 + rng.below(300_000), seq, i);
        seq += 1;
    }
    ns_per_iter(iters, |i| {
        let (at, _, item) = wheel.pop().expect("wheel stays primed");
        let ahead = HORIZONS_US[(i % 4) as usize] + rng.below(1_000);
        wheel.insert(at + ahead, seq, black_box(item));
        seq += 1;
    })
}

/// Encodes then decodes the messages of one commit and one broadcast:
/// `ExecuteRequest` (two ops), `TxnOutcome`, `Propose`, `Accept`.
fn wire_drill(seed: u64, iters: u64) -> (f64, f64) {
    let mut rng = SimRng::new(seed ^ 0x5749_5245); // "WIRE"
    let exec = ExecuteRequest {
        nonce: rng.next_u64(),
        ops: vec![
            Op::Add(ObjId(1), 1 + rng.below(5) as i64),
            Op::Add(ObjId(1000 + rng.below(16)), 1 + rng.below(5) as i64),
        ],
    };
    let outcome = TxnOutcome::Committed(vec![rng.below(1000) as i64, rng.below(1000) as i64]);
    let payload = to_bytes(&(1 + rng.below(9) as i64));
    let propose = Propose {
        msg_id: rng.next_u64(),
        payload: payload.clone(),
    };
    let accept = Accept {
        msg_id: propose.msg_id,
        accepted_time: rng.next_u64(),
        payload,
    };
    let encoded = (
        to_bytes(&exec),
        to_bytes(&outcome),
        to_bytes(&propose),
        to_bytes(&accept),
    );
    let kib =
        (encoded.0.len() + encoded.1.len() + encoded.2.len() + encoded.3.len()) as f64 / 1024.0;
    let encode = ns_per_iter(iters, |_| {
        black_box(to_bytes(black_box(&exec)));
        black_box(to_bytes(black_box(&outcome)));
        black_box(to_bytes(black_box(&propose)));
        black_box(to_bytes(black_box(&accept)));
    });
    let decode = ns_per_iter(iters, |_| {
        black_box(from_bytes::<ExecuteRequest>(black_box(&encoded.0)).expect("round trip"));
        black_box(from_bytes::<TxnOutcome>(black_box(&encoded.1)).expect("round trip"));
        black_box(from_bytes::<Propose>(black_box(&encoded.2)).expect("round trip"));
        black_box(from_bytes::<Accept>(black_box(&encoded.3)).expect("round trip"));
    });
    (encode / kib, decode / kib)
}

/// Moves every queued datagram from `from` to `to`.
fn pump(now: Time, from: &mut Endpoint, to: &mut Endpoint) -> bool {
    let mut moved = false;
    while let Some(bytes) = from.poll_transmit() {
        moved = true;
        to.on_datagram(now, &bytes).expect("own segments decode");
    }
    moved
}

/// Pumps both ways until `at` delivers a complete message.
fn deliver(now: Time, tx: &mut Endpoint, rx: &mut Endpoint) -> Payload {
    loop {
        let moved = pump(now, tx, rx) | pump(now, rx, tx);
        if let Some(Event::Message { data, .. }) = rx.poll_event() {
            return data;
        }
        assert!(moved, "paired-message exchange stalled");
    }
}

/// One call/return exchange of `len` bytes each way between two
/// endpoints. The clock advances `step_us` per exchange — the simulated
/// call time of the echo workload with that payload — so the endpoints
/// hold as many replay records (60 s worth) as they do in a run; the
/// per-segment purge walks all of them.
fn exchange_drill(len: usize, step_us: u64, iters: u64) -> f64 {
    let config = pairedmsg::Config::default();
    let mut client = Endpoint::new(config.clone());
    let mut server = Endpoint::new(config);
    let args = vec![7u8; len];
    ns_per_iter(iters, |i| {
        let now = Time::from_micros(i * step_us);
        let call = i as u32 + 1;
        client
            .send(now, MsgType::Call, call, 0, args.as_slice())
            .expect("message fits");
        let got = deliver(now, &mut client, &mut server);
        server
            .send(now, MsgType::Return, call, 0, got)
            .expect("message fits");
        black_box(deliver(now, &mut server, &mut client));
    })
}

fn segment_drill(iters: u64) -> (f64, f64) {
    let seg = Segment::data(MsgType::Call, 42, 77, 1, 1, false, vec![9u8; 64]);
    let bytes = seg.encode();
    let encode = ns_per_iter(iters, |_| {
        black_box(black_box(&seg).encode());
    });
    let decode = ns_per_iter(iters, |_| {
        black_box(Segment::decode(black_box(&bytes)).expect("own segment decodes"));
    });
    (encode, decode)
}

fn collate_drill(iters: u64) -> f64 {
    let vote = vec![5u8; 64];
    ns_per_iter(iters, |_| {
        let mut c = Collation::new(CollationPolicy::Unanimous, 3);
        for i in 0..3 {
            c.add_vote(i, vote.clone());
        }
        match black_box(c.decide()) {
            Decision::Ready(_) => {}
            other => panic!("unanimous identical votes decided {other:?}"),
        }
    })
}

/// The lock traffic of one `commit_contended` transaction: two exclusive
/// acquires (one possibly on the hot object), then release.
fn lock_drill(seed: u64, iters: u64) -> f64 {
    let mut rng = SimRng::new(seed ^ 0x4C4F_434B); // "LOCK"
    let mut locks = LockManager::new();
    ns_per_iter(iters, |i| {
        let txn = TxnId(i + 1);
        let first = if rng.chance(0.25) {
            ObjId(1)
        } else {
            ObjId(1000 + rng.below(16))
        };
        black_box(locks.acquire(txn, first, Mode::Exclusive));
        black_box(locks.acquire(txn, ObjId(2000 + rng.below(16)), Mode::Exclusive));
        black_box(locks.release_all(txn));
    })
}

/// Appends commit records to a log on a faultless simulated disk, then
/// replays it. Returns (ns per append, ns per record replayed).
fn wal_drill(seed: u64, iters: u64) -> (f64, f64) {
    let host = HostId(1);
    let thread = ThreadId {
        origin: SockAddr::new(HostId(10), 50),
        serial: 1,
    };
    let mut last_disk = None;
    let append = ns_per_iter(iters, |i| {
        // A fresh log per batch keeps every batch the same length.
        if i % iters == 0 {
            let disk = Disk::new(host, DiskConfig::faultless(), seed, Registry::new());
            last_disk = Some((disk.clone(), Wal::new(disk, 0)));
        }
        let (disk, wal) = last_disk.as_mut().expect("primed above");
        wal.append_commit(&CommitRecord {
            thread,
            nonce: i,
            writes: vec![(1, i as i64), (1000 + i % 16, 1)],
        })
        .expect("faultless disk");
        // The world drains accrued I/O time after each dispatch.
        black_box(disk.take_pending());
    });
    let (disk, _) = last_disk.expect("at least one batch ran");
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut wal = Wal::new(disk.clone(), 0);
        let t0 = Instant::now();
        let found = black_box(wal.recover());
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(found.records.len() as u64, iters, "log replays in full");
        batches.push(ns / iters as f64);
    }
    (append, median(&mut batches))
}
