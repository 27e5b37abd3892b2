//! Commutative replicated operations — convergence without commit.
//!
//! The troupe commit protocol (§5.3) buys serializability with two-phase
//! locking and pays for it in aborts under contention; the ordered
//! broadcast (§5.4) buys a total order and pays a two-phase round trip.
//! Operations that *commute* need neither: a counter increment and a
//! grow-only-set insert produce the same state in any application order,
//! so members may apply them as they arrive — no locks, no proposals, no
//! aborts (Shapiro & Preguiça's commutative replicated data types).
//!
//! Exactly-once is the only obligation left, and it is discharged
//! locally: every request carries a client-unique `op_id`, and a member
//! that has already seen the id acknowledges without re-applying. The
//! ids seen are an exact [`IdSet`] — never pruned, never inferred from —
//! which costs one range per client that mints consecutive ids, not one
//! entry per request; the reply is the same for a first delivery and a
//! replay, so there is nothing else to remember. A
//! client whose replicated call fails ambiguously (partition, crash of a
//! member mid-call) simply retries the *same* request: members that
//! already applied it dedup, members that missed it apply it, and the
//! troupe converges through retry + idempotence rather than a separate
//! anti-entropy protocol. The reply is a deterministic echo of the
//! `op_id` — never a function of the (order-dependent) state — so any
//! collation policy treats the members as agreeing.

use std::collections::{BTreeMap, BTreeSet};

use circus::{Service, ServiceCtx, Step};
use wire::{from_bytes, to_bytes};

use crate::store::ObjId;
use crate::wedge::Wedge;
use circus::IdSet;
use obs::{fnv1a_fold, FNV1A_BASIS};

/// Procedure number of `apply_commutative` at the troupe.
pub const PROC_CM_EXECUTE: u16 = 0;

wire::choice! {
    /// One commutative operation.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum CmOp {
        /// Add a (possibly negative) delta to a counter.
        Incr(ObjId, i64) = 0,
        /// Insert an element into the grow-only set.
        Insert(u64) = 1,
    }
}

wire::record! {
    /// Argument of `apply_commutative`: a batch of commutative operations
    /// under one client-unique idempotence id, owned (`CmRequest<Vec<CmOp>>`,
    /// the default) or borrowed (`CmRequest<&[CmOp]>`, as a client sends
    /// them).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct CmRequest<O = Vec<CmOp>> {
        /// Client-unique id; retries reuse it, members dedup on it.
        pub op_id: u64,
        /// The operations, applied atomically with respect to dedup (all or
        /// none count as "seen").
        pub ops: O,
    }
}

/// One troupe member's commutative state: PN-counters, a grow-only set,
/// and the dedup ledger.
pub struct CommutativeService {
    counters: BTreeMap<u64, i64>,
    gset: BTreeSet<u64>,
    /// Ids of requests already applied (the idempotence ledger; it is
    /// part of the replicated state and travels in state transfer).
    seen: IdSet,
    /// Wedged for a membership change.
    wedge: Wedge,
}

impl CommutativeService {
    /// An empty state.
    pub fn new() -> CommutativeService {
        CommutativeService {
            counters: BTreeMap::new(),
            gset: BTreeSet::new(),
            seen: IdSet::new(),
            wedge: Wedge::default(),
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, obj: ObjId) -> i64 {
        self.counters.get(&obj.0).copied().unwrap_or(0)
    }

    /// Whether the grow-only set contains `elem`.
    pub fn contains(&self, elem: u64) -> bool {
        self.gset.contains(&elem)
    }

    /// Whether a request id has been applied at this member.
    pub fn has_seen(&self, op_id: u64) -> bool {
        self.seen.contains(op_id)
    }

    /// Number of distinct requests applied.
    pub fn applied(&self) -> usize {
        self.seen.len() as usize
    }

    /// Ranges the dedup ledger is held in: one per client that mints
    /// consecutive ids, plus one per id a client abandoned.
    pub fn id_ranges(&self) -> usize {
        self.seen.range_count()
    }

    /// Order-insensitive digest of the full replicated state (counters,
    /// set, and dedup ledger). Members that applied the same *set* of
    /// requests — in any order — digest identically; that is the
    /// convergence-without-commit claim the chaos oracle checks.
    pub fn state_digest(&self) -> u64 {
        let mut h = FNV1A_BASIS;
        for (&obj, &v) in &self.counters {
            h = fnv1a_fold(h, &obj.to_be_bytes());
            h = fnv1a_fold(h, &v.to_be_bytes());
        }
        for &e in &self.gset {
            h = fnv1a_fold(h, &e.to_be_bytes());
        }
        self.seen.fold_into(h)
    }

    fn apply(&mut self, req: &CmRequest) {
        for op in &req.ops {
            match op {
                CmOp::Incr(obj, delta) => {
                    *self.counters.entry(obj.0).or_insert(0) += delta;
                }
                CmOp::Insert(elem) => {
                    self.gset.insert(*elem);
                }
            }
        }
        self.seen.insert(req.op_id);
    }
}

impl Default for CommutativeService {
    fn default() -> CommutativeService {
        CommutativeService::new()
    }
}

impl Service for CommutativeService {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        if self.wedge.active(ctx.now) {
            return Step::Error("commutative: wedged for membership change".into());
        }
        if proc != PROC_CM_EXECUTE {
            return Step::Error(format!("commutative: unknown procedure {proc}"));
        }
        let Ok(req) = from_bytes::<CmRequest>(args) else {
            return Step::Error("bad apply_commutative arguments".into());
        };
        if self.seen.contains(req.op_id) {
            ctx.metrics.add("cm.dups", 1);
        } else {
            self.apply(&req);
            ctx.metrics.add("cm.applied", 1);
        }
        // Deterministic echo: never a function of order-dependent state,
        // so every member "agrees" under any collation policy.
        Step::Reply(to_bytes(&req.op_id))
    }

    fn wedge(&mut self, ctx: &mut ServiceCtx) -> Step {
        // Dispatches complete synchronously; the wedge lands at once.
        self.wedge.engage(ctx.now);
        Step::Reply(Vec::new())
    }

    fn unwedge(&mut self) {
        self.wedge.release();
    }

    fn get_state(&self) -> Vec<u8> {
        let counters: Vec<(u64, i64)> = self.counters.iter().map(|(&k, &v)| (k, v)).collect();
        let gset: Vec<u64> = self.gset.iter().copied().collect();
        to_bytes(&(counters, gset, &self.seen))
    }

    fn set_state(&mut self, state: &[u8]) {
        type Wire = (Vec<(u64, i64)>, Vec<u64>, IdSet);
        let Ok((counters, gset, seen)) = from_bytes::<Wire>(state) else {
            // Garbled transfer: keep the state held (blank, for a joining
            // spare, whose join goes on all the same).
            return;
        };
        self.counters = counters.into_iter().collect();
        self.gset = gset.into_iter().collect();
        self.seen = seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(now_us: u64) -> ServiceCtx {
        ServiceCtx {
            thread: circus::ThreadId {
                origin: simnet::SockAddr::new(simnet::HostId(0), 0),
                serial: 0,
            },
            caller: circus::TroupeId(0),
            invocation: 0,
            now: simnet::Time::from_micros(now_us),
            me: simnet::SockAddr::new(simnet::HostId(0), 0),
            effects: Vec::new(),
            span: obs::SpanId::NONE,
            metrics: obs::Registry::new(),
        }
    }

    fn execute(s: &mut CommutativeService, op_id: u64, ops: Vec<CmOp>) -> Step {
        let mut c = ctx(100);
        s.dispatch(
            &mut c,
            PROC_CM_EXECUTE,
            &to_bytes(&CmRequest { op_id, ops }),
        )
    }

    #[test]
    fn request_round_trips_on_the_wire() {
        let req = CmRequest {
            op_id: 7,
            ops: vec![CmOp::Incr(ObjId(1), -3), CmOp::Insert(42)],
        };
        assert_eq!(from_bytes::<CmRequest>(&to_bytes(&req)).unwrap(), req);
        let borrowed = CmRequest {
            op_id: 7,
            ops: &req.ops[..],
        };
        assert_eq!(to_bytes(&borrowed), to_bytes(&req));
    }

    #[test]
    fn operations_commute_and_dedup() {
        let ops: Vec<(u64, Vec<CmOp>)> = vec![
            (1, vec![CmOp::Incr(ObjId(1), 5)]),
            (2, vec![CmOp::Incr(ObjId(1), -2), CmOp::Insert(9)]),
            (3, vec![CmOp::Insert(4)]),
        ];
        // Apply in two different orders, with a duplicate thrown in.
        let mut a = CommutativeService::new();
        for (id, o) in &ops {
            execute(&mut a, *id, o.clone());
        }
        execute(&mut a, 2, ops[1].1.clone()); // Duplicate: must be a no-op.
        let mut b = CommutativeService::new();
        for (id, o) in ops.iter().rev() {
            execute(&mut b, *id, o.clone());
        }
        assert_eq!(a.counter(ObjId(1)), 3);
        assert_eq!(b.counter(ObjId(1)), 3);
        assert!(a.contains(9) && a.contains(4));
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.applied(), 3);
    }

    #[test]
    fn reply_is_a_deterministic_echo() {
        let mut fresh = CommutativeService::new();
        let mut replayed = CommutativeService::new();
        execute(&mut replayed, 7, vec![CmOp::Incr(ObjId(1), 1)]);
        let r1 = execute(&mut fresh, 7, vec![CmOp::Incr(ObjId(1), 1)]);
        let r2 = execute(&mut replayed, 7, vec![CmOp::Incr(ObjId(1), 1)]);
        // First application and dedup'd replay reply identically, so a
        // unanimous collation over divergent members still agrees.
        match (r1, r2) {
            (Step::Reply(x), Step::Reply(y)) => assert_eq!(x, y),
            other => panic!("expected replies, got {other:?}"),
        }
    }

    #[test]
    fn state_transfer_round_trips() {
        let mut donor = CommutativeService::new();
        execute(
            &mut donor,
            1,
            vec![CmOp::Incr(ObjId(3), 10), CmOp::Insert(5)],
        );
        execute(&mut donor, 2, vec![CmOp::Incr(ObjId(3), -4)]);
        let mut spare = CommutativeService::new();
        spare.set_state(&donor.get_state());
        assert_eq!(spare.counter(ObjId(3)), 6);
        assert!(spare.contains(5));
        assert_eq!(spare.state_digest(), donor.state_digest());
        // The dedup ledger traveled: a replay at the spare is a no-op.
        execute(&mut spare, 2, vec![CmOp::Incr(ObjId(3), -4)]);
        assert_eq!(spare.counter(ObjId(3)), 6);
    }

    #[test]
    fn wedge_refuses_work_then_lapses() {
        let mut s = CommutativeService::new();
        let mut c = ctx(1_000_000);
        assert!(matches!(s.wedge(&mut c), Step::Reply(_)));
        assert!(matches!(
            execute(&mut s, 1, vec![CmOp::Insert(1)]),
            Step::Error(_)
        ));
        s.unwedge();
        assert!(matches!(
            execute(&mut s, 1, vec![CmOp::Insert(1)]),
            Step::Reply(_)
        ));
    }
}
