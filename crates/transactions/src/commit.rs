//! The troupe commit protocol (§5.3).
//!
//! When a server troupe member is ready to commit or abort a transaction
//! it calls `ready_to_commit(boolean)` *back at the client troupe* — "the
//! roles of client and server are thus temporarily reversed". Each client
//! troupe member answers true only if **every** server troupe member
//! reported ready; the many-to-one machinery means a client's answer
//! waits for all members' votes. Theorem 5.1 follows: two members commit
//! two transactions only if they attempt them in the same order —
//! divergent orders leave the vote assemblies incomplete, a deadlock
//! that §5.3.1 breaks by timeout. Here no such wait can form: each
//! execute call carries its client's clock at submission, which with
//! the call's thread is the transaction's [`Stamp`], and a member never
//! lets an older transaction wait behind a younger one
//! ([`LocalTm::try_execute`]). The member that ordered the two against
//! their stamps votes no at once, the client's first "no" aborts the
//! older transaction everywhere, and the client retries it with binary
//! exponential backoff (§5.3.1). The assembly timeout is left to cover
//! members that have gone silent.
//!
//! The protocol is *generic* (any local concurrency control) and
//! *optimistic* (assumes conflicts are rare).
//!
//! A member that voted yes and then lost its call-back — the client's
//! verdict went astray, or the client was cut off — is *in doubt*: the
//! client may have committed at its peers. It never aborts alone. It
//! keeps the transaction's locks and workspace and asks its peers
//! (`txn_outcome`) until one knows the verdict, every `ASK_AGAIN`. Not
//! the client: the client answered that call already, and a second copy
//! under the same call key would run its call-back again. A peer knows a
//! commit from its ledger and an abort for `ABORT_TTL`; a transaction
//! it has not seen, or not decided, it calls undecided. A client that
//! dies for ever before its verdict reaches any member leaves its
//! yes-voters in doubt for ever, holding their locks: two-phase commit's
//! blocking window, which only a verdict that outlives the client closes.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use crate::ledger::Ledger;
use crate::pack_origin;
use crate::store::TxnId;
use crate::txn::{ExecOutcome, LocalTm, Op, Stamp};
use crate::wal::{CommitRecord, Wal};
use crate::wedge::Wedge;
use circus::{
    CallError, Collate, CollationPolicy, Decision, NodeEffect, OutCall, Service, ServiceCtx,
    StateSince, Step, ThreadId, TroupeTarget, VoteSlot,
};
use obs::fnv1a;
use simnet::{Disk, Duration, Payload, Time};
use wire::{encode_with, from_bytes, to_bytes};

/// Procedure number of `execute_transaction` at the store troupe.
pub const PROC_EXECUTE: u16 = 0;
/// Procedure number of `txn_outcome(thread, nonce)` at the store troupe,
/// asked by a member in doubt: `Some(committed)` if this member knows the
/// verdict, `None` if not.
pub const PROC_OUTCOME: u16 = 2;
/// Procedure number of `ready_to_commit` at the client's commit module.
pub const PROC_READY_TO_COMMIT: u16 = 0;

/// How long a member in doubt waits before it asks its peers again.
const ASK_AGAIN: Duration = Duration::from_secs(1);
/// How long a member remembers a transaction it aborted, for a peer in
/// doubt to ask about (a commit stays in the ledger for good). A peer cut
/// off for longer stays in doubt.
const ABORT_TTL: Duration = Duration::from_secs(60);

wire::record! {
    /// A transaction submitted for execution.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ExecuteRequest {
        /// Client-chosen value distinguishing retries of the same logical
        /// transaction (each retry is a new transaction).
        pub nonce: u64,
        /// The operations, executed as one atomic unit.
        pub ops: Vec<Op>,
    }
}

impl ExecuteRequest {
    /// The arguments of an `execute_transaction` of borrowed `ops`,
    /// submitted at `at` (the client's clock, in microseconds): the bytes
    /// of the request that owned them, then `at`. With the call's thread,
    /// `at` is the transaction's [`Stamp`].
    pub(crate) fn encode(nonce: u64, ops: &[Op], at: u64) -> Vec<u8> {
        to_bytes(&(nonce, ops, at))
    }
}

wire::choice! {
    /// The fate of a submitted transaction.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum TxnOutcome {
        /// Committed at every member; per-operation results.
        Committed(Vec<i64>) = 0,
        /// Aborted (overtaken by a younger transaction, a failed vote, or
        /// a wedge); retry with backoff.
        Aborted(String) = 1,
    }
}

/// The reason every aborted transaction's outcome gives, whichever
/// member refused it and why: the returns of one call must agree.
const ABORTED: &str = "transaction aborted";

/// Commit records kept in memory for serving recovery deltas. Far above
/// anything a scenario produces; if exceeded, the oldest records are
/// dropped and the coverage check in `get_state_since` falls back to a
/// full copy.
const RETAIN_CAP: usize = 1024;

/// What log-replay recovery found and did, kept for oracles and benches.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryInfo {
    /// Transactions the restored checkpoint held (0 = none).
    pub snapshot_version: u64,
    /// Log records replayed into the store.
    pub replayed: usize,
    /// Log records skipped because the checkpoint already covered them.
    pub deduped: usize,
    /// Torn/truncated log bytes discarded at the checksum boundary.
    pub torn_bytes: usize,
    /// Total log bytes read.
    pub log_bytes: usize,
}

/// Per-invocation transaction bookkeeping at a store member.
struct TxnRec {
    txn: TxnId,
    thread: ThreadId,
    /// The client's clock at submission: the stamp's first half.
    at: u64,
    nonce: u64,
    ops: Vec<Op>,
    /// `Some` once executed: this member votes yes.
    results: Option<Vec<i64>>,
    /// Voted yes, and the call-back failed: the peers are being asked.
    in_doubt: bool,
}

/// The replicated transactional store service: one troupe member's
/// module, combining the local transaction manager with the troupe
/// commit protocol.
pub struct TroupeStoreService {
    tm: LocalTm,
    /// Module number at the *caller* exporting `ready_to_commit`.
    commit_module: u16,
    next_txn: u64,
    /// Point lookups and `is_empty` only, never walked.
    by_invocation: HashMap<u64, TxnRec>,
    /// Suspended (lock-waiting) transactions: txn → invocation. `wedge`
    /// walks it, in key order — which is invocation order too: both
    /// numbers are handed out in dispatch order.
    waiting: BTreeMap<TxnId, u64>,
    /// Commit ledger: the `(origin, nonce)` of every transaction this
    /// member committed, one range per client plus one per gap an
    /// uncommitted attempt left. Part of the module state (transferred by
    /// `get_state`/`set_state`) so a joining member inherits the history;
    /// the audit oracles check the ledgers of troupe members agree.
    committed: Ledger,
    /// Commits whose key the ledger already held: exactly-once broken.
    duplicate_commits: u64,
    /// The transactions this member aborted in the last [`ABORT_TTL`],
    /// oldest first, by `(thread, nonce)`: what a peer in doubt asks.
    aborted: VecDeque<(Time, ThreadId, u64)>,
    /// Wedged for a membership change (§6.4.1): new transactions are
    /// refused with an abort, lock-waiters are aborted, and the wedge
    /// call replies once the last in-flight transaction resolves, so
    /// `get_state` sees identical committed sets at every member.
    wedge: Wedge,
    /// Suspended `wedge` invocations awaiting the drain.
    wedge_waiters: Vec<u64>,
    /// The durable commit log, when this member has a local disk (boxed:
    /// a volatile member should not carry its size).
    wal: Option<Box<Wal>>,
    /// Recent commit records kept to serve recovery *deltas* to peers
    /// (the volatile store merges writes away; the delta needs them
    /// per-commit). Capped at [`RETAIN_CAP`].
    retained: VecDeque<CommitRecord>,
    /// What the last `on_start` recovery found (durable members only).
    pub recovery: Option<RecoveryInfo>,
}

impl TroupeStoreService {
    /// Creates a store whose commit call-backs go to the caller's
    /// `commit_module`.
    pub fn new(commit_module: u16) -> TroupeStoreService {
        TroupeStoreService {
            tm: LocalTm::new(),
            commit_module,
            next_txn: 1,
            by_invocation: HashMap::new(),
            waiting: BTreeMap::new(),
            committed: Ledger::new(),
            duplicate_commits: 0,
            aborted: VecDeque::new(),
            wedge: Wedge::default(),
            wedge_waiters: Vec::new(),
            wal: None,
            retained: VecDeque::new(),
            recovery: None,
        }
    }

    /// Creates a *durable* store member: every commit is appended to a
    /// checksummed log on `disk` (fsync'd), a checkpoint is written every
    /// `snapshot_every` commits (truncating the log), and `on_start`
    /// recovers checkpoint + log before the member serves anything.
    pub fn with_durability(commit_module: u16, disk: Disk, snapshot_every: usize) -> Self {
        let mut s = TroupeStoreService::new(commit_module);
        s.wal = Some(Box::new(Wal::new(disk, snapshot_every)));
        s
    }

    /// Replies to the suspended `wedge` calls once nothing is in flight.
    fn check_drained(&mut self, ctx: &mut ServiceCtx) {
        if !self.wedge.held() || !self.by_invocation.is_empty() {
            return;
        }
        for inv in std::mem::take(&mut self.wedge_waiters) {
            ctx.push_effect(NodeEffect::StepFor {
                invocation: inv,
                step: Step::Reply(Vec::new()),
            });
        }
    }

    /// The underlying transaction manager (observers/tests).
    pub fn tm(&self) -> &LocalTm {
        &self.tm
    }

    /// The commit ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.committed
    }

    /// Commits whose `(origin, nonce)` the ledger already held — each one
    /// a transaction executed twice. Zero unless exactly-once is broken.
    pub fn duplicate_commits(&self) -> u64 {
        self.duplicate_commits
    }

    /// FNV-1a digest of the module state (committed image + ledger);
    /// every member of a quiesced troupe must report the same value.
    ///
    /// The ledger is a set, not a commit order: two-phase locking forces
    /// every member to order conflicting transactions identically
    /// (Theorem 5.1), but concurrent non-conflicting transactions may
    /// legitimately commit in different local orders, and one-copy
    /// serializability promises identical committed images and identical
    /// transaction sets — not identical interleavings.
    pub fn state_digest(&self) -> u64 {
        let image = fnv1a(&to_bytes(&self.tm.store().snapshot()));
        self.committed.fold_into(image)
    }

    /// Builds the `ready_to_commit` call-back (§5.3).
    fn vote_call(&self, ready: bool) -> Step {
        Step::Call(OutCall {
            target: TroupeTarget::Caller,
            module: self.commit_module,
            proc: PROC_READY_TO_COMMIT,
            args: verdict(ready),
            collation: CollationPolicy::Unanimous,
            solo: false,
        })
    }

    /// Runs (or re-runs) a transaction and decides its next step.
    fn run(&mut self, ctx: &mut ServiceCtx, invocation: u64) -> Step {
        let rec = self.by_invocation.get_mut(&invocation).expect("txn record");
        let txn = rec.txn;
        let stamp: Stamp = (rec.at, rec.thread);
        let ready = match self.tm.try_execute(txn, stamp, &rec.ops) {
            ExecOutcome::Executed(results) => {
                rec.results = Some(results);
                true
            }
            ExecOutcome::MustWait(_) => {
                self.waiting.insert(txn, invocation);
                return Step::Suspend;
            }
            // Aborted locally; still vote so every member aborts.
            ExecOutcome::Overtaken(unblocked) => {
                self.rerun(ctx, unblocked);
                false
            }
        };
        self.waiting.remove(&txn);
        self.vote_call(ready)
    }

    /// Re-runs every transaction unblocked by a lock release, queueing
    /// `StepFor` effects to advance their suspended invocations.
    fn rerun(&mut self, ctx: &mut ServiceCtx, unblocked: Vec<TxnId>) {
        for txn in unblocked {
            if let Some(inv) = self.waiting.remove(&txn) {
                let step = self.run(ctx, inv);
                ctx.push_effect(NodeEffect::StepFor {
                    invocation: inv,
                    step,
                });
            }
        }
    }

    /// Keeps a commit record for delta serving, bounded by [`RETAIN_CAP`].
    fn retain(&mut self, rec: CommitRecord) {
        if self.retained.len() >= RETAIN_CAP {
            self.retained.pop_front();
        }
        self.retained.push_back(rec);
    }

    /// Checkpoints the current state whatever the cadence says — after
    /// recovery and after a peer's delta, when the state holds commits
    /// the log never saw or must not be replayed over again. No-op
    /// without durability.
    fn force_checkpoint(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            wal.checkpoint(&self.committed, &self.tm.store().snapshot());
        }
    }

    /// Appends one commit to the log and checkpoints when one is due: by
    /// the periodic cadence, or because an append failed and only a
    /// checkpoint can make the commit the log missed durable.
    fn log_commit(&mut self, rec: &CommitRecord, ctx: &mut ServiceCtx) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        match wal.append_commit(rec) {
            Ok(()) => ctx.metrics.add("wal.appends", 1),
            Err(_) => ctx.metrics.add("wal.append_errors", 1),
        }
        if wal.snapshot_due() {
            ctx.metrics.add("wal.snapshots", 1);
            wal.checkpoint(&self.committed, &self.tm.store().snapshot());
        }
    }
}

impl TroupeStoreService {
    /// What this member knows of `(thread, nonce)`'s verdict.
    fn outcome(&self, thread: ThreadId, nonce: u64) -> Option<bool> {
        if self.committed.contains(thread, nonce) {
            return Some(true);
        }
        let aborted = self
            .aborted
            .iter()
            .any(|&(_, t, n)| (t, n) == (thread, nonce));
        aborted.then_some(false)
    }

    /// Commits (`go`) or aborts the transaction of `ctx`'s invocation,
    /// whose verdict this member now knows, and replies its outcome.
    fn settle(&mut self, ctx: &mut ServiceCtx, go: bool) -> Step {
        let rec = self
            .by_invocation
            .remove(&ctx.invocation)
            .expect("txn record");
        let (outcome, unblocked) = match rec.results {
            Some(results) if go => {
                if !self.committed.insert(rec.thread, rec.nonce) {
                    self.duplicate_commits += 1;
                }
                ctx.metrics.add("txn.commits", 1);
                // The workspace the commit folds away is the log record's
                // per-commit writes: logged, then kept for deltas.
                let (writes, unblocked) = self.tm.commit(rec.txn);
                let crec = CommitRecord {
                    thread: rec.thread,
                    nonce: rec.nonce,
                    writes,
                };
                self.log_commit(&crec, ctx);
                self.retain(crec);
                (TxnOutcome::Committed(results), unblocked)
            }
            _ => {
                ctx.metrics.add("txn.aborts", 1);
                while self
                    .aborted
                    .front()
                    .is_some_and(|&(t, ..)| t + ABORT_TTL <= ctx.now)
                {
                    self.aborted.pop_front();
                }
                self.aborted.push_back((ctx.now, rec.thread, rec.nonce));
                (TxnOutcome::Aborted(ABORTED.into()), self.tm.abort(rec.txn))
            }
        };
        self.rerun(ctx, unblocked);
        self.check_drained(ctx);
        Step::Reply(to_bytes(&outcome))
    }
}

impl Service for TroupeStoreService {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        match proc {
            PROC_EXECUTE => {
                let Ok((req, at)) = from_bytes::<(ExecuteRequest, u64)>(args) else {
                    return Step::Error("bad execute_transaction arguments".into());
                };
                if self.wedge.active(ctx.now) {
                    // Wedged (§6.4.1): refuse new work with the very abort
                    // a member not yet wedged gives when its vote fails,
                    // so the members' returns collate (§4.3.1); the client
                    // retries with backoff and lands on the re-incarnated
                    // troupe.
                    ctx.metrics.add("txn.aborts", 1);
                    ctx.metrics.add("txn.wedge_refusals", 1);
                    return Step::Reply(to_bytes(&TxnOutcome::Aborted(ABORTED.into())));
                }
                let txn = TxnId(self.next_txn);
                self.next_txn += 1;
                self.by_invocation.insert(
                    ctx.invocation,
                    TxnRec {
                        txn,
                        thread: ctx.thread,
                        at,
                        nonce: req.nonce,
                        ops: req.ops,
                        results: None,
                        in_doubt: false,
                    },
                );
                self.run(ctx, ctx.invocation)
            }
            PROC_OUTCOME => {
                let Ok((thread, nonce)) = from_bytes::<(ThreadId, u64)>(args) else {
                    return Step::Error("bad txn_outcome arguments".into());
                };
                Step::Reply(to_bytes(&self.outcome(thread, nonce)))
            }
            _ => Step::Error(format!("transactional store: unknown procedure {proc}")),
        }
    }

    fn resume(&mut self, ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        let Some(rec) = self.by_invocation.get_mut(&ctx.invocation) else {
            return Step::Error("spurious resume".into());
        };
        // The client's verdict on the votes, or a peer's answer to a
        // member in doubt; `None` if this member did not learn it.
        let reply = reply.ok();
        let verdict = if rec.in_doubt {
            reply.and_then(|bytes| from_bytes::<Option<bool>>(&bytes).ok().flatten())
        } else {
            reply.and_then(|bytes| from_bytes::<bool>(&bytes).ok())
        };
        match verdict {
            Some(go) => self.settle(ctx, go),
            // A no-voter knows the verdict: abort.
            None if rec.results.is_none() => self.settle(ctx, false),
            None if rec.in_doubt => {
                ctx.push_effect(NodeEffect::Wake {
                    invocation: ctx.invocation,
                    after: ASK_AGAIN,
                });
                Step::Suspend
            }
            None => {
                rec.in_doubt = true;
                ctx.metrics.add("txn.in_doubt", 1);
                ask_peers(rec)
            }
        }
    }

    fn wake(&mut self, ctx: &mut ServiceCtx) -> Step {
        match self.by_invocation.get(&ctx.invocation) {
            Some(rec) if rec.in_doubt => ask_peers(rec),
            _ => Step::Suspend,
        }
    }

    fn wedge(&mut self, ctx: &mut ServiceCtx) -> Step {
        if self.wedge.engage(ctx.now) {
            // Waiters of a lapsed wedge are never answered.
            self.wedge_waiters.clear();
            // Abort every lock-waiter: each votes false so the whole
            // troupe aborts that transaction, and its client retries
            // after the membership change. Waiting out the locks instead
            // could stall the drain behind a holder in doubt.
            for inv in std::mem::take(&mut self.waiting).into_values() {
                ctx.push_effect(NodeEffect::StepFor {
                    invocation: inv,
                    step: self.vote_call(false),
                });
            }
        }
        if self.by_invocation.is_empty() {
            Step::Reply(Vec::new())
        } else {
            self.wedge_waiters.push(ctx.invocation);
            Step::Suspend
        }
    }

    fn unwedge(&mut self) {
        self.wedge.release();
        self.wedge_waiters.clear();
    }

    fn get_state(&self) -> Vec<u8> {
        to_bytes(&(self.tm.store().snapshot(), &self.committed))
    }

    /// Installs a peer's `(image, ledger)`. A state that does not decode,
    /// or whose ledger is not well-formed, is dropped whole: the member
    /// keeps what it had (nothing, for a joining spare, whose join goes
    /// on to `add_troupe_member` all the same).
    fn set_state(&mut self, state: &[u8]) {
        let Ok((snap, ledger)) = from_bytes::<(Vec<(u64, i64)>, Ledger)>(state) else {
            return;
        };
        self.tm.store_mut().restore(&snap);
        self.committed = ledger;
        // The installed ledger may contain commits this member never saw
        // individually, so its retained records no longer cover the
        // ledger (it will serve full copies until they do), and no stale
        // log on disk may replay over the new state.
        self.retained.clear();
        if let Some(wal) = self.wal.as_mut() {
            wal.install(&self.committed, &snap);
        }
    }

    /// Log-replay recovery (durable members): restore the newest usable
    /// checkpoint — image and ledger — replay intact log records the
    /// ledger does not hold yet, discard the torn tail, and
    /// checkpoint again so the log is clean before the member serves
    /// anything. The peer catch-up that follows (via `get_state_since`)
    /// only needs the commits missing from here.
    fn on_start(&mut self, metrics: &obs::Registry) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let found = wal.recover();
        let mut info = RecoveryInfo {
            torn_bytes: found.torn_bytes,
            log_bytes: found.log_bytes,
            ..RecoveryInfo::default()
        };
        let restored = found.checkpoint.is_some();
        if let Some(checkpoint) = found.checkpoint {
            info.snapshot_version = checkpoint.ledger.len();
            self.tm.store_mut().restore(&checkpoint.image);
            self.committed = checkpoint.ledger;
        }
        for rec in found.records {
            // Idempotent replay: a crash between slot and log truncation
            // leaves records the checkpoint already covers.
            if !self.committed.insert(rec.thread, rec.nonce) {
                info.deduped += 1;
                continue;
            }
            self.tm.store_mut().apply_committed(&rec.writes);
            info.replayed += 1;
        }
        if info.log_bytes > 0 || restored {
            metrics.add("wal.recoveries", 1);
            metrics.add("wal.replayed", info.replayed as u64);
            if info.torn_bytes > 0 {
                metrics.add("wal.torn_tails_dropped", 1);
            }
        }
        self.recovery = Some(info);
        self.force_checkpoint();
    }

    fn recovery_token(&self) -> Option<Vec<u8>> {
        self.wal.as_ref()?;
        // Per origin, the highest nonce committed. Clients are strictly
        // sequential per origin, so what recovery lost is a nonce suffix
        // per origin and one watermark per origin describes it exactly.
        Some(to_bytes(&self.committed.watermarks()))
    }

    fn get_state_since(&self, token: &[u8]) -> StateSince {
        let Ok(marks) = from_bytes::<Vec<(u64, u64)>>(token) else {
            return StateSince::Full(self.get_state());
        };
        let marks: BTreeMap<u64, u64> = marks.into_iter().collect();
        let covered = |t: &ThreadId, nonce: u64| {
            marks
                .get(&pack_origin(t.origin))
                .is_some_and(|w| nonce <= *w)
        };
        // The delta is only sound if this member's retained records hold
        // *every* ledger entry past the requester's watermarks; if any
        // were dropped (RETAIN_CAP) or never seen individually
        // (set_state install), fall back to the full copy. Retained
        // records are ledger entries, one each, so counting suffices.
        let past = self
            .retained
            .iter()
            .filter(|r| !covered(&r.thread, r.nonce))
            .count();
        if past as u64 != self.committed.len_above(&marks) {
            return StateSince::Full(self.get_state());
        }
        let delta: Vec<CommitRecord> = self
            .retained
            .iter()
            .filter(|r| !covered(&r.thread, r.nonce))
            .cloned()
            .collect();
        StateSince::Delta(to_bytes(&delta))
    }

    /// Applies a peer's delta: every record not already in the ledger is
    /// applied in the peer's commit order. Two-phase locking orders
    /// conflicting commits identically at every member (Theorem 5.1), so
    /// per-object last-writer order is preserved.
    fn apply_delta(&mut self, delta: &[u8]) {
        let Ok(records) = from_bytes::<Vec<CommitRecord>>(delta) else {
            return;
        };
        for rec in records {
            if !self.committed.insert(rec.thread, rec.nonce) {
                continue;
            }
            self.tm.store_mut().apply_committed(&rec.writes);
            self.retain(rec);
        }
        // Close the stale-log window: the state now includes commits the
        // log never saw, so checkpoint it before logging anything new.
        self.force_checkpoint();
    }
}

/// A `ready_to_commit` vote or verdict, externalized: two bytes, held in
/// place.
fn verdict(ready: bool) -> Payload {
    encode_with(&ready, Payload::copy_from)
}

/// A member in doubt asks its peers for the verdict: alone, so that they
/// answer at once rather than wait for the other members' copies.
fn ask_peers(rec: &TxnRec) -> Step {
    Step::Call(OutCall {
        target: TroupeTarget::Peers,
        module: 0,
        proc: PROC_OUTCOME,
        args: encode_with(&(rec.thread, rec.nonce), Payload::copy_from),
        collation: CollationPolicy::Custom(PEER_VERDICTS.with(Rc::clone)),
        solo: true,
    })
}

/// The collator of a member in doubt's `txn_outcome` call: the first
/// peer that knows the verdict gives it; if none does, `None`. Its votes
/// are the peers' raw returns (`circus::reply_vote`).
struct PeerVerdicts;

impl Collate for PeerVerdicts {
    fn decide(&self, slots: &[VoteSlot]) -> Decision {
        let mut pending = false;
        for s in slots {
            match s {
                VoteSlot::Pending => pending = true,
                VoteSlot::Dead => {}
                VoteSlot::Vote(v) => {
                    let known =
                        circus::reply_vote(v).and_then(|p| from_bytes::<Option<bool>>(p).ok());
                    if known.flatten().is_some() {
                        return Decision::Ready(v.clone());
                    }
                }
            }
        }
        if pending {
            Decision::Wait
        } else {
            Decision::Ready(circus::wrap_reply_vote(to_bytes(&None::<bool>)).into())
        }
    }
}

/// The vote collator used by the client's `ready_to_commit` module: wait
/// for every server member's vote; any `false` vote — or any member
/// declared dead, as a member silent past the assembly timeout is —
/// aborts.
struct ReadyVotes;

thread_local! {
    /// The one `ReadyVotes` every `ready_to_commit` assembly on this
    /// thread collates with (the collator holds no state).
    static READY_VOTES: Rc<dyn Collate> = Rc::new(ReadyVotes);
    /// The one `PeerVerdicts` every `txn_outcome` call collates with.
    static PEER_VERDICTS: Rc<dyn Collate> = Rc::new(PeerVerdicts);
}

impl Collate for ReadyVotes {
    fn decide(&self, slots: &[VoteSlot]) -> Decision {
        let mut pending = false;
        for s in slots {
            match s {
                VoteSlot::Pending => pending = true,
                VoteSlot::Dead => return Decision::Ready(verdict(false)),
                VoteSlot::Vote(v) => {
                    if !from_bytes::<bool>(v).unwrap_or(false) {
                        return Decision::Ready(verdict(false));
                    }
                }
            }
        }
        if pending {
            Decision::Wait
        } else {
            Decision::Ready(verdict(true))
        }
    }
}

/// The client-side `ready_to_commit` module (§5.3): echoes the collated
/// verdict back to the whole server troupe. "Each member of the client
/// troupe thus plays the role of the coordinator in the conventional
/// two-phase commit protocol."
pub struct CommitVoterService;

impl Service for CommitVoterService {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        if proc != PROC_READY_TO_COMMIT {
            return Step::Error(format!("commit voter: unknown procedure {proc}"));
        }
        // `args` is already the collated verdict.
        Step::Reply(args.to_vec())
    }

    fn arg_collation(&self, _proc: u16) -> CollationPolicy {
        CollationPolicy::Custom(READY_VOTES.with(Rc::clone))
    }
}

#[cfg(test)]
impl TroupeStoreService {
    /// Dispatches an `execute_transaction` of `ops` under `nonce` as a
    /// client's call submitted at `ctx.now` would arrive, for a test that
    /// drives a member alone.
    pub(crate) fn execute(&mut self, ctx: &mut ServiceCtx, nonce: u64, ops: &[Op]) -> Step {
        let args = ExecuteRequest::encode(nonce, ops, ctx.now.as_micros());
        self.dispatch(ctx, PROC_EXECUTE, &args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips() {
        for o in [
            TxnOutcome::Committed(vec![1, -2, 3]),
            TxnOutcome::Aborted("x".into()),
        ] {
            assert_eq!(from_bytes::<TxnOutcome>(&to_bytes(&o)).unwrap(), o);
        }
    }

    #[test]
    fn execute_request_round_trips() {
        let r = ExecuteRequest {
            nonce: 9,
            ops: vec![Op::Add(crate::store::ObjId(1), 5)],
        };
        assert_eq!(from_bytes::<ExecuteRequest>(&to_bytes(&r)).unwrap(), r);
        let args = ExecuteRequest::encode(r.nonce, &r.ops, 7);
        assert_eq!(args, to_bytes(&(&r, 7u64)));
        assert_eq!(from_bytes::<(ExecuteRequest, u64)>(&args), Ok((r, 7)));
    }

    #[test]
    fn ready_votes_all_true() {
        let c = ReadyVotes;
        let slots = vec![
            VoteSlot::Vote(to_bytes(&true).into()),
            VoteSlot::Vote(to_bytes(&true).into()),
        ];
        assert_eq!(c.decide(&slots), Decision::Ready(to_bytes(&true).into()));
    }

    #[test]
    fn ready_votes_any_false_aborts() {
        let c = ReadyVotes;
        let slots = vec![
            VoteSlot::Vote(to_bytes(&true).into()),
            VoteSlot::Vote(to_bytes(&false).into()),
        ];
        assert_eq!(c.decide(&slots), Decision::Ready(to_bytes(&false).into()));
    }

    #[test]
    fn ready_votes_waits_for_all() {
        let c = ReadyVotes;
        let slots = vec![VoteSlot::Vote(to_bytes(&true).into()), VoteSlot::Pending];
        assert_eq!(c.decide(&slots), Decision::Wait);
    }

    /// A peer's answer, as the asker's collator sees it: a raw return.
    fn answer(known: Option<bool>) -> VoteSlot {
        VoteSlot::Vote(circus::wrap_reply_vote(to_bytes(&known)).into())
    }

    #[test]
    fn peer_verdicts_take_the_first_peer_that_knows() {
        let c = PeerVerdicts;
        let decided = |slots: &[VoteSlot]| match c.decide(slots) {
            Decision::Ready(v) => from_bytes::<Option<bool>>(circus::reply_vote(&v).unwrap()),
            other => panic!("{other:?}"),
        };
        let (committed, aborted) = (answer(Some(true)), answer(Some(false)));
        assert_eq!(decided(&[answer(None), committed.clone()]), Ok(Some(true)));
        assert_eq!(decided(&[aborted, VoteSlot::Pending]), Ok(Some(false)));
        assert_eq!(decided(&[VoteSlot::Dead, answer(None)]), Ok(None));
        assert_eq!(decided(&[]), Ok(None));
        let waiting = [answer(None), VoteSlot::Pending];
        assert_eq!(c.decide(&waiting), Decision::Wait);
    }

    #[test]
    fn ready_votes_dead_member_aborts() {
        let c = ReadyVotes;
        let slots = vec![VoteSlot::Vote(to_bytes(&true).into()), VoteSlot::Dead];
        assert_eq!(c.decide(&slots), Decision::Ready(to_bytes(&false).into()));
    }
}
