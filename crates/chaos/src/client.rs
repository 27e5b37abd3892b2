//! The workload client: one rebinding core over the library's protocols.
//!
//! [`Client`] runs a [`Script`] of one scheme's [`Protocol`] — [`Txn`],
//! [`ProposeAccept`] or [`CmBatch`], as the library's fixed-troupe
//! clients do — and adds what chaos needs: it *imports* the troupe by
//! name into an [`ImportCache`] and rebinds on a stale-binding rejection
//! (§6.2); it paces itself with think time, so faults land on a live
//! workload; and it keeps the commit audit the store oracles join
//! against the members' commit ledgers. [`Scripted`] draws its items.
//! It derefs to its script, and through it to the protocol.

use circus::binding::BINDING_MODULE;
use circus::{
    Agent, CallError, CallHandle, CollationPolicy, NodeBuilder, NodeCtx, ThreadId, TimerKey, Troupe,
};
use ringmaster::ImportCache;
use simnet::{Duration, SimRng};
use transactions::{
    CmBatch, CmOp, CommitVoterService, Next, ObjId, Op, ProposeAccept, Protocol, Script, Txn,
};

use crate::harness::COMMIT_MODULE;

const RETRY_KEY: TimerKey = TimerKey::new(0x6368); // "ch"

/// Mean think time between script items. Pacing spreads the script
/// across the fault window, so faults land on a *live* workload rather
/// than an idle, already-finished one.
const THINK_MEAN_US: u64 = 1_200_000;

/// A protocol as chaos scripts it: its seeded items and quiesce probe.
pub trait Scripted: Protocol<Item: Clone> {
    /// Whether the think timer is armed after the *last* scripted item
    /// too (it fires into an empty script; it still draws from the
    /// world's RNG, so it is part of the run).
    const THINK_AFTER_LAST: bool;

    /// The protocol state of client number `client` (ids minted by
    /// different clients must never collide).
    fn for_client(client: usize) -> Self;

    /// Draws script item number `index` of client number `client`.
    fn script_item(rng: &mut SimRng, client: usize, index: usize) -> Self::Item;

    /// The quiesce probe of client number `client`: a no-op item that
    /// forces one call through the client's binding cache.
    fn probe(client: usize) -> Self::Item;

    /// Adds whatever else a client process must export.
    fn client_node(node: NodeBuilder) -> NodeBuilder {
        node
    }

    /// The nonce of the submission just requested, for a protocol whose
    /// members keep a commit ledger: the client audits it.
    fn audited(&self) -> Option<u64> {
        None
    }
}

/// What the client's one in-flight call is.
enum Pending {
    /// A name lookup or rebind at the binding agent.
    Binding,
    /// The workload call itself.
    Work,
}

/// A scripted client that binds by name, rebinds when stale, and speaks
/// protocol `P` to whatever troupe the name resolves to.
pub struct Client<P: Protocol> {
    binder: Troupe,
    name: &'static str,
    module: u16,
    cache: ImportCache,
    script: Script<P>,
    pending: Option<Pending>,
    /// How many times a stale binding forced a rebind.
    pub rebinds: u32,
    /// Every audited submission ever made: `(thread, nonce, item)`.
    pub submitted: Vec<(ThreadId, u64, P::Item)>,
    /// Keys the client *knows* committed (it saw the item confirmed).
    pub committed_keys: Vec<(ThreadId, u64)>,
    /// Keys the client saw refused (aborted): a member committing one
    /// violates atomicity. A failed call's key is in neither list.
    pub aborted_keys: Vec<(ThreadId, u64)>,
}

/// The transaction client of the store and recovery workloads.
pub type RebindingClient = Client<Txn>;

impl<P: Protocol> std::ops::Deref for Client<P> {
    type Target = Script<P>;
    fn deref(&self) -> &Script<P> {
        &self.script
    }
}

impl<P: Scripted> Client<P> {
    /// A client importing `name` from `binder` and running `script`
    /// against module `module` of whatever troupe the name resolves to.
    pub fn new(binder: Troupe, name: &'static str, module: u16, script: Script<P>) -> Self {
        Client {
            binder,
            name,
            module,
            cache: ImportCache::new(),
            script,
            pending: None,
            rebinds: 0,
            submitted: Vec::new(),
            committed_keys: Vec::new(),
            aborted_keys: Vec::new(),
        }
    }

    /// The binding cache, for the stale-binding oracle.
    pub fn cache(&self) -> &ImportCache {
        &self.cache
    }

    /// Appends one more item to the script (the quiesce phase uses this
    /// to force one post-reconfiguration call through every client's
    /// cache). Poke the client afterwards if it had finished.
    pub fn enqueue(&mut self, item: P::Item) {
        self.script.push(item);
    }

    fn lookup(&mut self, nc: &mut NodeCtx<'_, '_, '_>, rebind: bool) {
        let (proc, args) = if rebind {
            self.cache.rebind_request(self.name)
        } else {
            ImportCache::lookup_request(self.name)
        };
        self.pending = Some(Pending::Binding);
        let thread = nc.fresh_thread();
        nc.call(
            thread,
            &self.binder,
            BINDING_MODULE,
            proc,
            args,
            CollationPolicy::Majority,
        );
    }

    /// Sends (or resends) the current phase of the item in progress, or
    /// starts the next scripted one.
    fn drive(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.pending.is_some() || !self.script.start() {
            return;
        }
        let Some(troupe) = self.cache.get(self.name).cloned() else {
            self.lookup(nc, false);
            return;
        };
        self.pending = Some(Pending::Work);
        let thread = nc.fresh_thread();
        let (proc, args, collation) = self.script.request(nc.now());
        if let Some(nonce) = self.script.audited() {
            self.submitted
                .push((thread, nonce, self.script.current().clone()));
        }
        nc.call(thread, &troupe, self.module, proc, args, collation);
    }

    /// Digests the reply to a workload call.
    fn work_done(&mut self, nc: &mut NodeCtx<'_, '_, '_>, result: Result<Vec<u8>, CallError>) {
        let next = self.script.reply(nc, RETRY_KEY, result);
        let key = self.submitted.last().map(|s| (s.0, s.1));
        match next {
            Next::Confirmed => {
                self.committed_keys.extend(key);
                if P::THINK_AFTER_LAST || !self.script.finished() {
                    let think = 200_000 + nc.sim().rng().below(2 * THINK_MEAN_US);
                    nc.set_app_timer(Duration::from_micros(think), RETRY_KEY);
                }
            }
            Next::Again => self.drive(nc),
            Next::Refused(_) => self.aborted_keys.extend(key),
            _ => {}
        }
    }
}

impl<P: Scripted> Agent for Client<P> {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.drive(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        match self.pending.take() {
            None => {}
            Some(Pending::Binding) => match result {
                Ok(bytes) if self.cache.store_reply(self.name, &bytes).is_some() => self.drive(nc),
                Ok(_) => self.script.retry_later(nc, RETRY_KEY, &"name not bound"),
                Err(e) => {
                    let why = format_args!("lookup failed: {e}");
                    self.script.retry_later(nc, RETRY_KEY, &why);
                }
            },
            // The call never executed under the stale incarnation (§6.2:
            // WrongTroupe is rejected before dispatch).
            Some(Pending::Work) if result.as_ref().is_err_and(ImportCache::should_rebind) => {
                self.cache.invalidate(self.name);
                self.rebinds += 1;
                self.lookup(nc, true);
            }
            Some(Pending::Work) => self.work_done(nc, result),
        }
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key == RETRY_KEY {
            self.drive(nc);
        }
    }
}

impl Scripted for Txn {
    const THINK_AFTER_LAST: bool = true;

    fn for_client(_client: usize) -> Txn {
        Txn::default()
    }

    /// One or two reads/adds over a small object set, so clients
    /// conflict (abort-and-retry pressure, §5.3.1).
    fn script_item(rng: &mut SimRng, _client: usize, _index: usize) -> Vec<Op> {
        let objs = [ObjId(1), ObjId(2), ObjId(3)];
        let mut txn = Vec::new();
        for _ in 0..=rng.below(2) {
            let obj = objs[rng.below(objs.len() as u64) as usize];
            txn.push(if rng.chance(0.25) {
                Op::Read(obj)
            } else {
                Op::Add(obj, 1 + rng.below(5) as i64)
            });
        }
        txn
    }

    /// A no-op write.
    fn probe(_client: usize) -> Vec<Op> {
        vec![Op::Add(ObjId(1), 0)]
    }

    /// The client half of the troupe commit protocol votes.
    fn client_node(node: NodeBuilder) -> NodeBuilder {
        node.service(COMMIT_MODULE, Box::new(CommitVoterService))
    }

    fn audited(&self) -> Option<u64> {
        Some(self.nonce())
    }
}

/// Each client mints ids from a range of its own.
fn first_id(client: usize) -> u64 {
    1 + client as u64 * 1_000_000
}

impl Scripted for ProposeAccept {
    const THINK_AFTER_LAST: bool = false;

    fn for_client(client: usize) -> ProposeAccept {
        ProposeAccept::new(first_id(client))
    }

    fn script_item(rng: &mut SimRng, _client: usize, _index: usize) -> Vec<u8> {
        let len = 1 + rng.below(6) as usize;
        (0..len).map(|_| rng.below(256) as u8).collect()
    }

    fn probe(client: usize) -> Vec<u8> {
        vec![0xEE, client as u8]
    }
}

impl Scripted for CmBatch {
    const THINK_AFTER_LAST: bool = false;

    fn for_client(client: usize) -> CmBatch {
        CmBatch::new(first_id(client))
    }

    /// Counter bumps over a small object set, plus set inserts of
    /// elements unique to `(client, index)`.
    fn script_item(rng: &mut SimRng, client: usize, index: usize) -> Vec<CmOp> {
        let objs = [ObjId(1), ObjId(2), ObjId(3)];
        let mut ops = Vec::new();
        for _ in 0..=rng.below(2) {
            ops.push(if rng.chance(0.3) {
                CmOp::Insert(1 + client as u64 * 10_000 + index as u64)
            } else {
                let obj = objs[rng.below(objs.len() as u64) as usize];
                CmOp::Incr(obj, 1 + rng.below(5) as i64)
            });
        }
        ops
    }

    fn probe(client: usize) -> Vec<CmOp> {
        vec![CmOp::Insert(0xEE00 + client as u64)]
    }
}
