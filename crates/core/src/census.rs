//! The labels of [`Node::census`](crate::Node::census): one count per
//! piece of protocol state a node keeps, each documented with what bounds
//! it. None may grow with the number of calls a node makes or serves: the
//! chaos harness's `bounded-state` oracle holds every live process to
//! these bounds at quiesce, in terms of what it can count there.

/// Every label, in the order [`Node::census`](crate::Node::census)
/// reports them.
pub const LABELS: [&str; 13] = [
    OWN_SEQ_RANGES,
    FOREIGN_SEQ_RANGES,
    MULTI_CALL_THREADS,
    CALL_NUMBERS,
    OUTSTANDING_CALLS,
    ROUTES,
    OPEN_ASSEMBLIES,
    BUFFERED_RETURNS,
    DIRECTORY_ENTRIES,
    DEAD_PEERS,
    PARKED_CALLS,
    CONNECTIONS,
    REPLAY_RECORDS,
];

/// Ranges of the node's *own* threads' serials in the call-sequence table
/// (`calls.rs`, `CallSeqs`), summed over the client troupes the node
/// called as: the table numbers calls per `(client troupe, thread)`, the
/// prefix of the key a server matches copies by, so a member's solo calls
/// never move its troupe's numbers. Every thread a node mints calls from
/// it at once (each agent and the node's own binding-agent calls do), so
/// the serials run unbroken in the set of the troupe each first called
/// as, but for the threads that called again: one range plus one per
/// multi-call thread. The healer's node also installs each incarnation as
/// the Ringmaster on a repair thread of its own, between probe threads
/// that only called alone: plus one per incarnation.
pub const OWN_SEQ_RANGES: &str = "own-thread seq ranges";
/// Ranges of *other* processes' thread serials in the call-sequence
/// table: the threads a service here made exactly one nested call on as
/// one troupe (a `ready_to_commit` call-back on a client's thread, say).
/// One per such origin and troupe, plus one per run of that origin's
/// threads in between that made no single call here.
pub const FOREIGN_SEQ_RANGES: &str = "foreign-thread seq ranges";
/// `(client troupe, thread)` pairs that have made two or more calls from
/// this node: threads an agent reuses, and threads on which a service
/// made more than one nested call as one troupe (a spare's join, on the
/// thread it is activated on).
pub const MULTI_CALL_THREADS: &str = "multi-call threads";
/// Peers this node keeps a next call number for: every process it has
/// ever called, dead ones included, and every peer the troupe member it
/// fetched its state from had one for.
pub const CALL_NUMBERS: &str = "call numbers";
/// Calls begun and not yet forgotten: still awaiting collation, or
/// finished first-come calls absorbing their stragglers' returns.
pub const OUTSTANDING_CALLS: &str = "outstanding calls";
/// Returns awaited: one per member of an outstanding call not yet heard
/// from or given up on.
pub const ROUTES: &str = "routes";
/// Many-to-one assemblies open: collecting call messages, or running an
/// invocation that is suspended or waiting on a nested call. Each serves
/// a call some caller still awaits.
pub const OPEN_ASSEMBLIES: &str = "open assemblies";
/// Answered calls whose return is kept, one entry a call for `DONE_TTL`
/// (60 s), holding the framed return for client-troupe members not heard
/// from when the assembly closed, the unframed return of a unanimous
/// blast this member answered in parts (for a fetch), or both. An entry
/// with only the latter goes at the calling thread's next call here. So:
/// one per assembly that closed short of a member, plus one per thread
/// that made a call of two or more segments here within the TTL.
pub const BUFFERED_RETURNS: &str = "buffered returns";
/// Client-troupe memberships known: one per troupe incarnation learned
/// from an outgoing call, a binding-agent answer or a preload.
pub const DIRECTORY_ENTRIES: &str = "directory entries";
/// Peers under a dead-peer marker, each until it expires or the peer is
/// heard from: at most one per peer.
pub const DEAD_PEERS: &str = "dead-peer markers";
/// Call messages parked while the binding agent is asked for their
/// client troupe's membership; the lookup is an outstanding call.
pub const PARKED_CALLS: &str = "parked calls";
/// Paired-message connections: one per peer sent to or heard from (a
/// garbled datagram is not heard: it is lost), until it is declared dead.
pub const CONNECTIONS: &str = "connections";
/// Completed incoming messages the connections remember, each for the
/// replay TTL (`pairedmsg::Config::replay_ttl`) and until the next
/// arrival on its connection purges it: at most the messages delivered
/// on those connections.
pub const REPLAY_RECORDS: &str = "replay records";
