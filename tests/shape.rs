//! The shape of the source, as one table of rules.
//!
//! Some of the paper's invariants are held by how the code is laid out
//! rather than by any run: a peer dies one way (§4.2.3), call numbers only
//! rise (§4.2.4), calls and returns share one multicast blast (§4.3.3), a
//! message is framed in one place, a return cut by one layout, and each
//! message marshalled once by the stubs at either end. Each rule below
//! reads a set of files line by line and names where a line it matches
//! may stand. A rule is worth only what its firing is worth, so
//! every rule fires on planted lines (its `plants`), and every file glob
//! and allowed site it names must match today's tree: a rule whose file
//! was renamed, or whose exemption no longer excuses anything, fails
//! rather than going quietly vacuous.
//!
//! There is no regex crate offline: predicates are string and token
//! checks. This file does not read itself, since its plants would trip
//! its own rules.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;

use Check::{Declared, Entries, Forbid, MaxBytes, MaxLines, One};
use Site::{File, InFn, MarkedAbove, Text};

/// Path (relative to the repository root, `/`-separated) to contents.
type Tree = BTreeMap<String, String>;

struct Rule {
    /// What the rule keeps, with the aim and the PR that made it.
    name: &'static str,
    /// Globs of the files it reads (`*` within a segment, `**` across).
    files: &'static [&'static str],
    check: Check,
    /// Why the shape matters, and what to do instead.
    fix: &'static str,
    /// Lines the rule must fire on, each `[N×]file:line`: the line put at
    /// the top of a copy of a real file, repeated N times on one line
    /// (unless it ends its own lines).
    plants: &'static [&'static str],
}

enum Check {
    /// Every line the predicate matches stands at one of the sites, and
    /// every site excuses at least one.
    Forbid(fn(&str) -> bool, &'static [Site]),
    /// The predicate matches exactly one line, at the site.
    One(fn(&str) -> bool, Site),
    /// Each `(file, field)` is declared once, with a type that starts so.
    Declared(&'static [(&'static str, &'static str)], &'static str),
    /// No file runs past this many lines.
    MaxLines(usize),
    /// No file runs past its number of bytes.
    MaxBytes(&'static [(&'static str, usize)]),
    /// A PR's entry is its one `- PR N` line, and no line passes this
    /// many bytes.
    Entries(usize),
}

#[derive(Clone, Copy, Debug)]
enum Site {
    /// Any line of the files a glob matches.
    File(&'static str),
    /// A line of the files a glob matches that contains the text, where
    /// `…` stands for any run of characters.
    Text(&'static str, &'static str),
    /// A line of the files a glob matches inside the named `fn` (the last
    /// `fn` named at or above the line).
    InFn(&'static str, &'static str),
    /// A line whose line above contains the marker.
    MarkedAbove(&'static str),
}

static RULES: &[Rule] = &[
    Rule {
        name: "audited hash maps (aim 3, PR 21)",
        files: &["crates/*/src/**/*.rs"],
        check: Forbid(
            |l| field(l).is_some_and(|(_, t)| starts_any(collection(t), &["HashMap<", "HashSet<"])),
            &[MarkedAbove("never walked")],
        ),
        fix: "a HashMap/HashSet field iterates in a per-process order: say on the line above \
              it why it is never walked, or make it ordered",
        plants: &[
            "crates/core/src/numbers.rs:    by_peer: HashMap<SockAddr, u32>,",
            "crates/wire/src/lib.rs:    seen: HashSet<u64>,",
        ],
    },
    Rule {
        name: "no per-thread map in the call runtime (aim 3, PR 30)",
        files: &["crates/core/src/*.rs"],
        check: Forbid(|l| l.contains("HashMap<ThreadId"), &[]),
        fix: "a map with an entry for every thread ever called on grows per call: keep \
              threads as ranges, as CallSeqs does",
        plants: &["crates/core/src/calls.rs:    seqs: HashMap<ThreadId, u32>,"],
    },
    Rule {
        name: "no source file over 900 lines (aim 2, PR 21)",
        files: &["crates/*/src/**/*.rs"],
        check: MaxLines(900),
        fix: "a file that has become its crate is split",
        plants: &[
            "901×crates/core/src/calls/tests.rs:// a nested file past its cap\n",
            "901×crates/core/src/conn.rs:// a file past its cap\n",
        ],
    },
    Rule {
        name: "one multicast blast (aim 2, PR 42)",
        files: &["crates/core/src/*.rs"],
        check: Forbid(
            |l| l.contains(".multicast("),
            &[File("crates/core/src/conn.rs")],
        ),
        fix: "calls and returns share one blast: send it through Conns::blast",
        plants: &["crates/core/src/calls.rs:        net.multicast(&to, payload);"],
    },
    Rule {
        name: "one window of events (aim 4, PR 42)",
        files: &["crates/*/src/**/*.rs"],
        check: Forbid(
            |l| {
                let windows = [
                    "Vec<SpanRecord>",
                    "VecDeque<SpanRecord>",
                    "Vec<obs::SpanRecord>",
                ];
                let more = ["VecDeque<obs::SpanRecord>", "recent_spans", "SPAN_WINDOW"];
                contains_any(l, &windows) || contains_any(l, &more)
            },
            &[],
        ),
        fix: "span mints are events on the one simnet::TraceRing and the registry only folds \
              them: keep no second window of spans",
        plants: &[
            "crates/obs/src/lib.rs:    recent: VecDeque<SpanRecord>,",
            "crates/simnet/src/world.rs:const SPAN_WINDOW: usize = 64;",
        ],
    },
    Rule {
        name: "one framing site (aim 2, PR 37)",
        files: &["crates/*/src/**/*.rs", "src/**/*.rs"],
        check: Forbid(
            |l| contains_any(l, &[".stamp(", "Framed::new("]),
            &[
                File("crates/pairedmsg/src/frame.rs"),
                File("crates/simnet/src/payload.rs"),
                Text("crates/pairedmsg/src/config.rs", "Framed::new("),
            ],
        ),
        fix: "a message is laid out as its datagrams in one place: frame it with Config::frame",
        plants: &[
            "crates/core/src/conn.rs:        payload.stamp(0, &header);",
            "crates/pairedmsg/src/endpoint.rs:        Framed::new(seg, &bytes)",
        ],
    },
    Rule {
        name: "one digest site (aim 3, PR 48)",
        files: &["crates/core/src/**/*.rs"],
        check: Forbid(
            |l| {
                let hashing = ["fnv1a", "Hasher", "hash_one", "wrapping_mul", "rotate_left"];
                digest_fn(l) || contains_any(l, &hashing)
            },
            &[
                File("crates/core/src/message.rs"),
                Text("crates/core/src/conn.rs", "let h = obs::fnv1a"),
                Text("crates/core/src/conn.rs", "let jitter_seed = obs::fnv1a_fold"),
            ],
        ),
        fix: "the member that sends a digest and the client that checks it must hash alike: \
              hash a return with message::digest (conn.rs hashes only a jitter seed)",
        plants: &[
            "crates/core/src/calls.rs:fn return_digest(bytes: &[u8]) -> u64 {",
            "crates/core/src/assembly.rs:        let h = obs::fnv1a(&bytes);",
        ],
    },
    Rule {
        name: "one part layout (aim 3, PR 49)",
        files: &["crates/core/src/**/*.rs"],
        check: Forbid(
            |l| {
                l.contains("max_segment_data")
                    || ["segment", "tail"]
                        .iter()
                        .any(|w| word_then_op(l, w) || op_then_word(l, w))
            },
            &[
                InFn("crates/core/src/message.rs", "parts"),
                InFn("crates/core/src/message.rs", "parts_tile_the_return"),
                File("crates/core/src/calls/tests.rs"),
            ],
        ),
        fix: "a member cuts its part and a client joins the parts by one layout: cut with \
              message::parts, the one reader of the segment size, never compute with it",
        plants: &[
            "crates/core/src/serve.rs:        let cut = segment * owners;",
            "crates/core/src/conn.rs:        let seg = cfg.max_segment_data;",
            "crates/core/src/assembly.rs:        let n = len / tail;",
        ],
    },
    Rule {
        name: "one stub pass per message (aim 1, Table 4.1)",
        files: &["crates/core/src/**/*.rs"],
        check: Forbid(
            |l| has_word(l, "Compute") && !comment(l),
            &[
                InFn("crates/core/src/calls.rs", "begin"),
                InFn("crates/core/src/calls.rs", "on_return"),
                InFn("crates/core/src/serve.rs", "on_call_message"),
                InFn("crates/core/src/serve.rs", "fetch_return"),
                InFn("crates/core/src/serve.rs", "finish_pending"),
            ],
        ),
        fix: "the stubs marshal each message once: a client externalizes its call and \
              internalizes each return, a member internalizes each call message and \
              externalizes each reply; charge Syscall::Compute there and nowhere else",
        plants: &[
            "crates/core/src/serve.rs:    pub(super) fn try_execute(&mut self, io: &mut dyn NetIo) {\n\
             io.charge(Syscall::Compute); // Internalize args.",
            "crates/core/src/serve.rs:    fn apply_step(&mut self, io: &mut dyn NetIo, step: Step) {\n\
             io.charge(Syscall::Compute);",
        ],
    },
    Rule {
        name: "replay memory in runs (aim 1, PR 53)",
        files: &["crates/pairedmsg/src/replay.rs"],
        check: Forbid(
            |l| {
                l.contains("BTreeSet")
                    || ((field(l).is_some() || tuple_struct(l)) && per_message(l))
            },
            &[],
        ),
        fix: "an endpoint remembers completed messages as runs of call numbers: extend the \
              runs, keep no per-message key or time",
        plants: &[
            "crates/pairedmsg/src/replay.rs:    done: BTreeSet<u32>,",
            "crates/pairedmsg/src/replay.rs:    done: VecDeque<(MsgKey, Time)>,",
        ],
    },
    Rule {
        name: "one range set (aim 2, PR 53)",
        files: &["crates/*/src/**"],
        check: One(
            |l| has_word(l, "struct IdSet"),
            File("crates/wire/src/idset.rs"),
        ),
        fix: "ids are kept exactly in wire::IdSet: keep them there",
        plants: &["crates/core/src/calls.rs:pub struct IdSet {"],
    },
    Rule {
        name: "no range map beside the range set (aim 2, PR 53)",
        files: &["crates/*/src/**"],
        check: Forbid(
            |l| field(l).is_some_and(|(_, ty)| range_map(ty)),
            &[File("crates/wire/src/idset.rs")],
        ),
        fix: "a field mapping range starts to range ends is a second IdSet: keep the ids in it",
        plants: &["crates/transactions/src/ledger.rs:    ranges: BTreeMap<u64, u64>,"],
    },
    Rule {
        name: "one small map (aim 1, PR 54)",
        files: &["crates/*/src/**"],
        check: One(
            |l| has_word(l, "struct VecMap"),
            File("crates/wire/src/vecmap.rs"),
        ),
        fix: "per-peer and per-call tables live in wire::VecMap, a sorted vector that costs the \
              entries it has room for: keep them there",
        plants: &["crates/pairedmsg/src/endpoint.rs:struct VecMap<K, V>(Vec<(K, V)>);"],
    },
    Rule {
        name: "per-peer and per-call tables in the small map (aim 1, PR 54)",
        files: &["crates/pairedmsg/src/endpoint.rs", "crates/core/src/*.rs"],
        check: Declared(
            &[
                ("crates/pairedmsg/src/endpoint.rs", "senders"),
                ("crates/pairedmsg/src/endpoint.rs", "receivers"),
                ("crates/core/src/conn.rs", "table"),
                ("crates/core/src/assembly.rs", "pending"),
                ("crates/core/src/calls.rs", "outstanding"),
            ],
            "VecMap<",
        ),
        fix: "declare the table once, as a wire::VecMap: a B-tree leaf costs eleven entries",
        plants: &["crates/core/src/calls.rs:    outstanding: BTreeMap<u64, Call>,"],
    },
    Rule {
        name: "a timer is retired where it fires (aim 2, PR 55)",
        files: &["crates/*/src/**/*.rs"],
        check: Forbid(
            |l| {
                let names = [
                    "cancel_timer",
                    "cancel_app_timer",
                    "TimerHandle",
                    "HashSet<TimerId>",
                ];
                contains_any(l, &names)
            },
            &[],
        ),
        fix: "a timer's owner knows a stale one where it fires: cancel none, keep no live set",
        plants: &[
            "crates/simnet/src/world.rs:    live: HashSet<TimerId>,",
            "crates/core/src/conn.rs:        world.cancel_timer(handle);",
        ],
    },
    Rule {
        name: "no index beside the call runtime's tables (aim 2, PR 55)",
        files: &["crates/core/src/**/*.rs"],
        check: Forbid(
            |l| {
                let index = ["HashMap<u64, CallKey>", "HashMap<u64, SockAddr>"];
                field(l).is_some_and(|(_, ty)| starts_any(collection(ty), &index))
            },
            &[],
        ),
        fix: "a lookup by serial, invocation or connection id walks the table that holds the \
              call or the peer",
        plants: &["crates/core/src/calls.rs:    by_serial: HashMap<u64, CallKey>,"],
    },
    Rule {
        name: "one way to die (aim 3, PR 44)",
        files: &["crates/*/src/**/*.rs", "src/**/*.rs"],
        check: Forbid(
            push_peer_dead,
            &[InFn("crates/pairedmsg/src/endpoint.rs", "declare_dead")],
        ),
        fix: "a peer dies one way whatever the evidence, and its idempotence covers only that \
              way: call Endpoint::declare_dead",
        plants: &[
            "crates/pairedmsg/src/endpoint.rs:    self.events.push_back(Event::PeerDead);",
            "crates/core/src/conn.rs:        events.push(Event::PeerDead);",
        ],
    },
    Rule {
        name: "call numbers only rise (aim 3, PR 47)",
        files: &["crates/*/src/**/*.rs"],
        check: Forbid(
            |l| l.contains("set_call_number("),
            &[Text("crates/core/src/node.rs", "fn set_call_number(")],
        ),
        fix: "a number reused toward a peer is taken there for a replay: adopt numbers with \
              CallNumbers::raise (set_call_number is a test hook)",
        plants: &["crates/core/src/directory.rs:        node.set_call_number(peer, 1);"],
    },
    Rule {
        name: "one client side per synchronization scheme (aim 2, PR 38)",
        files: &["crates/*/src/**/*.rs", "src/**/*.rs"],
        check: Forbid(
            |l| {
                let procs = [
                    "PROC_EXECUTE",
                    "PROC_GET_PROPOSED_TIME",
                    "PROC_ACCEPT_TIME",
                    "PROC_CM_EXECUTE",
                ];
                procs.iter().any(|p| has_word(l, p))
            },
            &[
                File("crates/transactions/src/client.rs"),
                File("crates/transactions/src/commit.rs"),
                File("crates/transactions/src/broadcast.rs"),
                File("crates/transactions/src/broadcast/tests.rs"),
                File("crates/transactions/src/commute.rs"),
                File("crates/transactions/src/lib.rs"),
            ],
        ),
        fix: "a scheme's procedure named outside its client and services is a second client: \
              drive the scheme through its transactions::Protocol",
        plants: &["crates/chaos/src/lib.rs:    let args = (PROC_EXECUTE, txn);"],
    },
    Rule {
        name: "one deadlock rule (aim 3, Theorem 5.1)",
        files: &["crates/*/src/**/*.rs"],
        check: Forbid(
            |l| {
                let compares = [" < ", " > ", " <= ", " >= ", ".cmp(", ".min(", ".max("];
                let stamps = l.to_lowercase().contains("stamp") && contains_any(l, &compares);
                !comment(l) && (has_word(l, "WaitsFor") || l.contains("on_cycle") || stamps)
            },
            &[InFn("crates/transactions/src/txn.rs", "may_wait")],
        ),
        fix: "a transaction waits only behind older ones (LocalTm::may_wait), so no cycle of \
              waits can close: compare stamps there, and detect no cycle anywhere",
        plants: &[
            "crates/transactions/src/txn.rs:    waits: WaitsFor,",
            "crates/transactions/src/txn.rs:                    if self.waits.on_cycle(txn) {",
            "crates/transactions/src/commit.rs:        if rec.stamp > other.stamp {",
        ],
    },
    Rule {
        name: "one encoding site (aim 2, PR 39)",
        files: &[
            "crates/**/*.rs",
            "src/**/*.rs",
            "tests/**/*.rs",
            "examples/**/*.rs",
        ],
        check: Forbid(
            encoding_impl,
            &[
                File("crates/wire/src/**"),
                MarkedAbove("not a declaration:"),
            ],
        ),
        fix: "declare a Courier type with wire's record!/choice!/enumeration!/newtype!, or say \
              on the line above its impl why it is not a declaration:",
        plants: &[
            "crates/core/src/addr.rs:impl Externalize for TroupeId {",
            "crates/core/src/message.rs:impl Internalize<'_> for ReturnMessage {",
            "tests/full_stack.rs:impl<'a> wire::Internalize<'a> for Probe<'a> {",
        ],
    },
    Rule {
        name: "a borrowed read is a declaration (aim 2, §7.1.4)",
        files: &[
            "crates/**/*.rs",
            "src/**/*.rs",
            "tests/**/*.rs",
            "examples/**/*.rs",
        ],
        check: Forbid(
            |l| l.contains("get_bytes_borrowed(") || l.contains("get_str_borrowed("),
            &[File("crates/wire/src/**")],
        ),
        fix: "a field of type &'a [u8] or &'a str borrows from the buffer it is read from: \
              declare the form with wire's record!/choice!, generic over the fields it \
              borrows, and read it with from_bytes",
        plants: &[
            "crates/transactions/src/broadcast.rs:        let payload = r.get_bytes_borrowed()?;",
            "crates/core/src/message.rs:            ST_NORMAL => Ok(ReturnView::Normal(r.get_bytes_borrowed()?)),",
        ],
    },
    Rule {
        name: "the joining node decides delta or full (aim 2, §6.4.1)",
        files: &[
            "crates/**/*.rs",
            "src/**/*.rs",
            "tests/**/*.rs",
            "examples/**/*.rs",
        ],
        check: Forbid(
            |l| l.contains(".recovery_token()"),
            &[
                File("crates/core/src/**"),
                InFn(
                    "crates/transactions/src/wal.rs",
                    "abort_gaps_survive_a_checkpoint_and_a_crash",
                ),
            ],
        ),
        fix: "a module's recovery token decides once, in the joining node's get_state, whether \
              the state comes whole or as a delta: send a plain get_state and let the node \
              stamp the token and install the reply",
        plants: &[
            "crates/ringmaster/src/spare.rs:        let delta = ctx.service.recovery_token().is_some();",
            "crates/chaos/src/recovery.rs:            .map(|s| s.recovery_token())",
        ],
    },
    Rule {
        name: "one way to count (aim 4, PR 40)",
        files: &[
            "crates/**/*.rs",
            "src/**/*.rs",
            "tests/**/*.rs",
            "examples/**/*.rs",
        ],
        check: Forbid(
            |l| {
                contains_any(
                    l,
                    &["fn publish_metrics", ".refresh_metrics()", "set_gauge("],
                )
            },
            &[File("crates/simnet/src/process.rs")],
        ),
        fix: "every metric counts into its registry handle as events happen: bump the handle \
              where the event happens (simnet's process.rs defines the old hook)",
        plants: &[
            "crates/core/src/conn.rs:    fn publish_metrics(&self, reg: &Registry) {",
            "tests/spans.rs:    world.refresh_metrics();",
            "examples/quickstart.rs:    registry.set_gauge(\"calls\", 3);",
        ],
    },
    Rule {
        name: "no cargo feature (aim 2, PR 22)",
        files: &["Cargo.toml", "crates/**", "src/**", "tests/**"],
        check: Forbid(
            |l| l.starts_with("[features]") || l.contains("cfg(feature"),
            &[],
        ),
        fix: "a cargo feature is a second program nobody tests: replace the code it selects, \
              do not fork it",
        plants: &[
            "crates/core/Cargo.toml:[features]",
            "crates/simnet/src/lib.rs:#[cfg(feature = \"heap_sched\")]",
        ],
    },
    Rule {
        name: "one program in every build (aim 3, PR 52)",
        files: &["crates/*/src/**/*.rs"],
        check: Forbid(
            |l| contains_any(l, &["cfg(debug_assertions)", "cfg!(debug_assertions)"]),
            &[],
        ),
        fix: "a debug build is the same program: state the claim so it holds in both builds \
              (debug_assert! is a check, not a second program)",
        plants: &[
            "crates/transactions/src/wal.rs:    #[cfg(debug_assertions)]",
            "crates/core/src/node.rs:        if cfg!(debug_assertions) {",
        ],
    },
    Rule {
        name: "one allocation counter (aim 1, PR 52)",
        files: &["**/*.rs"],
        check: One(global_alloc, File("tests/alloc_budget.rs")),
        fix: "allocations are counted by tests/alloc_budget.rs's allocator (the frozen \
              benchmark keeps its own): count them there",
        plants: &["crates/bench/src/lib.rs:unsafe impl GlobalAlloc for Counter {"],
    },
    Rule {
        name: "no ledger that grows with the run (aim 3, PR 23)",
        files: &["crates/transactions/src/**"],
        check: Forbid(|l| l.contains("grows with the run"), &[]),
        fix: "the broadcast and commutative ledgers are bounded by the number of clients",
        plants: &["crates/transactions/src/commute.rs:/// A cache that grows with the run."],
    },
    Rule {
        name: "prose within its byte cap (aim 2, PR 31)",
        files: &["EXPERIMENTS.md", "DESIGN.md"],
        check: MaxBytes(&[("EXPERIMENTS.md", 50_000), ("DESIGN.md", 80_000)]),
        fix: "a change's A/B is one row of EXPERIMENTS.md's table, and DESIGN.md describes the \
              system that exists, not its history: shorten it",
        plants: &[
            "1600×EXPERIMENTS.md:An A/B written out as a section. ",
            "3000×DESIGN.md:How the design used to be. ",
        ],
    },
    Rule {
        name: "one CHANGES.md entry per PR, within 1,536 bytes (aim 2, PR 41)",
        files: &["CHANGES.md"],
        check: Entries(1536),
        fix: "an entry says on one line what changed, which goldens and gates moved and why, and \
              what was left out: the test-by-test account belongs in the commit message",
        plants: &[
            "CHANGES.md:- PR 57 tests: the test-by-test account.",
            "40×CHANGES.md:- MENDED: a fault and how it was mended. ",
        ],
    },
    Rule {
        name: "one testbed (aim 2, PR 24)",
        files: &[
            "tests/**/*.rs",
            "examples/**/*.rs",
            "crates/*/tests/**/*.rs",
            "crates/bench/src/**/*.rs",
        ],
        check: Forbid(
            |l| contains_any(l, &[".troupe_id(", "impl Service for Echo"]),
            &[MarkedAbove("not the testbed:")],
        ),
        fix: "stand a troupe up with circus::testbed and serve its one echo, or say on the line \
              above why it is not the testbed:",
        plants: &[
            "tests/full_stack.rs:    let id = node.troupe_id(TroupeId(9));",
            "examples/quickstart.rs:impl Service for Echo {",
        ],
    },
];

/// One line of a file, with what a rule may see around it.
struct Line<'a> {
    path: &'a str,
    no: usize,
    text: &'a str,
    prev: &'a str,
    func: &'a str,
}

impl Site {
    fn excuses(&self, l: &Line) -> bool {
        match *self {
            File(g) => glob(g, l.path),
            Text(g, text) => glob(g, l.path) && in_order(l.text, text),
            InFn(g, name) => glob(g, l.path) && l.func == name,
            MarkedAbove(marker) => l.prev.contains(marker),
        }
    }
}

impl Rule {
    fn reads(&self, path: &str) -> bool {
        self.files.iter().any(|g| glob(g, path))
    }

    fn scan<'a>(&self, tree: &'a Tree, mut visit: impl FnMut(&Line<'a>)) {
        for (path, text) in tree.iter().filter(|(p, _)| self.reads(p)) {
            let (mut prev, mut func) = ("", "");
            for (i, text) in text.lines().enumerate() {
                func = fn_name(text).unwrap_or(func);
                visit(&Line {
                    path,
                    no: i + 1,
                    text,
                    prev,
                    func,
                });
                prev = text;
            }
        }
    }

    /// Every way `tree` breaks the rule, each naming its file and line.
    fn problems(&self, tree: &Tree) -> Vec<String> {
        let mut out: Vec<String> = self
            .files
            .iter()
            .filter(|g| !tree.keys().any(|p| glob(g, p)))
            .map(|g| format!("{g} matches no file"))
            .collect();
        let at = |l: &Line| format!("{}:{}: {}", l.path, l.no, l.text);
        match self.check {
            Forbid(hit, sites) => {
                let mut used = vec![false; sites.len()];
                self.scan(tree, |l| {
                    if hit(l.text) {
                        match sites.iter().position(|s| s.excuses(l)) {
                            Some(i) => used[i] = true,
                            None => out.push(at(l)),
                        }
                    }
                });
                let stale = sites.iter().zip(used).filter(|(_, used)| !used);
                out.extend(stale.map(|(s, _)| format!("{s:?} excuses no line")));
            }
            One(hit, site) => {
                let (mut hits, mut there) = (Vec::new(), 0);
                self.scan(tree, |l| {
                    if hit(l.text) {
                        there += usize::from(site.excuses(l));
                        hits.push(at(l));
                    }
                });
                if hits.len() != 1 || there != 1 {
                    out.push(format!("{} found, want one, at {site:?}", hits.len()));
                    out.extend(hits);
                }
            }
            Declared(fields, ty) => {
                for &(file, field) in fields {
                    let mut decls = Vec::new();
                    self.scan(tree, |l| {
                        if l.path == file && declares(l.text, field).is_some() {
                            decls.push(l.text);
                        }
                    });
                    if decls.len() != 1
                        || !declares(decls[0], field).is_some_and(|t| t.starts_with(ty))
                    {
                        out.push(format!(
                            "{file}: {field} declared {decls:?}, want once, as {ty}..>"
                        ));
                    }
                }
            }
            MaxLines(cap) => {
                for (path, text) in tree.iter().filter(|(p, _)| self.reads(p)) {
                    let lines = text.matches('\n').count();
                    if lines > cap {
                        out.push(format!("{path}: {lines} lines, over the cap of {cap}"));
                    }
                }
            }
            MaxBytes(caps) => {
                for &(path, cap) in caps {
                    let bytes = tree.get(path).map_or(0, String::len);
                    if bytes > cap {
                        out.push(format!("{path}: {bytes} bytes, over the cap of {cap}"));
                    }
                }
            }
            Entries(cap) => {
                let mut prs: BTreeMap<&str, (Vec<String>, usize)> = BTreeMap::new();
                self.scan(tree, |l| match l.text.strip_prefix("- PR ") {
                    Some(pr) => {
                        let (lines, bytes) =
                            prs.entry(lead(pr, |c| c.is_ascii_digit())).or_default();
                        lines.push(format!("{}:{}", l.path, l.no));
                        *bytes += l.text.len();
                    }
                    None if l.text.len() > cap => out.push(format!(
                        "{}:{}: {} bytes, over {cap}",
                        l.path,
                        l.no,
                        l.text.len()
                    )),
                    None => {}
                });
                for (pr, (lines, bytes)) in prs {
                    if lines.len() > 1 || bytes > cap {
                        let lines = lines.join(", ");
                        out.push(format!(
                            "{lines}: PR {pr}'s entry, {bytes} bytes, not one line within {cap}"
                        ));
                    }
                }
            }
        }
        out
    }

    /// Copies of the rule's files, each without one thing the rule names:
    /// the files of one glob, or the lines one site or field excuses.
    fn without_each_anchor(&self, tree: &Tree) -> Vec<(String, Tree)> {
        let own: Tree = tree
            .iter()
            .filter(|(p, _)| self.reads(p))
            .map(|(p, t)| (p.clone(), t.clone()))
            .collect();
        let mut out: Vec<(String, Tree)> = self
            .files
            .iter()
            .map(|g| {
                (
                    format!("the files of {g}"),
                    own.iter()
                        .filter(|(p, _)| !glob(g, p))
                        .map(|(p, t)| (p.clone(), t.clone()))
                        .collect(),
                )
            })
            .collect();
        let blank = |gone: &dyn Fn(&Line) -> bool| {
            let mut doomed = BTreeSet::new();
            self.scan(&own, |l| {
                if gone(l) {
                    doomed.insert((l.path.to_string(), l.no));
                }
            });
            let mut copy = own.clone();
            for (path, text) in copy.iter_mut() {
                let kept = text.lines().enumerate().map(|(i, l)| {
                    if doomed.contains(&(path.clone(), i + 1)) {
                        ""
                    } else {
                        l
                    }
                });
                *text = kept.collect::<Vec<_>>().join("\n");
            }
            copy
        };
        match self.check {
            Forbid(hit, sites) => {
                for s in sites {
                    out.push((
                        format!("what {s:?} excuses"),
                        blank(&|l| hit(l.text) && s.excuses(l)),
                    ));
                }
            }
            One(hit, site) => out.push((
                format!("the one at {site:?}"),
                blank(&|l| hit(l.text) && site.excuses(l)),
            )),
            Declared(fields, _) => {
                for &(file, field) in fields {
                    out.push((
                        format!("{file}'s {field}"),
                        blank(&|l| l.path == file && declares(l.text, field).is_some()),
                    ));
                }
            }
            MaxLines(_) | MaxBytes(_) | Entries(_) => {}
        }
        out
    }
}

/// Whether `pat` matches `path`: `**` matches any number of segments,
/// and `*` any run of characters within one.
fn glob(pat: &str, path: &str) -> bool {
    fn segs(p: &[&str], s: &[&str]) -> bool {
        match (p.split_first(), s.split_first()) {
            (Some((&"**", rest)), _) => segs(rest, s) || (!s.is_empty() && segs(p, &s[1..])),
            (Some((p0, p_rest)), Some((s0, s_rest))) => seg(p0, s0) && segs(p_rest, s_rest),
            (p, s) => p.is_none() && s.is_none(),
        }
    }
    fn seg(p: &str, s: &str) -> bool {
        match p.split_once('*') {
            None => p == s,
            Some((head, tail)) => {
                s.starts_with(head)
                    && (head.len()..=s.len()).any(|i| s.is_char_boundary(i) && seg(tail, &s[i..]))
            }
        }
    }
    segs(
        &pat.split('/').collect::<Vec<_>>(),
        &path.split('/').collect::<Vec<_>>(),
    )
}

/// Whether `l` holds the pieces of `pat` between its `…`s, in order.
fn in_order(l: &str, pat: &str) -> bool {
    let mut rest = l;
    pat.split('…').all(|piece| match rest.find(piece) {
        Some(i) => {
            rest = &rest[i + piece.len()..];
            true
        }
        None => false,
    })
}

/// The run of characters `s` starts with that are `ok`.
fn lead(s: &str, ok: fn(char) -> bool) -> &str {
    s.split(|c| !ok(c)).next().unwrap_or_default()
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn contains_any(l: &str, needles: &[&str]) -> bool {
    needles.iter().any(|n| l.contains(n))
}

fn starts_any(l: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| l.starts_with(p))
}

/// Where `word` occurs in `l` with no word character on either side.
fn words<'a>(l: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    l.match_indices(word)
        .map(|(i, _)| i)
        .filter(move |&i| !l[..i].ends_with(is_word) && !l[i + word.len()..].starts_with(is_word))
}

fn has_word(l: &str, word: &str) -> bool {
    words(l, word).next().is_some()
}

/// `word` followed, after any spaces, by an arithmetic operator.
fn word_then_op(l: &str, word: &str) -> bool {
    words(l, word).any(|i| {
        l[i + word.len()..]
            .trim_start_matches(' ')
            .starts_with(['-', '+', '*', '/', '%'])
    })
}

/// A line that is a comment.
fn comment(l: &str) -> bool {
    l.trim_start().starts_with("//")
}

/// Code with an arithmetic operator, then spaces, then `word`: ` / tail`,
/// but not the hyphen of `two-segment`.
fn op_then_word(l: &str, word: &str) -> bool {
    !comment(l)
        && words(l, word).any(|i| {
            let before = l[..i].trim_end_matches(' ');
            before.len() < i && before.ends_with(['-', '+', '*', '/', '%'])
        })
}

/// The name and type of a struct field declared on `l`: indented, maybe
/// `pub` or `pub(..)`, a lower-case name, then `: `.
fn field(l: &str) -> Option<(&str, &str)> {
    let rest = l.trim_start_matches(' ');
    if rest.len() == l.len() {
        return None;
    }
    let rest = match rest.strip_prefix("pub(").and_then(|r| r.split_once(") ")) {
        Some((vis, r)) if vis.chars().all(|c| c.is_ascii_lowercase()) => r,
        _ => rest.strip_prefix("pub ").unwrap_or(rest),
    };
    let (name, ty) = rest.split_once(": ")?;
    let lower = !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || c == '_');
    lower.then_some((name, ty))
}

/// A type with any `std::collections::` path taken off.
fn collection(ty: &str) -> &str {
    ty.strip_prefix("std::collections::").unwrap_or(ty)
}

/// The type of `field` if `l` declares it as a generic type, `Name<..>,`.
fn declares<'a>(l: &'a str, want: &str) -> Option<&'a str> {
    let (name, ty) = field(l)?;
    let head = ty.split('<').next()?;
    let generic = ty.len() > head.len()
        && !head.is_empty()
        && head.chars().all(|c| c.is_ascii_alphabetic() || c == ':');
    (name == want && generic && ty.ends_with(">,")).then_some(ty)
}

/// A map from range starts to range ends: `BTreeMap<u64, u64>` and kin.
fn range_map(ty: &str) -> bool {
    let Some(args) = collection(ty).strip_prefix("BTreeMap<") else {
        return false;
    };
    let int = |s: &str| ["u32", "u64"].contains(&s);
    args.split_once(">,")
        .and_then(|(kv, _)| kv.split_once(", "))
        .is_some_and(|(k, v)| int(k) && int(v))
}

/// `struct Name(` on the line: a tuple struct.
fn tuple_struct(l: &str) -> bool {
    l.match_indices("struct ").any(|(i, _)| {
        let name = lead(&l[i + 7..], |c| c.is_ascii_alphabetic());
        !name.is_empty() && l[i + 7 + name.len()..].starts_with('(')
    })
}

/// A collection keyed by a message (`MsgKey`, `MsgType`) or holding a
/// `Time`: storage that grows with the messages it remembers.
fn per_message(l: &str) -> bool {
    ["Vec<", "VecDeque<", "BTreeMap<", "HashMap<", "HashSet<"]
        .iter()
        .any(|c| {
            l.match_indices(c).any(|(i, _)| {
                let args = &l[i + c.len()..];
                let args = args.strip_prefix('(').unwrap_or(args);
                let upto = args.split('>').next().unwrap_or("");
                starts_any(args, &["MsgKey", "MsgType"])
                    || upto
                        .match_indices("Time)")
                        .any(|(j, _)| !upto[..j].ends_with(is_word))
            })
        })
}

/// A function whose name holds `digest` and that returns a `u64`.
fn digest_fn(l: &str) -> bool {
    l.match_indices("fn ").any(|(i, _)| {
        let rest = &l[i + 3..];
        lead(rest, |c| c.is_ascii_lowercase() || c == '_').contains("digest")
            && rest.contains(") -> u64")
    })
}

/// `push..(` with `PeerDead` after it on the line.
fn push_peer_dead(l: &str) -> bool {
    l.match_indices("push").any(|(i, _)| {
        let rest = l[i + 4..].trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_');
        rest.starts_with('(') && rest.contains("PeerDead")
    })
}

/// `impl<..> Externalize<..> for ` (or `Internalize`, maybe `wire::`).
fn encoding_impl(l: &str) -> bool {
    l.match_indices("impl").any(|(i, _)| {
        after_generics(&l[i + 4..]).any(|r| {
            let Some(r) = r.strip_prefix(' ') else {
                return false;
            };
            let r = r.strip_prefix("wire::").unwrap_or(r);
            [r.strip_prefix("Externalize"), r.strip_prefix("Internalize")]
                .into_iter()
                .flatten()
                .any(|r| after_generics(r).any(|r| r.starts_with(" for ")))
        })
    })
}

/// `s`, and if it opens a `<`, what follows each `>` in it: every place
/// an optional `<..>` may end.
fn after_generics(s: &str) -> impl Iterator<Item = &str> {
    let ends = s
        .starts_with('<')
        .then(|| s.match_indices('>').map(|(i, _)| &s[i + 1..]));
    std::iter::once(s).chain(ends.into_iter().flatten())
}

/// `impl .. GlobalAlloc .. for ` on the line.
fn global_alloc(l: &str) -> bool {
    l.match_indices("impl").any(|(i, _)| {
        let rest = &l[i + 4..];
        !rest.starts_with(is_word)
            && words(rest, "GlobalAlloc").any(|j| rest[j..].contains(" for "))
    })
}

/// The name after the first `fn ` on the line.
fn fn_name(l: &str) -> Option<&str> {
    l.match_indices("fn ").find_map(|(i, _)| {
        let name = lead(&l[i + 3..], |c| {
            c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'
        });
        (!name.is_empty()).then_some(name)
    })
}

/// The repository's files that some rule reads, but for `target/`,
/// `benchmark/` (a frozen workspace of its own) and this file.
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let (mut tree, mut dirs) = (Tree::new(), vec![root.to_path_buf()]);
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("a readable directory") {
                let path = entry.expect("a directory entry").path();
                let rel = path
                    .strip_prefix(root)
                    .expect("under the root")
                    .to_str()
                    .expect("a UTF-8 path");
                let rel = rel.replace('\\', "/");
                if path.is_dir() {
                    if !(path.ends_with("target") || path.ends_with(".git") || rel == "benchmark") {
                        dirs.push(path);
                    }
                } else if rel != "tests/shape.rs" && RULES.iter().any(|r| r.reads(&rel)) {
                    let bytes = std::fs::read(&path).expect("a readable file");
                    tree.insert(rel, String::from_utf8_lossy(&bytes).into_owned());
                }
            }
        }
        tree
    })
}

#[test]
fn the_tree_keeps_every_shape_rule() {
    let broken: Vec<String> = RULES
        .iter()
        .filter_map(|r| {
            let problems = r.problems(tree());
            (!problems.is_empty())
                .then(|| format!("{}:\n  {}\n  -> {}", r.name, problems.join("\n  "), r.fix))
        })
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn every_rule_fires_on_its_plants() {
    for rule in RULES {
        assert!(
            !rule.plants.is_empty(),
            "{}: no plant shows it fires",
            rule.name
        );
        for plant in rule.plants {
            let (copies, rest) = match plant.split_once('×') {
                Some((n, rest)) => (n.parse().expect("a count before ×"), rest),
                None => (1, *plant),
            };
            let (file, line) = rest.split_once(':').expect("file:line");
            assert!(
                rule.reads(file),
                "{}: {file} is not a file it reads",
                rule.name
            );
            let mut planted = tree().clone();
            let text = planted
                .get_mut(file)
                .unwrap_or_else(|| panic!("{file} is gone"));
            text.insert_str(0, &format!("{}\n", line.repeat(copies)));
            let problems = rule.problems(&planted);
            let fired = problems.iter().any(|p| p.contains(file));
            assert!(fired, "{}: silent on {plant:?}: {problems:?}", rule.name);
        }
    }
}

#[test]
fn a_stale_glob_or_site_fails_its_rule() {
    for rule in RULES {
        for (gone, tree) in rule.without_each_anchor(tree()) {
            assert!(
                !rule.problems(&tree).is_empty(),
                "{}: passes without {gone}",
                rule.name
            );
        }
    }
}
