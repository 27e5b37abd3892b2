//! The five workloads: names, reasons, sizes, and how one repetition runs.

use crate::alloc;
use crate::chaos_rig::run_chaos;
use crate::measure::Rep;
use crate::rigs::{run_bcast, run_commit, run_echo, REPLICAS};

/// `--seconds` for which [`Workload::full_ops`] is calibrated.
pub const REFERENCE_SECONDS: u64 = 10;
/// Repetitions per run, at seeds `S, S+1, …`.
pub const REPS: u64 = 5;
/// Concurrent clients of the two multi-client workloads.
pub const CLIENTS: usize = 4;
/// `--smoke` divides every count by this and runs one repetition.
const SMOKE_DIVISOR: u64 = 50;

/// One of the benchmark's workloads. Names are fixed; later issues cite
/// them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 1 client, n=3, 64 B echo: per-call fixed cost dominates.
    EchoSmall,
    /// Same rig, 8 KiB echo: per-segment cost dominates.
    EchoBulk,
    /// 4 clients, durable store troupe, contended two-op transactions.
    CommitContended,
    /// 4 broadcasters, ordered broadcast troupe.
    OrderedBcast,
    /// Full stack under seeded fault plans, all oracles.
    ChaosFaults,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::EchoSmall,
        Workload::EchoBulk,
        Workload::CommitContended,
        Workload::OrderedBcast,
        Workload::ChaosFaults,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EchoSmall => "echo_small",
            Workload::EchoBulk => "echo_bulk",
            Workload::CommitContended => "commit_contended",
            Workload::OrderedBcast => "ordered_bcast",
            Workload::ChaosFaults => "chaos_faults",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::EchoSmall | Workload::EchoBulk => "replicated call",
            Workload::CommitContended => "committed transaction",
            Workload::OrderedBcast => "ordered broadcast",
            Workload::ChaosFaults => "client-confirmed commit",
        }
    }

    /// Units of work per repetition at [`REFERENCE_SECONDS`], each sized on
    /// the seed commit to about two host seconds in this container and
    /// then frozen: calls, transactions, broadcasts, or chaos scenarios.
    fn full_ops(self) -> u64 {
        match self {
            Workload::EchoSmall => 60_000,
            Workload::EchoBulk => 20_000,
            Workload::CommitContended => 12_000,
            Workload::OrderedBcast => 20_000,
            Workload::ChaosFaults => 200,
        }
    }

    /// Echo argument/result size; also the payload of the n=1 baseline.
    pub fn payload(self) -> usize {
        match self {
            Workload::EchoBulk => 8192,
            _ => 64,
        }
    }

    /// Runs one repetition of `units` units of work.
    pub fn run_rep(self, seed: u64, units: u64, traced: bool) -> Rep {
        alloc::reset_peak();
        let mut rep = self.rig(seed, units, traced);
        rep.peak_heap_bytes = alloc::peak_bytes();
        rep
    }

    fn rig(self, seed: u64, units: u64, traced: bool) -> Rep {
        match self {
            Workload::EchoSmall | Workload::EchoBulk => {
                run_echo(seed, REPLICAS, self.payload(), units, traced)
            }
            Workload::CommitContended => run_commit(seed, CLIENTS, units, traced),
            Workload::OrderedBcast => run_bcast(seed, CLIENTS, units, traced),
            Workload::ChaosFaults => run_chaos(seed, units, traced),
        }
    }
}

/// How much one run does.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Repetitions (seeds `S..S+reps`).
    pub reps: u64,
    /// Units of work per repetition.
    pub units: u64,
    /// Scale applied to the drills' iteration counts.
    pub drill_scale: f64,
}

impl Size {
    /// The size for `--seconds` (fixed counts scaled linearly from the
    /// reference; never a time-bounded loop) or for `--smoke`.
    pub fn of(workload: Workload, seconds: u64, smoke: bool) -> Size {
        let full = workload.full_ops() * seconds / REFERENCE_SECONDS;
        if smoke {
            Size {
                reps: 1,
                units: (full / SMOKE_DIVISOR).max(2),
                drill_scale: 1.0 / SMOKE_DIVISOR as f64,
            }
        } else {
            Size {
                reps: REPS,
                units: full.max(2),
                drill_scale: 1.0,
            }
        }
    }
}
