//! The critical-path ledger: every handler run the world dispatches, and
//! the walk that charges each simulated microsecond of an operation to
//! exactly one stretch of its critical path.
//!
//! A sink that [takes runs](TraceSink::takes_runs) is told, beside the
//! [`TraceEvent`] stream, when each handler run begins
//! (for which queued event, arriving when, starting when), every charge
//! it makes, every event it queues (a datagram sent, a timer armed) and
//! when it ends ([`RunNote`]). No trace event is added, so trace hashes
//! do not see the notes, and a world with no such sink builds none.
//! [`Ledger`] is that sink: it keeps the notes as a table of runs.
//!
//! [`Ledger::path`] walks back from an instant inside one process's run
//! to an earlier instant along the critical path. Inside a run, the path
//! is the run's charges, each a stretch of CPU by syscall kind. A run
//! that started later than its event arrived waited for the host's CPU:
//! the run ahead of it, which ended when it started, decided its start,
//! so the walk enters that run (the queueing is charged to the run
//! ahead). A run that started on arrival is entered from its cause: the
//! datagram's time on the wire back to the run that sent it, or the
//! timer's wait back to the run that armed it. A run the world itself
//! caused (a poke, a spawn, a forged datagram, a port-unreachable notice)
//! ends the walk. The stretches tile the interval, so they sum to it
//! exactly.
//!
//! Where an operation begins and ends is the caller's to say. A ledger
//! built [`watching`](Ledger::watching) a latency histogram finds them
//! itself: each sample observed during a run is one operation, ending at
//! the run's virtual time and beginning the sample before it.

use std::collections::BTreeMap;

use obs::Histogram;

use crate::cpu::Syscall;
use crate::process::{HostId, SockAddr};
use crate::time::{Duration, Time};
use crate::trace::{TraceEvent, TraceSink};

/// What the world tells a sink that takes runs, in simulation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunNote {
    /// A handler run of the process at `addr` begins, for the queued
    /// event numbered `event`, which came due at `arrival`; the host's
    /// CPU was free at `start`.
    Begin {
        /// The process.
        addr: SockAddr,
        /// The event's insertion sequence number.
        event: u64,
        /// When the event came due.
        arrival: Time,
        /// When the handler started: `arrival`, or later if the host's
        /// CPU was busy.
        start: Time,
    },
    /// The running handler charged `sys` for `d`.
    Charge {
        /// What was charged.
        sys: Syscall,
        /// For how long.
        d: Duration,
    },
    /// The running handler queued event `event` at its virtual time `at`:
    /// a datagram that departed then, or a timer armed then.
    Queued {
        /// The event's insertion sequence number.
        event: u64,
        /// The handler's virtual time when it queued the event.
        at: Time,
        /// A timer, not a datagram.
        timer: bool,
    },
    /// The running handler ended at `end`.
    End {
        /// The handler's virtual time when it returned.
        end: Time,
    },
}

/// What queued the event a run handled: a datagram sent, or a timer
/// armed, by another run.
#[derive(Clone, Copy, Debug)]
struct Cause {
    /// The run that queued it (an index into the ledger's runs).
    run: usize,
    /// Its virtual time when it did.
    at: Time,
    /// A timer, not a datagram.
    timer: bool,
}

/// One handler run.
#[derive(Clone, Debug)]
struct Run {
    /// The process that ran.
    addr: SockAddr,
    /// When its event came due.
    arrival: Time,
    /// When it started.
    start: Time,
    /// When it ended.
    end: Time,
    /// What queued its event; `None` when the world did.
    cause: Option<Cause>,
    /// The run before it on its host.
    ahead: Option<usize>,
    /// Its charges, a range of the ledger's charge list.
    charges: (usize, usize),
}

/// One stretch of a critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stretch {
    /// CPU of a run on the path, charged to `sys`.
    Cpu {
        /// The process that ran.
        addr: SockAddr,
        /// What it was charged for.
        sys: Syscall,
    },
    /// A datagram on the wire.
    Wire,
    /// A timer's wait, from its arming to its firing.
    Timer,
    /// Before a run the world itself caused.
    Untraced,
}

/// One sample of a watched latency histogram: an operation of the
/// process at `addr` from `begin` to `done`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observed {
    /// The process whose run observed it.
    pub addr: SockAddr,
    /// The sample before `done`.
    pub begin: Time,
    /// The run's virtual time when the sample was observed.
    pub done: Time,
}

/// The table of every handler run a world dispatched while the ledger
/// was installed (as a trace sink).
#[derive(Debug, Default)]
pub struct Ledger {
    runs: Vec<Run>,
    charges: Vec<(Syscall, Duration)>,
    /// Events queued by a run and not yet handled.
    queued: BTreeMap<u64, Cause>,
    /// Each process's runs, in order.
    by_addr: BTreeMap<SockAddr, Vec<usize>>,
    last_on_host: BTreeMap<HostId, usize>,
    /// The run in progress and its virtual time so far.
    open: Option<(usize, Time)>,
    /// A latency histogram, and its count and sum when last looked at.
    watched: Option<(Histogram, u64, u64)>,
    observed: Vec<Observed>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// An empty ledger that records each sample `h` is given as an
    /// operation ([`Ledger::observed`]).
    pub fn watching(h: Histogram) -> Ledger {
        let seen = h.snapshot();
        Ledger {
            watched: Some((h, seen.count, seen.sum)),
            ..Ledger::default()
        }
    }

    /// The operations the watched histogram sampled, in order. Two
    /// samples observed at one instant are indistinguishable, so neither
    /// is kept.
    pub fn observed(&self) -> &[Observed] {
        &self.observed
    }

    /// Takes any samples observed since the last look, at the open run's
    /// virtual time.
    fn look(&mut self) {
        let (Some((h, count, sum)), Some((r, now))) = (&mut self.watched, self.open) else {
            return;
        };
        let seen = h.snapshot();
        if seen.count == *count + 1 {
            let latency = seen.sum.wrapping_sub(*sum);
            self.observed.push(Observed {
                addr: self.runs[r].addr,
                begin: Time::from_micros(now.as_micros().saturating_sub(latency)),
                done: now,
            });
        }
        (*count, *sum) = (seen.count, seen.sum);
    }

    /// The charges `run` made, in order.
    fn charges(&self, run: &Run) -> &[(Syscall, Duration)] {
        &self.charges[run.charges.0..run.charges.1]
    }

    /// The run of the process at `addr` during which its virtual clock
    /// read `at`: the last whose span holds `at`, preferring one that
    /// started before it.
    fn run_at(&self, addr: SockAddr, at: Time) -> Option<usize> {
        let runs = self.by_addr.get(&addr)?;
        let upto = runs.partition_point(|&r| self.runs[r].start <= at);
        let holds = |&&r: &&usize| self.runs[r].end >= at;
        let mut candidates = runs[..upto].iter().rev().take_while(holds);
        let first = candidates.next().copied();
        let earlier = |&&r: &&usize| self.runs[r].start < at;
        first
            .filter(|&r| self.runs[r].start < at)
            .or_else(|| candidates.find(earlier).copied())
            .or(first)
    }

    /// The critical path from `from` to `to`, where `to` is an instant of
    /// a run of the process at `addr`: its stretches, latest first, which
    /// sum to `to − from` exactly. `None` if that process has no run at
    /// `to`.
    pub fn path(&self, addr: SockAddr, from: Time, to: Time) -> Option<Vec<(Stretch, Duration)>> {
        let mut r = self.run_at(addr, to)?;
        let mut at = to;
        let mut out = Vec::new();
        loop {
            let run = &self.runs[r];
            let floor = run.start.max(from);
            let mut t = run.start;
            let mut cpu = Vec::new();
            for &(sys, d) in self.charges(run) {
                let (lo, hi) = (t.max(floor), (t + d).min(at));
                if hi > lo {
                    cpu.push((
                        Stretch::Cpu {
                            addr: run.addr,
                            sys,
                        },
                        hi.since(lo),
                    ));
                }
                t += d;
            }
            out.extend(cpu.into_iter().rev());
            if from >= run.start {
                break;
            }
            if run.start > run.arrival {
                r = run.ahead.expect("a run that waited has a run ahead");
                debug_assert_eq!(
                    self.runs[r].end, run.start,
                    "the run ahead ends at the start"
                );
                at = run.start;
                continue;
            }
            let Some(cause) = run.cause else {
                out.push((Stretch::Untraced, run.arrival.since(from)));
                break;
            };
            let how = if cause.timer {
                Stretch::Timer
            } else {
                Stretch::Wire
            };
            out.push((how, run.arrival.since(cause.at.max(from))));
            if from >= cause.at {
                break;
            }
            (r, at) = (cause.run, cause.at);
        }
        Some(out)
    }
}

impl TraceSink for Ledger {
    fn record(&mut self, _ev: &TraceEvent) {}

    fn takes_runs(&self) -> bool {
        true
    }

    fn run(&mut self, note: &RunNote) {
        self.look();
        match *note {
            RunNote::Begin {
                addr,
                event,
                arrival,
                start,
            } => {
                let id = self.runs.len();
                let at = self.charges.len();
                self.runs.push(Run {
                    addr,
                    arrival,
                    start,
                    end: start,
                    cause: self.queued.remove(&event),
                    ahead: self.last_on_host.insert(addr.host, id),
                    charges: (at, at),
                });
                self.by_addr.entry(addr).or_default().push(id);
                self.open = Some((id, start));
            }
            RunNote::Charge { sys, d } => {
                if let Some((r, now)) = &mut self.open {
                    self.charges.push((sys, d));
                    self.runs[*r].charges.1 = self.charges.len();
                    *now += d;
                }
            }
            RunNote::Queued { event, at, timer } => {
                if let Some((run, _)) = self.open {
                    self.queued.insert(event, Cause { run, at, timer });
                }
            }
            RunNote::End { end } => {
                if let Some((r, _)) = self.open.take() {
                    self.runs[r].end = end;
                }
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, NetConfig, Payload, Process, SyscallCosts, Until, World};

    const SERVER: SockAddr = SockAddr {
        host: HostId(1),
        port: 7,
    };

    /// Answers every datagram after `work` of computation.
    struct Echo {
        work: Duration,
    }
    impl Process for Echo {
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: Payload) {
            ctx.charge_dur(Syscall::Compute, self.work);
            ctx.send(from, data);
        }
    }

    /// Pings the server when poked, after a timer; notes when the answer
    /// is in.
    struct Client {
        done: Option<Time>,
    }
    impl Process for Client {
        fn on_poke(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            ctx.set_timer(Duration::from_millis(5), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: crate::TimerId, _tag: u64) {
            ctx.send(SERVER, b"ping".to_vec());
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {
            ctx.charge(Syscall::Compute);
            self.done = Some(ctx.now());
        }
    }

    fn world(clients: u32, ledger: bool) -> (World, Vec<SockAddr>) {
        let costs = SyscallCosts::vax_4_2bsd();
        let mut w = World::with_config(7, NetConfig::lan_1985(), costs);
        if ledger {
            w.add_trace_sink(Box::new(Ledger::new()));
        }
        w.spawn(
            SERVER,
            Box::new(Echo {
                work: Duration::from_millis(20),
            }),
        );
        let addrs: Vec<_> = (0..clients)
            .map(|i| SockAddr::new(HostId(10 + i), 50))
            .collect();
        for &a in &addrs {
            w.spawn(a, Box::new(Client { done: None }));
            w.poke(a, 0);
        }
        w.run(Until::Idle);
        (w, addrs)
    }

    fn done(w: &World, a: SockAddr) -> Time {
        w.with_proc(a, |c: &Client| c.done)
            .flatten()
            .expect("answered")
    }

    fn sum(path: &[(Stretch, Duration)]) -> Duration {
        path.iter().fold(Duration::ZERO, |acc, &(_, d)| acc + d)
    }

    /// One exchange: the client's receive, the wire, the server's run, the
    /// wire, the client's send and its timer's wait back to the poke at
    /// time zero, summing to the whole.
    #[test]
    fn an_exchange_decomposes_into_its_causal_chain() {
        let (w, addrs) = world(1, true);
        let (client, end) = (addrs[0], done(&w, addrs[0]));
        let ledger = w.trace_sink_as::<Ledger>().expect("installed");
        let path = ledger.path(client, Time::ZERO, end).expect("a run");
        assert_eq!(sum(&path), end.since(Time::ZERO));
        let kinds: Vec<_> = path.iter().map(|&(s, _)| s).collect();
        let cpu = |addr, sys| Stretch::Cpu { addr, sys };
        assert_eq!(
            kinds,
            [
                cpu(client, Syscall::Compute),
                cpu(client, Syscall::RecvMsg),
                Stretch::Wire,
                cpu(SERVER, Syscall::SendMsg),
                cpu(SERVER, Syscall::Compute),
                cpu(SERVER, Syscall::RecvMsg),
                Stretch::Wire,
                cpu(client, Syscall::SendMsg),
                Stretch::Timer,
            ]
        );
        assert_eq!(path[4].1, Duration::from_millis(20));
        assert_eq!(path[8].1, Duration::from_millis(5));
    }

    /// Two clients at once: the later request waits for the earlier's
    /// run, which the walk enters; the world is the same with or without
    /// the ledger.
    #[test]
    fn a_queued_run_charges_the_run_ahead() {
        let (w, addrs) = world(2, true);
        let (bare, _) = world(2, false);
        for &a in &addrs {
            assert_eq!(done(&w, a), done(&bare, a), "the ledger changes nothing");
        }
        let last = *addrs.iter().max_by_key(|&&a| done(&w, a)).expect("two");
        let end = done(&w, last);
        let ledger = w.trace_sink_as::<Ledger>().expect("installed");
        let path = ledger.path(last, Time::ZERO, end).expect("a run");
        assert_eq!(sum(&path), end.since(Time::ZERO));
        let server_compute = path
            .iter()
            .filter(|&&(s, _)| {
                s == Stretch::Cpu {
                    addr: SERVER,
                    sys: Syscall::Compute,
                }
            })
            .fold(Duration::ZERO, |acc, &(_, d)| acc + d);
        assert_eq!(server_compute, Duration::from_millis(40), "both runs");
        let cut = ledger.path(last, Time::from_micros(end.as_micros() - 1_000), end);
        assert_eq!(sum(&cut.expect("a run")), Duration::from_millis(1));
    }
}
