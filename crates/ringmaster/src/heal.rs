//! In-system self-healing: a probe-confirmed death repaired in one
//! membership change.
//!
//! §3.5.1 leaves crash recovery to "some outside agency"; §6.4 sketches
//! the reconfiguration steps but drives them by hand. This module closes
//! the loop *inside* the system: a [`SelfHealAgent`] co-located with one
//! Ringmaster member consumes the suspect reports that clients' call
//! engines file via `report_suspect`, confirms each suspicion with
//! `null` calls of its own (§6.1's "are you there?"), and only on a
//! confirmed death repairs the troupe. A registered spare is activated
//! *in the dead member's place*: it wedges the survivors, copies their
//! state (and their call numbers), and the Ringmaster swaps it for the
//! dead member in one registry mutation (§6.4.1) — one new incarnation,
//! one `set_troupe_id` round, one rebind per client. With no spare, the
//! member is evicted alone and the troupe runs short until one registers
//! and joins; a spare that fails to take the place falls back to that
//! eviction.
//!
//! The one rule: a member is evicted after `PROBE_ATTEMPTS` consecutive
//! unanswered `null` calls of the healer's own, and one answer clears the
//! suspicion. The dissertation treats retransmission exhaustion at *one*
//! observer as death; but a transient partition makes live members look
//! dead to whoever is on the wrong side, and acting on a report alone
//! would evict healthy members and churn incarnations.
//!
//! Suspicions normally arrive from peers whose calls to the dead member
//! fail — detection parasitic on application traffic: a killed member's
//! host answers them with port-unreachable at once, a crashed host's
//! silence takes the crash horizon. An idle system generates none, so
//! the healer also runs a slow round-robin *liveness sweep* over the
//! registered members. A sweep is the same `null` call as a probe: an
//! unanswered one is its suspicion's first unanswered call.
//!
//! The healer's own calls fail on the same two kinds of evidence: the
//! horizon of silence, or the member's host saying that nothing holds its
//! port. No notice crosses a partition, so a partitioned member only
//! looks silent, and an answer once the partition heals clears it: the
//! rule needs no exception for notices.
//!
//! Only the configured leader member runs a healer — the Ringmaster
//! troupe's replies are collated, but its members' *agents* are
//! independent, and three concurrent healers would race each other's
//! eviction rounds. All `ring.*` metrics are counted here, once, for the
//! same reason.

use circus::binding::{binding_procs, reserved_procs, BINDING_MODULE};
use circus::{
    Agent, CallError, CallHandle, CollationPolicy, ModuleAddr, NodeCtx, TimerKey, Troupe, TroupeId,
};
use simnet::{Duration, SockAddr, Time};
use wire::to_bytes;

use crate::agent::RingmasterService;
use crate::api::RemoveTroupeMember;
use crate::spare::activate;

/// Consecutive unanswered `null` calls of the healer's own (a sweep
/// counts) that confirm a death. Each ends on the member's host's
/// port-unreachable notice, one round trip, when the host is up and its
/// port empty; otherwise it waits out the full retransmission schedule
/// (`Config::crash_horizon`). An eviction so rests on two failed calls
/// of the healer's own, never on a report alone.
const PROBE_ATTEMPTS: u32 = 2;

/// Hard deadline on one repair step; an operation stuck past this (e.g.
/// a wedge that never drains) is abandoned so the healer can serve the
/// next suspicion.
const OP_TIMEOUT: Duration = Duration::from_micros(30_000_000);

/// Fallback tick: the healer is normally woken by `NotifyAgent`, but a
/// requeued suspicion or an abandoned operation has no notify edge.
const TICK: Duration = Duration::from_micros(2_000_000);

// App timer tags must fit in the node's 56-bit tag space.
const TICK_KEY: TimerKey = TimerKey::new(0x48_4541_4C54_4943); // "HEALTIC"

#[derive(Debug)]
enum HealState {
    Idle,
    /// A `null` call to `member`, after `unanswered` unanswered ones: a
    /// probe of a suspicion, or (not yet `suspected`) a liveness sweep.
    Probing {
        name: String,
        member: ModuleAddr,
        unanswered: u32,
        suspected: bool,
    },
    /// Confirmed dead with no spare to take its place: removing the
    /// member's binding.
    Evicting {
        name: String,
        member: ModuleAddr,
    },
    /// Driving a spare's activation (wedge + state transfer + join), in
    /// the `dead` member's place or into a troupe already short of it.
    Activating {
        name: String,
        dead: Option<ModuleAddr>,
    },
}

/// The Ringmaster-side repair loop (one per troupe, on the leader).
pub struct SelfHealAgent {
    binder: Troupe,
    state: HealState,
    /// The call the current step is waiting on; stale completions (from
    /// an abandoned step) are ignored by handle.
    inflight: Option<CallHandle>,
    /// When the current suspicion was taken up, for `ring.mttr_us`.
    started: Time,
    deadline: Time,
    /// Troupes evicted below strength while no spare was registered;
    /// re-checked whenever a spare arrives.
    pending_rejoins: Vec<String>,
    /// Round-robin position of the liveness sweep over registered
    /// members. Suspicions normally arrive from peers whose calls fail,
    /// but an idle system generates no calls — the sweep is the detection
    /// path of last resort, so a crash is noticed even with no client
    /// traffic at all.
    sweep_cursor: usize,
    /// Completed repairs: spares activated in a dead member's place, or
    /// into a troupe its eviction left short.
    pub repairs: u64,
}

impl SelfHealAgent {
    /// Creates the healer for the Ringmaster troupe it is co-located
    /// with.
    pub fn new(binder: Troupe) -> SelfHealAgent {
        SelfHealAgent {
            binder,
            state: HealState::Idle,
            inflight: None,
            started: Time::ZERO,
            deadline: Time::ZERO,
            pending_rejoins: Vec::new(),
            sweep_cursor: 0,
            repairs: 0,
        }
    }

    /// `true` when no suspicion or repair step is being worked on (the
    /// service-side suspect queue may still hold untaken reports).
    pub fn idle(&self) -> bool {
        matches!(self.state, HealState::Idle) && self.pending_rejoins.is_empty()
    }

    /// Debug view of the repair loop, for post-mortem inspection.
    pub fn debug_state(&self) -> String {
        format!(
            "state={:?} inflight={:?} pending_rejoins={:?}",
            self.state, self.inflight, self.pending_rejoins
        )
    }

    fn with_service<R>(
        nc: &mut NodeCtx<'_, '_, '_>,
        f: impl FnOnce(&mut RingmasterService) -> R,
    ) -> Option<R> {
        nc.node
            .service_as_mut::<RingmasterService>(BINDING_MODULE)
            .map(f)
    }

    /// One `null` call to `member` — §6.1's "are you there?" — as the
    /// next probe of a suspicion or, not yet `suspected`, as a sweep.
    fn null_call(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        name: String,
        member: ModuleAddr,
        unanswered: u32,
        suspected: bool,
    ) {
        if suspected {
            nc.metrics().add("ring.probes", 1);
        }
        let thread = nc.fresh_thread();
        let target = Troupe::new(TroupeId::UNREGISTERED, vec![member]);
        self.inflight = Some(nc.call_solo(
            thread,
            &target,
            member.module,
            reserved_procs::NULL,
            Vec::new(),
            CollationPolicy::FirstCome,
        ));
        self.state = HealState::Probing {
            name,
            member,
            unanswered,
            suspected,
        };
    }

    /// Sweeps the next registered member in round-robin order. Detection
    /// is otherwise parasitic on application traffic; the sweep notices a
    /// crash even when every client is idle.
    fn start_sweep(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let cursor = self.sweep_cursor;
        let Some((name, member)) = Self::with_service(nc, |s| s.sweep_target(cursor)).flatten()
        else {
            return;
        };
        self.sweep_cursor = self.sweep_cursor.wrapping_add(1);
        nc.metrics().add("ring.sweeps", 1);
        self.deadline = nc.now() + OP_TIMEOUT;
        self.null_call(nc, name, member, 0, false);
    }

    /// Raises a suspicion of the member at `addr`: the troupe and member
    /// to probe, or `None` if there is nothing to repair.
    fn suspect(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        addr: SockAddr,
    ) -> Option<(String, ModuleAddr)> {
        // Not a current member of anything — already evicted, or a plain
        // client — leaves nothing to repair. Nor does the Ringmaster heal
        // itself: evicting one of its own members would have the healer
        // mutating the very quorum its eviction call needs (§6.3's
        // degenerate binding applies — its membership is configuration).
        let (name, member) = Self::with_service(nc, |s| s.troupe_of_member(addr))
            .flatten()
            .filter(|(name, _)| name != "ringmaster")?;
        nc.metrics().add("ring.suspicions", 1);
        self.started = nc.now();
        self.deadline = nc.now() + OP_TIMEOUT;
        Some((name, member))
    }

    fn start_eviction(&mut self, nc: &mut NodeCtx<'_, '_, '_>, name: String, member: ModuleAddr) {
        let thread = nc.fresh_thread();
        let req = RemoveTroupeMember {
            name: name.clone(),
            member,
        };
        self.inflight = Some(nc.call_solo(
            thread,
            &self.binder,
            BINDING_MODULE,
            binding_procs::REMOVE_TROUPE_MEMBER,
            to_bytes(&req),
            CollationPolicy::Majority,
        ));
        self.state = HealState::Evicting { name, member };
    }

    fn start_activation(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        name: String,
        ctl: ModuleAddr,
        dead: Option<ModuleAddr>,
    ) {
        self.inflight = Some(activate(nc, ctl, &name, dead));
        self.deadline = nc.now() + OP_TIMEOUT;
        self.state = HealState::Activating { name, dead };
    }

    /// Repairs a confirmed death: a registered spare takes the member's
    /// place in one membership change; with none, the member is evicted.
    fn repair(&mut self, nc: &mut NodeCtx<'_, '_, '_>, name: String, member: ModuleAddr) {
        match Self::with_service(nc, |s| s.take_spare(&name)).flatten() {
            Some(ctl) => self.start_activation(nc, name, ctl, Some(member)),
            None => self.start_eviction(nc, name, member),
        }
    }

    /// Activates a registered spare into troupe `name`, or leaves it
    /// under-replicated until `register_spare` notifies that one arrived.
    fn rejoin(&mut self, nc: &mut NodeCtx<'_, '_, '_>, name: String) {
        match Self::with_service(nc, |s| s.take_spare(&name)).flatten() {
            Some(ctl) => self.start_activation(nc, name, ctl, None),
            None => self.pending_rejoins.push(name),
        }
    }

    /// Starts the next piece of work if idle: a parked rejoin for which a
    /// spare has appeared, else the next queued suspicion.
    fn kick(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if !matches!(self.state, HealState::Idle) {
            return;
        }
        // Troupes evicted below strength come first: they are the
        // availability hole (§6.4.2).
        for i in 0..self.pending_rejoins.len() {
            let name = self.pending_rejoins[i].clone();
            if let Some(ctl) = Self::with_service(nc, |s| s.take_spare(&name)).flatten() {
                self.pending_rejoins.remove(i);
                self.started = nc.now();
                self.start_activation(nc, name, ctl, None);
                return;
            }
        }
        while let Some(addr) = Self::with_service(nc, |s| s.take_suspect()).flatten() {
            if let Some((name, member)) = self.suspect(nc, addr) {
                self.null_call(nc, name, member, 0, true);
                return;
            }
        }
    }
}

impl Agent for SelfHealAgent {
    fn on_start(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        nc.set_app_timer(TICK, TICK_KEY);
    }

    fn on_notify(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.kick(nc);
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key != TICK_KEY {
            return;
        }
        if !matches!(self.state, HealState::Idle) && nc.now() >= self.deadline {
            // The current step wedged itself (e.g. a survivor whose
            // drain never completes). Abandon it; the wedge TTL at the
            // store and the suspect requeue below make this safe.
            nc.metrics().add("ring.abandoned_steps", 1);
            if let HealState::Probing {
                member,
                suspected: true,
                ..
            }
            | HealState::Evicting { member, .. }
            | HealState::Activating {
                dead: Some(member), ..
            } = &self.state
            {
                let addr = member.addr;
                Self::with_service(nc, |s| s.requeue_suspect(addr));
            }
            self.state = HealState::Idle;
            self.inflight = None;
        }
        self.kick(nc);
        if matches!(self.state, HealState::Idle) {
            self.start_sweep(nc);
        }
        nc.set_app_timer(TICK, TICK_KEY);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if self.inflight != Some(handle) {
            return; // A stale completion from an abandoned step.
        }
        self.inflight = None;
        match std::mem::replace(&mut self.state, HealState::Idle) {
            HealState::Idle => {}
            HealState::Probing {
                name,
                member,
                unanswered,
                suspected,
            } => match result {
                Ok(_) => {
                    // The member answered: a suspicion is cleared, never
                    // evicted. This is the fail-safe path a transient
                    // partition takes.
                    if suspected {
                        nc.metrics().add("ring.false_suspicions", 1);
                    }
                }
                Err(_) => {
                    // An unanswered sweep is the suspicion's first
                    // unanswered call, re-resolved as a report is.
                    let suspicion = match suspected {
                        true => Some((name, member)),
                        false => self.suspect(nc, member.addr),
                    };
                    if let Some((name, member)) = suspicion {
                        if unanswered + 1 < PROBE_ATTEMPTS {
                            self.null_call(nc, name, member, unanswered + 1, true);
                        } else {
                            self.repair(nc, name, member);
                        }
                    }
                }
            },
            HealState::Evicting { name, member } => match result {
                Ok(_) => {
                    nc.metrics().add("ring.evictions", 1);
                    self.rejoin(nc, name);
                }
                Err(_) => {
                    // No majority for the eviction (the Ringmaster itself
                    // degraded?) — requeue and retry on a later wake.
                    Self::with_service(nc, |s| s.requeue_suspect(member.addr));
                }
            },
            HealState::Activating { name, dead } => match (result, dead) {
                (Ok(_), _) => {
                    self.repairs += 1;
                    let reg = nc.metrics();
                    if dead.is_some() {
                        reg.add("ring.evictions", 1);
                    }
                    reg.add("ring.repairs", 1);
                    reg.observe("ring.mttr_us", nc.now().since(self.started).as_micros());
                }
                // The spare failed to take the dead member's place (died
                // in the window?): evict the member, then try the next.
                (Err(_), Some(member)) => self.start_eviction(nc, name, member),
                (Err(_), None) => self.rejoin(nc, name),
            },
        }
        self.kick(nc);
    }
}
