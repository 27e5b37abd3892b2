//! Well-known numbers shared with the binding agent.
//!
//! The binding agent (Chapter 6; implemented in the `ringmaster` crate)
//! is itself a troupe invoked via replicated procedure calls (§6.2). The
//! call runtime needs a small slice of its interface — `lookup_troupe_by_id`
//! to resolve unknown *client* troupe IDs during many-to-one calls
//! (§4.3.2), `report_suspect` to report a peer it gave up on — so the
//! interface's procedure numbers live here, one layer below the agent
//! itself. Their arguments and replies are plain wire values: a
//! `TroupeId`, an `Option<Troupe>`, a process as `(host, port)`.
//!
//! This module also reserves six procedure numbers that every exported
//! module answers automatically: `set_troupe_id` (generated "in the same
//! way that stub procedures are produced", §6.2), `get_state` (§6.4.1),
//! the null "are you there?" probe used for binding-agent garbage
//! collection (§6.1), `wedge` and `unwedge` around a membership change,
//! and `fetch_return` for a kept return whose part never arrived.
//! `get_state` takes an optional recovery token: a joining member that
//! replayed its own log sends one and gets back only what it missed.

/// The module number under which a binding agent exports its interface.
pub const BINDING_MODULE: u16 = 0;

/// The well-known port of the Ringmaster binding agent: "the Ringmaster
/// troupe is partially specified by means of a well-known port on each
/// machine" (§6.3).
pub const RINGMASTER_PORT: u16 = 71;

/// Procedure numbers of the binding interface (Figure 6.1).
pub mod binding_procs {
    /// `register_troupe(troupe_name, troupe) -> troupe_id`
    pub const REGISTER_TROUPE: u16 = 0;
    /// `add_troupe_member(troupe_name, troupe_member) -> troupe_id`
    pub const ADD_TROUPE_MEMBER: u16 = 1;
    /// `lookup_troupe_by_name(troupe_name) -> troupe`
    pub const LOOKUP_TROUPE_BY_NAME: u16 = 2;
    /// `lookup_troupe_by_id(troupe_id) -> troupe`
    pub const LOOKUP_TROUPE_BY_ID: u16 = 3;
    /// `rebind(troupe_name, stale_troupe_id) -> troupe` (§6.1's solution
    /// to binding-agent garbage collection: the stale binding is a hint).
    pub const REBIND: u16 = 4;
    /// `remove_troupe_member(troupe_name, troupe_member) -> troupe_id`
    pub const REMOVE_TROUPE_MEMBER: u16 = 5;
    /// `report_suspect(process)` — a client's call engine observed
    /// retransmission exhaustion against `process` (§4.2.3) and reports
    /// the suspected crash to the binding agent instead of only firing
    /// its local member-dead hook (§3.5.1, §6.4).
    pub const REPORT_SUSPECT: u16 = 6;
    /// `register_spare(troupe_name, control_module) -> ()` — offer a warm
    /// standby process that the binding agent may activate to replace a
    /// confirmed-dead member of the named troupe (§6.4.2's replacement
    /// policy, automated).
    pub const REGISTER_SPARE: u16 = 7;
    /// `replace_troupe_member(troupe_name, dead_member, new_member) ->
    /// troupe_id` — a joining member takes a confirmed-dead one's place in
    /// one membership change (§6.4.1–§6.4.2).
    pub const REPLACE_TROUPE_MEMBER: u16 = 8;
}

/// Reserved procedure numbers answered by the runtime for *every*
/// exported module.
pub mod reserved_procs {
    /// First reserved procedure number; stub compilers must assign below.
    pub const RESERVED_BASE: u16 = 0xFF00;
    /// `get_state(token) -> bytes`: externalize the module state for a
    /// joining member (§6.4.1). Runs as a read-only operation. With no
    /// token it replies with the whole state, as
    /// [`Service::get_state`](crate::service::Service::get_state) returns
    /// it; with one, the [`StateSince`](crate::service::StateSince) that
    /// [`Service::get_state_since`](crate::service::Service::get_state_since)
    /// makes of it. The joiner's node stamps its own module's
    /// [`Service::recovery_token`](crate::service::Service::recovery_token)
    /// into the call, and installs the reply in that module.
    pub const GET_STATE: u16 = 0xFF00;
    /// `set_troupe_id(troupe)`: install a new troupe incarnation, and
    /// its members (§6.2, Figure 6.2).
    pub const SET_TROUPE_ID: u16 = 0xFF01;
    /// `null()`: the "are you there?" probe (§6.1).
    pub const NULL: u16 = 0xFF02;
    /// `wedge()`: quiesce the module for a membership change — reject new
    /// work and drain in-flight invocations, so a consistent state
    /// transfer can be taken (§6.4.1: "a consistent transfer needs a
    /// quiescent module").
    pub const WEDGE: u16 = 0xFF03;
    /// `unwedge()`: resume normal service after a membership change.
    pub const UNWEDGE: u16 = 0xFF04;
    /// `fetch_return(call key) -> return message`: the return of a call
    /// this member answered with a part of it, kept for a client some part
    /// of whose return never arrived, its owner dead. Answered from the
    /// returns the member keeps (§4.3.4) and nothing else: it never
    /// executes a service.
    pub const FETCH_RETURN: u16 = 0xFF06;

    // Stub compilers number below the base, so every reserved number is
    // at or above it.
    const _: () = assert!(
        GET_STATE >= RESERVED_BASE
            && SET_TROUPE_ID >= RESERVED_BASE
            && NULL >= RESERVED_BASE
            && WEDGE >= RESERVED_BASE
            && UNWEDGE >= RESERVED_BASE
            && FETCH_RETURN >= RESERVED_BASE
    );
}
