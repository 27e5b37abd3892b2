//! Well-known numbers and encodings shared with the binding agent.
//!
//! The binding agent (Chapter 6; implemented in the `ringmaster` crate)
//! is itself a troupe invoked via replicated procedure calls (§6.2). The
//! call runtime needs a small slice of its interface — `lookup_troupe_by_id`
//! — to resolve unknown *client* troupe IDs during many-to-one calls
//! (§4.3.2), so the interface's procedure numbers and those encodings
//! live here, one layer below the agent itself.
//!
//! This module also reserves procedure numbers that every exported module
//! answers automatically: `set_troupe_id` (generated "in the same way
//! that stub procedures are produced", §6.2), `get_state` (§6.4.1), and
//! the null "are you there?" probe used for binding-agent garbage
//! collection (§6.1).

use crate::addr::{Troupe, TroupeId};
use wire::{from_bytes, to_bytes, WireError};

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
    /// `get_state() -> bytes`: externalize the module state for a joining
    /// member (§6.4.1). Runs as a read-only operation.
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
    /// `get_state_since(token) -> StateSince`: externalize only the
    /// state *past* the caller's recovery token (log-replay recovery's
    /// delta catch-up), falling back to the full state when no delta can
    /// be served. Empty-token calls degenerate to `get_state`. The node
    /// stamps an empty-args outgoing call with the local module's own
    /// [`Service::recovery_token`](crate::service::Service::recovery_token).
    pub const GET_STATE_SINCE: u16 = 0xFF05;
    /// `fetch_return(call key) -> return message`: the return of a call
    /// this member answered with a part of it, kept for a client some part
    /// of whose return never arrived, its owner dead. Answered from the
    /// returns the member keeps (§4.3.4) and nothing else: it never
    /// executes a service.
    pub const FETCH_RETURN: u16 = 0xFF06;
}

/// Encodes the argument of `report_suspect` (a process address).
pub fn encode_report_suspect(addr: simnet::SockAddr) -> Vec<u8> {
    to_bytes(&(addr.host.0, addr.port))
}

/// Decodes the argument of `report_suspect`.
pub fn decode_report_suspect(bytes: &[u8]) -> Result<simnet::SockAddr, WireError> {
    let (host, port): (u32, u16) = from_bytes(bytes)?;
    Ok(simnet::SockAddr::new(simnet::HostId(host), port))
}

/// Encodes the argument of `lookup_troupe_by_id`.
pub fn encode_lookup_by_id(id: TroupeId) -> Vec<u8> {
    to_bytes(&id)
}

/// Decodes the argument of `lookup_troupe_by_id`.
pub fn decode_lookup_by_id(bytes: &[u8]) -> Result<TroupeId, WireError> {
    from_bytes(bytes)
}

/// Encodes the reply of `lookup_troupe_by_id` (`None` = unknown ID).
pub fn encode_lookup_reply(t: Option<&Troupe>) -> Vec<u8> {
    to_bytes(&t.cloned())
}

/// Decodes the reply of `lookup_troupe_by_id`.
pub fn decode_lookup_reply(bytes: &[u8]) -> Result<Option<Troupe>, WireError> {
    from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ModuleAddr;
    use simnet::{HostId, SockAddr};

    #[test]
    fn lookup_encodings_round_trip() {
        let id = TroupeId(77);
        assert_eq!(decode_lookup_by_id(&encode_lookup_by_id(id)).unwrap(), id);

        let t = Troupe::new(
            TroupeId(5),
            vec![ModuleAddr::new(SockAddr::new(HostId(1), 7), 0)],
        );
        assert_eq!(
            decode_lookup_reply(&encode_lookup_reply(Some(&t))).unwrap(),
            Some(t)
        );
        assert_eq!(
            decode_lookup_reply(&encode_lookup_reply(None)).unwrap(),
            None
        );
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn reserved_procs_above_base() {
        assert!(reserved_procs::GET_STATE >= reserved_procs::RESERVED_BASE);
        assert!(reserved_procs::SET_TROUPE_ID >= reserved_procs::RESERVED_BASE);
        assert!(reserved_procs::NULL >= reserved_procs::RESERVED_BASE);
        assert!(reserved_procs::WEDGE >= reserved_procs::RESERVED_BASE);
        assert!(reserved_procs::UNWEDGE >= reserved_procs::RESERVED_BASE);
        assert!(reserved_procs::GET_STATE_SINCE >= reserved_procs::RESERVED_BASE);
        assert!(reserved_procs::FETCH_RETURN >= reserved_procs::RESERVED_BASE);
    }

    #[test]
    fn report_suspect_round_trips() {
        let addr = SockAddr::new(HostId(7), 70);
        assert_eq!(
            decode_report_suspect(&encode_report_suspect(addr)).unwrap(),
            addr
        );
    }
}
