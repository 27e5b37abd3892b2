//! Wire types of the binding interface (Figure 6.1).
//!
//! Procedure numbers live in `circus::binding::binding_procs` (the call
//! runtime needs `lookup_troupe_by_id` for many-to-one grouping); this
//! module supplies the argument/result encodings for the full interface.

use circus::binding::{binding_procs, BINDING_MODULE};
use circus::testbed::Request;
use circus::{CollationPolicy, ModuleAddr, Troupe, TroupeId};
use wire::to_bytes;

wire::record! {
    /// `register_troupe(troupe_name, troupe) returns (troupe_id)` — initial
    /// registration of a whole troupe by a third party such as the
    /// configuration manager (§6.2).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct RegisterTroupe {
        /// The interface name being exported.
        pub name: String,
        /// Module addresses of all members.
        pub members: Vec<ModuleAddr>,
    }
}

/// The `register_troupe` call a configuration manager's process makes of
/// the Ringmaster troupe `binder` (§6.2), as data; the reply is the
/// [`TroupeId`] the troupe was registered under.
pub fn registration(binder: &Troupe, name: &str, members: &[ModuleAddr]) -> Request {
    let args = to_bytes(&RegisterTroupe {
        name: name.into(),
        members: members.to_vec(),
    });
    Request::new(binder, BINDING_MODULE, binding_procs::REGISTER_TROUPE, args)
        .collate(CollationPolicy::Majority)
}

wire::record! {
    /// `add_troupe_member(troupe_name, troupe_member) returns (troupe_id)` —
    /// a server exporting a module, or a replacement member joining (§6.2,
    /// Figure 6.2).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct AddTroupeMember {
        /// The interface name.
        pub name: String,
        /// The joining member.
        pub member: ModuleAddr,
    }
}

wire::record! {
    /// `remove_troupe_member(troupe_name, troupe_member) returns (troupe_id)`
    /// — garbage collection of defunct members (§6.1, §6.4).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct RemoveTroupeMember {
        /// The interface name.
        pub name: String,
        /// The departing member.
        pub member: ModuleAddr,
    }
}

wire::record! {
    /// `replace_troupe_member(troupe_name, dead_member, new_member) returns
    /// (troupe_id)` — a spare joining in place of a confirmed-dead member:
    /// the removal and the addition are one membership change, so the
    /// troupe is re-incarnated once (§6.4.1–§6.4.2).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ReplaceTroupeMember {
        /// The interface name.
        pub name: String,
        /// The member leaving.
        pub dead: ModuleAddr,
        /// The member joining.
        pub member: ModuleAddr,
    }
}

wire::record! {
    /// `rebind(troupe_name, stale_id) returns (troupe)` — a client detected
    /// an invalid binding; the stale id is a hint the agent may verify and
    /// purge (§6.1: "it need not be deleted immediately, nor should it be
    /// blindly accepted as invalid in an insecure environment").
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct Rebind {
        /// The interface name to re-import.
        pub name: String,
        /// The binding the client found to be stale.
        pub stale: TroupeId,
    }
}

wire::record! {
    /// `register_spare(troupe_name, control_module) returns ()` — offer a
    /// warm standby for the named troupe. The Ringmaster records the spare's
    /// control module; when a member of that troupe is confirmed dead, the
    /// self-healing agent activates the spare, which wedges the survivors,
    /// copies their state, and joins (§6.4.1–§6.4.2, automated in-system).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct RegisterSpare {
        /// The troupe the spare can replace a member of.
        pub name: String,
        /// The spare's activation endpoint (its control module).
        pub ctl: ModuleAddr,
    }
}

/// Result of lookup-style procedures: the troupe, or nothing.
pub type LookupReply = Option<Troupe>;

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{HostId, SockAddr};
    use wire::{from_bytes, to_bytes};

    fn maddr(h: u32) -> ModuleAddr {
        ModuleAddr::new(SockAddr::new(HostId(h), 70), 1)
    }

    #[test]
    fn register_round_trips() {
        let m = RegisterTroupe {
            name: "fs".into(),
            members: vec![maddr(1), maddr(2)],
        };
        assert_eq!(from_bytes::<RegisterTroupe>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn add_member_round_trips() {
        let m = AddTroupeMember {
            name: "fs".into(),
            member: maddr(3),
        };
        assert_eq!(from_bytes::<AddTroupeMember>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn remove_member_round_trips() {
        let m = RemoveTroupeMember {
            name: "fs".into(),
            member: maddr(3),
        };
        assert_eq!(from_bytes::<RemoveTroupeMember>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn replace_member_round_trips() {
        let m = ReplaceTroupeMember {
            name: "fs".into(),
            dead: maddr(3),
            member: maddr(4),
        };
        assert_eq!(from_bytes::<ReplaceTroupeMember>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn register_spare_round_trips() {
        let m = RegisterSpare {
            name: "fs".into(),
            ctl: maddr(13),
        };
        assert_eq!(from_bytes::<RegisterSpare>(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn rebind_round_trips() {
        let m = Rebind {
            name: "fs".into(),
            stale: TroupeId(12),
        };
        assert_eq!(from_bytes::<Rebind>(&to_bytes(&m)).unwrap(), m);
    }
}
