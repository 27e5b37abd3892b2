//! Module addresses, troupe identifiers, and troupes.
//!
//! A *module address* refines the internet process address: a process may
//! export several modules, so the address carries a 16-bit module number
//! (§4.3). A *troupe* is "represented at this level as a sequence of
//! module addresses" (§4.3), together with the permanently unique troupe
//! ID assigned by the binding agent (§6.3), which doubles as an
//! incarnation number for cache invalidation (§6.2).

use simnet::{HostId, SockAddr};
use std::fmt;
use wire::{Externalize, Internalize, Reader, WireError, Writer};

/// Identifies one instance of a module in the internet (§4.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleAddr {
    /// The process exporting the module.
    pub addr: SockAddr,
    /// Index of the module among those exported by that process.
    pub module: u16,
}

impl ModuleAddr {
    /// Convenience constructor.
    pub fn new(addr: SockAddr, module: u16) -> ModuleAddr {
        ModuleAddr { addr, module }
    }
}

impl fmt::Debug for ModuleAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.addr, self.module)
    }
}

impl fmt::Display for ModuleAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.addr, self.module)
    }
}

// not a declaration: flattens simnet's `SockAddr`, which has no wire form.
impl Externalize for ModuleAddr {
    fn externalize(&self, w: &mut Writer) {
        w.put_u32(self.addr.host.0);
        w.put_u16(self.addr.port);
        w.put_u16(self.module);
    }
}

// not a declaration: rebuilds the `SockAddr` flattened above.
impl Internalize<'_> for ModuleAddr {
    fn internalize(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let host = HostId(r.get_u32()?);
        let port = r.get_u16()?;
        let module = r.get_u16()?;
        Ok(ModuleAddr::new(SockAddr::new(host, port), module))
    }
}

wire::newtype! {
    /// A permanently unique troupe identifier (§6.3), also serving as the
    /// troupe's incarnation number for cache invalidation (§6.2).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct TroupeId(pub u64);
}

impl TroupeId {
    /// The identifier of an unregistered, single-member pseudo-troupe.
    /// Used before a server has registered with the binding agent.
    pub const UNREGISTERED: TroupeId = TroupeId(0);
}

impl fmt::Debug for TroupeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{:x}", self.0)
    }
}

impl fmt::Display for TroupeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{:x}", self.0)
    }
}

wire::record! {
    /// A troupe: a set of replicas of a module on machines with independent
    /// failure modes (§3.5.1).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct Troupe {
        /// The troupe's current incarnation.
        pub id: TroupeId,
        /// Module addresses of the members.
        pub members: Vec<ModuleAddr>,
    }
}

impl Troupe {
    /// Builds a troupe from an ID and members.
    pub fn new(id: TroupeId, members: Vec<ModuleAddr>) -> Troupe {
        Troupe { id, members }
    }

    /// A degenerate single-member troupe, for conventional (unreplicated)
    /// RPC: "when the degree of module replication is one, Circus
    /// functions as a conventional remote procedure call system" (§4.1).
    pub fn singleton(member: ModuleAddr) -> Troupe {
        Troupe {
            id: TroupeId::UNREGISTERED,
            members: vec![member],
        }
    }

    /// The degree of replication.
    pub fn degree(&self) -> usize {
        self.members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{from_bytes, to_bytes};

    fn maddr(h: u32, p: u16, m: u16) -> ModuleAddr {
        ModuleAddr::new(SockAddr::new(HostId(h), p), m)
    }

    #[test]
    fn module_addr_round_trips() {
        let a = maddr(3, 70, 2);
        assert_eq!(from_bytes::<ModuleAddr>(&to_bytes(&a)).unwrap(), a);
    }

    #[test]
    fn troupe_round_trips() {
        let t = Troupe::new(TroupeId(99), vec![maddr(1, 7, 0), maddr(2, 7, 0)]);
        assert_eq!(from_bytes::<Troupe>(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn singleton_troupe() {
        let t = Troupe::singleton(maddr(1, 7, 0));
        assert_eq!(t.degree(), 1);
        assert_eq!(t.id, TroupeId::UNREGISTERED);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", maddr(3, 70, 2)), "h3:70#2");
        assert_eq!(format!("{}", TroupeId(255)), "Tff");
    }
}
