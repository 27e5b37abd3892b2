//! Distributed threads of control (§3.2, §3.4).
//!
//! A thread is an active agent that moves among modules — and therefore
//! among machines — by procedure call and return. Each thread carries a
//! unique ID formed from the address of its *base process* plus a serial
//! number, and the thread ID propagation algorithm (§3.4.1) attaches that
//! ID to every call message, making it "an extra parameter of every
//! remote procedure".

use simnet::{HostId, SockAddr};
use std::fmt;
use wire::{Externalize, Internalize, Reader, WireError, Writer};

/// A unique distributed thread identifier (§3.4.1).
///
/// The paper uses "local process ID together with a machine ID"; here the
/// base process's full address plus a serial, so one base process can
/// host several threads.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId {
    /// Address of the base process that created the thread.
    pub origin: SockAddr,
    /// Distinguishes threads created by the same base process.
    pub serial: u32,
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "th[{}.{}]", self.origin, self.serial)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "th[{}.{}]", self.origin, self.serial)
    }
}

// not a declaration: flattens simnet's `SockAddr`, which has no wire form.
impl Externalize for ThreadId {
    fn externalize(&self, w: &mut Writer) {
        w.put_u32(self.origin.host.0);
        w.put_u16(self.origin.port);
        w.put_u32(self.serial);
    }
}

// not a declaration: rebuilds the `SockAddr` flattened above.
impl Internalize<'_> for ThreadId {
    fn internalize(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let host = HostId(r.get_u32()?);
        let port = r.get_u16()?;
        let serial = r.get_u32()?;
        Ok(ThreadId {
            origin: SockAddr::new(host, port),
            serial,
        })
    }
}

/// Allocates thread IDs for a base process.
#[derive(Debug)]
pub struct ThreadIdGen {
    origin: SockAddr,
    next: u32,
}

impl ThreadIdGen {
    /// A generator for threads based at `origin`.
    pub fn new(origin: SockAddr) -> ThreadIdGen {
        ThreadIdGen { origin, next: 1 }
    }

    /// Creates a fresh thread ID.
    pub fn fresh(&mut self) -> ThreadId {
        let id = ThreadId {
            origin: self.origin,
            serial: self.next,
        };
        self.next += 1;
        id
    }

    /// How many IDs [`fresh`](ThreadIdGen::fresh) has handed out.
    pub fn minted(&self) -> u32 {
        self.next - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{from_bytes, to_bytes};

    #[test]
    fn round_trips() {
        let t = ThreadId {
            origin: SockAddr::new(HostId(9), 42),
            serial: 17,
        };
        assert_eq!(from_bytes::<ThreadId>(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn generator_yields_distinct_ids() {
        let mut g = ThreadIdGen::new(SockAddr::new(HostId(1), 2));
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert_eq!(a.origin, b.origin);
    }
}
