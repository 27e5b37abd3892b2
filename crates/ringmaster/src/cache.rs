//! Client-side binding cache (§6.1).
//!
//! "A natural means of reducing the cost of name server lookups is to
//! have clients cache the results of such lookups." The cache is plain
//! data; agents drive the actual lookup/rebind calls with the request
//! builders here and feed replies back in. When a call fails with
//! [`CallError::StaleBinding`], invalidate and rebind.

use std::collections::HashMap;

use circus::binding::binding_procs;
use circus::{CallError, Troupe};
use wire::{from_bytes, to_bytes};

use crate::api::Rebind;

/// An encoded binding-interface request: `(procedure number, arguments)`.
pub type BindingRequest = (u16, Vec<u8>);

/// A client's cache of imported troupes, keyed by interface name.
#[derive(Default)]
pub struct ImportCache {
    /// Point lookups only, never walked.
    cache: HashMap<String, Troupe>,
}

impl ImportCache {
    /// An empty cache.
    pub fn new() -> ImportCache {
        ImportCache::default()
    }

    /// The cached binding for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Troupe> {
        self.cache.get(name)
    }

    /// Builds the `lookup_troupe_by_name` request for a cache miss.
    pub fn lookup_request(name: &str) -> BindingRequest {
        (
            binding_procs::LOOKUP_TROUPE_BY_NAME,
            to_bytes(&name.to_string()),
        )
    }

    /// Builds the `rebind` request after stale-binding detection (§6.1):
    /// the stale binding travels along as a hint the agent may purge.
    pub fn rebind_request(&self, name: &str) -> BindingRequest {
        let stale = self
            .cache
            .get(name)
            .map(|t| t.id)
            .unwrap_or(circus::TroupeId::UNREGISTERED);
        (
            binding_procs::REBIND,
            to_bytes(&Rebind {
                name: name.to_string(),
                stale,
            }),
        )
    }

    /// Feeds a lookup/rebind reply into the cache; returns the troupe if
    /// the name is now bound.
    pub fn store_reply(&mut self, name: &str, reply: &[u8]) -> Option<Troupe> {
        match from_bytes::<Option<Troupe>>(reply) {
            Ok(Some(t)) => {
                self.cache.insert(name.to_string(), t.clone());
                Some(t)
            }
            _ => {
                self.cache.remove(name);
                None
            }
        }
    }

    /// Drops a binding (stale detection, §6.2).
    pub fn invalidate(&mut self, name: &str) {
        self.cache.remove(name);
    }

    /// `true` if this error means the binding for `name` must be
    /// refreshed before retrying.
    pub fn should_rebind(err: &CallError) -> bool {
        matches!(
            err,
            CallError::StaleBinding(_) | CallError::NoSuchProcedure | CallError::AllMembersDead
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circus::{ModuleAddr, TroupeId};
    use simnet::{HostId, SockAddr};

    fn troupe() -> Troupe {
        Troupe::new(
            TroupeId(5),
            vec![ModuleAddr::new(SockAddr::new(HostId(1), 70), 1)],
        )
    }

    #[test]
    fn store_and_get() {
        let mut c = ImportCache::new();
        assert!(c.get("fs").is_none());
        let reply = to_bytes(&Some(troupe()));
        assert_eq!(c.store_reply("fs", &reply), Some(troupe()));
        assert_eq!(c.get("fs"), Some(&troupe()));
    }

    #[test]
    fn negative_reply_clears() {
        let mut c = ImportCache::new();
        c.store_reply("fs", &to_bytes(&Some(troupe())));
        c.store_reply("fs", &to_bytes(&Option::<Troupe>::None));
        assert!(c.get("fs").is_none());
    }

    #[test]
    fn rebind_request_carries_stale_hint() {
        let mut c = ImportCache::new();
        c.store_reply("fs", &to_bytes(&Some(troupe())));
        let (proc, args) = c.rebind_request("fs");
        assert_eq!(proc, binding_procs::REBIND);
        let req: Rebind = from_bytes(&args).unwrap();
        assert_eq!(req.stale, TroupeId(5));
    }

    #[test]
    fn stale_binding_triggers_rebind() {
        assert!(ImportCache::should_rebind(&CallError::StaleBinding(None)));
        assert!(ImportCache::should_rebind(&CallError::AllMembersDead));
        assert!(!ImportCache::should_rebind(&CallError::Disagreement));
    }
}
