//! End-to-end test of *generated* stubs: the Figure 7.2 NameServer
//! interface, compiled by stubgen, served by a 3-member troupe in the
//! simulated world, and driven through the generated client stubs —
//! including typed REPORTS errors and the explicit-replication decoders.

#[allow(dead_code, clippy::all)]
mod name_server {
    include!("generated/name_server.rs");
}

use circus::testbed::{addr, call, spawn_caller, spawn_troupe, Request, MODULE};
use circus::{NodeConfig, ServiceCtx, TroupeId};
use name_server::{
    client, NameServerDispatcher, NameServerError, NameServerFailure, NameServerHandler, Property,
};
use simnet::{Duration, World};
use std::collections::BTreeMap;

/// A deterministic in-memory name server implementing the generated
/// handler trait.
#[derive(Default)]
struct NameServerImpl {
    entries: BTreeMap<String, Vec<Property>>,
}

impl NameServerHandler for NameServerImpl {
    fn register(
        &mut self,
        _ctx: &ServiceCtx,
        name: String,
        properties: Vec<Property>,
    ) -> Result<(), NameServerError> {
        if self.entries.contains_key(&name) {
            return Err(NameServerError::AlreadyExists);
        }
        self.entries.insert(name, properties);
        Ok(())
    }

    fn lookup(
        &mut self,
        _ctx: &ServiceCtx,
        name: String,
    ) -> Result<Vec<Property>, NameServerError> {
        self.entries
            .get(&name)
            .cloned()
            .ok_or(NameServerError::NotFound)
    }

    fn delete(&mut self, _ctx: &ServiceCtx, name: String) -> Result<(), NameServerError> {
        self.entries
            .remove(&name)
            .map(|_| ())
            .ok_or(NameServerError::NotFound)
    }
}

#[test]
fn generated_stubs_work_against_replicated_server() {
    let mut w = World::new(42);
    let config = NodeConfig::default();
    let members = [addr(1, 70), addr(2, 70), addr(3, 70)];
    let troupe = spawn_troupe(&mut w, TroupeId(7), &members, MODULE, &config, None, || {
        NameServerDispatcher(NameServerImpl::default())
    });
    let client_addr = spawn_caller(&mut w, addr(10, 50), config, None);
    // One call through the generated stubs: marshal, call, hand the raw
    // result back for the stub to unmarshal.
    let mut invoke = |(proc, args): (u16, Vec<u8>), collation| {
        let request = Request::new(&troupe, MODULE, proc, args).collate(collation);
        call(&mut w, client_addr, request, Duration::from_secs(5))
    };
    let unanimous = circus::CollationPolicy::Unanimous;
    let reported = |e| NameServerFailure::Reported(e);

    let props = vec![Property {
        name: "address".into(),
        value: vec![10, 20, 30],
    }];
    let printer = "printer".to_string();
    let register = || client::register_request(&printer, &props);
    let lookup = || client::lookup_request(&printer);

    // Register, then a duplicate register (typed error), then lookup,
    // an explicit-replication lookup, delete, and a failing lookup.
    assert_eq!(
        client::register_result(invoke(register(), unanimous.clone())),
        Ok(())
    );
    assert_eq!(
        client::register_result(invoke(register(), unanimous.clone())),
        Err(reported(NameServerError::AlreadyExists))
    );
    assert_eq!(
        client::lookup_result(invoke(lookup(), unanimous.clone())),
        Ok(props.clone())
    );
    // Explicit replication: decode the whole response set.
    let set =
        client::lookup_replies(invoke(lookup(), circus::gather_all_collation())).expect("gathered");
    assert_eq!(set, vec![Some(Ok(props.clone())); 3]);
    let delete = client::delete_request(&printer);
    assert_eq!(
        client::delete_result(invoke(delete, unanimous.clone())),
        Ok(())
    );
    assert_eq!(
        client::lookup_result(invoke(lookup(), unanimous)),
        Err(reported(NameServerError::NotFound))
    );
}

#[test]
fn golden_file_is_current() {
    // The committed generated file must match what stubgen produces from
    // the committed interface source.
    let src = include_str!("../idl/name_server.courier");
    let generated = stubgen::compile(
        src,
        stubgen::Options {
            explicit_replication: true,
        },
    )
    .expect("interface compiles");
    let committed = include_str!("generated/name_server.rs");
    assert_eq!(
        generated, committed,
        "regenerate with: cargo run -p stubgen -- --explicit-replication \
         crates/stubgen/idl/name_server.courier -o crates/stubgen/tests/generated/name_server.rs"
    );
}

#[test]
fn generated_types_round_trip() {
    let p = Property {
        name: "printer".into(),
        value: vec![1, 2, 3],
    };
    let bytes = wire::to_bytes(&p);
    let back: Property = wire::from_bytes(&bytes).unwrap();
    assert_eq!(back, p);
}

#[test]
fn error_wire_tags_round_trip() {
    for e in [NameServerError::AlreadyExists, NameServerError::NotFound] {
        assert_eq!(NameServerError::from_wire_tag(&e.wire_tag()), Some(e));
    }
    assert_eq!(NameServerError::from_wire_tag("E99.0"), None);
    assert_eq!(NameServerError::from_wire_tag("nonsense"), None);
}
