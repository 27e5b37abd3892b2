//! Figure 7.5 end-to-end: explicit binding lets one client hold two
//! bindings to the *same interface* simultaneously and perform a
//! third-party file transfer ("while not end_of_file(binding1, file) do
//! write(binding2, file, read(binding1, file))").

#[allow(dead_code, clippy::all)]
mod file_system {
    include!("generated/file_system.rs");
}

use circus::testbed::{
    addr, call, service, service_mut, spawn_caller, spawn_troupe, Request, MODULE,
};
use circus::{CallError, NodeConfig, ServiceCtx, Troupe, TroupeId};
use file_system::{client, FileSystemDispatcher, FileSystemError, FileSystemHandler};
use simnet::{Duration, SockAddr, World};
use std::collections::BTreeMap;

const PAGE_WORDS: usize = 8;

/// An in-memory file server implementing the generated handler.
#[derive(Default)]
struct Fs {
    files: BTreeMap<String, Vec<Vec<u16>>>,
}

impl FileSystemHandler for Fs {
    fn read(
        &mut self,
        _ctx: &ServiceCtx,
        file: String,
        page: u32,
    ) -> Result<Vec<u16>, FileSystemError> {
        let pages = self.files.get(&file).ok_or(FileSystemError::NoSuchFile)?;
        pages
            .get(page as usize)
            .cloned()
            .ok_or(FileSystemError::EndOfFile)
    }

    fn write(
        &mut self,
        _ctx: &ServiceCtx,
        file: String,
        page: u32,
        data: Vec<u16>,
    ) -> Result<(), FileSystemError> {
        let pages = self.files.entry(file).or_default();
        while pages.len() <= page as usize {
            pages.push(Vec::new());
        }
        pages[page as usize] = data;
        Ok(())
    }

    fn end_of_file_q(
        &mut self,
        _ctx: &ServiceCtx,
        file: String,
        page: u32,
    ) -> Result<bool, FileSystemError> {
        let pages = self.files.get(&file).ok_or(FileSystemError::NoSuchFile)?;
        Ok(page as usize >= pages.len())
    }
}

/// One unreplicated file server on `host`, as troupe `id`.
fn spawn_fs(w: &mut World, host: u32, id: u64) -> Troupe {
    let config = NodeConfig::default();
    spawn_troupe(
        w,
        TroupeId(id),
        &[addr(host, 70)],
        MODULE,
        &config,
        None,
        || FileSystemDispatcher(Fs::default()),
    )
}

/// One call through the generated stubs over `binding`: the marshalled
/// request goes out, the raw result comes back for the stub to unmarshal.
fn invoke(
    w: &mut World,
    client: SockAddr,
    binding: &Troupe,
    (proc, args): (u16, Vec<u8>),
) -> Result<Vec<u8>, CallError> {
    let request = Request::new(binding, MODULE, proc, args);
    call(w, client, request, Duration::from_secs(5))
}

#[test]
fn third_party_file_transfer_with_two_bindings() {
    let mut w = World::new(75);
    let source = spawn_fs(&mut w, 1, 10);
    let dest = spawn_fs(&mut w, 2, 11);

    // Seed the source file: 5 pages of distinct content.
    let pages: Vec<Vec<u16>> = (0..5u16)
        .map(|p| (0..PAGE_WORDS as u16).map(|i| p * 100 + i).collect())
        .collect();
    let seed =
        |fs: &mut FileSystemDispatcher<Fs>| fs.0.files.insert("report".into(), pages.clone());
    service_mut(&mut w, source.members[0].addr, MODULE, seed);

    // The Figure 7.5 client: two explicit bindings, copying the file from
    // server 1 to server 2 page by page — "while not end_of_file(binding1,
    // file) do write(binding2, file, read(binding1, file))".
    let client_addr = spawn_caller(&mut w, addr(10, 50), NodeConfig::default(), None);
    let file = "report".to_string();
    let mut page = 0u32;
    loop {
        let eof = invoke(
            &mut w,
            client_addr,
            &source,
            client::end_of_file_q_request(&file, &page),
        );
        if client::end_of_file_q_result(eof).expect("eof check") {
            break;
        }
        let read = invoke(
            &mut w,
            client_addr,
            &source,
            client::read_request(&file, &page),
        );
        let data = client::read_result(read).expect("read page");
        let written = invoke(
            &mut w,
            client_addr,
            &dest,
            client::write_request(&file, &page, &data),
        );
        client::write_result(written).expect("write page");
        page += 1;
    }
    assert_eq!(page, 5, "pages copied");

    // The destination holds an identical copy.
    let copied = |fs: &FileSystemDispatcher<Fs>| fs.0.files.get("report").cloned();
    let dest_pages = service(&w, dest.members[0].addr, MODULE, copied);
    assert_eq!(dest_pages, Some(pages));
}

#[test]
fn filesystem_golden_is_current() {
    let src = include_str!("../idl/file_system.courier");
    let generated = stubgen::compile(
        src,
        stubgen::Options {
            explicit_replication: true,
        },
    )
    .expect("interface compiles");
    assert_eq!(
        generated,
        include_str!("generated/file_system.rs"),
        "regenerate with: cargo run -p stubgen -- --explicit-replication \
         crates/stubgen/idl/file_system.courier -o crates/stubgen/tests/generated/file_system.rs"
    );
}

#[test]
fn typed_errors_cross_the_wire() {
    let mut w = World::new(76);
    let fs = spawn_fs(&mut w, 1, 10);

    let client_addr = spawn_caller(&mut w, addr(10, 50), NodeConfig::default(), None);
    let read = client::read_request(&"ghost".to_string(), &0);
    let outcome = client::read_result(invoke(&mut w, client_addr, &fs, read));
    assert_eq!(
        outcome,
        Err(file_system::FileSystemFailure::Reported(
            FileSystemError::NoSuchFile
        ))
    );
}
