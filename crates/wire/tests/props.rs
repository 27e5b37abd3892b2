//! Property-based tests: externalize ∘ internalize is the identity,
//! internalization never panics on arbitrary bytes, and the declarations
//! lay their types out as Courier does.

use proptest::prelude::*;
use wire::{from_bytes, to_bytes, Reader, WireError};

wire::record! {
    #[derive(Clone, Debug, PartialEq)]
    struct Batch {
        nonce: u64,
        steps: Vec<Step>,
        note: String,
    }
}

wire::choice! {
    #[derive(Clone, Debug, PartialEq)]
    enum Step {
        Read(u64) = 0,
        Write(u64, i64) = 1,
        Tag(String, bool, Option<u16>) = 7,
    }
}

wire::enumeration! {
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Phase {
        Proposed = 0,
        Accepted = 1,
        Done = 9,
    }
}

wire::newtype! {
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Serial(u64);
}

fn step() -> Union<Step> {
    Union::new(vec![
        Box::new(any::<u64>().prop_map(Step::Read)),
        Box::new(any::<(u64, i64)>().prop_map(|(o, v)| Step::Write(o, v))),
        Box::new(any::<(String, bool, Option<u16>)>().prop_map(|(s, b, o)| Step::Tag(s, b, o))),
    ])
}

fn phase() -> Union<Phase> {
    Union::new(vec![
        Box::new(Just(Phase::Proposed)),
        Box::new(Just(Phase::Accepted)),
        Box::new(Just(Phase::Done)),
    ])
}

/// `bytes` with `extra` zero bytes after it.
fn padded(mut bytes: Vec<u8>, extra: usize) -> Vec<u8> {
    bytes.resize(bytes.len() + extra, 0);
    bytes
}

proptest! {
    #[test]
    fn u16_round_trips(v: u16) {
        prop_assert_eq!(from_bytes::<u16>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn u64_round_trips(v: u64) {
        prop_assert_eq!(from_bytes::<u64>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn i32_round_trips(v: i32) {
        prop_assert_eq!(from_bytes::<i32>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn string_round_trips(v: String) {
        prop_assert_eq!(from_bytes::<String>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn bytes_round_trips(v: Vec<u8>) {
        prop_assert_eq!(from_bytes::<Vec<u8>>(&to_bytes(&v)).unwrap(), v.clone());
        prop_assert_eq!(from_bytes::<&[u8]>(&to_bytes(&v)).unwrap(), &v[..]);
    }

    #[test]
    fn vec_of_strings_round_trips(v: Vec<String>) {
        prop_assert_eq!(from_bytes::<Vec<String>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn nested_structure_round_trips(v: Vec<(u32, String, Option<i16>)>) {
        prop_assert_eq!(
            from_bytes::<Vec<(u32, String, Option<i16>)>>(&to_bytes(&v)).unwrap(),
            v
        );
    }

    /// Internalizing arbitrary garbage must fail cleanly, never panic or
    /// over-allocate.
    #[test]
    fn garbage_never_panics(bytes: Vec<u8>) {
        let _ = from_bytes::<Vec<String>>(&bytes);
        let _ = from_bytes::<(u64, Vec<u8>, bool)>(&bytes);
        let _ = from_bytes::<(&[u8], &str)>(&bytes);
        let _ = from_bytes::<Option<Vec<u16>>>(&bytes);
    }

    /// The external representation always has even length (everything is
    /// 16-bit words).
    #[test]
    fn representation_is_word_aligned(s: String, b: Vec<u8>) {
        prop_assert_eq!(to_bytes(&s).len() % 2, 0);
        prop_assert_eq!(to_bytes(&b).len() % 2, 0);
    }

    /// Sequential reads consume exactly the bytes written.
    #[test]
    fn reader_position_tracks_writes(a: u32, s: String) {
        let mut w = wire::Writer::new();
        w.put_u32(a);
        w.put_string(&s);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        r.get_u32().unwrap();
        r.get_string().unwrap();
        prop_assert_eq!(r.remaining(), 0);
    }

    /// A declared record is the tuple of its fields, byte for byte (what
    /// a request's `encode` from borrowed parts relies on), and it
    /// round-trips.
    #[test]
    fn record_encodes_as_the_tuple_of_its_fields(
        nonce: u64,
        steps in proptest::collection::vec(step(), 0..6),
        note: String,
    ) {
        let bytes = to_bytes(&(nonce, steps.as_slice(), note.as_str()));
        let batch = Batch { nonce, steps, note };
        prop_assert_eq!(&to_bytes(&batch), &bytes);
        prop_assert_eq!(from_bytes::<Batch>(&bytes), Ok(batch));
    }

    /// A declared choice writes its designator, then the variant's
    /// fields in order, and round-trips.
    #[test]
    fn choice_writes_its_designator_then_its_fields(s in step()) {
        let expect = match &s {
            Step::Read(o) => to_bytes(&(0u16, o)),
            Step::Write(o, v) => to_bytes(&(1u16, o, v)),
            Step::Tag(t, b, n) => to_bytes(&(7u16, t, b, n)),
        };
        prop_assert_eq!(&to_bytes(&s), &expect);
        prop_assert_eq!(from_bytes::<Step>(&expect), Ok(s));
    }

    /// An enumeration is its value in one word; a newtype is what it
    /// wraps. Both round-trip.
    #[test]
    fn enumerations_and_newtypes_round_trip(p in phase(), v: u64) {
        prop_assert_eq!(to_bytes(&p), to_bytes(&(p as u16)));
        prop_assert_eq!(from_bytes::<Phase>(&to_bytes(&p)), Ok(p));
        prop_assert_eq!(to_bytes(&Serial(v)), to_bytes(&v));
        prop_assert_eq!(from_bytes::<Serial>(&to_bytes(&v)), Ok(Serial(v)));
    }

    /// An undeclared designator or enumeration value is refused by name,
    /// and so are bytes left over after any declared value.
    #[test]
    fn undeclared_words_and_trailing_bytes_are_refused(
        word: u16,
        s in step(),
        p in phase(),
        extra in 1usize..5,
    ) {
        prop_assume!(![0, 1, 7, 9].contains(&word));
        prop_assert_eq!(
            from_bytes::<Step>(&to_bytes(&(word, 5u64))),
            Err(WireError::BadChoice(word))
        );
        prop_assert_eq!(from_bytes::<Phase>(&to_bytes(&word)), Err(WireError::BadEnum(word)));
        let batch = Batch { nonce: 1, steps: vec![s.clone()], note: String::new() };
        let trailing = WireError::Trailing(extra);
        let batch = padded(to_bytes(&batch), extra);
        prop_assert_eq!(from_bytes::<Batch>(&batch).unwrap_err(), trailing.clone());
        let s = padded(to_bytes(&s), extra);
        prop_assert_eq!(from_bytes::<Step>(&s).unwrap_err(), trailing.clone());
        let p = padded(to_bytes(&p), extra);
        prop_assert_eq!(from_bytes::<Phase>(&p).unwrap_err(), trailing.clone());
        let serial = padded(to_bytes(&Serial(3)), extra);
        prop_assert_eq!(from_bytes::<Serial>(&serial).unwrap_err(), trailing);
    }
}
