//! Property-based tests for the stub compiler: arbitrary *valid*
//! interface programs compile (and name-mangling behaves), and arbitrary
//! *invalid* text fails cleanly.

use proptest::prelude::*;
use stubgen::{compile, snake, Options};

/// Generates a syntactically valid interface source with `n_types`
/// alias/record/enum declarations and `n_procs` procedures over them.
fn program_strategy() -> impl Strategy<Value = String> {
    (
        1u32..1000,
        1u16..10,
        proptest::collection::vec(0u8..5, 0..4),
        proptest::collection::vec((0u8..3, 0u8..3, any::<bool>()), 1..5),
    )
        .prop_map(|(number, version, type_kinds, procs)| {
            let mut src = format!("Iface: PROGRAM {number} VERSION {version} =\nBEGIN\n");
            let base = [
                "CARDINAL",
                "STRING",
                "BOOLEAN",
                "LONG INTEGER",
                "UNSPECIFIED",
            ];
            let mut type_names = Vec::new();
            for (i, kind) in type_kinds.iter().enumerate() {
                let name = format!("T{i}");
                match kind {
                    0 => src.push_str(&format!("  {name}: TYPE = SEQUENCE OF {};\n", base[i % 5])),
                    1 => src.push_str(&format!(
                        "  {name}: TYPE = RECORD [a: {}, b: {}];\n",
                        base[i % 5],
                        base[(i + 1) % 5]
                    )),
                    2 => src.push_str(&format!(
                        "  {name}: TYPE = {{ red({}), green({}) }};\n",
                        i * 2,
                        i * 2 + 1
                    )),
                    3 => src.push_str(&format!(
                        "  {name}: TYPE = ARRAY {} OF {};\n",
                        i + 1,
                        base[i % 5]
                    )),
                    _ => src.push_str(&format!(
                        "  {name}: TYPE = CHOICE OF {{ one(0) => {}, two(1) => {} }};\n",
                        base[i % 5],
                        base[(i + 2) % 5]
                    )),
                }
                type_names.push(name);
            }
            src.push_str("  Oops: ERROR = 0;\n");
            for (i, (params, returns, reports)) in procs.iter().enumerate() {
                let ty = |k: u8| -> String {
                    if type_names.is_empty() {
                        base[k as usize % 5].to_string()
                    } else {
                        type_names[k as usize % type_names.len()].clone()
                    }
                };
                let mut line = format!("  Proc{i}: PROCEDURE");
                if *params > 0 {
                    let ps: Vec<String> =
                        (0..*params).map(|k| format!("p{k}: {}", ty(k))).collect();
                    line.push_str(&format!(" [{}]", ps.join(", ")));
                }
                if *returns > 0 {
                    let rs: Vec<String> = (0..*returns)
                        .map(|k| format!("r{k}: {}", ty(k + 1)))
                        .collect();
                    line.push_str(&format!(" RETURNS [{}]", rs.join(", ")));
                }
                if *reports {
                    line.push_str(" REPORTS [Oops]");
                }
                line.push_str(&format!(" = {i};\n"));
                src.push_str(&line);
            }
            src.push_str("END.\n");
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated valid program compiles, and the output contains
    /// the expected top-level artifacts and a declaration per constructor
    /// type.
    #[test]
    fn valid_programs_compile(src in program_strategy()) {
        let out = compile(&src, Options { explicit_replication: true })
            .unwrap_or_else(|e| panic!("failed to compile:\n{src}\n{e}"));
        prop_assert!(out.contains("pub trait IfaceHandler"));
        prop_assert!(out.contains("pub struct IfaceDispatcher"));
        prop_assert!(out.contains("pub mod client"));
        prop_assert!(out.contains("pub enum IfaceError"));
        // Each constructor type is its `wire` declaration, never an impl.
        for (kind, declared) in [
            ("RECORD", "wire::record! {"),
            ("{ red(", "wire::enumeration! {"),
            ("CHOICE", "wire::choice! {"),
        ] {
            prop_assert_eq!(src.contains(kind), out.contains(declared));
        }
        prop_assert!(!out.contains("impl wire::"));
    }

    /// Arbitrary text never panics the compiler.
    #[test]
    fn garbage_fails_cleanly(src in "[ -~\\n]{0,200}") {
        let _ = compile(&src, Options::default());
    }

    /// snake_case output is a valid Rust identifier fragment for valid
    /// Courier names.
    #[test]
    fn snake_produces_identifiers(name in "[A-Za-z][A-Za-z0-9]{0,20}") {
        let s = snake(&name);
        prop_assert!(!s.is_empty());
        prop_assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        prop_assert!(!s.starts_with(|c: char| c.is_ascii_digit()));
    }

    /// snake_case is idempotent.
    #[test]
    fn snake_idempotent(name in "[A-Za-z][A-Za-z0-9]{0,20}") {
        let once = snake(&name);
        prop_assert_eq!(snake(&once), once);
    }
}
