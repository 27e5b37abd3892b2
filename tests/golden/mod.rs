//! The one golden-file comparer (`mod golden;` in each golden test).

use std::io::Write as _;

/// Holds `actual` to the committed file at `path` (relative to the
/// repository root), byte for byte; a mismatch panics naming every
/// drifted line. `UPDATE_GOLDEN=1` rewrites the file instead and names
/// the same lines on stderr (past the test harness's capture), so the
/// update shows its blast radius — do that only on purpose, and say why.
pub fn check_golden(path: &str, actual: &str) {
    let file = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let golden = match std::fs::read_to_string(&file) {
        Ok(golden) => golden,
        Err(_) if update => String::new(),
        Err(e) => panic!("cannot read {path}: {e}; regenerate with UPDATE_GOLDEN=1"),
    };
    if golden == actual {
        return;
    }
    let (mut want, mut got) = (golden.lines(), actual.lines());
    let mut drifted = Vec::new();
    for n in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) if w == g => {}
            (w, g) => drifted.push(format!(
                "  {path}:{n}\n    golden: {}\n    actual: {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>")
            )),
        }
    }
    if drifted.is_empty() {
        drifted.push(format!("  {path}: only the final newline differs"));
    }
    if update {
        std::fs::write(&file, actual).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        let _ = writeln!(
            std::io::stderr(),
            "UPDATE_GOLDEN rewrote {} line(s) of {path}:\n{}",
            drifted.len(),
            drifted.join("\n")
        );
        return;
    }
    panic!(
        "{} line(s) drifted from {path}; if that is intended, regenerate with \
         UPDATE_GOLDEN=1:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
