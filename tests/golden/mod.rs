//! The one golden-file comparer (`mod golden;` in each golden test).

use std::io::Write as _;

/// Holds `actual` to the committed file at `path` (relative to the
/// repository root), byte for byte; a mismatch panics naming every
/// drifted line. `UPDATE_GOLDEN=1` rewrites the file instead and names
/// the same lines on stderr (past the test harness's capture), so the
/// update shows its blast radius — do that only on purpose, and say why.
pub fn check_golden(path: &str, actual: &str) {
    check(path, None, actual);
}

/// Holds `actual` to the fenced text block between `<!-- repro:NAME -->`
/// and `<!-- /repro:NAME -->` in the committed document at `path`, the
/// way [`check_golden`] holds a whole file; `UPDATE_GOLDEN=1` rewrites
/// that block alone.
#[allow(dead_code)]
pub fn check_golden_block(path: &str, name: &str, actual: &str) {
    check(path, Some(name), actual);
}

fn check(path: &str, block: Option<&str>, actual: &str) {
    let file = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let doc = match std::fs::read_to_string(&file) {
        Ok(doc) => doc,
        Err(_) if update && block.is_none() => String::new(),
        Err(e) => panic!("cannot read {path}: {e}; regenerate with UPDATE_GOLDEN=1"),
    };
    let (start, end) = match block {
        None => (0, doc.len()),
        Some(name) => {
            let open = format!("<!-- repro:{name} -->\n```text\n");
            let close = format!("```\n<!-- /repro:{name} -->");
            let start = doc.find(&open).map(|at| at + open.len());
            let end = start.and_then(|start| doc[start..].find(&close).map(|n| start + n));
            match (start, end) {
                (Some(start), Some(end)) => (start, end),
                _ => panic!("{path} has no block {open:?} … {close:?}: add one"),
            }
        }
    };
    if doc[start..end] == *actual {
        return;
    }
    let (mut want, mut got) = (doc[start..end].lines(), actual.lines());
    let mut drifted = Vec::new();
    for n in doc[..start].lines().count() + 1.. {
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
        let rewritten = format!("{}{actual}{}", &doc[..start], &doc[end..]);
        std::fs::write(&file, rewritten).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
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
