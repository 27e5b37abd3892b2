//! `repro`: regenerates every table and figure in the paper's evaluation.
//!
//! ```text
//! repro [EXPERIMENT...]
//! repro budget RIG [--op N]
//! ```
//!
//! Experiments: the names of [`bench::EXPERIMENTS`] (default: all, in
//! table order). Every experiment has one grid and runs on the simulated
//! clock, so its output is the same bytes on every run.
//!
//! `bench4`, `bench7` and `bench8` print one JSON record per line,
//! check the claim they exist to support over the records they just
//! measured (the client's exact `sendmsg` bill by unicast and by
//! multicast; a delta rejoin moves fewer bytes than a full transfer;
//! commutative operations out-throughput the commit protocol under
//! conflict) — a violated claim is reported on stderr and exits 1 — and
//! write the records to `BENCH_4.json` / `BENCH_7.json` / `BENCH_8.json`
//! in the current directory. Tables 4.1 and 4.3, Figure 4.8, `multicast`,
//! `pacing` and `mxn` panic instead of printing a table whose shape
//! claim does not hold. `cargo test` holds every experiment to its
//! committed output (`tests/repro_golden.rs`).
//!
//! `repro budget RIG` prints the critical-path budget of one operation
//! of a rig of [`bench::budget::RIGS`] — its median, or the `N`th in
//! completion order — cell by cell ([`bench::budget`]); its first line
//! names the median and p99 operations.

use std::process::ExitCode;

use bench::{Run, EXPERIMENTS};

/// Prints a block, exiting quietly if the reader closed the pipe
/// (e.g. `repro | head`).
fn emit(block: String) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{block}").is_err() {
        std::process::exit(0);
    }
}

/// `repro budget RIG [--op N]`.
fn budget(args: &[String]) -> ExitCode {
    use bench::budget::{render_op, RIGS};
    let rig = RIGS.iter().find(|(name, _)| *name == args[0]);
    let op = match &args[1..] {
        [] => None,
        [flag, n] if flag == "--op" => match n.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => return usage(),
        },
        _ => return usage(),
    };
    let Some(&(name, run)) = rig else {
        let known: Vec<&str> = RIGS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown rig {:?}; known: {}", args[0], known.join(" "));
        return ExitCode::from(2);
    };
    let measured = run();
    let op = op.unwrap_or_else(|| measured.median());
    if op >= measured.ops.len() {
        eprintln!("{name} has {} operations", measured.ops.len());
        return ExitCode::from(2);
    }
    emit(render_op(name, &measured, op));
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: repro [EXPERIMENT...] | repro budget RIG [--op N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if wanted.len() > 1 && wanted[0] == "budget" {
        return budget(&wanted[1..]);
    }
    if let Some(unknown) = wanted
        .iter()
        .find(|w| !EXPERIMENTS.iter().any(|e| e.name == *w))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("unknown experiment {unknown:?}; known: {}", known.join(" "));
        return ExitCode::from(2);
    }
    for e in EXPERIMENTS {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == e.name) {
            continue;
        }
        match e.run {
            Run::Table(run) => emit(run()),
            Run::Grid { path, heading, run } => {
                let grid = run();
                emit(format!("{heading}\n{}", grid.json));
                // A violated claim must not overwrite the committed file.
                match grid.claim {
                    Ok(what) => eprintln!("claim {}: holds — {what}", e.name),
                    Err(why) => {
                        eprintln!("claim {}: VIOLATED — {why}", e.name);
                        return ExitCode::from(1);
                    }
                }
                if let Err(err) = std::fs::write(path, &grid.json) {
                    eprintln!("cannot write {path}: {err}");
                    return ExitCode::from(1);
                }
                emit(format!("wrote {path}"));
            }
        }
    }
    ExitCode::SUCCESS
}
