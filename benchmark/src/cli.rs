//! Command line of `rdp-bench` (normally reached through `run.sh`).
//!
//! With `--trace 0|1` it is one run of one workload: a metric table, then —
//! as the last line of standard output — the JSON result the driver reads.
//! It exits 0 whenever it produced a result; a failed output check shows as
//! `"correct": false`.
//!
//! Without `--trace` it is the one command for people: every workload (or
//! the one named) untraced and then traced, each in a child process of its
//! own so that peak RSS is per workload, and a non-zero exit if any output
//! check failed.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::metrics;
use crate::workload::{Size, Workload, REFERENCE_SECONDS};
use crate::{result_json, run, Outcome};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 1985;
/// Most spans written to a trace file (self times cover all of them).
const TRACE_FILE_SPANS: usize = 100_000;

const USAGE: &str =
    "usage: rdp-bench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke]
  --workload  echo_small | echo_bulk | commit_contended | ordered_bcast | chaos_faults
              (default without --trace: all five)
  --seed      workload seed; repetitions use N, N+1, ... (default 1985)
  --seconds   sizes the fixed operation counts; 10 is the calibrated run (default 10)
  --trace     0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics;
              absent: both, for every workload, each in its own process
  --smoke     one repetition at 1/50 of the counts";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: REFERENCE_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("--seed {v}: not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = match v.parse() {
                    Ok(s) if (1..=60).contains(&s) => s,
                    _ => return Err(format!("--seconds {v}: want a whole number from 1 to 60")),
                };
            }
            "--trace" => {
                out.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: want 0 or 1")),
                });
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn print_outcome(workload: Workload, seed: u64, size: Size, traced: bool, outcome: &Outcome) {
    println!(
        "== {} · {} run · seed {seed} · {} repetition(s) × {} units · 1 op = {}",
        workload.name(),
        if traced { "traced" } else { "untraced" },
        if traced { 1 } else { size.reps },
        size.units,
        workload.op(),
    );
    for (name, value) in &outcome.metrics {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        println!("{name:<42} {value:>16.4} {unit}");
    }
    let rates: Vec<String> = outcome
        .rep_ops_per_s
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    println!(
        "-- ops per host second, {}: {}",
        if traced {
            "untraced then traced repetition"
        } else {
            "each repetition"
        },
        rates.join(" ")
    );
    let setups: Vec<String> = outcome
        .rep_setup_raw_s
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect();
    println!(
        "-- set-up, raw wall seconds, same order: {}",
        setups.join(" ")
    );
    if !outcome.self_ns_per_op.is_empty() {
        println!("-- host self time per layer (traced repetition), ns per op");
        for (layer, ns) in &outcome.self_ns_per_op {
            println!("{layer:<42} {ns:>16.1} ns");
        }
    }
    println!(
        "-- attempted {} · failed {} · {}",
        outcome.attempted,
        outcome.failed,
        if outcome.correct() {
            "outputs correct"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
}

/// One run of one workload; the JSON result is the last line printed.
fn single(workload: Workload, args: &Args, traced: bool) -> ExitCode {
    let size = Size::of(workload, args.seconds, args.smoke);
    let outcome = run(workload, args.seed, size, traced);
    if let Some(rec) = &outcome.spans {
        let path = PathBuf::from(format!("benchmark/out/trace-{}.json", workload.name()));
        match rec.borrow().write_json(&path, TRACE_FILE_SPANS) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    print_outcome(workload, args.seed, size, traced, &outcome);
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}

/// Every requested workload, untraced then traced, one child process per
/// run.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut failed = Vec::new();
    for w in workloads {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // `output` waits for the child and collects its stdout; stderr
            // (failed checks) is inherited.
            let ok = match cmd.stderr(std::process::Stdio::inherit()).output() {
                Ok(out) => {
                    let text = String::from_utf8_lossy(&out.stdout);
                    print!("{text}");
                    out.status.success()
                        && text
                            .lines()
                            .last()
                            .is_some_and(|l| l.starts_with("{\"correct\":true,"))
                }
                Err(e) => {
                    eprintln!("could not run {}: {e}", exe.display());
                    false
                }
            };
            if !ok {
                failed.push(format!("{} (trace {trace})", w.name()));
            }
            println!();
        }
    }
    if failed.is_empty() {
        println!("all runs correct");
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Entry point of the binary.
pub fn main(args: &[String]) -> ExitCode {
    let args = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.trace, args.workload) {
        (Some(traced), Some(w)) => single(w, &args, traced),
        (Some(_), None) => {
            eprintln!("--trace needs --workload\n{USAGE}");
            ExitCode::from(2)
        }
        (None, _) => all(&args),
    }
}
