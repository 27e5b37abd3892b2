//! Golden output of the evaluation: every row of `bench::EXPERIMENTS`
//! must reproduce its committed output byte for byte — the grids their
//! `BENCH_*.json`, the tables their marked block of `EXPERIMENTS.md` — so
//! a change to any number the paper reproduction reports is a reviewed
//! diff. Each grid's claim is asserted first, over the typed records, and
//! each table that has one asserts its own before it renders:
//! regenerating (`UPDATE_GOLDEN=1 cargo test --test repro_golden`, which
//! rewrites only the files and blocks that moved) cannot bless a
//! regression.

mod golden;

use bench::{Run, EXPERIMENTS};

#[test]
fn every_experiment_reproduces_its_committed_output() {
    for e in EXPERIMENTS {
        match e.run {
            Run::Table(run) => golden::check_golden_block("EXPERIMENTS.md", e.name, &run()),
            Run::Grid { path, run, .. } => {
                let grid = run();
                if let Err(why) = grid.claim {
                    panic!("{}: claim violated: {why}", e.name);
                }
                golden::check_golden(path, &grid.json);
            }
        }
    }
}

/// The line of EXPERIMENTS.md that quotes `BENCH_7.json`'s MTTRs, up to
/// its figures.
const MTTR_QUOTE: &str = "MTTR at 16 / 32 / 64 txns/client: ";

/// The first MTTR the quote gives that is not the committed
/// `snapshot_every: 0` cell's, as the quote rounds it; `None` if all
/// three are.
fn quoted_mttr_drift(prose: &str, bench7: &str) -> Option<String> {
    let Some(line) = prose.lines().find_map(|l| l.strip_prefix(MTTR_QUOTE)) else {
        return Some(format!("no line begins {MTTR_QUOTE:?}"));
    };
    let quoted = line.split(" s").next().unwrap_or_default().split(" / ");
    for (txns, quoted) in [16, 32, 64].into_iter().zip(quoted) {
        let cell = format!("\"txns_per_client\":{txns},\"snapshot_every\":0,");
        let record = bench7.lines().find(|l| l.contains(&cell));
        let mttr = record.and_then(|r| r.split("\"mttr_us\":").nth(1)?.split(',').next());
        let Some(mttr_us) = mttr.and_then(|us| us.parse::<u64>().ok()) else {
            return Some(format!("no {txns} txns/client cell in BENCH_7.json"));
        };
        let committed = format!("{:.2}", mttr_us as f64 / 1e6);
        if quoted != committed {
            return Some(format!(
                "{txns} txns/client: quoted {quoted} s, BENCH_7.json {committed} s"
            ));
        }
    }
    None
}

/// EXPERIMENTS.md's prose quotes BENCH_7's MTTRs as the committed file
/// reads them, and a planted wrong figure is caught.
#[test]
fn the_quoted_bench7_mttrs_are_the_committed_ones() {
    let read = |f: &str| std::fs::read_to_string(format!("{}/{f}", env!("CARGO_MANIFEST_DIR")));
    let prose = read("EXPERIMENTS.md").expect("EXPERIMENTS.md");
    let bench7 = read("BENCH_7.json").expect("BENCH_7.json");
    assert_eq!(quoted_mttr_drift(&prose, &bench7), None);
    let line = prose
        .lines()
        .find(|l| l.starts_with(MTTR_QUOTE))
        .expect("quoted");
    let planted = prose.replacen(line, &format!("{MTTR_QUOTE}1.13 / 1.87 / 1.65 s"), 1);
    assert!(
        quoted_mttr_drift(&planted, &bench7).is_some(),
        "the stale figures"
    );
}
