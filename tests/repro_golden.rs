//! Golden output of the evaluation: every row of `bench::EXPERIMENTS`
//! must reproduce its committed output byte for byte — the grids their
//! `BENCH_*.json`, the tables their block of `repro_output.txt` — so a
//! change to any number the paper reproduction reports is a reviewed
//! diff. Each grid's claim is asserted first, over the typed records:
//! regenerating (`UPDATE_GOLDEN=1 cargo test --test repro_golden`)
//! cannot bless a regression.

mod golden;

use bench::{Run, EXPERIMENTS};

#[test]
fn every_experiment_reproduces_its_committed_output() {
    let mut tables = String::new();
    for e in EXPERIMENTS {
        match e.run {
            Run::Table(run) => {
                tables.push_str(&run());
                tables.push('\n');
            }
            Run::Grid { path, run, .. } => {
                let grid = run();
                if let Err(why) = grid.claim {
                    panic!("{}: claim violated: {why}", e.name);
                }
                golden::check_golden(path, &grid.json);
            }
        }
    }
    golden::check_golden("repro_output.txt", &tables);
}
