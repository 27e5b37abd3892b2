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
