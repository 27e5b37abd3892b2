//! # bench: the reproduction harness
//!
//! Regenerates every table and figure in the evaluation of Cooper's
//! *Replicated Distributed Programs*: the echo testbeds of §4.4.1
//! ([`testbed`]), the table/figure formatters ([`tables`]), the grids
//! with a claim to uphold ([`bench4`], [`bench7`], [`bench8`]; Tables 4.1
//! and 4.3, Figure 4.8, §4.4.2, [`pacing`] and [`mxn`] assert their own
//! before they render), and one table of all of them, [`EXPERIMENTS`],
//! which the `repro` binary prints and `tests/repro_golden.rs` pins byte
//! for byte.
//!
//! Everything runs on the simulated clock from fixed seeds, so every
//! experiment's output is the same bytes on every run and machine.

#![warn(missing_docs)]

pub mod ablations;
pub mod bench4;
pub mod bench7;
pub mod bench8;
pub mod mxn;
pub mod pacing;
pub mod tables;
pub mod testbed;

/// One row of the evaluation.
pub struct Experiment {
    /// The name `repro` selects it by.
    pub name: &'static str,
    /// How it runs, on its one, full grid.
    pub run: Run,
}

/// The two kinds of experiment.
pub enum Run {
    /// A text table or figure; its golden is its marked block of
    /// `EXPERIMENTS.md` (`<!-- repro:NAME -->`).
    Table(fn() -> String),
    /// A grid of typed records, emitted one JSON record per line, that
    /// exists to support a claim.
    Grid {
        /// File at the repository root holding exactly the records.
        path: &'static str,
        /// The line `repro` prints above the records.
        heading: &'static str,
        /// Measures the grid and judges the claim over it.
        run: fn() -> Checked,
    },
}

/// A measured grid.
pub struct Checked {
    /// The records, one JSON object per line.
    pub json: String,
    /// Whether the experiment's claim held over the records: `Ok` says
    /// what was compared, `Err` what broke.
    pub claim: Result<String, String>,
}

fn checked<C>(
    cells: Vec<C>,
    json: fn(&[C]) -> String,
    claim: fn(&[C]) -> Result<String, String>,
) -> Checked {
    Checked {
        json: json(&cells),
        claim: claim(&cells),
    }
}

/// `Ok` when every check holds, else `Err` naming the first that does not,
/// beside the measured `rows`.
pub(crate) fn all_hold<const N: usize>(
    checks: [(bool, &str); N],
    rows: &(impl std::fmt::Debug + ?Sized),
) -> Result<(), String> {
    match checks.iter().find(|(held, _)| !held) {
        Some((_, what)) => Err(format!("not {what}: {rows:?}")),
        None => Ok(()),
    }
}

const fn table(name: &'static str, run: fn() -> String) -> Experiment {
    Experiment {
        name,
        run: Run::Table(run),
    }
}

/// Every experiment, in the order `repro` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    table("table4.1", tables::table_4_1),
    table("table4.2", tables::table_4_2),
    table("table4.3", tables::table_4_3),
    table("fig4.8", tables::fig_4_8),
    Experiment {
        name: "bench4",
        run: Run::Grid {
            path: "BENCH_4.json",
            heading: "BENCH_4: unicast vs multicast call data plane (m+n messages, §4.3.3)",
            run: || checked(bench4::grid(), bench4::json, bench4::claim),
        },
    },
    Experiment {
        name: "bench7",
        run: Run::Grid {
            path: "BENCH_7.json",
            heading: "BENCH_7: crash recovery — MTTR and state-transfer bytes \
                      (log replay + delta rejoin)",
            run: || checked(bench7::grid(), bench7::json, bench7::claim),
        },
    },
    Experiment {
        name: "bench8",
        run: Run::Grid {
            path: "BENCH_8.json",
            heading: "BENCH_8: synchronization under conflict — commit vs broadcast vs \
                      commutative (§5.5)",
            run: || checked(bench8::grid(), bench8::json, bench8::claim),
        },
    },
    table("multicast", tables::fig_multicast_theory),
    table("eq5.1", tables::eq_5_1),
    table("fig6.3", tables::fig_6_3),
    table("table7.1", tables::table_7_1),
    table("ablation.waiting", ablations::ablation_waiting),
    table("ablation.sync", || bench8::sync_table(&bench8::grid())),
    table("ablation.protocol", ablations::ablation_protocol),
    table("pacing", pacing::table),
    table("mxn", mxn::table),
];
