//! The paper's title case on the simulated clock: a replicated program, an
//! m-member client troupe, calls an n-member server troupe (§4.3.3).
//!
//! Every client member makes the call, every server member assembles the
//! m call messages into one execution (§4.3.2) and returns the result to
//! all m. With the call sent per server member, a logical call costs
//! m·n `sendmsg`s on the way out; with multicast, m. The return of a
//! many-to-one call goes out once, by multicast, either way: n. So "a
//! multicast implementation ... requires only m+n messages" (§4.3.3),
//! against m·n + n with unicast calls, where sending every message once
//! per addressee would cost 2mn.

use std::fmt::Write as _;

use crate::all_hold;
use crate::testbed::{run_troupe_echo, ProgramResult};

/// Largest degree of replication on either side.
const MAX_DEGREE: usize = 3;

/// Measured logical calls per cell.
const CALLS: u32 = 20;

/// One m × n cell, with the call data plane per server member and by
/// multicast.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Client troupe members.
    pub m: usize,
    /// Server troupe members.
    pub n: usize,
    /// `multicast_small_calls` off.
    pub unicast: ProgramResult,
    /// `multicast_small_calls` on.
    pub multicast: ProgramResult,
}

/// Every m, n in 1..=3.
pub fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for m in 1..=MAX_DEGREE {
        for n in 1..=MAX_DEGREE {
            cells.push(Cell {
                m,
                n,
                unicast: run_troupe_echo(m, n, false, CALLS),
                multicast: run_troupe_echo(m, n, true, CALLS),
            });
        }
    }
    cells
}

/// A logical call costs exactly m + n `sendmsg`s with multicast calls and
/// m·n + n with unicast ones, in every cell.
pub fn claim(cells: &[Cell]) -> Result<String, String> {
    let what = "m + n sendmsgs per logical call with multicast calls, m*n + n without";
    let exact = cells.iter().all(|c| {
        let (m, n) = (c.m as f64, c.n as f64);
        c.unicast.sendmsgs == m * n + n && c.multicast.sendmsgs == m + n
    });
    let full = cells.len() == MAX_DEGREE * MAX_DEGREE;
    all_hold([(exact, what), (full, "the full grid")], cells)?;
    Ok(what.into())
}

/// Formats the grid. Panics if the claim does not hold over it, so the
/// golden cannot be regenerated around a regression.
pub fn table() -> String {
    let cells = grid();
    let held = claim(&cells).unwrap_or_else(|why| panic!("mxn: claim violated: {why}"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Replicated program (Sec 4.3.3): an m-member client troupe calls an n-member troupe\n\
         (64-byte echo, one logical call a second; per logical call, all m + n processes)"
    );
    let _ = writeln!(
        out,
        "{:<2} {:<2} | {:>13} {:>8} | {:>12} {:>8} | {:>5} {:>4} {:>4}",
        "m", "n", "off: sendmsgs", "ms", "on: sendmsgs", "ms", "m*n+n", "m+n", "2mn"
    );
    for Cell {
        m,
        n,
        unicast,
        multicast,
    } in &cells
    {
        let _ = writeln!(
            out,
            "{m:<2} {n:<2} | {:>13.2} {:>8.1} | {:>12.2} {:>8.1} | {:>5} {:>4} {:>4}",
            unicast.sendmsgs,
            unicast.ms,
            multicast.sendmsgs,
            multicast.ms,
            m * n + n,
            m + n,
            2 * m * n
        );
    }
    let _ = writeln!(
        out,
        "Shape check: {held}.\n\
         Each server member returns once, by multicast, to the m client members that\n\
         called it; multicast calls also send each client member's call once. Every\n\
         message once per addressee would be 2mn."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(m: usize, n: usize, unicast: f64, multicast: f64) -> Cell {
        let cost = |sendmsgs| ProgramResult { sendmsgs, ms: 50.0 };
        Cell {
            m,
            n,
            unicast: cost(unicast),
            multicast: cost(multicast),
        }
    }

    /// The counts the claim expects, cell by cell.
    fn good() -> Vec<Cell> {
        let mut cells = Vec::new();
        for m in 1..=MAX_DEGREE {
            for n in 1..=MAX_DEGREE {
                cells.push(cell(m, n, (m * n + n) as f64, (m + n) as f64));
            }
        }
        cells
    }

    #[test]
    fn claim_fires_on_per_member_returns_and_a_short_grid() {
        assert!(claim(&good()).is_ok());

        // Every message once per addressee, returns included: 2mn.
        for (unicast, multicast) in [(true, false), (false, true)] {
            let mut cells = good();
            let c = cells.last_mut().expect("the 3 x 3 cell");
            let per_addressee = (2 * c.m * c.n) as f64;
            if unicast {
                c.unicast.sendmsgs = per_addressee;
            }
            if multicast {
                c.multicast.sendmsgs = per_addressee;
            }
            assert!(claim(&cells).is_err());
        }

        // An ack or a re-send on top.
        let mut cells = good();
        cells[4].multicast.sendmsgs += 0.05;
        assert!(claim(&cells).is_err());

        assert!(claim(&good()[..4]).is_err(), "not the full grid");
    }
}
