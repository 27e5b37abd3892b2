//! What a replicated call costs a caller that does not call again at
//! once: `sendmsg`s and CPU per call against the gap between calls.
//!
//! A return is acknowledged by the caller's next call (§4.2.2) when
//! there is one; when there is not, by nothing. A one-segment return is
//! re-sent only when its caller's call timer asks, so a lossless call
//! costs its call and its return per member at any pace: 2n = 6
//! `sendmsg`s at n = 3, where a callee timing its returns would add a
//! re-send and its ack per member past the interval (4n = 12).

use std::fmt::Write as _;

use simnet::Duration;

use crate::all_hold;
use crate::testbed::{run_paced_echo, PacedResult};

/// Degree of replication.
const REPLICAS: usize = 3;

/// Measured calls per gap.
const CALLS: u32 = 40;

/// The retransmission interval the gaps straddle.
const INTERVAL_MS: u64 = 300;

/// One call every `gap_ms`, measured.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Milliseconds from one call's start to the next's.
    pub gap_ms: u64,
    /// What each call cost, the client and the members together.
    pub cost: PacedResult,
}

/// Gaps either side of the interval, and the band just past it.
pub fn grid() -> Vec<Cell> {
    [100u64, 300, 310, 320, 340, 1000]
        .into_iter()
        .map(|gap_ms| Cell {
            gap_ms,
            cost: run_paced_echo(REPLICAS, CALLS, Duration::from_millis(gap_ms)),
        })
        .collect()
}

/// A call costs 2n `sendmsg`s, its call and its return per member,
/// whether or not the next call comes inside the retransmission interval.
pub fn claim(cells: &[Cell]) -> Result<String, String> {
    let floor = 2.0 * REPLICAS as f64;
    let at_floor = cells.iter().all(|c| c.cost.sendmsgs == floor);
    let inside = cells.iter().any(|c| c.gap_ms <= INTERVAL_MS);
    let straddles = inside && cells.iter().any(|c| c.gap_ms > INTERVAL_MS);
    all_hold(
        [
            (at_floor, "2n sendmsgs per call at every gap"),
            (straddles, "gaps either side of the retransmission interval"),
        ],
        cells,
    )?;
    Ok(format!("{floor} sendmsgs per call at every gap"))
}

/// Formats the grid. Panics if the claim does not hold over it, so the
/// golden cannot be regenerated around a regression.
pub fn table() -> String {
    let cells = grid();
    let held = claim(&cells).unwrap_or_else(|why| panic!("pacing: claim violated: {why}"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Pacing (Sec 4.2.2): what a call costs a caller that thinks\n\
         ({REPLICAS}-member troupe, 64-byte echo, one call every G ms; per call, all \
         {} processes)",
        REPLICAS + 1
    );
    let _ = writeln!(
        out,
        "{:<6} | {:>9} {:>12} {:>8}",
        "G ms", "sendmsgs", "retransmits", "cpu ms"
    );
    for Cell { gap_ms, cost } in &cells {
        let _ = writeln!(
            out,
            "{gap_ms:<6} | {:>9.2} {:>12.2} {:>8.1}",
            cost.sendmsgs, cost.retransmits, cost.cpu_ms
        );
    }
    let _ = writeln!(
        out,
        "Shape check: {held}.\n\
         Inside the {INTERVAL_MS} ms interval the next call acknowledges the returns for\n\
         nothing; past it nothing does, and nothing needs to: a one-segment return\n\
         is re-sent only when its caller's call timer asks for it. A callee timing\n\
         its returns would re-send each and be answered (4n = {}).",
        4 * REPLICAS
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(gap_ms: u64, sendmsgs: f64) -> Cell {
        Cell {
            gap_ms,
            cost: PacedResult {
                sendmsgs,
                cpu_ms: 200.0,
                retransmits: 0.0,
            },
        }
    }

    #[test]
    fn claim_fires_on_a_tick_ack_a_please_ack_and_a_raised_floor() {
        let good = [cell(100, 6.0), cell(310, 6.0), cell(1000, 6.0)];
        assert!(claim(&good).is_ok());

        // The caller acknowledging its returns on its own tick.
        let tick = [cell(100, 6.0), cell(310, 7.5), cell(1000, 9.0)];
        assert!(claim(&tick).is_err());

        // The callee re-sending them with *please ack*, and the answers.
        let please_ack = [cell(100, 6.0), cell(1000, 12.0)];
        assert!(claim(&please_ack).is_err());

        let floor = [cell(100, 6.03), cell(1000, 6.0)];
        assert!(claim(&floor).is_err());

        assert!(
            claim(&[cell(100, 6.0)]).is_err(),
            "nothing past the interval"
        );
        assert!(claim(&[cell(1000, 6.0)]).is_err(), "nothing inside it");
    }
}
