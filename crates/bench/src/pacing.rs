//! What a replicated call costs a caller that does not call again at
//! once: `sendmsg`s and CPU per call against the gap between calls.
//!
//! A return is acknowledged by the caller's next call (§4.2.2) when
//! there is one inside the retransmission interval; past it, by one ack
//! from the caller on the tick its call was given — not by the callee
//! re-sending the return with *please ack* and the caller answering,
//! which is what the protocol paid before (3n + n = 12 `sendmsg`s at
//! n = 3 where this table reads 9).

use std::fmt::Write as _;

use simnet::Duration;

use crate::testbed::{run_paced_echo, PacedResult};

/// Degree of replication.
const REPLICAS: usize = 3;

/// Measured calls per gap (even: just past the interval, calls alternate
/// between owing their ack and not).
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

/// A call costs 2n `sendmsg`s while the next call is there to
/// acknowledge its returns, and never more than n on top of that: one
/// ack per member, not a re-sent return and its ack.
pub fn claim(cells: &[Cell]) -> Result<String, String> {
    let n = REPLICAS as f64;
    let (mut within, mut beyond) = (None, None);
    for c in cells {
        let sendmsgs = c.cost.sendmsgs;
        if c.gap_ms <= INTERVAL_MS {
            if sendmsgs != 2.0 * n {
                return Err(format!(
                    "one call every {} ms costs {sendmsgs} sendmsgs, not 2n = {}",
                    c.gap_ms,
                    2.0 * n
                ));
            }
            within = Some(sendmsgs);
        } else if sendmsgs > 3.0 * n {
            return Err(format!(
                "one call every {} ms costs {sendmsgs} sendmsgs, more than 2n + n = {}",
                c.gap_ms,
                3.0 * n
            ));
        } else if c.gap_ms >= INTERVAL_MS + 40 {
            beyond = Some(sendmsgs);
        }
    }
    match (within, beyond) {
        (Some(w), Some(b)) => Ok(format!(
            "{w} sendmsgs per call inside the interval, {b} well past it, never over {}",
            3.0 * n
        )),
        _ => Err("the grid must straddle the retransmission interval".into()),
    }
}

/// Formats the grid. Panics if the claim does not hold over it, so the
/// golden cannot be regenerated around a regression.
pub fn table() -> String {
    let cells = grid();
    let held = claim(&cells).unwrap_or_else(|why| panic!("pacing: claim violated: {why}"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Pacing (Sec 4.2.2): what acknowledging a return costs a caller that thinks\n\
         ({REPLICAS}-member troupe, 64-byte echo, one call every G ms; per call, all \
         {} processes)",
        REPLICAS + 1
    );
    let _ = writeln!(
        out,
        "{:<6} | {:>9} {:>13} {:>12} {:>8}",
        "G ms", "sendmsgs", "acks on tick", "retransmits", "cpu ms"
    );
    for Cell { gap_ms, cost } in &cells {
        let _ = writeln!(
            out,
            "{gap_ms:<6} | {:>9.2} {:>13.2} {:>12.2} {:>8.1}",
            cost.sendmsgs, cost.acks_on_tick, cost.retransmits, cost.cpu_ms
        );
    }
    let _ = writeln!(
        out,
        "Shape check: {held}.\n\
         Inside the {INTERVAL_MS} ms interval the next call acknowledges the returns for\n\
         nothing; past it the caller sends one ack per member on its own call's\n\
         tick, where the callee's timer used to re-send the return and be answered\n\
         (4n = {}).",
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
                acks_on_tick: 0.0,
                retransmits: 0.0,
            },
        }
    }

    #[test]
    fn claim_fires_on_the_parents_twelve_and_on_a_raised_floor() {
        let good = [cell(100, 6.0), cell(310, 7.5), cell(1000, 9.0)];
        assert!(claim(&good).is_ok());

        // A return re-sent with *please ack* and then acknowledged.
        let parent = [cell(100, 6.0), cell(310, 6.0), cell(1000, 12.0)];
        assert!(claim(&parent).is_err());

        let band = [cell(100, 6.0), cell(310, 10.5), cell(1000, 9.0)];
        assert!(claim(&band).is_err());

        let floor = [cell(100, 6.03), cell(1000, 9.0)];
        assert!(claim(&floor).is_err());

        assert!(
            claim(&[cell(100, 6.0)]).is_err(),
            "nothing past the interval"
        );
        assert!(claim(&[cell(1000, 9.0)]).is_err(), "nothing inside it");
    }
}
