//! BENCH_4: the real (not modeled) multicast data plane of §4.3.3,
//! measured against the paper-faithful unicast one at each degree of
//! replication — per-call latency and the client's `sendmsg` bill, the
//! m of "m+n messages". Fixed-seed world, so every field is
//! deterministic.

use std::fmt::Write as _;

use crate::testbed::run_circus_echo_mode;

/// Echo calls per cell.
const CALLS: u32 = 500;

/// One `(data plane, replicas)` run.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Troupe-wide multicast, or per-member unicast.
    pub multicast: bool,
    /// Degree of replication.
    pub replicas: usize,
    /// Echo calls made.
    pub calls: u32,
    /// Mean simulated time per call.
    pub real_ms: f64,
    /// `sendmsg` syscalls charged to the client over all calls.
    pub client_sendmsgs: u64,
}

/// Unicast then multicast, each at 1 to 5 replicas.
pub fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for multicast in [false, true] {
        for replicas in 1..=5 {
            let r = run_circus_echo_mode(replicas, CALLS, multicast);
            cells.push(Cell {
                multicast,
                replicas,
                calls: CALLS,
                real_ms: r.real_ms,
                client_sendmsgs: r.client_sendmsgs(),
            });
        }
    }
    cells
}

/// `BENCH_4.json`: one record per cell.
pub fn json(cells: &[Cell]) -> String {
    let mut out = String::new();
    for c in cells {
        let _ = writeln!(
            out,
            "{{\"experiment\":\"bench4\",\"mode\":\"{}\",\"replicas\":{},\
             \"calls\":{},\"real_ms\":{:.2},\"client_sendmsgs\":{}}}",
            if c.multicast { "multicast" } else { "unicast" },
            c.replicas,
            c.calls,
            c.real_ms,
            c.client_sendmsgs,
        );
    }
    out
}

/// A 5-member multicast call costs the client fewer `sendmsg`s than the
/// unicast data plane.
pub fn claim(cells: &[Cell]) -> Result<String, String> {
    let sendmsgs = |multicast: bool| {
        cells
            .iter()
            .find(|c| c.multicast == multicast && c.replicas == 5)
            .map(|c| c.client_sendmsgs)
            .ok_or(format!("no 5-member cell with multicast={multicast}"))
    };
    let (uni, mc) = (sendmsgs(false)?, sendmsgs(true)?);
    if mc >= uni {
        return Err(format!(
            "multicast sendmsg count ({mc}) not below unicast ({uni}) for 5-member calls"
        ));
    }
    Ok(format!(
        "5-member call: {mc} sendmsg (multicast) < {uni} (unicast)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_fires_when_multicast_does_not_save_sendmsgs() {
        let cell = |multicast, client_sendmsgs| Cell {
            multicast,
            replicas: 5,
            calls: 500,
            real_ms: 80.0,
            client_sendmsgs,
        };
        assert!(claim(&[cell(false, 2500), cell(true, 500)]).is_ok());
        assert!(claim(&[cell(false, 2500), cell(true, 2500)]).is_err());
        assert!(claim(&[cell(false, 2500)]).is_err(), "no multicast cell");
    }
}
