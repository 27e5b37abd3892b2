//! BENCH_4: the real (not modeled) multicast data plane of §4.3.3,
//! measured against the paper-faithful unicast one at each degree of
//! replication — per-call latency and the client's `sendmsg` bill, the
//! m of "m+n messages". Fixed-seed world, so every field is
//! deterministic.

use std::fmt::Write as _;

use analysis::linear_fit;
use simnet::Syscall;

use crate::all_hold;
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
                client_sendmsgs: r.client_cpu.count_of(Syscall::SendMsg.index()),
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

/// The client's `sendmsg` bill is exact: n per call with unicast, one
/// per call with multicast, at every degree of replication n; and the
/// flattened bill flattens the real-time slope, multicast's below
/// unicast's (Figure 4.8's per-member growth less the per-member send).
pub fn claim(cells: &[Cell]) -> Result<String, String> {
    let plane = |multicast: bool| -> (Vec<f64>, Vec<f64>) {
        let cells = cells.iter().filter(|c| c.multicast == multicast);
        cells.map(|c| (c.replicas as f64, c.real_ms)).unzip()
    };
    let ((ux, uy), (mx, my)) = (plane(false), plane(true));
    let (uni, mc) = (linear_fit(&ux, &uy).0, linear_fit(&mx, &my).0);
    let per_call = |c: &Cell| if c.multicast { 1 } else { c.replicas as u64 };
    let exact = (cells.iter()).all(|c| c.client_sendmsgs == per_call(c) * u64::from(c.calls));
    let both = ux.len() > 1 && mx.len() > 1;
    all_hold(
        [
            (both, "two or more cells on each plane"),
            (exact, "n sendmsgs per call by unicast and one by multicast"),
            (mc < uni, "a multicast real-time slope below unicast's"),
        ],
        cells,
    )?;
    Ok(format!(
        "n*calls client sendmsgs by unicast, calls by multicast, at every n; \
         real time grows {mc:.2} ms per member by multicast < {uni:.2} by unicast"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 500 calls at 1..=5 members on both planes, at the exact counts and
    /// a slope of 8 (unicast) or 4 (multicast) ms per member.
    fn good() -> Vec<Cell> {
        let cell = |multicast, replicas: usize| Cell {
            multicast,
            replicas,
            calls: 500,
            real_ms: 40.0 + if multicast { 4.0 } else { 8.0 } * replicas as f64,
            client_sendmsgs: 500 * if multicast { 1 } else { replicas as u64 },
        };
        let plane = |m| (1..=5).map(move |n| cell(m, n));
        plane(false).chain(plane(true)).collect()
    }

    #[test]
    fn claim_fires_on_a_wrong_count_a_steeper_multicast_and_a_missing_plane() {
        assert!(claim(&good()).is_ok());
        let doctored: [fn(&mut Vec<Cell>); 5] = [
            |cells| cells[2].client_sendmsgs += 1,
            |cells| cells[7].client_sendmsgs += 1,
            |cells| cells[9].client_sendmsgs = 2500,
            |cells| cells[5..].iter_mut().for_each(|c| c.real_ms *= 3.0),
            |cells| cells.truncate(5),
        ];
        for (i, doctor) in doctored.into_iter().enumerate() {
            let mut cells = good();
            doctor(&mut cells);
            assert!(claim(&cells).is_err(), "doctoring {i}");
        }
    }
}
