//! Gate-level graph features for ML-based reliability prediction.
//!
//! Follows the recipe of \[56\]/\[58\]: per-gate structural features
//! (level, fan-in, fan-out, depth-normalized position) plus testability
//! features (COP signal probability and observability), augmented with
//! one-hop neighbourhood means — a single graph-convolution layer worth
//! of context, enough for the de-rating regression experiment (E3).

#![allow(clippy::needless_range_loop)] // matrix-style feature indexing

use rescue_atpg::scoap::Cop;
use rescue_netlist::{GateId, Levelization, Netlist};

/// Number of features per gate produced by [`gate_features`].
pub const FEATURES_PER_GATE: usize = 12;

/// Extracts a feature vector per gate.
///
/// Features (indices):
/// `0` level (normalized), `1` fan-in, `2` fan-out, `3` COP p(1),
/// `4` COP observability, `5` is-output flag,
/// `6..12` one-hop means of features `0..5` over fan-in ∪ fan-out.
pub fn gate_features(netlist: &Netlist) -> Vec<Vec<f64>> {
    let (lv, fanout) = Levelization::with_fanout(netlist);
    let depth = lv.depth().max(1) as f64;
    let cop = Cop::analyze(netlist);
    let is_out = {
        let mut v = vec![false; netlist.len()];
        for (_, g) in netlist.primary_outputs() {
            v[g.index()] = true;
        }
        v
    };
    let base: Vec<Vec<f64>> = netlist
        .iter()
        .map(|(id, g)| {
            vec![
                lv.level(id) as f64 / depth,
                g.inputs().len() as f64 / 4.0,
                fanout.of(id).len() as f64 / 4.0,
                cop.p_one(id),
                cop.p_observe(id),
                is_out[id.index()] as u8 as f64,
            ]
        })
        .collect();
    netlist
        .iter()
        .map(|(id, g)| {
            let mut fv = base[id.index()].clone();
            let neighbours: Vec<GateId> = g.inputs().iter().copied().chain(fanout.of(id)).collect();
            for k in 0..6 {
                let mean = if neighbours.is_empty() {
                    0.0
                } else {
                    neighbours.iter().map(|n| base[n.index()][k]).sum::<f64>()
                        / neighbours.len() as f64
                };
                fv.push(mean);
            }
            fv
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    #[test]
    fn feature_shape() {
        let net = generate::c17();
        let f = gate_features(&net);
        assert_eq!(f.len(), net.len());
        for fv in &f {
            assert_eq!(fv.len(), FEATURES_PER_GATE);
            for &v in fv {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn output_flag_set() {
        let net = generate::c17();
        let f = gate_features(&net);
        for (_, g) in net.primary_outputs() {
            assert_eq!(f[g.index()][5], 1.0);
        }
        let pi = net.primary_inputs()[0];
        assert_eq!(f[pi.index()][5], 0.0);
        assert_eq!(f[pi.index()][0], 0.0, "inputs sit at level 0");
    }

    #[test]
    fn neighbourhood_means_differ_from_self() {
        let net = generate::adder(4);
        let f = gate_features(&net);
        // Some gate must have a neighbourhood mean different from its own
        // value (otherwise aggregation is broken).
        assert!(f
            .iter()
            .any(|fv| (fv[0] - fv[6]).abs() > 1e-9 || (fv[3] - fv[9]).abs() > 1e-9));
    }
}
