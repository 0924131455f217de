//! Scalar reference SEU engine — the equivalence oracle for the
//! bit-parallel path.
//!
//! Two implementations live here:
//!
//! * [`inject_naive`] re-simulates the full warmup prefix for every
//!   injection with a golden/faulty [`SeqSimulator`] pair — the original,
//!   obviously-correct lockstep semantics;
//! * [`run_exhaustive`] / [`run_sampled`] record the golden run **once**
//!   and replay each injection from the snapshotted state, diffing
//!   against the recorded golden outputs. Same verdicts, one golden
//!   simulation instead of one per injection.
//!
//! A regression test pins snapshot-replay ≡ naive; the property tests in
//! `tests/seu_equivalence.rs` pin the bit-parallel engine ≡ this module.

use super::{SeuCampaign, SeuInjection, SeuOutcome, SeuReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescue_netlist::Netlist;
use rescue_sim::seq::SeqSimulator;

/// Golden run recorded once with the scalar simulator: `snapshots[c]` is
/// the state after `c` steps, `outputs[c]` the primary-output vector
/// produced during cycle `c`.
struct ScalarTrace {
    snapshots: Vec<Vec<bool>>,
    outputs: Vec<Vec<bool>>,
}

fn record(netlist: &Netlist, inputs: &[bool], cycles: usize) -> ScalarTrace {
    let mut sim = SeqSimulator::new(netlist);
    let mut snapshots = vec![sim.state().to_vec()];
    let mut outputs = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        outputs.push(sim.step(inputs).expect("width checked by caller"));
        snapshots.push(sim.state().to_vec());
    }
    ScalarTrace { snapshots, outputs }
}

fn inject_from(
    campaign: &SeuCampaign,
    netlist: &Netlist,
    trace: &ScalarTrace,
    inputs: &[bool],
    dff: usize,
    cycle: usize,
) -> SeuInjection {
    let mut faulty = SeqSimulator::new(netlist);
    faulty
        .load_state(&trace.snapshots[cycle])
        .expect("snapshot width matches");
    faulty.flip_state(dff);
    let mut first_mismatch = None;
    for k in 0..campaign.horizon {
        let fo = faulty.step(inputs).expect("width checked");
        if fo != trace.outputs[cycle + k] && first_mismatch.is_none() {
            first_mismatch = Some(k);
        }
    }
    let outcome = if first_mismatch.is_some() {
        SeuOutcome::Failure
    } else if faulty.state() != &trace.snapshots[cycle + campaign.horizon][..] {
        SeuOutcome::Latent
    } else {
        SeuOutcome::Masked
    };
    SeuInjection {
        dff,
        cycle,
        outcome,
        detection_latency: first_mismatch,
    }
}

/// Scalar exhaustive campaign: every flip-flop, every injection cycle in
/// `0..warmup`, replayed from one recorded golden trace.
///
/// # Panics
///
/// Panics if `inputs` has the wrong width or the design has no DFFs.
pub fn run_exhaustive(campaign: &SeuCampaign, netlist: &Netlist, inputs: &[bool]) -> SeuReport {
    let n_dff = netlist.dffs().len();
    assert!(n_dff > 0, "SEU campaign needs flip-flops");
    let cycles = campaign.warmup.max(1);
    let trace = record(netlist, inputs, cycles - 1 + campaign.horizon);
    let mut injections = Vec::with_capacity(n_dff * cycles);
    for dff in 0..n_dff {
        for cycle in 0..cycles {
            injections.push(inject_from(campaign, netlist, &trace, inputs, dff, cycle));
        }
    }
    SeuReport {
        injections,
        dff_count: n_dff,
    }
}

/// Scalar random-sampled campaign of `count` injections; the sample
/// sequence is identical to [`SeuCampaign::run_sampled`].
///
/// # Panics
///
/// Panics if `inputs` has the wrong width or the design has no DFFs.
pub fn run_sampled(
    campaign: &SeuCampaign,
    netlist: &Netlist,
    inputs: &[bool],
    count: usize,
    seed: u64,
) -> SeuReport {
    let n_dff = netlist.dffs().len();
    assert!(n_dff > 0, "SEU campaign needs flip-flops");
    let cycles = campaign.warmup.max(1);
    let trace = record(netlist, inputs, cycles - 1 + campaign.horizon);
    let mut rng = StdRng::seed_from_u64(seed);
    let injections = (0..count)
        .map(|_| {
            let dff = rng.gen_range(0..n_dff);
            let cycle = rng.gen_range(0..cycles);
            inject_from(campaign, netlist, &trace, inputs, dff, cycle)
        })
        .collect();
    SeuReport {
        injections,
        dff_count: n_dff,
    }
}

/// The original per-injection path: golden and faulty simulators both
/// step through the warmup prefix from reset, then run the horizon in
/// lockstep. Kept as ground truth for the snapshot-replay optimization.
///
/// # Panics
///
/// Panics if `inputs` has the wrong width or `dff` is out of range.
pub fn inject_naive(
    campaign: &SeuCampaign,
    netlist: &Netlist,
    inputs: &[bool],
    dff: usize,
    cycle: usize,
) -> SeuInjection {
    let mut golden = SeqSimulator::new(netlist);
    let mut faulty = SeqSimulator::new(netlist);
    for _ in 0..cycle {
        golden.step(inputs).expect("width checked");
        faulty.step(inputs).expect("width checked");
    }
    faulty.flip_state(dff);
    let mut first_mismatch = None;
    for k in 0..campaign.horizon {
        let go = golden.step(inputs).expect("width checked");
        let fo = faulty.step(inputs).expect("width checked");
        if go != fo && first_mismatch.is_none() {
            first_mismatch = Some(k);
        }
    }
    let outcome = if first_mismatch.is_some() {
        SeuOutcome::Failure
    } else if golden.state() != faulty.state() {
        SeuOutcome::Latent
    } else {
        SeuOutcome::Masked
    };
    SeuInjection {
        dff,
        cycle,
        outcome,
        detection_latency: first_mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::generate;

    /// S2 regression: snapshot-replay exhaustive produces exactly the
    /// verdicts of the original full-warmup-per-injection loop.
    #[test]
    fn snapshot_replay_equals_naive_exhaustive() {
        for (net, inputs) in [
            (generate::lfsr(7, &[6, 3]), vec![]),
            (generate::shift_register(5), vec![true]),
        ] {
            let campaign = SeuCampaign::new(6, 7);
            let fast = run_exhaustive(&campaign, &net, &inputs);
            let n_dff = net.dffs().len();
            let mut naive = Vec::new();
            for dff in 0..n_dff {
                for cycle in 0..campaign.warmup.max(1) {
                    naive.push(inject_naive(&campaign, &net, &inputs, dff, cycle));
                }
            }
            assert_eq!(fast.injections(), &naive[..]);
        }
    }

    #[test]
    fn zero_horizon_is_always_latent() {
        let net = generate::lfsr(5, &[4, 2]);
        let campaign = SeuCampaign::new(3, 0);
        let r = run_exhaustive(&campaign, &net, &[]);
        assert_eq!(r.fraction(SeuOutcome::Latent), 1.0);
    }
}
