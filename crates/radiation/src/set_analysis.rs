//! Monte-Carlo single-event-transient (SET) campaigns.
//!
//! Each injection strikes a random combinational gate at a random time
//! with a random pulse width under a random input pattern, then the timed
//! simulator decides whether the pulse reaches a primary output or is
//! masked on the way — the classic masking mechanisms:
//!
//! * **logical masking** — a controlling value blocks the path;
//! * **electrical masking** — the pulse is narrower than a downstream
//!   inertial delay and is filtered;
//! * latching-window masking is layered on top via [`latch_probability`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescue_campaign::{Campaign, CampaignStats};
use rescue_netlist::{GateId, GateKind, Netlist};
use rescue_sim::timed::{SetPulse, TimedSimulator};

/// Outcome of one SET injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOutcome {
    /// The strike produced no transition beyond the struck gate: a
    /// controlling value blocked every path.
    LogicallyMasked,
    /// The pulse travelled but was filtered by inertial delays before
    /// reaching an output.
    ElectricallyMasked,
    /// At least one output pulsed.
    Propagated,
}

/// One injection record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetInjection {
    /// The struck gate.
    pub gate: GateId,
    /// Injected pulse width.
    pub width: u64,
    /// Classification.
    pub outcome: SetOutcome,
    /// Widest pulse observed at any output (0 when masked).
    pub output_width: u64,
}

/// Aggregated campaign result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetReport {
    injections: Vec<SetInjection>,
}

impl SetReport {
    /// All injection records.
    pub fn injections(&self) -> &[SetInjection] {
        &self.injections
    }

    /// Fraction of injections with the given outcome.
    pub fn fraction(&self, outcome: SetOutcome) -> f64 {
        if self.injections.is_empty() {
            return 0.0;
        }
        self.injections
            .iter()
            .filter(|i| i.outcome == outcome)
            .count() as f64
            / self.injections.len() as f64
    }

    /// The SET derating factor: the fraction of strikes that propagate.
    /// Multiplying a raw strike rate by this factor yields the effective
    /// functional failure rate (see [`crate::fit::Fit::derated`]).
    pub fn derating(&self) -> f64 {
        self.fraction(SetOutcome::Propagated)
    }

    /// Per-gate strike statistics `(gate, struck, propagated)` — the
    /// ranking used to pick selective-hardening candidates.
    pub fn per_gate(&self) -> Vec<(GateId, usize, usize)> {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<GateId, (usize, usize)> = BTreeMap::new();
        for inj in &self.injections {
            let e = map.entry(inj.gate).or_insert((0, 0));
            e.0 += 1;
            if inj.outcome == SetOutcome::Propagated {
                e.1 += 1;
            }
        }
        map.into_iter().map(|(g, (s, p))| (g, s, p)).collect()
    }
}

/// A SET report plus the campaign observability record of the run that
/// produced it.
#[derive(Debug, Clone)]
pub struct SetRun {
    /// The (deterministic) strike records.
    pub report: SetReport,
    /// Throughput, worker timing and outcome tally (propagated strikes
    /// count as failures, masked ones as masked).
    pub stats: CampaignStats,
}

/// Monte-Carlo SET campaign runner over one combinational netlist.
///
/// # Examples
///
/// ```
/// use rescue_netlist::generate;
/// use rescue_radiation::set_analysis::{SetCampaign, SetOutcome};
///
/// let adder = generate::adder(4);
/// let campaign = SetCampaign::new(&adder);
/// let report = campaign.run(&adder, 300, 42);
/// assert_eq!(report.injections().len(), 300);
/// let total = report.fraction(SetOutcome::LogicallyMasked)
///     + report.fraction(SetOutcome::ElectricallyMasked)
///     + report.fraction(SetOutcome::Propagated);
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct SetCampaign {
    targets: Vec<GateId>,
    sim: TimedSimulator,
    min_width: u64,
    max_width: u64,
    settle: u64,
}

impl SetCampaign {
    /// Prepares a campaign with unit gate delays and pulse widths 1–8.
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_widths(netlist, 1, 8)
    }

    /// Prepares a campaign with an explicit pulse-width range.
    ///
    /// # Panics
    ///
    /// Panics when `min_width == 0` or `min_width > max_width`.
    pub fn with_widths(netlist: &Netlist, min_width: u64, max_width: u64) -> Self {
        assert!(min_width > 0 && min_width <= max_width, "bad width range");
        let targets: Vec<GateId> = netlist
            .iter()
            .filter(|(_, g)| {
                !matches!(
                    g.kind(),
                    GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                )
            })
            .map(|(id, _)| id)
            .collect();
        let settle = 4 * (netlist.levelize().depth() as u64 + 2) * max_width.max(1);
        SetCampaign {
            targets,
            sim: TimedSimulator::new(netlist),
            min_width,
            max_width,
            settle,
        }
    }

    /// Uses explicit per-gate delays (electrical-masking strength).
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != netlist.len()` or any delay is zero.
    pub fn with_delays(mut self, netlist: &Netlist, delays: Vec<u64>) -> Self {
        self.sim = TimedSimulator::with_delays(netlist, delays);
        self
    }

    /// The strike-eligible gates.
    pub fn targets(&self) -> &[GateId] {
        &self.targets
    }

    /// Runs `injections` random strikes; deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no strike-eligible gates.
    pub fn run(&self, netlist: &Netlist, injections: usize, seed: u64) -> SetReport {
        self.run_on(netlist, injections, seed, |_| true)
    }

    /// Runs strikes restricted to gates passing `filter` (e.g. a single
    /// logic cone) — used by the CDN study and hardening what-ifs.
    ///
    /// # Panics
    ///
    /// Panics if no eligible gate passes the filter.
    pub fn run_on<F: Fn(GateId) -> bool>(
        &self,
        netlist: &Netlist,
        injections: usize,
        seed: u64,
        filter: F,
    ) -> SetReport {
        self.run_campaign(netlist, injections, seed, filter, &Campaign::serial())
            .report
    }

    /// [`Self::run_on`] on the shared [`Campaign`] driver: strike specs
    /// (gate, pulse width, input pattern) are drawn serially from `seed`
    /// in the exact order of the scalar path, then the timed-simulation
    /// classification is handed out to scoped workers. The report is
    /// byte-identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if no eligible gate passes the filter.
    pub fn run_campaign<F: Fn(GateId) -> bool>(
        &self,
        netlist: &Netlist,
        injections: usize,
        seed: u64,
        filter: F,
        campaign: &Campaign,
    ) -> SetRun {
        let _campaign_span = rescue_telemetry::span!("set.campaign", injections = injections);
        let candidates: Vec<GateId> = self
            .targets
            .iter()
            .copied()
            .filter(|&g| filter(g))
            .collect();
        assert!(!candidates.is_empty(), "no strike-eligible gates");
        let mut rng = StdRng::seed_from_u64(seed);
        let n_in = netlist.primary_inputs().len();
        let specs: Vec<(GateId, u64, Vec<bool>)> = (0..injections)
            .map(|_| {
                let gate = candidates[rng.gen_range(0..candidates.len())];
                let width = rng.gen_range(self.min_width..=self.max_width);
                let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen()).collect();
                (gate, width, inputs)
            })
            .collect();
        let run = campaign.run_sharded(
            &specs,
            |_| (),
            |_, _, (gate, width, inputs)| self.inject(netlist, *gate, *width, inputs),
        );
        let mut stats = CampaignStats::from_run(injections, &run);
        for inj in &run.results {
            if inj.outcome == SetOutcome::Propagated {
                stats.tally.failures += 1;
            } else {
                stats.tally.masked += 1;
            }
        }
        SetRun {
            report: SetReport {
                injections: run.results,
            },
            stats,
        }
    }

    /// Injects one strike and classifies the result.
    ///
    /// The logical/electrical distinction is operational: a masked strike
    /// is *electrically* masked when the same strike with a very wide
    /// pulse (immune to inertial filtering) does reach an output, and
    /// *logically* masked when even the wide pulse is blocked.
    pub fn inject(
        &self,
        netlist: &Netlist,
        gate: GateId,
        width: u64,
        inputs: &[bool],
    ) -> SetInjection {
        let output_width = self.output_pulse_width(netlist, gate, width, inputs);
        let outcome = if output_width > 0 {
            SetOutcome::Propagated
        } else {
            let wide = self.settle / 2;
            if self.output_pulse_width(netlist, gate, wide, inputs) > 0 {
                SetOutcome::ElectricallyMasked
            } else {
                SetOutcome::LogicallyMasked
            }
        };
        SetInjection {
            gate,
            width,
            outcome,
            output_width,
        }
    }

    /// Widest pulse any primary output sees for one strike (0 = none).
    fn output_pulse_width(
        &self,
        netlist: &Netlist,
        gate: GateId,
        width: u64,
        inputs: &[bool],
    ) -> u64 {
        let start = self.settle / 4;
        let wave = self
            .sim
            .run(
                netlist,
                inputs,
                &[SetPulse::new(gate, start, width)],
                2 * self.settle + start + width,
            )
            .expect("input width checked by caller");
        let mut output_width = 0u64;
        for (_, out) in netlist.primary_outputs() {
            for (_, w) in wave.pulses_of(*out) {
                output_width = output_width.max(w.max(1));
            }
        }
        output_width
    }
}

/// Latching-window masking: the probability a pulse of `pulse_width`
/// arriving at a flip-flop data input is captured, given the clock period
/// and the latching window (setup + hold) of the flop:
/// `P = min(1, (width + window) / period)`.
///
/// # Panics
///
/// Panics when `period == 0`.
pub fn latch_probability(pulse_width: u64, window: u64, period: u64) -> f64 {
    assert!(period > 0, "clock period must be positive");
    ((pulse_width + window) as f64 / period as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_netlist::{generate, NetlistBuilder};

    #[test]
    fn latch_probability_model() {
        assert_eq!(latch_probability(0, 0, 10), 0.0);
        assert_eq!(latch_probability(5, 0, 10), 0.5);
        assert_eq!(latch_probability(20, 2, 10), 1.0);
        assert!(latch_probability(3, 1, 10) > latch_probability(2, 1, 10));
    }

    #[test]
    fn campaign_is_deterministic() {
        let c = generate::c17();
        let camp = SetCampaign::new(&c);
        let a = camp.run(&c, 100, 5);
        let b = camp.run(&c, 100, 5);
        assert_eq!(a, b);
        let c2 = camp.run(&c, 100, 6);
        assert_ne!(a, c2);
    }

    #[test]
    fn masking_fractions_partition() {
        let net = generate::random_logic(8, 60, 3, 3);
        let camp = SetCampaign::new(&net);
        let r = camp.run(&net, 400, 11);
        let sum = r.fraction(SetOutcome::LogicallyMasked)
            + r.fraction(SetOutcome::ElectricallyMasked)
            + r.fraction(SetOutcome::Propagated);
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(r.derating() > 0.0, "some strikes must propagate");
        assert!(r.derating() < 1.0, "some strikes must be masked");
    }

    #[test]
    fn buffered_path_always_propagates() {
        // A buffer chain has no logical masking and unit delays pass all
        // pulses >= 1.
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let x = b.buf(a);
        let y = b.buf(x);
        b.output("y", y);
        let net = b.finish();
        let camp = SetCampaign::new(&net);
        let r = camp.run(&net, 50, 2);
        assert_eq!(r.fraction(SetOutcome::Propagated), 1.0);
    }

    #[test]
    fn big_delays_mask_electrically() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let x = b.buf(a);
        let y = b.buf(x);
        let z = b.buf(y);
        b.output("z", z);
        let net = b.finish();
        // Last buffer has inertial delay 50, far above max pulse width 8.
        let mut delays = vec![1u64; net.len()];
        delays[z.index()] = 50;
        let camp = SetCampaign::new(&net).with_delays(&net, delays);
        let r = camp.run_on(&net, 50, 2, |g| g == x);
        assert_eq!(r.fraction(SetOutcome::ElectricallyMasked), 1.0);
    }

    #[test]
    fn sharded_set_campaign_matches_serial() {
        let net = generate::random_logic(8, 60, 3, 3);
        let camp = SetCampaign::new(&net);
        let serial = camp.run(&net, 200, 11);
        for workers in [2usize, 4] {
            let run = camp.run_campaign(&net, 200, 11, |_| true, &Campaign::new(0, workers));
            assert_eq!(run.report, serial, "workers = {workers}");
            assert_eq!(run.stats.injections, 200);
            assert_eq!(run.stats.tally.total(), 200);
            assert_eq!(
                run.stats.tally.failures,
                serial
                    .injections()
                    .iter()
                    .filter(|i| i.outcome == SetOutcome::Propagated)
                    .count()
            );
        }
    }

    #[test]
    fn per_gate_ranking_counts() {
        let c = generate::c17();
        let camp = SetCampaign::new(&c);
        let r = camp.run(&c, 200, 9);
        let per = r.per_gate();
        let total: usize = per.iter().map(|(_, s, _)| s).sum();
        assert_eq!(total, 200);
        for (_, struck, prop) in per {
            assert!(prop <= struck);
        }
    }
}
