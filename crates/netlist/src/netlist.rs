//! The [`Netlist`] container and its [`Fanout`].

use crate::error::{ensure_u32_indexable, NetlistError};
use crate::gate::{Gate, GateId, GateKind};
use crate::level::Levelization;
use crate::stats::NetlistStats;
use std::collections::HashMap;

/// A flattened gate-level netlist.
///
/// Gates are stored as one CSR (compressed sparse row) graph indexed by
/// [`GateId`]: a kind per gate, `u32` pin offsets and one flat pin array,
/// so gate `g`'s inputs are `pins()[pin_offsets()[g]..pin_offsets()[g + 1]]`
/// and nothing is allocated per gate. Every gate has exactly one output
/// net identified by its own id. Sequential elements are D flip-flops;
/// combinational cycles are illegal and detected by [`Netlist::validate`].
///
/// Construct netlists with [`crate::NetlistBuilder`] or one of the
/// generators in [`crate::generate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) kinds: Vec<GateKind>,
    pub(crate) pin_offsets: Vec<u32>,
    pub(crate) pins: Vec<GateId>,
    pub(crate) inputs: Vec<GateId>,
    pub(crate) outputs: Vec<(String, GateId)>,
    dffs: Vec<GateId>,
    pub(crate) names: HashMap<GateId, String>,
}

/// The fanout of a [`Netlist`] as one CSR, built by [`Netlist::fanout`]:
/// row `g` lists every gate `g` drives, DFF `D` pins included, in gate
/// order, once per consuming pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fanout {
    offsets: Vec<u32>,
    fan: Vec<u32>,
}

impl Fanout {
    /// Row `g`: the gates `g` drives.
    #[inline]
    pub fn of(&self, g: GateId) -> impl ExactSizeIterator<Item = GateId> + '_ {
        let row = self.offsets[g.index()] as usize..self.offsets[g.index() + 1] as usize;
        self.fan[row].iter().map(|&s| GateId(s as usize))
    }

    /// The CSR arrays `(offsets, consumers)`: row `g` is
    /// `consumers[offsets[g]..offsets[g + 1]]`.
    pub fn into_parts(self) -> (Vec<u32>, Vec<u32>) {
        (self.offsets, self.fan)
    }
}

impl Netlist {
    /// An empty netlist with room for `gates` gates and `pins` pins, for
    /// the crate's constructors to [`Netlist::push`] into and
    /// [`Netlist::finish`].
    pub(crate) fn with_capacity(name: impl Into<String>, gates: usize, pins: usize) -> Self {
        let mut pin_offsets = Vec::with_capacity(gates + 1);
        pin_offsets.push(0);
        Netlist {
            name: name.into(),
            kinds: Vec::with_capacity(gates),
            pin_offsets,
            pins: Vec::with_capacity(pins),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
            names: HashMap::new(),
        }
    }

    /// Appends a gate of `kind` fed by `inputs`, unchecked, and returns
    /// its id.
    pub(crate) fn push(
        &mut self,
        kind: GateKind,
        inputs: impl IntoIterator<Item = GateId>,
    ) -> GateId {
        self.kinds.push(kind);
        self.pins.extend(inputs);
        let end = u32::try_from(self.pins.len()).expect("pin count exceeds the u32 pin offsets");
        self.pin_offsets.push(end);
        GateId(self.kinds.len() - 1)
    }

    /// Lists the flip-flops and validates the finished netlist.
    pub(crate) fn finish(mut self) -> Result<Self, NetlistError> {
        self.dffs = self
            .ids()
            .filter(|g| self.kinds[g.index()].is_sequential())
            .collect();
        self.validate()?;
        Ok(self)
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (including inputs, constants and flip-flops).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` when the netlist contains no gates.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The gate stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn gate(&self, id: GateId) -> Gate<'_> {
        let g = id.index();
        Gate {
            kind: self.kinds[g],
            inputs: &self.pins[self.pin_offsets[g] as usize..self.pin_offsets[g + 1] as usize],
        }
    }

    /// Looks up a gate, returning `None` when out of bounds.
    pub fn get(&self, id: GateId) -> Option<Gate<'_>> {
        (id.index() < self.len()).then(|| self.gate(id))
    }

    /// Iterates over `(GateId, Gate)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, Gate<'_>)> + '_ {
        self.ids().map(|id| (id, self.gate(id)))
    }

    /// All gate ids in storage order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + 'static {
        (0..self.len()).map(GateId)
    }

    /// Every gate's kind, indexed by gate.
    pub fn kinds(&self) -> &[GateKind] {
        &self.kinds
    }

    /// The pin CSR offsets: `len() + 1` entries, starting at 0.
    pub fn pin_offsets(&self) -> &[u32] {
        &self.pin_offsets
    }

    /// Every gate's input pins, concatenated in gate order.
    pub fn pins(&self) -> &[GateId] {
        &self.pins
    }

    /// Primary input gates, in declaration order.
    pub fn primary_inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs as `(name, driver)` pairs, in declaration order.
    pub fn primary_outputs(&self) -> &[(String, GateId)] {
        &self.outputs
    }

    /// Gate ids of the primary output drivers, in declaration order.
    pub fn output_ids(&self) -> Vec<GateId> {
        self.outputs.iter().map(|(_, g)| *g).collect()
    }

    /// All D flip-flops, in storage order.
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Returns `true` when the design contains at least one flip-flop.
    pub fn is_sequential(&self) -> bool {
        !self.dffs.is_empty()
    }

    /// The user-facing name of a gate, if one was assigned.
    pub fn gate_name(&self, id: GateId) -> Option<&str> {
        self.names.get(&id).map(|s| s.as_str())
    }

    /// Finds a gate by its assigned name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.names
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .map(|(id, _)| *id)
    }

    /// Builds the fanout CSR (see [`Fanout`]) by a counting sort over the
    /// pin array, `O(gates + pins)`. Nothing is cached: every call builds
    /// it anew.
    ///
    /// # Panics
    ///
    /// Panics if the gate count exceeds the `u32` index capacity (see
    /// [`crate::error::ensure_u32_indexable`]).
    pub fn fanout(&self) -> Fanout {
        let n = self.len();
        ensure_u32_indexable(n).unwrap_or_else(|e| panic!("{e}"));
        // Inclusive prefix sums of the per-driver counts leave
        // `offsets[d]` at the end of row `d`. Filling consumers in
        // descending gate order, each cursor counting down, leaves every
        // row ascending and `offsets[d]` at its start.
        let mut offsets = vec![0u32; n + 1];
        for p in &self.pins {
            offsets[p.index()] += 1;
        }
        let mut end = 0u32;
        for o in &mut offsets[..n] {
            end += *o;
            *o = end;
        }
        offsets[n] = end;
        let mut fan = vec![0u32; self.pins.len()];
        for g in (0..n).rev() {
            for p in self.gate(GateId(g)).inputs() {
                let at = &mut offsets[p.index()];
                *at -= 1;
                fan[*at as usize] = g as u32;
            }
        }
        Fanout { offsets, fan }
    }

    /// Validates structural invariants: reference bounds, arity, primary
    /// inputs and outputs, and combinational acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let n = self.len();
        for (id, g) in self.iter() {
            if let Some(&missing) = g.inputs().iter().find(|p| p.index() >= n) {
                return Err(NetlistError::DanglingInput { gate: id, missing });
            }
            let found = g.inputs().len();
            match g.kind().fixed_arity() {
                Some(want) if found != want => {
                    return Err(NetlistError::BadArity {
                        gate: id,
                        expected: Some(want),
                        found,
                    })
                }
                None if found < 2 => {
                    return Err(NetlistError::BadArity {
                        gate: id,
                        expected: None,
                        found,
                    })
                }
                _ => {}
            }
        }
        if let Some(&gate) = self
            .inputs
            .iter()
            .find(|&&pi| self.get(pi).map(Gate::kind) != Some(GateKind::Input))
        {
            return Err(NetlistError::UnknownInput { gate });
        }
        if let Some((name, _)) = self.outputs.iter().find(|(_, g)| g.index() >= n) {
            return Err(NetlistError::UnknownOutput { name: name.clone() });
        }
        // Ids in topological order prove the design acyclic in one
        // linear pass: a cycle needs an edge from some combinational gate
        // to an id at or above its own that is not a DFF output (those
        // cut the graph). Generated and levelized netlists pass here.
        let ascending = self.iter().all(|(id, g)| {
            g.kind().is_sequential()
                || g.inputs()
                    .iter()
                    .all(|p| p.index() < id.index() || self.kinds[p.index()].is_sequential())
        });
        if ascending {
            return Ok(());
        }
        // Otherwise find the first cycle by DFS, cutting edges at DFF
        // outputs. 0 = white, 1 = grey, 2 = black.
        let mut colour = vec![0u8; n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if colour[start] != 0 {
                continue;
            }
            stack.push((start, 0));
            colour[start] = 1;
            while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
                let g = self.gate(GateId(node));
                // DFF outputs act as pseudo-inputs: do not traverse into them.
                let preds: &[GateId] = if g.kind().is_sequential() {
                    &[]
                } else {
                    g.inputs()
                };
                if *edge < preds.len() {
                    let next = preds[*edge].index();
                    *edge += 1;
                    match colour[next] {
                        0 => {
                            colour[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => return Err(NetlistError::CombinationalLoop { gate: GateId(next) }),
                        _ => {}
                    }
                } else {
                    colour[node] = 2;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Computes a [`Levelization`] (topological order and per-gate level).
    ///
    /// DFF outputs are treated as level-0 sources so sequential designs
    /// levelize cleanly.
    pub fn levelize(&self) -> Levelization {
        Levelization::new(self)
    }

    /// Summary statistics for reports.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and(a, c);
        b.output("y", x);
        b.finish()
    }

    /// Seals gates given as `(kind, pins)` with `inputs` as the PI list.
    fn from_gates(
        gates: &[(GateKind, &[usize])],
        inputs: &[usize],
    ) -> Result<Netlist, NetlistError> {
        let mut net = Netlist::with_capacity("t", 0, 0);
        for &(kind, pins) in gates {
            net.push(kind, pins.iter().map(|&p| GateId(p)));
        }
        net.inputs = inputs.iter().map(|&p| GateId(p)).collect();
        net.finish()
    }

    #[test]
    fn basic_accessors() {
        let n = tiny();
        assert_eq!(n.name(), "tiny");
        assert_eq!(n.len(), 3);
        assert!(!n.is_empty());
        assert_eq!(n.primary_inputs().len(), 2);
        assert_eq!(n.primary_outputs().len(), 1);
        assert_eq!(n.output_ids().len(), 1);
        assert!(!n.is_sequential());
        assert_eq!(n.find("a"), Some(GateId(0)));
        assert_eq!(n.gate_name(GateId(0)), Some("a"));
        assert!(n.find("zzz").is_none());
        assert_eq!(n.pin_offsets(), &[0, 0, 0, 2]);
        assert_eq!(n.pins(), &[GateId(0), GateId(1)]);
        assert_eq!(n.get(GateId(2)), Some(n.gate(GateId(2))));
        assert_eq!(n.get(GateId(3)), None);
    }

    #[test]
    fn fanout_lists() {
        let n = tiny();
        let fo = n.fanout();
        assert_eq!(fo.of(GateId(0)).collect::<Vec<_>>(), vec![GateId(2)]);
        assert_eq!(fo.of(GateId(1)).collect::<Vec<_>>(), vec![GateId(2)]);
        assert_eq!(fo.of(GateId(2)).len(), 0);
    }

    #[test]
    fn fanout_keeps_every_pin_and_dff_edges_in_gate_order() {
        use GateKind::*;
        // g2 = AND(g0, g0), g3 = DFF(g0), g4 = OR(g2, g0)
        let gates: &[(GateKind, &[usize])] = &[
            (Input, &[]),
            (Input, &[]),
            (And, &[0, 0]),
            (Dff, &[0]),
            (Or, &[2, 0]),
        ];
        let n = from_gates(gates, &[0, 1]).unwrap();
        let (offsets, fan) = n.fanout().into_parts();
        assert_eq!(offsets, [0, 4, 4, 5, 5, 5]);
        assert_eq!(fan, [2, 2, 3, 4, 4]);
    }

    #[test]
    fn validate_catches_dangling() {
        let err = from_gates(&[(GateKind::Not, &[9])], &[]).unwrap_err();
        assert!(matches!(err, NetlistError::DanglingInput { .. }));
    }

    #[test]
    fn validate_catches_arity() {
        let gates: &[(GateKind, &[usize])] = &[(GateKind::Input, &[]), (GateKind::And, &[0])];
        let err = from_gates(gates, &[0]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn validate_catches_comb_loop() {
        let gates: &[(GateKind, &[usize])] = &[
            (GateKind::Input, &[]),
            (GateKind::And, &[0, 2]),
            (GateKind::Not, &[1]),
        ];
        let err = from_gates(gates, &[0]).unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn validate_catches_bad_primary_inputs() {
        let gates: &[(GateKind, &[usize])] = &[(GateKind::Input, &[]), (GateKind::Not, &[0])];
        for pis in [&[5][..], &[1]] {
            let err = from_gates(gates, pis).unwrap_err();
            assert_eq!(
                err,
                NetlistError::UnknownInput {
                    gate: GateId(pis[0])
                }
            );
        }
    }

    #[test]
    fn dff_feedback_is_legal() {
        // counter bit: q -> not -> d
        let gates: &[(GateKind, &[usize])] = &[(GateKind::Dff, &[1]), (GateKind::Not, &[0])];
        let n = from_gates(gates, &[]).unwrap();
        assert!(n.is_sequential());
        assert_eq!(n.dffs(), &[GateId(0)]);
    }
}
