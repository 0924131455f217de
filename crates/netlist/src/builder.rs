//! Fluent construction of [`Netlist`]s.

use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;

/// Incremental netlist builder.
///
/// Each call appends one gate and returns its [`GateId`], so circuits are
/// written in natural dataflow order. Flip-flop feedback is handled with
/// [`NetlistBuilder::dff_floating`] + [`NetlistBuilder::connect_dff`].
///
/// # Examples
///
/// A one-bit toggle counter (the classic DFF feedback loop):
///
/// ```
/// use rescue_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("toggle");
/// let q = b.dff_floating();
/// let nq = b.not(q);
/// b.connect_dff(q, nq);
/// b.output("q", q);
/// let net = b.finish();
/// assert!(net.is_sequential());
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    /// The design so far, written straight into the netlist's arrays and
    /// validated by [`NetlistBuilder::try_finish`].
    net: Netlist,
}

impl NetlistBuilder {
    /// Starts an empty design called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            net: Netlist::with_capacity(name, 0, 0),
        }
    }

    /// Declares a named primary input.
    pub fn input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.net.push(GateKind::Input, []);
        self.net.inputs.push(id);
        self.net.names.insert(id, name.into());
        id
    }

    /// Declares `n` primary inputs named `prefix0..prefix{n-1}`.
    pub fn inputs(&mut self, prefix: &str, n: usize) -> Vec<GateId> {
        (0..n).map(|i| self.input(format!("{prefix}{i}"))).collect()
    }

    /// Constant logic 0.
    pub fn const0(&mut self) -> GateId {
        self.net.push(GateKind::Const0, [])
    }

    /// Constant logic 1.
    pub fn const1(&mut self) -> GateId {
        self.net.push(GateKind::Const1, [])
    }

    /// Identity buffer of `a`.
    pub fn buf(&mut self, a: GateId) -> GateId {
        self.net.push(GateKind::Buf, [a])
    }

    /// Inverter of `a`.
    pub fn not(&mut self, a: GateId) -> GateId {
        self.net.push(GateKind::Not, [a])
    }

    /// 2-input AND.
    pub fn and(&mut self, a: GateId, b: GateId) -> GateId {
        self.net.push(GateKind::And, [a, b])
    }

    /// N-input AND (`n >= 2`).
    pub fn and_n(&mut self, ins: &[GateId]) -> GateId {
        self.net.push(GateKind::And, ins.iter().copied())
    }

    /// 2-input NAND.
    pub fn nand(&mut self, a: GateId, b: GateId) -> GateId {
        self.net.push(GateKind::Nand, [a, b])
    }

    /// 2-input OR.
    pub fn or(&mut self, a: GateId, b: GateId) -> GateId {
        self.net.push(GateKind::Or, [a, b])
    }

    /// N-input OR (`n >= 2`).
    pub fn or_n(&mut self, ins: &[GateId]) -> GateId {
        self.net.push(GateKind::Or, ins.iter().copied())
    }

    /// 2-input NOR.
    pub fn nor(&mut self, a: GateId, b: GateId) -> GateId {
        self.net.push(GateKind::Nor, [a, b])
    }

    /// 2-input XOR.
    pub fn xor(&mut self, a: GateId, b: GateId) -> GateId {
        self.net.push(GateKind::Xor, [a, b])
    }

    /// N-input XOR / parity (`n >= 2`).
    pub fn xor_n(&mut self, ins: &[GateId]) -> GateId {
        self.net.push(GateKind::Xor, ins.iter().copied())
    }

    /// 2-input XNOR.
    pub fn xnor(&mut self, a: GateId, b: GateId) -> GateId {
        self.net.push(GateKind::Xnor, [a, b])
    }

    /// N-input XNOR / inverted parity (`n >= 2`).
    pub fn xnor_n(&mut self, ins: &[GateId]) -> GateId {
        self.net.push(GateKind::Xnor, ins.iter().copied())
    }

    /// 2:1 mux: returns `a` when `sel=0`, `b` when `sel=1`.
    pub fn mux(&mut self, sel: GateId, a: GateId, b: GateId) -> GateId {
        self.net.push(GateKind::Mux, [sel, a, b])
    }

    /// D flip-flop registering `d`.
    pub fn dff(&mut self, d: GateId) -> GateId {
        self.net.push(GateKind::Dff, [d])
    }

    /// D flip-flop whose `D` pin will be connected later (self-loop
    /// placeholder), enabling feedback circuits.
    pub fn dff_floating(&mut self) -> GateId {
        let id = GateId(self.net.len());
        self.net.push(GateKind::Dff, [id])
    }

    /// Connects the `D` pin of a flip-flop created with
    /// [`NetlistBuilder::dff_floating`].
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a flip-flop.
    pub fn connect_dff(&mut self, q: GateId, d: GateId) {
        assert!(
            self.net.gate(q).kind().is_sequential(),
            "connect_dff target {q} is not a DFF"
        );
        // A flip-flop has exactly one pin: patch its slot in place.
        let slot = self.net.pin_offsets[q.index()] as usize;
        self.net.pins[slot] = d;
    }

    /// Declares a named primary output driven by `driver`.
    pub fn output(&mut self, name: impl Into<String>, driver: GateId) {
        let name = name.into();
        self.net.names.entry(driver).or_insert_with(|| name.clone());
        self.net.outputs.push((name, driver));
    }

    /// Assigns a debug name to an internal gate.
    pub fn name(&mut self, id: GateId, name: impl Into<String>) {
        self.net.names.insert(id, name.into());
    }

    /// Number of gates currently in the design.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// Returns `true` when no gate has been added yet.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Finalizes and validates the netlist.
    ///
    /// # Panics
    ///
    /// Panics if the construction violates a structural invariant; builder
    /// misuse is a programming error. Use [`NetlistBuilder::try_finish`] for
    /// a fallible variant.
    pub fn finish(self) -> Netlist {
        self.try_finish().expect("invalid netlist construction")
    }

    /// Finalizes, returning any structural error instead of panicking.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::NetlistError`] from validation.
    pub fn try_finish(self) -> Result<Netlist, crate::NetlistError> {
        self.net.finish()
    }
}

/// Convenience: builds an n-bit ripple-carry adder inside an existing
/// builder. Returns `(sum_bits, carry_out)`.
///
/// Exposed because several generators and the CPU datapath reuse it.
pub fn ripple_adder(
    b: &mut NetlistBuilder,
    a: &[GateId],
    x: &[GateId],
    carry_in: GateId,
) -> (Vec<GateId>, GateId) {
    assert_eq!(a.len(), x.len(), "adder operand widths differ");
    let mut carry = carry_in;
    let mut sums = Vec::with_capacity(a.len());
    for (&ai, &xi) in a.iter().zip(x) {
        let p = b.xor(ai, xi);
        let s = b.xor(p, carry);
        let g1 = b.and(ai, xi);
        let g2 = b.and(p, carry);
        carry = b.or(g1, g2);
        sums.push(s);
    }
    (sums, carry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_kinds() {
        let mut b = NetlistBuilder::new("zoo");
        let a = b.input("a");
        let c = b.input("c");
        let k0 = b.const0();
        let k1 = b.const1();
        let n = b.not(a);
        let bf = b.buf(c);
        let g1 = b.and(a, c);
        let g2 = b.nand(a, c);
        let g3 = b.or(n, bf);
        let g4 = b.nor(k0, k1);
        let g5 = b.xor(g1, g2);
        let g6 = b.xnor(g3, g4);
        let m = b.mux(a, g5, g6);
        let q = b.dff(m);
        b.output("q", q);
        let net = b.finish();
        assert_eq!(net.len(), 14);
        assert!(net.is_sequential());
    }

    #[test]
    fn variadic_gates() {
        let mut b = NetlistBuilder::new("wide");
        let ins = b.inputs("i", 5);
        let a = b.and_n(&ins);
        let o = b.or_n(&ins);
        let x = b.xor_n(&ins);
        let f = b.and_n(&[a, o, x]);
        b.output("f", f);
        let net = b.finish();
        assert_eq!(net.primary_inputs().len(), 5);
    }

    #[test]
    #[should_panic(expected = "not a DFF")]
    fn connect_dff_rejects_non_dff() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let n = b.not(a);
        b.connect_dff(n, a);
    }

    #[test]
    fn try_finish_reports_errors() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        // a 1-input AND via and_n misuse
        let g = b.and_n(&[a]);
        b.output("y", g);
        assert!(b.try_finish().is_err());
    }

    #[test]
    fn ripple_adder_structure() {
        let mut b = NetlistBuilder::new("add4");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let ci = b.const0();
        let (s, co) = ripple_adder(&mut b, &a, &x, ci);
        for (i, &bit) in s.iter().enumerate() {
            b.output(format!("s{i}"), bit);
        }
        b.output("co", co);
        let net = b.finish();
        assert_eq!(net.primary_outputs().len(), 5);
    }

    #[test]
    fn empty_builder_flags() {
        let b = NetlistBuilder::new("e");
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
