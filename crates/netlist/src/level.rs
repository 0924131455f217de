//! Levelization: topological ordering of combinational logic.
//!
//! [`Levelization::with_fanout`] runs Kahn's algorithm over the
//! netlist's one fanout CSR ([`Netlist::fanout`]) and hands the CSR back,
//! so a caller that also needs the fanout (the compiled arena) builds it
//! once. Edges into DFF `D` pins are sequential: Kahn skips them. Each
//! row lists its consumers in gate order, once per consuming pin, so the
//! queue, and with it every level and the evaluation order, is the one
//! per-gate fanout lists give.

use crate::gate::GateId;
use crate::netlist::{Fanout, Netlist};

/// Result of levelizing a [`Netlist`].
///
/// Sources (primary inputs, constants, and DFF outputs) sit at level 0;
/// every other gate is one more than the maximum of its input levels. The
/// [`Levelization::order`] is a valid evaluation order for single-pass
/// combinational simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    levels: Vec<u32>,
    order: Vec<GateId>,
    depth: u32,
}

impl Levelization {
    /// Computes the levelization of `netlist` in `O(gates + pins)`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle (a validated netlist
    /// never does; see [`Netlist::validate`]), or if its gate count
    /// exceeds the `u32` index capacity (see
    /// [`crate::error::ensure_u32_indexable`]).
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_fanout(netlist).0
    }

    /// [`Levelization::new`], also returning the [`Netlist::fanout`] it
    /// ran over. Runs under a `netlist.levelize` span, so every caller
    /// (`renumber::levelized`, the compiled arena) shows the pass.
    ///
    /// # Panics
    ///
    /// As [`Levelization::new`].
    pub fn with_fanout(netlist: &Netlist) -> (Self, Fanout) {
        let _span = rescue_telemetry::span!("netlist.levelize", gates = netlist.len());
        let fanout = netlist.fanout();
        let n = netlist.len();
        // Combinational in-degrees. DFFs keep in-degree 0: they are
        // sources, and their D-pin edges are sequential.
        let mut indeg: Vec<u32> = (0..n)
            .map(|g| {
                if netlist.kinds[g].is_sequential() {
                    0
                } else {
                    netlist.pin_offsets[g + 1] - netlist.pin_offsets[g]
                }
            })
            .collect();

        // Kahn's algorithm; the order vector doubles as the queue.
        let mut levels = vec![0u32; n];
        let mut order: Vec<GateId> = Vec::with_capacity(n);
        order.extend((0..n).filter(|&v| indeg[v] == 0).map(GateId));
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            let lv = levels[u.index()] + 1;
            for v in fanout.of(u) {
                let v = v.index();
                // A combinational consumer's in-degree stays positive
                // until its last edge arrives, so an edge into a gate at
                // in-degree 0 ends at a DFF D pin.
                if indeg[v] == 0 {
                    continue;
                }
                if lv > levels[v] {
                    levels[v] = lv;
                }
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    order.push(GateId(v));
                }
            }
        }
        // DFFs were enqueued as sources (in-degree 0) so all gates are
        // covered unless there is a cycle.
        assert_eq!(order.len(), n, "combinational cycle during levelization");
        let depth = levels.iter().copied().max().unwrap_or(0);
        let lv = Levelization {
            levels,
            order,
            depth,
        };
        (lv, fanout)
    }

    /// The level of `id` (0 for sources).
    pub fn level(&self, id: GateId) -> u32 {
        self.levels[id.index()]
    }

    /// Gates in a valid combinational evaluation order.
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// The maximum level (logic depth) of the design.
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::NetlistBuilder;

    #[test]
    fn levels_of_chain() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let n1 = b.not(a);
        let n2 = b.not(n1);
        let n3 = b.not(n2);
        b.output("y", n3);
        let net = b.finish();
        let lv = net.levelize();
        assert_eq!(lv.level(a), 0);
        assert_eq!(lv.level(n3), 3);
        assert_eq!(lv.depth(), 3);
    }

    #[test]
    fn order_respects_dependencies() {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.and(a, c);
        let y = b.or(x, a);
        b.output("y", y);
        let net = b.finish();
        let lv = net.levelize();
        let pos: Vec<usize> = net
            .ids()
            .map(|id| lv.order().iter().position(|&o| o == id).unwrap())
            .collect();
        assert!(pos[x.index()] > pos[a.index()]);
        assert!(pos[y.index()] > pos[x.index()]);
    }

    #[test]
    fn dff_breaks_levels() {
        let mut b = NetlistBuilder::new("seq");
        let q = b.dff_floating();
        let nq = b.not(q);
        b.connect_dff(q, nq);
        b.output("q", q);
        let net = b.finish();
        let lv = net.levelize();
        assert_eq!(lv.level(q), 0);
        assert_eq!(lv.level(nq), 1);
        assert_eq!(lv.order().len(), 2);
    }

    #[test]
    fn repeated_pins_count_once_per_pin() {
        // `y = AND(x, x)` waits for both edges from `x`; `z` follows.
        let mut b = NetlistBuilder::new("rep");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.and(x, x);
        let z = b.xor(y, x);
        b.output("z", z);
        let net = b.finish();
        let lv = net.levelize();
        assert_eq!(lv.level(y), 2);
        assert_eq!(lv.level(z), 3);
        let order: Vec<usize> = lv.order().iter().map(|g| g.index()).collect();
        assert_eq!(order, [a.index(), x.index(), y.index(), z.index()]);
    }
}
