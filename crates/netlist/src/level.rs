//! Levelization: topological ordering of combinational logic.
//!
//! [`Levelization::new`] runs Kahn's algorithm over one flat fanout CSR.
//! A counting sort over the gates' input pins buckets every
//! combinational edge by its driver, so the pass is a few linear sweeps
//! over dense `u32` arrays with no per-gate `Vec`. Edges into DFF
//! `D`-pins are sequential and stay out of the CSR. Each row lists its
//! consumers in gate order, once per consuming pin: the edge order of
//! [`Netlist::fanout`]. The queue, and with it every level and the
//! evaluation order, is therefore the one per-gate fanout lists give.

use crate::error::ensure_u32_indexable;
use crate::gate::GateId;
use crate::netlist::Netlist;

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
    /// never does; see [`Netlist::validate`]), or if its gate count or its
    /// combinational pin count exceeds the `u32` index capacity (see
    /// [`crate::error::ensure_u32_indexable`]).
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.len();
        ensure_u32_indexable(n).unwrap_or_else(|e| panic!("{e}"));
        // Combinational in-degrees and per-driver edge counts. DFFs keep
        // in-degree 0: they are sources, and their D-pin edges are
        // sequential.
        let mut indeg = vec![0u32; n];
        let mut row = vec![0u32; n + 1];
        let mut edges = 0usize;
        for (id, g) in netlist.iter() {
            if g.kind().is_sequential() {
                continue;
            }
            indeg[id.index()] = g.inputs().len() as u32;
            edges += g.inputs().len();
            for &p in g.inputs() {
                row[p.index()] += 1;
            }
        }
        ensure_u32_indexable(edges).unwrap_or_else(|e| panic!("{e}"));
        // Inclusive prefix sums turn `row[d]` into the end of row `d`.
        // Filling consumers in descending gate order, each cursor counting
        // down, leaves every row ascending and `row[d]` at its start.
        let mut end = 0u32;
        for r in &mut row[..n] {
            end += *r;
            *r = end;
        }
        row[n] = end;
        let mut fan = vec![0u32; edges];
        for v in (0..n).rev() {
            let g = netlist.gate(GateId(v));
            if g.kind().is_sequential() {
                continue;
            }
            for &p in g.inputs() {
                row[p.index()] -= 1;
                fan[row[p.index()] as usize] = v as u32;
            }
        }

        // Kahn's algorithm; the order vector doubles as the queue.
        let mut levels = vec![0u32; n];
        let mut order: Vec<GateId> = Vec::with_capacity(n);
        order.extend((0..n).filter(|&v| indeg[v] == 0).map(GateId));
        let mut head = 0;
        while head < order.len() {
            let u = order[head].index();
            head += 1;
            let lv = levels[u] + 1;
            for &v in &fan[row[u] as usize..row[u + 1] as usize] {
                let v = v as usize;
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
        Levelization {
            levels,
            order,
            depth,
        }
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
