//! Cone-of-influence / fan-in / fan-out analysis.
//!
//! These traversals power fault-list pruning (dynamic-slicing-style fault
//! injection acceleration, paper Section III.D) and observability reasoning
//! in the ATPG crate.

use crate::gate::GateId;
use crate::netlist::Netlist;

/// Computes the transitive fan-in cone of `roots` (the set of gates whose
/// value can influence any root), including the roots themselves.
///
/// DFFs are traversed through their `D` pin, so the cone is the full
/// sequential cone of influence.
///
/// # Examples
///
/// ```
/// use rescue_netlist::{NetlistBuilder, cone::fanin_cone};
///
/// let mut b = NetlistBuilder::new("c");
/// let a = b.input("a");
/// let x = b.input("x");
/// let n = b.not(a);
/// let y = b.and(n, x);
/// b.output("y", y);
/// let net = b.finish();
/// let cone = fanin_cone(&net, &[y]);
/// assert_eq!(cone.len(), 4);
/// ```
pub fn fanin_cone(netlist: &Netlist, roots: &[GateId]) -> Vec<GateId> {
    reach(netlist, roots, |g| netlist.gate(g).inputs().iter().copied())
}

/// Computes the transitive fan-out cone of `roots` (every gate whose value
/// may be affected by a root), including the roots.
pub fn fanout_cone(netlist: &Netlist, roots: &[GateId]) -> Vec<GateId> {
    let fo = netlist.fanout();
    reach(netlist, roots, |g| fo.of(g))
}

/// Combinational-only fan-out cone: every gate whose *this-cycle* value
/// may change when a root's value changes. Traversal stops at DFF `D`
/// pins (a DFF's output holds state, so a fault effect only crosses it at
/// the next clock edge); roots are always included, so a DFF root's
/// downstream combinational logic is covered.
///
/// These are the gates the packed detection walk in `rescue-faults` can
/// change from a fault site within one pattern word.
pub fn comb_fanout_cone(netlist: &Netlist, roots: &[GateId]) -> Vec<GateId> {
    let fo = netlist.fanout();
    let comb = |s: &GateId| !netlist.gate(*s).kind().is_sequential();
    reach(netlist, roots, |g| fo.of(g).filter(comb))
}

/// Combinational-only fan-in cone: stops at DFF outputs (the "slice" used
/// for per-cycle fault-effect reasoning).
pub fn comb_fanin_cone(netlist: &Netlist, roots: &[GateId]) -> Vec<GateId> {
    reach(netlist, roots, |g| {
        let stop = netlist.gate(g).kind().is_sequential() && !roots.contains(&g);
        let ins = if stop { &[] } else { netlist.gate(g).inputs() };
        ins.iter().copied()
    })
}

/// Gates that can reach at least one primary output (observable gates).
///
/// A gate outside this set is structurally unobservable: any fault on it is
/// *safe* in the ISO 26262 sense (paper Section III.D).
pub fn observable_set(netlist: &Netlist) -> Vec<GateId> {
    let outs = netlist.output_ids();
    fanin_cone(netlist, &outs)
}

/// Every gate reachable from `roots` along the edges `next` yields,
/// roots included, in id order.
fn reach<I: Iterator<Item = GateId>>(
    netlist: &Netlist,
    roots: &[GateId],
    mut next: impl FnMut(GateId) -> I,
) -> Vec<GateId> {
    let mut seen = vec![false; netlist.len()];
    let mut stack: Vec<GateId> = roots.to_vec();
    for &r in roots {
        seen[r.index()] = true;
    }
    while let Some(g) = stack.pop() {
        for s in next(g) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    netlist.ids().filter(|g| seen[g.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn fanout_cone_reaches_downstream() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let n = b.not(a);
        let y = b.and(n, x);
        let z = b.or(y, x);
        b.output("z", z);
        let net = b.finish();
        let cone = fanout_cone(&net, &[a]);
        assert!(cone.contains(&n));
        assert!(cone.contains(&y));
        assert!(cone.contains(&z));
        assert!(!cone.contains(&x));
    }

    #[test]
    fn unobservable_gate_detected() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let dead = b.not(x); // drives nothing
        let y = b.buf(a);
        b.output("y", y);
        let net = b.finish();
        let obs = observable_set(&net);
        assert!(!obs.contains(&dead));
        assert!(obs.contains(&a));
    }

    #[test]
    fn comb_fanout_cone_stops_at_dff() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let n = b.not(a);
        let q = b.dff(n);
        let y = b.buf(q);
        b.output("y", y);
        let net = b.finish();
        let cone = comb_fanout_cone(&net, &[a]);
        assert!(cone.contains(&n));
        assert!(!cone.contains(&q), "cone must stop at the DFF D-pin");
        assert!(!cone.contains(&y), "nothing past the DFF this cycle");
        let seq = fanout_cone(&net, &[a]);
        assert!(seq.contains(&y), "sequential cone crosses the DFF");
        // A DFF root still reaches its downstream combinational logic.
        let from_dff = comb_fanout_cone(&net, &[q]);
        assert!(from_dff.contains(&q) && from_dff.contains(&y));
    }

    #[test]
    fn comb_cone_stops_at_dff() {
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let n = b.not(a);
        let q = b.dff(n);
        let y = b.buf(q);
        b.output("y", y);
        let net = b.finish();
        let cone = comb_fanin_cone(&net, &[y]);
        assert!(cone.contains(&q));
        assert!(!cone.contains(&n), "cone must stop at the DFF boundary");
        let seq = fanin_cone(&net, &[y]);
        assert!(seq.contains(&n), "sequential cone crosses the DFF");
    }
}
