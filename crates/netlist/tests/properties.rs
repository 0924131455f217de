//! Property-based tests for the netlist substrate.

use proptest::prelude::*;
use rescue_netlist::{cone, format, generate, renumber, GateId, Netlist, NetlistBuilder};

/// A random sequential design: `n_dffs` flip-flops whose D pins close
/// feedback loops through `n_gates` random gates of every kind. Pins are
/// drawn independently from the earlier signals, so a gate often reads
/// one signal on two pins.
fn random_sequential(n_inputs: usize, n_dffs: usize, n_gates: usize, seed: u64) -> Netlist {
    let mut s = seed.max(1);
    let mut below = move |k: usize| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % k as u64) as usize
    };
    let mut b = NetlistBuilder::new("rand_seq");
    let mut sigs = b.inputs("i", n_inputs);
    let dffs: Vec<GateId> = (0..n_dffs).map(|_| b.dff_floating()).collect();
    sigs.extend(&dffs);
    for _ in 0..n_gates {
        let x = sigs[below(sigs.len())];
        let y = sigs[below(sigs.len())];
        let z = sigs[below(sigs.len())];
        let g = match below(9) {
            0 => b.and(x, y),
            1 => b.nand(x, x),
            2 => b.or_n(&[x, y, x]),
            3 => b.nor(x, y),
            4 => b.xor(x, y),
            5 => b.xnor_n(&[x, y, z]),
            6 => b.not(x),
            7 => b.buf(x),
            _ => b.mux(x, y, z),
        };
        sigs.push(g);
    }
    for &q in &dffs {
        b.connect_dff(q, sigs[below(sigs.len())]);
    }
    for k in 1..=4 {
        b.output(format!("o{k}"), sigs[sigs.len() - k]);
    }
    b.finish()
}

/// Levels, order and depth from Kahn's algorithm over
/// [`Netlist::fanout`], one `Vec` per gate: the loop `Levelization::new`
/// ran before its CSR rewrite, kept as the reference it must match.
fn fanout_list_levelization(netlist: &Netlist) -> (Vec<u32>, Vec<GateId>, u32) {
    let n = netlist.len();
    let mut levels = vec![0u32; n];
    let mut indeg = vec![0usize; n];
    let fanout = netlist.fanout();
    let mut queue: Vec<GateId> = Vec::new();
    for (id, g) in netlist.iter() {
        let comb_preds = if g.kind().is_sequential() {
            0
        } else {
            g.inputs().len()
        };
        indeg[id.index()] = comb_preds;
        if comb_preds == 0 {
            queue.push(id);
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(u);
        for &v in &fanout[u.index()] {
            if netlist.gate(v).kind().is_sequential() {
                continue;
            }
            let lv = levels[u.index()] + 1;
            if lv > levels[v.index()] {
                levels[v.index()] = lv;
            }
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                queue.push(v);
            }
        }
    }
    assert_eq!(order.len(), n, "combinational cycle during levelization");
    let depth = levels.iter().copied().max().unwrap_or(0);
    (levels, order, depth)
}

proptest! {
    /// The CSR levelization matches the fanout-list reference exactly on
    /// random combinational designs, their level-renumbered images, and
    /// random sequential designs with DFF feedback and repeated pins.
    #[test]
    fn levelization_matches_fanout_list_reference(
        n_g in 4usize..150,
        n_dffs in 1usize..12,
        seed in 1u64..5000,
    ) {
        let comb = generate::random_logic(6, n_g, 3, seed);
        let (renumbered, _) = renumber::levelized(&comb);
        let seq = random_sequential(4, n_dffs, n_g, seed);
        for net in [&comb, &renumbered, &seq] {
            let lv = net.levelize();
            let (levels, order, depth) = fanout_list_levelization(net);
            prop_assert_eq!(net.ids().map(|g| lv.level(g)).collect::<Vec<_>>(), levels);
            prop_assert_eq!(lv.order(), &order[..]);
            prop_assert_eq!(lv.depth(), depth);
        }
    }

    /// Random logic generation always yields a valid, acyclic netlist.
    #[test]
    fn random_logic_valid(n_in in 2usize..10, n_g in 4usize..120, seed in 1u64..5000) {
        let n_out = 1 + n_g % 4;
        let net = generate::random_logic(n_in, n_g, n_out.min(n_g), seed);
        prop_assert!(net.validate().is_ok());
        let lv = net.levelize();
        // Every gate's level is strictly above its combinational inputs.
        for (id, g) in net.iter() {
            if !g.kind().is_sequential() {
                for &p in g.inputs() {
                    prop_assert!(lv.level(id) > lv.level(p));
                }
            }
        }
    }

    /// Text serialization round-trips structure exactly.
    #[test]
    fn format_round_trip(n_in in 2usize..8, n_g in 4usize..60, seed in 1u64..1000) {
        let net = generate::random_logic(n_in, n_g, 2, seed);
        let back = format::from_text(&format::to_text(&net)).unwrap();
        prop_assert_eq!(back.len(), net.len());
        for (id, g) in net.iter() {
            prop_assert_eq!(back.gate(id).kind(), g.kind());
            prop_assert_eq!(back.gate(id).inputs(), g.inputs());
        }
    }

    /// Fan-in and fan-out cones are consistent: if a is in fanin(b) then b
    /// is in fanout(a).
    #[test]
    fn cones_are_dual(seed in 1u64..500) {
        let net = generate::random_logic(6, 50, 3, seed);
        let outs = net.output_ids();
        let root = outs[0];
        let fin = cone::fanin_cone(&net, &[root]);
        for &g in fin.iter().take(20) {
            let fout = cone::fanout_cone(&net, &[g]);
            prop_assert!(fout.contains(&root), "gate {g} in fanin of {root} but {root} not in its fanout");
        }
    }

    /// Adders grow linearly and always validate.
    #[test]
    fn adders_validate(n in 1usize..24) {
        let a = generate::adder(n);
        prop_assert!(a.validate().is_ok());
        prop_assert_eq!(a.primary_outputs().len(), n + 1);
    }
}

#[test]
fn observable_set_covers_outputs() {
    let net = generate::random_logic(6, 80, 4, 7);
    let obs = cone::observable_set(&net);
    for (_, g) in net.primary_outputs() {
        assert!(obs.contains(g));
    }
}

#[test]
fn tmr_of_parity_has_voters() {
    let inner = generate::parity(8);
    let t = generate::tmr(&inner);
    // 3 copies of the XOR tree plus 5 voter gates per output.
    assert!(t.len() >= 3 * (inner.len() - 8) + 5);
    assert_eq!(t.primary_inputs().len(), 8);
}

#[test]
fn gate_ids_are_dense_and_ordered() {
    let net = generate::c17();
    let ids: Vec<GateId> = net.ids().collect();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(id.index(), i);
    }
}
