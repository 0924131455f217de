//! Gate renumbering transforms for cache-friendly memory layouts.
//!
//! Generated and parsed netlists number gates in creation order, which can
//! scatter a level's gates across the id space. On million-gate designs the
//! compiled simulator walks gates in topological order, so value-array
//! accesses stride unpredictably and thrash the cache. [`levelized`]
//! renumbers gates so ids ascend with logic level: a single evaluation pass
//! then touches `val[0..n]` almost monotonically and fanout/cone walks stay
//! within compact id ranges.
//!
//! Renumbering changes [`GateId`]s, so it is an explicit opt-in transform:
//! fault universes and content hashes must be derived from the *renumbered*
//! netlist, never mixed with ids from the original.

use crate::error::ensure_u32_indexable;
use crate::gate::GateId;
use crate::level::Levelization;
use crate::netlist::Netlist;

/// Renumbers `netlist` so gate ids ascend with logic level.
///
/// Gates on the same level keep their original relative order, so the
/// permutation is deterministic. Returns the renumbered netlist together
/// with the `old id -> new id` mapping (indexed by old id).
///
/// # Panics
///
/// Panics if the netlist exceeds the `u32` index capacity (see
/// [`crate::error::ensure_u32_indexable`]) — callers introducing designs
/// that large should reject them with the typed error first.
pub fn levelized(netlist: &Netlist) -> (Netlist, Vec<u32>) {
    let n = netlist.len();
    ensure_u32_indexable(n).unwrap_or_else(|e| panic!("{e}"));
    let levels = Levelization::new(netlist);
    // Counting sort by level: `next[l]` is the next free id on level
    // `l`, and gates are dealt out in old-id order, so each level keeps
    // its original relative order.
    let level = |g: usize| levels.level(GateId(g)) as usize;
    let mut next = vec![0u32; levels.depth() as usize + 2];
    for g in 0..n {
        next[level(g) + 1] += 1;
    }
    for l in 1..next.len() {
        next[l] += next[l - 1];
    }
    let mut new_of = vec![0u32; n];
    let mut by_level = vec![0u32; n];
    for (g, new_id) in new_of.iter_mut().enumerate() {
        let slot = &mut next[level(g)];
        *new_id = *slot;
        by_level[*slot as usize] = g as u32;
        *slot += 1;
    }
    let remap = |id: GateId| GateId(new_of[id.index()] as usize);
    let mut out = Netlist::with_capacity(netlist.name(), n, netlist.pins().len());
    for &old in &by_level {
        let g = netlist.gate(GateId(old as usize));
        out.push(g.kind(), g.inputs().iter().map(|&i| remap(i)));
    }
    out.inputs = netlist.primary_inputs().iter().map(|&i| remap(i)).collect();
    out.outputs = netlist
        .primary_outputs()
        .iter()
        .map(|(name, g)| (name.clone(), remap(*g)))
        .collect();
    out.names = netlist
        .names
        .iter()
        .filter(|(id, _)| id.index() < n)
        .map(|(&id, name)| (remap(id), name.clone()))
        .collect();
    let renumbered = out
        .finish()
        .expect("levelized renumbering preserves structural validity");
    (renumbered, new_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_logic;

    #[test]
    fn mapping_is_a_permutation() {
        let net = random_logic(8, 200, 4, 7);
        let (renum, map) = levelized(&net);
        assert_eq!(renum.len(), net.len());
        let mut seen = vec![false; net.len()];
        for &m in &map {
            assert!(!seen[m as usize], "duplicate new id {m}");
            seen[m as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permutation_sorts_by_level_then_old_id() {
        for seed in [1, 7, 42] {
            let net = random_logic(8, 300, 4, seed);
            let levels = Levelization::new(&net);
            let mut want: Vec<u32> = (0..net.len() as u32).collect();
            want.sort_by_key(|&g| (levels.level(GateId(g as usize)), g));
            let (_, new_of) = levelized(&net);
            let mut got = vec![0u32; net.len()];
            for (old, &new_id) in new_of.iter().enumerate() {
                got[new_id as usize] = old as u32;
            }
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn ids_ascend_with_level() {
        let net = random_logic(8, 500, 4, 11);
        let (renum, _) = levelized(&net);
        let levels = Levelization::new(&renum);
        let mut prev = 0u32;
        for id in renum.ids() {
            let lv = levels.level(id);
            assert!(lv >= prev, "gate {id} level {lv} below predecessor {prev}");
            prev = lv;
        }
    }

    #[test]
    fn structure_is_preserved() {
        let net = random_logic(6, 120, 3, 3);
        let (renum, map) = levelized(&net);
        // Every gate keeps its kind and its remapped fanin set.
        for old in net.ids() {
            let new_id = GateId(map[old.index()] as usize);
            let g_old = net.gate(old);
            let g_new = renum.gate(new_id);
            assert_eq!(g_old.kind(), g_new.kind());
            let remapped: Vec<GateId> = g_old
                .inputs()
                .iter()
                .map(|&i| GateId(map[i.index()] as usize))
                .collect();
            assert_eq!(remapped, g_new.inputs());
        }
        // Output names survive, drivers follow the mapping.
        assert_eq!(net.primary_outputs().len(), renum.primary_outputs().len());
        for ((n0, g0), (n1, g1)) in net.primary_outputs().iter().zip(renum.primary_outputs()) {
            assert_eq!(n0, n1);
            assert_eq!(map[g0.index()] as usize, g1.index());
        }
        assert_eq!(net.primary_inputs().len(), renum.primary_inputs().len());
    }
}
