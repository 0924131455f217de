//! Byte identity of everything derived from a netlist's graph.
//!
//! Each design below, and its `renumber::levelized` image, is reduced to
//! FNV-1a digests of the artifacts the rest of the stack consumes: the
//! compiled arena's wire bytes, the source content hash, the
//! levelization, the stuck-at universe, the collapsed representatives
//! and the `.rnl` text, plus the renumber map itself. The constants were
//! recorded while the netlist still held one input vector per gate; a
//! change to how the graph is stored must leave every one of them
//! untouched.

use rescue_faults::collapse::collapse;
use rescue_faults::content::hash_netlist_source;
use rescue_faults::universe::stuck_at_universe;
use rescue_faults::{Fault, FaultKind, FaultSite};
use rescue_netlist::{format, generate, renumber, GateKind, Netlist};
use rescue_sim::compiled::CompiledNetlist;

/// FNV-1a over bytes.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over 64-bit little-endian words.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv(words.into_iter().flat_map(u64::to_le_bytes))
}

/// Digest of a fault list, from the public fields of each fault.
fn fault_digest(faults: &[Fault]) -> u64 {
    fnv_words(faults.iter().flat_map(|f| {
        let (tag, gate, pin) = match f.site() {
            FaultSite::Output(g) => (0, g.index(), 0),
            FaultSite::Pin { gate, pin } => (1, gate.index(), pin),
        };
        let kind = match f.kind() {
            FaultKind::StuckAt0 => 0,
            FaultKind::StuckAt1 => 1,
            FaultKind::SlowToRise => 2,
            FaultKind::SlowToFall => 3,
        };
        [tag, gate as u64, pin as u64, kind]
    }))
}

/// Digests of one netlist image, in this order: compiled arena bytes,
/// source content hash, levels + order + depth, stuck-at universe,
/// collapsed representatives and `.rnl` text.
fn image(net: &Netlist) -> [u64; 6] {
    let lv = net.levelize();
    let levels = fnv_words(
        net.ids()
            .map(|id| u64::from(lv.level(id)))
            .chain(lv.order().iter().map(|g| g.index() as u64))
            .chain([u64::from(lv.depth())]),
    );
    let universe = stuck_at_universe(net);
    [
        fnv(CompiledNetlist::new(net).to_bytes()),
        fnv(hash_netlist_source(net).0.to_le_bytes()),
        levels,
        fault_digest(&universe),
        fault_digest(collapse(net, &universe).representatives()),
        fnv(format::to_text(net).into_bytes()),
    ]
}

fn designs() -> Vec<Netlist> {
    vec![
        generate::c17(),
        generate::adder(8),
        generate::cla_adder(8),
        generate::multiplier(8),
        generate::alu(4),
        generate::comparator(8),
        generate::mux_tree(4),
        generate::address_decoder(4),
        generate::tmr(&generate::parity(5)),
        generate::lfsr(16, &[15, 14, 12, 3]),
        generate::counter(8),
        generate::shift_register(6),
        generate::control_fsm(),
        generate::random_logic(6, 150, 3, 42),
        generate::random_logic(10, 300, 5, 7),
        generate::random_logic(16, 800, 8, 11),
    ]
}

/// Per design: name, renumber-map digest, then [`image`] of the design
/// as generated and of its level-renumbered image.
type Pinned = (&'static str, u64, [u64; 6], [u64; 6]);

#[rustfmt::skip]
const PINNED: [Pinned; 16] = [
    ("c17", 0x520a84729cad4d0e,
        [0x5c5fe2cdedac9cca, 0xac3cc5a75872b8da, 0x431c3bc47687c1cd, 0x7aed57e0b8eefb44, 0x9570d9357633c781, 0x5b94b6b36937b038],
        [0x5c5fe2cdedac9cca, 0xac3cc5a75872b8da, 0x431c3bc47687c1cd, 0x7aed57e0b8eefb44, 0x9570d9357633c781, 0x5b94b6b36937b038]),
    ("adder8", 0xe6cfa3d874d540fd,
        [0x07524d760ee35b65, 0x2e98057d019ada43, 0xeab1ec23148dbf1c, 0x948d0cc4d1bb86c4, 0x106f2c6b74bafa8c, 0x33f2c75fd2472ed6],
        [0x09613cb4ed2c73cd, 0xbc3699b13cdd186c, 0x70ffa4f2dca2111c, 0x948d0cc4d1bb86c4, 0x6c051bcb29e0caec, 0xdabe9bf8beafc174]),
    ("cla8", 0x393f46d86344175d,
        [0xa295e221e9cf4e61, 0xf79d76cfa11608b2, 0xf915bc9f3d3bdefc, 0xbf6cbe6d413b5bc4, 0x275f81768c9500e0, 0x3af658c9e6c5b56e],
        [0xcd7e79d78d8f1c19, 0x302c281250e41cdb, 0x38ddaa0b0e57817c, 0xaf65073d257885c4, 0x352501acdf961e90, 0xdaa46638f1f2d880]),
    ("mult8", 0x53f89d2fda04f67a,
        [0x04fec9631a1d360d, 0x9a807b9ddfcef131, 0xee63ee451b16f595, 0x671554a1df3d4489, 0x8eca969e5101b74d, 0x3131b353eaa095e3],
        [0x6d6fc8dad96bdd2f, 0xb01ecbeed24c500b, 0x73bb75bf99eceff1, 0x671554a1df3d4489, 0x1b98ffbd4ac35a9f, 0x8fcb73293e92baf1]),
    ("alu4", 0x484b5f1231e37332,
        [0x97c846043d23ab3e, 0xb823cc5241be7a36, 0x2d3c162724401e58, 0xb92f95f08e95db65, 0x2e56499e56f83a69, 0x520dd574d3236864],
        [0xabc734b849d9c127, 0xfa87d78e6cf77f37, 0xdcdfb24c50fe0ef8, 0xbab583c749584ce5, 0x46051d8766a67c92, 0x2532e087ce777158]),
    ("cmp8", 0x6173f8c60ed7dcdd,
        [0xe516c78a2f9326ea, 0xf562e95e6681eabe, 0x6e4d75db19bd631d, 0x4d2d501df1c06104, 0xa88f80ca74abde04, 0x05a3b2c4e9f45385],
        [0xe516c78a2f9326ea, 0xf562e95e6681eabe, 0x6e4d75db19bd631d, 0x4d2d501df1c06104, 0xa88f80ca74abde04, 0x05a3b2c4e9f45385]),
    ("muxtree4", 0xa80d8d00067e56e6,
        [0x3378bd195f5a9067, 0xc3d866cefdc013d9, 0xd714a20c5cb36ba6, 0x219d9d67dedab9a5, 0x385071eebb01d2c4, 0xa80be4548a69ee97],
        [0x3378bd195f5a9067, 0xc3d866cefdc013d9, 0xd714a20c5cb36ba6, 0x219d9d67dedab9a5, 0x385071eebb01d2c4, 0xa80be4548a69ee97]),
    ("decoder4", 0x1714be2f9d589b25,
        [0xb4ab994c55416115, 0x270d32295e252600, 0x51687375d2629fa4, 0x33c35ee1bb1b7525, 0x857b46917fc3ad25, 0xf5a32c7aaa92fd56],
        [0x1954339a79d38b65, 0x23dea7cd06df352c, 0x1e524481ea9c2284, 0x33c35ee1bb1b7525, 0x857b46917fc3ad25, 0x9c0d30f592757e8e]),
    ("tmr_parity5", 0xee27f37053b80264,
        [0xeb3c523c574cc164, 0x041aa3c7ffe0d78e, 0xf30d5d05c2b3fe64, 0x1abbcd2ed3749ce5, 0x532b141a233c5401, 0x961237ad29fdc50b],
        [0x631d325b033d9af0, 0x90375cf1b621a86f, 0x6ffa5609dc274724, 0x1abbcd2ed3749ce5, 0x81c5066567715481, 0x659631624ae1b457]),
    ("lfsr16", 0x812ae344170637d5,
        [0x3897ee998789c34b, 0xaa07f074c3925b82, 0x079cf36df0c16cd5, 0x06693acbdbec3e04, 0x06693acbdbec3e04, 0xc5c14206417dc37e],
        [0x3897ee998789c34b, 0xaa07f074c3925b82, 0x079cf36df0c16cd5, 0x06693acbdbec3e04, 0x06693acbdbec3e04, 0xc5c14206417dc37e]),
    ("counter8", 0x6173f8c60ed7dcdd,
        [0xd4c65f393092a4ea, 0x6bb9f7e57d63cd3b, 0xdf568cc6ae733e95, 0x4f74dc0567375725, 0xae89f48b65d9a125, 0x82f619fda0dad273],
        [0xd4c65f393092a4ea, 0x6bb9f7e57d63cd3b, 0xdf568cc6ae733e95, 0x4f74dc0567375725, 0xae89f48b65d9a125, 0x82f619fda0dad273]),
    ("shift6", 0x8e0ce641141d6c82,
        [0x9a2256e6d258e262, 0x3dd7f10848d68e8c, 0x7806ac1ba34bb322, 0xa26a1a3d298da784, 0xa26a1a3d298da784, 0xe2850045f01e058e],
        [0x9a2256e6d258e262, 0x3dd7f10848d68e8c, 0x7806ac1ba34bb322, 0xa26a1a3d298da784, 0xa26a1a3d298da784, 0xe2850045f01e058e]),
    ("control_fsm", 0x7f1bcb8410dcc384,
        [0x63c9f933bf23489b, 0x31c8b459e0b49c47, 0xb76bb7f1849703c5, 0xfbb7cd6ce5d2a4a5, 0x9232f847e1a12bcb, 0x0dcfa994ea575953],
        [0x65e01814be435a73, 0xb05bb3f1fecf618c, 0x8801948f761bde25, 0xbdaad6d483b71665, 0xcf68615724867be0, 0xc3720bad9f7a479f]),
    ("rand_6x150_42", 0xc6473477224cb685,
        [0x67bea195bb13292a, 0x8ad4ed19df0228f4, 0xd3c1385d9336f400, 0xa1fd8e1dd8adf0e5, 0xedae104f71a33603, 0xd5a848d0ce5cea97],
        [0x73e508a0d2b83333, 0x1cc9092771c4b37e, 0x86a8d8e4856e9220, 0xa1fd8e1dd8adf0e5, 0xdaf98333f1dbd577, 0xf50c350f7836a005]),
    ("rand_10x300_7", 0x2f49c60157f4ad90,
        [0xcd587adb9973b115, 0x1808d7483eabc9e3, 0xf433cd6d4b84f574, 0xb572283f2e927a71, 0x59dbc072cac1657b, 0x6478c2940e7d9d5e],
        [0x4a6f0eae3e6286d3, 0x2884ff525976eca9, 0x7295191d703dc2d8, 0xb572283f2e927a71, 0x407fd9178dbc9bd1, 0xa4126ed6f7f047d7]),
    ("rand_16x800_11", 0xcb4c71d46afb6229,
        [0x9770703a792b65e0, 0x56e5fb35636ff180, 0x3ecb9c22717bc1fb, 0x55e7bbb4dd5c0705, 0xd9570a98039fbe8d, 0x87087bda886965dc],
        [0xa250bd2e27419400, 0xcec89066f8c3eb94, 0x42547952a27ec50b, 0x55e7bbb4dd5c0705, 0x28702693ed4006fc, 0x0d33cdc1d56ce4ff]),
];

#[test]
fn derived_bytes_match_the_pinned_digests() {
    for (net, (name, map, original, levelized)) in designs().iter().zip(PINNED) {
        assert_eq!(net.name(), name);
        let (lev, new_of) = renumber::levelized(net);
        assert_eq!(
            fnv_words(new_of.iter().map(|&m| u64::from(m))),
            map,
            "{name}: renumber map"
        );
        for (image_name, got, want) in [
            ("generated", image(net), original),
            ("levelized", image(&lev), levelized),
        ] {
            let what = ["to_bytes", "source hash", "levelization", "universe"];
            let what = what.iter().chain(&["representatives", "to_text"]);
            for ((g, w), artifact) in got.iter().zip(want).zip(what) {
                assert_eq!(*g, w, "{name} ({image_name}): {artifact}");
            }
        }
    }
}

/// The pinned set exercises every graph shape the CSR must store:
/// flip-flops with feedback, variadic gates, muxes, constants and a pin
/// list that names one driver twice.
#[test]
fn pinned_designs_cover_every_graph_shape() {
    let nets = designs();
    let gates = || nets.iter().flat_map(|n| n.ids().map(move |id| n.gate(id)));
    let kind = |k: GateKind| gates().any(|g| g.kind() == k);
    assert!(kind(GateKind::Dff) && kind(GateKind::Mux));
    assert!(kind(GateKind::Const0) || kind(GateKind::Const1));
    assert!(gates().any(|g| g.inputs().len() > 2), "a variadic gate");
    assert!(
        gates().any(|g| g.inputs().windows(2).any(|w| w[0] == w[1])),
        "a repeated pin"
    );
    assert!(
        nets.iter().any(|n| n.dffs().iter().any(|&q| {
            rescue_netlist::cone::fanin_cone(n, &[n.gate(q).inputs()[0]]).contains(&q)
        })),
        "a flip-flop on a feedback loop"
    );
}
