//! Permanent fault models: stuck-at, transition-delay, bridging.

use rescue_netlist::GateId;
use std::fmt;

/// Dense index of a fault within a fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultId(pub usize);

impl FaultId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Where a fault sits: a gate output net or an individual input pin.
///
/// Pin faults matter because a fan-out stem and its branches can carry
/// different fault effects; collapsing (see [`crate::collapse`]) removes
/// the redundant ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The output net of a gate.
    Output(GateId),
    /// Input pin `pin` of `gate` (0-based).
    Pin {
        /// Gate owning the pin.
        gate: GateId,
        /// Pin position within the gate's input list.
        pin: usize,
    },
}

impl FaultSite {
    /// The gate this site belongs to.
    pub fn gate(self) -> GateId {
        match self {
            FaultSite::Output(g) => g,
            FaultSite::Pin { gate, .. } => gate,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Output(g) => write!(f, "{g}.out"),
            FaultSite::Pin { gate, pin } => write!(f, "{gate}.in{pin}"),
        }
    }
}

/// The fault behaviour at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Signal permanently reads 0.
    StuckAt0,
    /// Signal permanently reads 1.
    StuckAt1,
    /// Rising transitions arrive one cycle late (slow-to-rise).
    SlowToRise,
    /// Falling transitions arrive one cycle late (slow-to-fall).
    SlowToFall,
}

impl FaultKind {
    /// For stuck-at kinds, the stuck value; `None` for delay kinds.
    pub fn stuck_value(self) -> Option<bool> {
        match self {
            FaultKind::StuckAt0 => Some(false),
            FaultKind::StuckAt1 => Some(true),
            _ => None,
        }
    }

    /// The kind's frozen 2-bit code: `sa0` 0, `sa1` 1, `str` 2, `stf`
    /// 3, in declaration order, so a [`Fault`] key sorts as `(site,
    /// kind)`. The key packs it, collapse indexes its slots with it and
    /// the content hashes write it, so changing a value re-keys every
    /// store and breaks every pinned digest.
    #[inline]
    pub(crate) fn code(self) -> u8 {
        match self {
            FaultKind::StuckAt0 => 0,
            FaultKind::StuckAt1 => 1,
            FaultKind::SlowToRise => 2,
            FaultKind::SlowToFall => 3,
        }
    }

    /// Inverse of [`FaultKind::code`], reading the low two bits of `code`.
    #[inline]
    pub(crate) fn from_code(code: u64) -> FaultKind {
        match code & 3 {
            0 => FaultKind::StuckAt0,
            1 => FaultKind::StuckAt1,
            2 => FaultKind::SlowToRise,
            _ => FaultKind::SlowToFall,
        }
    }

    /// Short mnemonic (`sa0`, `sa1`, `str`, `stf`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FaultKind::StuckAt0 => "sa0",
            FaultKind::StuckAt1 => "sa1",
            FaultKind::SlowToRise => "str",
            FaultKind::SlowToFall => "stf",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single permanent fault: a site plus a behaviour.
///
/// Eight bytes: one `u64` sort key packs the site variant (1 bit), the
/// gate (32 bits), the pin (29 bits, 0 for an output) and the kind (2
/// bits), most significant first. Comparing keys compares `(variant,
/// gate, pin, kind)` lexicographically, which is the order of the site
/// (outputs before pins, then by gate and pin) followed by the kind, so
/// the derived `Ord`, `Eq` and `Hash` act on the key alone. Multi-million
/// fault universes stay a quarter of the size an unpacked
/// `(FaultSite, FaultKind)` takes.
///
/// # Examples
///
/// ```
/// use rescue_faults::{Fault, FaultKind, FaultSite};
/// use rescue_netlist::GateId;
///
/// let f = Fault::stuck_at(FaultSite::Output(GateId(3)), true);
/// assert_eq!(f.kind(), FaultKind::StuckAt1);
/// assert_eq!(f.to_string(), "g3.out/sa1");
/// assert_eq!(std::mem::size_of::<Fault>(), 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fault {
    /// `variant << 63 | gate << 31 | pin << 2 | kind`.
    key: u64,
}

/// Bits of the pin field; a pin index must stay below `2^PIN_BITS`.
const PIN_BITS: u32 = 29;
const KIND_BITS: u32 = 2;
const GATE_SHIFT: u32 = PIN_BITS + KIND_BITS;
const VARIANT_SHIFT: u32 = GATE_SHIFT + 32;
const PIN_MASK: u64 = (1 << PIN_BITS) - 1;
const _: () = assert!(std::mem::size_of::<Fault>() == 8);

impl Fault {
    /// Creates a fault of arbitrary kind.
    ///
    /// # Panics
    ///
    /// Panics when the site's gate index exceeds `u32::MAX` or its pin
    /// index is `2^29` or more.
    pub fn new(site: FaultSite, kind: FaultKind) -> Self {
        let (variant, gate, pin) = match site {
            FaultSite::Output(g) => (0, g.index(), 0),
            FaultSite::Pin { gate, pin } => (1, gate.index(), pin),
        };
        let gate = u32::try_from(gate)
            .unwrap_or_else(|_| panic!("fault gate index {gate} exceeds u32::MAX"));
        assert!(
            (pin as u64) <= PIN_MASK,
            "fault pin index {pin} needs more than {PIN_BITS} bits"
        );
        Fault {
            key: variant << VARIANT_SHIFT
                | u64::from(gate) << GATE_SHIFT
                | (pin as u64) << KIND_BITS
                | u64::from(kind.code()),
        }
    }

    /// Creates a stuck-at fault with the given stuck `value`.
    ///
    /// # Panics
    ///
    /// As [`Fault::new`].
    pub fn stuck_at(site: FaultSite, value: bool) -> Self {
        let kind = if value {
            FaultKind::StuckAt1
        } else {
            FaultKind::StuckAt0
        };
        Fault::new(site, kind)
    }

    /// The fault site.
    #[inline]
    pub fn site(self) -> FaultSite {
        let gate = GateId((self.key >> GATE_SHIFT) as u32 as usize);
        if self.key >> VARIANT_SHIFT == 0 {
            FaultSite::Output(gate)
        } else {
            FaultSite::Pin {
                gate,
                pin: (self.key >> KIND_BITS & PIN_MASK) as usize,
            }
        }
    }

    /// The fault behaviour.
    #[inline]
    pub fn kind(self) -> FaultKind {
        FaultKind::from_code(self.key)
    }
}

impl fmt::Debug for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fault")
            .field("site", &self.site())
            .field("kind", &self.kind())
            .finish()
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.site(), self.kind())
    }
}

/// A resistive bridge between two nets, modelled as wired-AND or wired-OR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BridgingFault {
    /// First bridged net (gate output).
    pub a: GateId,
    /// Second bridged net (gate output).
    pub b: GateId,
    /// Wired-AND (`true`) or wired-OR (`false`) resolution.
    pub wired_and: bool,
}

impl fmt::Display for BridgingFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bridge({},{})/{}",
            self.a,
            self.b,
            if self.wired_and { "AND" } else { "OR" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_forms() {
        let f = Fault::new(
            FaultSite::Pin {
                gate: GateId(2),
                pin: 1,
            },
            FaultKind::StuckAt0,
        );
        assert_eq!(f.to_string(), "g2.in1/sa0");
        assert_eq!(FaultId(4).to_string(), "f4");
        let b = BridgingFault {
            a: GateId(1),
            b: GateId(2),
            wired_and: true,
        };
        assert!(b.to_string().contains("AND"));
    }

    /// Every kind, in declaration (= `Ord`) order.
    const KINDS: [FaultKind; 4] = [
        FaultKind::StuckAt0,
        FaultKind::StuckAt1,
        FaultKind::SlowToRise,
        FaultKind::SlowToFall,
    ];

    fn site(pin_site: bool, gate: usize, pin: usize) -> FaultSite {
        if pin_site {
            FaultSite::Pin {
                gate: GateId(gate),
                pin,
            }
        } else {
            FaultSite::Output(GateId(gate))
        }
    }

    #[test]
    fn debug_and_display_keep_the_field_forms() {
        let out = Fault::stuck_at(FaultSite::Output(GateId(3)), true);
        let pin = Fault::new(site(true, 2, 1), FaultKind::SlowToFall);
        assert_eq!(
            format!("{out:?}"),
            "Fault { site: Output(GateId(3)), kind: StuckAt1 }"
        );
        assert_eq!(
            format!("{pin:?}"),
            "Fault { site: Pin { gate: GateId(2), pin: 1 }, kind: SlowToFall }"
        );
        assert_eq!(
            format!("{out:#?}"),
            "Fault {\n    site: Output(\n        GateId(\n            3,\n        ),\n    ),\n    kind: StuckAt1,\n}"
        );
        assert_eq!(out.to_string(), "g3.out/sa1");
        assert_eq!(pin.to_string(), "g2.in1/stf");
    }

    #[test]
    fn fields_round_trip_at_their_limits() {
        let max_pin = (1 << 29) - 1;
        for pin_site in [false, true] {
            for gate in [0, 1, u32::MAX as usize - 1, u32::MAX as usize] {
                for pin in [0, 1, max_pin - 1, max_pin] {
                    let pin = if pin_site { pin } else { 0 };
                    for kind in KINDS {
                        let f = Fault::new(site(pin_site, gate, pin), kind);
                        assert_eq!(f.site(), site(pin_site, gate, pin));
                        assert_eq!(f.kind(), kind);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn a_gate_past_u32_panics() {
        Fault::stuck_at(FaultSite::Output(GateId(u32::MAX as usize + 1)), false);
    }

    #[test]
    #[should_panic(expected = "needs more than 29 bits")]
    fn a_pin_of_2_pow_29_panics() {
        Fault::new(site(true, 0, 1 << 29), FaultKind::StuckAt0);
    }

    /// Gate and pin values that cluster at both ends of their fields.
    fn field(max: usize) -> impl Strategy<Value = usize> {
        prop_oneof![0..4usize, max - 3..=max, 0..=max]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Ord` and `Eq` on the packed key are the lexicographic order
        /// of `(variant, gate, pin, kind)`, the order the unpacked
        /// `(FaultSite, FaultKind)` derived.
        #[test]
        fn key_order_is_the_tuple_order(
            a in (any::<bool>(), field(u32::MAX as usize), field((1 << 29) - 1), 0..4usize),
            b in (any::<bool>(), field(u32::MAX as usize), field((1 << 29) - 1), 0..4usize),
        ) {
            // An output site has no pin: it reads back as 0.
            let norm = |(v, g, p, k): (bool, usize, usize, usize)| (v, g, if v { p } else { 0 }, k);
            let (a, b) = (norm(a), norm(b));
            let fault = |(v, g, p, k): (bool, usize, usize, usize)| Fault::new(site(v, g, p), KINDS[k]);
            let (fa, fb) = (fault(a), fault(b));
            prop_assert_eq!(fa.cmp(&fb), a.cmp(&b));
            prop_assert_eq!(fa == fb, a == b);
            prop_assert_eq!((fa.site(), fa.kind()).cmp(&(fb.site(), fb.kind())), a.cmp(&b));
            prop_assert_eq!(fa.site(), site(a.0, a.1, a.2));
            prop_assert_eq!(fa.kind(), KINDS[a.3]);
        }
    }

    #[test]
    fn stuck_value() {
        assert_eq!(FaultKind::StuckAt0.stuck_value(), Some(false));
        assert_eq!(FaultKind::StuckAt1.stuck_value(), Some(true));
        assert_eq!(FaultKind::SlowToRise.stuck_value(), None);
    }

    #[test]
    fn site_gate() {
        assert_eq!(FaultSite::Output(GateId(7)).gate(), GateId(7));
        assert_eq!(
            FaultSite::Pin {
                gate: GateId(7),
                pin: 0
            }
            .gate(),
            GateId(7)
        );
    }
}
