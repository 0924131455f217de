//! A minimal structural text format (`.rnl`) for netlist interchange.
//!
//! Grammar (one statement per line, `#` starts a comment):
//!
//! ```text
//! circuit <name>
//! input <name>
//! g<idx> = <kind> g<a> g<b> ...
//! output <name> g<idx>
//! ```
//!
//! Gate indices must appear in increasing dense order; this mirrors the
//! in-memory representation exactly so round-tripping is lossless for
//! structure (internal debug names other than ports are not preserved).

use crate::error::NetlistError;
use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;
use std::fmt::Write as _;

/// Serializes `netlist` to the `.rnl` text format.
///
/// # Examples
///
/// ```
/// use rescue_netlist::{generate, format};
/// let c = generate::c17();
/// let text = format::to_text(&c);
/// let back = format::from_text(&text)?;
/// assert_eq!(back.len(), c.len());
/// # Ok::<(), rescue_netlist::NetlistError>(())
/// ```
pub fn to_text(netlist: &Netlist) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "circuit {}", netlist.name());
    for (id, g) in netlist.iter() {
        match g.kind() {
            GateKind::Input => {
                let name = netlist.gate_name(id).unwrap_or("pi");
                let _ = writeln!(s, "input {name} {id}");
            }
            kind => {
                let _ = write!(s, "{id} = {}", kind.mnemonic());
                for &i in g.inputs() {
                    let _ = write!(s, " {i}");
                }
                s.push('\n');
            }
        }
    }
    for (name, id) in netlist.primary_outputs() {
        let _ = writeln!(s, "output {name} {id}");
    }
    s
}

fn parse_gate_id(tok: &str, line: usize) -> Result<GateId, NetlistError> {
    tok.strip_prefix('g')
        .and_then(|n| n.parse::<usize>().ok())
        .map(GateId)
        .ok_or_else(|| NetlistError::Parse {
            line,
            message: format!("expected gate id like `g3`, found `{tok}`"),
        })
}

/// Parses the `.rnl` text format produced by [`to_text`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input and propagates
/// structural validation errors.
pub fn from_text(text: &str) -> Result<Netlist, NetlistError> {
    let mut net = Netlist::with_capacity("unnamed", 0, 0);
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| NetlistError::Parse {
            line: ln + 1,
            message,
        };
        let gate_id = |tok: &str| parse_gate_id(tok, ln + 1);
        // A new gate takes the next dense id.
        let next_id = |tok: &str, len: usize| match gate_id(tok)? {
            id if id.index() == len => Ok(id),
            _ => Err(err(format!("gate ids must be dense; expected g{len}"))),
        };
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[..] {
            ["circuit", name] => net.name = name.to_string(),
            ["circuit", ..] => return Err(err("circuit takes exactly one name".into())),
            ["input", name, tok] => {
                let id = next_id(tok, net.len())?;
                net.push(GateKind::Input, []);
                net.inputs.push(id);
                net.names.insert(id, name.to_string());
            }
            ["input", ..] => return Err(err("expected `input <name> g<idx>`".into())),
            ["output", name, tok] => net.outputs.push((name.to_string(), gate_id(tok)?)),
            ["output", ..] => return Err(err("expected `output <name> g<idx>`".into())),
            [tok, "=", kind, ref ins @ ..] => {
                next_id(tok, net.len())?;
                let kind = GateKind::from_mnemonic(kind)
                    .ok_or_else(|| err(format!("unknown gate kind `{kind}`")))?;
                let ins = ins
                    .iter()
                    .map(|t| gate_id(t))
                    .collect::<Result<Vec<_>, _>>()?;
                net.push(kind, ins);
            }
            _ => return Err(err("expected `g<idx> = <kind> ...`".into())),
        }
    }
    net.finish()
}

/// Emits the netlist as a structural Verilog module (for interchange
/// with conventional EDA flows).
///
/// Gates map to Verilog primitives (`and`, `nand`, …) and continuous
/// assigns; flip-flops become a single positive-edge `always` block with
/// a synchronous active-high reset.
///
/// # Examples
///
/// ```
/// use rescue_netlist::{generate, format};
/// let v = format::to_verilog(&generate::c17());
/// assert!(v.contains("module c17"));
/// assert!(v.contains("nand"));
/// ```
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut s = String::new();
    let net = |id: GateId| format!("n{}", id.index());
    let mut ports: Vec<String> = vec!["clk".into(), "rst".into()];
    for &pi in netlist.primary_inputs() {
        ports.push(netlist.gate_name(pi).unwrap_or("pi").to_string());
    }
    for (name, _) in netlist.primary_outputs() {
        ports.push(name.clone());
    }
    let _ = writeln!(
        s,
        "module {} ({});",
        sanitize(netlist.name()),
        ports.join(", ")
    );
    let _ = writeln!(s, "  input clk, rst;");
    for &pi in netlist.primary_inputs() {
        let _ = writeln!(s, "  input {};", netlist.gate_name(pi).unwrap_or("pi"));
    }
    for (name, _) in netlist.primary_outputs() {
        let _ = writeln!(s, "  output {name};");
    }
    for (id, g) in netlist.iter() {
        if g.kind() == GateKind::Dff {
            let _ = writeln!(s, "  reg {};", net(id));
        } else {
            let _ = writeln!(s, "  wire {};", net(id));
        }
    }
    // Connect PI wires to port names.
    for &pi in netlist.primary_inputs() {
        let _ = writeln!(
            s,
            "  assign {} = {};",
            net(pi),
            netlist.gate_name(pi).unwrap_or("pi")
        );
    }
    for (id, g) in netlist.iter() {
        let ins: Vec<String> = g.inputs().iter().map(|&p| net(p)).collect();
        match g.kind() {
            GateKind::Input | GateKind::Dff => {}
            GateKind::Const0 => {
                let _ = writeln!(s, "  assign {} = 1'b0;", net(id));
            }
            GateKind::Const1 => {
                let _ = writeln!(s, "  assign {} = 1'b1;", net(id));
            }
            GateKind::Buf => {
                let _ = writeln!(s, "  assign {} = {};", net(id), ins[0]);
            }
            GateKind::Not => {
                let _ = writeln!(s, "  assign {} = ~{};", net(id), ins[0]);
            }
            GateKind::Mux => {
                let _ = writeln!(
                    s,
                    "  assign {} = {} ? {} : {};",
                    net(id),
                    ins[0],
                    ins[2],
                    ins[1]
                );
            }
            kind => {
                let _ = writeln!(
                    s,
                    "  {} u{} ({}, {});",
                    kind.mnemonic(),
                    id.index(),
                    net(id),
                    ins.join(", ")
                );
            }
        }
    }
    if netlist.is_sequential() {
        let _ = writeln!(s, "  always @(posedge clk) begin");
        let _ = writeln!(s, "    if (rst) begin");
        for &dff in netlist.dffs() {
            let _ = writeln!(s, "      {} <= 1'b0;", net(dff));
        }
        let _ = writeln!(s, "    end else begin");
        for &dff in netlist.dffs() {
            let d = netlist.gate(dff).inputs()[0];
            let _ = writeln!(s, "      {} <= {};", net(dff), net(d));
        }
        let _ = writeln!(s, "    end");
        let _ = writeln!(s, "  end");
    }
    for (name, driver) in netlist.primary_outputs() {
        let _ = writeln!(s, "  assign {} = {};", name, net(*driver));
    }
    let _ = writeln!(s, "endmodule");
    s
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn round_trip_c17() {
        let c = generate::c17();
        let text = to_text(&c);
        let back = from_text(&text).unwrap();
        assert_eq!(back.name(), "c17");
        assert_eq!(back.len(), c.len());
        assert_eq!(back.primary_outputs().len(), 2);
        for (id, g) in c.iter() {
            assert_eq!(back.gate(id).kind(), g.kind());
            assert_eq!(back.gate(id).inputs(), g.inputs());
        }
    }

    #[test]
    fn round_trip_sequential() {
        let l = generate::lfsr(5, &[4, 2]);
        let back = from_text(&to_text(&l)).unwrap();
        assert_eq!(back.dffs().len(), 5);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hello\ncircuit t\n\ninput a g0  # pi\ng1 = not g0\noutput y g1\n";
        let n = from_text(text).unwrap();
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn verilog_emission_combinational() {
        let v = to_verilog(&generate::c17());
        assert!(v.contains("module c17 (clk, rst, G1, G2, G3, G6, G7, G22, G23);"));
        assert!(v.contains("output G22;"));
        assert!(v.contains("nand u5"));
        assert!(v.ends_with("endmodule\n"));
        assert!(!v.contains("always"), "combinational: no clock process");
    }

    #[test]
    fn verilog_emission_sequential() {
        let v = to_verilog(&generate::counter(3));
        assert!(v.contains("always @(posedge clk)"));
        assert!(v.contains("reg n0;"));
        assert!(v.contains("if (rst)"));
        // mux/const/not forms appear as assigns
        assert!(v.contains("assign"));
    }

    #[test]
    fn parse_errors() {
        assert!(from_text("input a").is_err());
        assert!(from_text("g0 = frob").is_err());
        assert!(from_text("g5 = not g0").is_err());
        assert!(from_text("circuit a b").is_err());
        assert!(from_text("input a gX").is_err());
        assert!(from_text("g0 = not\n").is_err()); // bad arity via validate
    }

    #[test]
    fn primary_outputs_must_name_a_gate() {
        let text = "circuit t\ninput a g0\ng1 = not g0\noutput y g7\n";
        assert_eq!(
            from_text(text).unwrap_err(),
            NetlistError::UnknownOutput { name: "y".into() }
        );
    }
}
