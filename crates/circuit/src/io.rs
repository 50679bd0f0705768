//! Netlist text format: a small ISCAS89-flavoured bench dialect so
//! circuits can be saved, diffed and loaded by downstream tools.
//!
//! ```text
//! # comment
//! INPUT(n0)
//! INPUT(n1)
//! n2 = NAND2(n0, n1)
//! n3 = INV(n2)
//! OUTPUT(n3)
//! ```
//!
//! Node names must be `n<index>` with indices in topological order (the
//! writer always produces this; the reader enforces it, mirroring the
//! builder's invariant).

use crate::{Circuit, GateKind, NodeId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors from netlist parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNetlistError {
    /// A line did not match any of the accepted forms.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// An unknown gate kind name.
    UnknownGate {
        /// 1-based line number.
        line: usize,
        /// The gate name found.
        kind: String,
    },
    /// A reference to an undeclared node.
    UnknownNode {
        /// 1-based line number.
        line: usize,
        /// The node name found.
        node: String,
    },
    /// The same node was defined twice.
    DuplicateNode {
        /// 1-based line number.
        line: usize,
        /// The node name.
        node: String,
    },
    /// Structural validation failed after parsing.
    Circuit(crate::CircuitError),
}

impl std::fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseNetlistError::Syntax { line, text } => {
                write!(f, "line {line}: cannot parse '{text}'")
            }
            ParseNetlistError::UnknownGate { line, kind } => {
                write!(f, "line {line}: unknown gate kind '{kind}'")
            }
            ParseNetlistError::UnknownNode { line, node } => {
                write!(f, "line {line}: unknown node '{node}'")
            }
            ParseNetlistError::DuplicateNode { line, node } => {
                write!(f, "line {line}: node '{node}' defined twice")
            }
            ParseNetlistError::Circuit(e) => write!(f, "invalid circuit: {e}"),
        }
    }
}

impl std::error::Error for ParseNetlistError {}

impl From<crate::CircuitError> for ParseNetlistError {
    fn from(e: crate::CircuitError) -> Self {
        ParseNetlistError::Circuit(e)
    }
}

fn kind_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Input => "INPUT",
        GateKind::Buf => "BUF",
        GateKind::Inv => "INV",
        GateKind::Nand2 => "NAND2",
        GateKind::Nor2 => "NOR2",
        GateKind::And2 => "AND2",
        GateKind::Or2 => "OR2",
        GateKind::Xor2 => "XOR2",
        GateKind::Nand3 => "NAND3",
        GateKind::Nor3 => "NOR3",
    }
}

fn kind_from_name(name: &str) -> Option<GateKind> {
    Some(match name {
        "BUF" => GateKind::Buf,
        "INV" | "NOT" => GateKind::Inv,
        "NAND2" | "NAND" => GateKind::Nand2,
        "NOR2" | "NOR" => GateKind::Nor2,
        "AND2" | "AND" => GateKind::And2,
        "OR2" | "OR" => GateKind::Or2,
        "XOR2" | "XOR" => GateKind::Xor2,
        "NAND3" => GateKind::Nand3,
        "NOR3" => GateKind::Nor3,
        _ => return None,
    })
}

/// Serialises a circuit to the bench dialect.
pub fn write_netlist(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    for id in circuit.topological_order() {
        match circuit.kind(id) {
            GateKind::Input => {
                let _ = writeln!(out, "INPUT({id})");
            }
            kind => {
                let fanins: Vec<String> =
                    circuit.fanins(id).iter().map(|f| f.to_string()).collect();
                let _ = writeln!(out, "{id} = {}({})", kind_name(kind), fanins.join(", "));
            }
        }
    }
    for o in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({o})");
    }
    out
}

/// Parses the bench dialect back into a [`Circuit`].
///
/// # Errors
///
/// [`ParseNetlistError`] describing the first problem found, with its
/// line number.
pub fn parse_netlist(name: impl Into<String>, text: &str) -> Result<Circuit, ParseNetlistError> {
    let mut builder = Circuit::builder(name);
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(inner) = strip_call(trimmed, "INPUT") {
            let node = inner.trim().to_string();
            if ids.contains_key(&node) {
                return Err(ParseNetlistError::DuplicateNode { line, node });
            }
            let id = builder.input();
            ids.insert(node, id);
        } else if let Some(inner) = strip_call(trimmed, "OUTPUT") {
            outputs.push((line, inner.trim().to_string()));
        } else if let Some((lhs, rhs)) = trimmed.split_once('=') {
            let target = lhs.trim().to_string();
            if ids.contains_key(&target) {
                return Err(ParseNetlistError::DuplicateNode { line, node: target });
            }
            let rhs = rhs.trim();
            let (kind_str, args) =
                rhs.split_once('(')
                    .ok_or_else(|| ParseNetlistError::Syntax {
                        line,
                        text: trimmed.to_string(),
                    })?;
            let args = args
                .strip_suffix(')')
                .ok_or_else(|| ParseNetlistError::Syntax {
                    line,
                    text: trimmed.to_string(),
                })?;
            let kind =
                kind_from_name(kind_str.trim().to_ascii_uppercase().as_str()).ok_or_else(|| {
                    ParseNetlistError::UnknownGate {
                        line,
                        kind: kind_str.trim().to_string(),
                    }
                })?;
            let mut fanins = Vec::new();
            for a in args.split(',') {
                let node = a.trim();
                let id = ids
                    .get(node)
                    .copied()
                    .ok_or_else(|| ParseNetlistError::UnknownNode {
                        line,
                        node: node.to_string(),
                    })?;
                fanins.push(id);
            }
            let id = builder.gate(kind, &fanins)?;
            ids.insert(target, id);
        } else {
            return Err(ParseNetlistError::Syntax {
                line,
                text: trimmed.to_string(),
            });
        }
    }
    for (line, node) in outputs {
        let id = ids
            .get(&node)
            .copied()
            .ok_or(ParseNetlistError::UnknownNode { line, node })?;
        builder.output(id);
    }
    Ok(builder.build()?)
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    line.strip_prefix(keyword)?
        .trim_start()
        .strip_prefix('(')?
        .strip_suffix(')')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig};

    #[test]
    fn roundtrip_tiny() {
        let text = "\
# tiny
INPUT(a)
INPUT(b)
g = NAND2(a, b)
h = INV(g)
OUTPUT(h)
";
        let c = parse_netlist("tiny", text).unwrap();
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.input_count(), 2);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.kind(NodeId(2)), GateKind::Nand2);
        // Write and re-parse: structurally identical.
        let written = write_netlist(&c);
        let c2 = parse_netlist("tiny2", &written).unwrap();
        assert_eq!(c.node_count(), c2.node_count());
        for id in c.topological_order() {
            assert_eq!(c.kind(id), c2.kind(id));
            assert_eq!(c.fanins(id), c2.fanins(id));
        }
        assert_eq!(c.outputs(), c2.outputs());
    }

    #[test]
    fn roundtrip_generated_circuits() {
        for seed in [1u64, 7, 42] {
            let c = generate("gen", GeneratorConfig::combinational(300, seed)).unwrap();
            let text = write_netlist(&c);
            let back = parse_netlist("gen", &text).unwrap();
            assert_eq!(c.node_count(), back.node_count());
            assert_eq!(c.outputs(), back.outputs());
            for id in c.topological_order() {
                assert_eq!(c.kind(id), back.kind(id), "kind mismatch at {id}");
                assert_eq!(c.fanins(id), back.fanins(id), "fanin mismatch at {id}");
            }
        }
    }

    #[test]
    fn comments_blank_lines_aliases() {
        let text = "\n\
# header comment
INPUT(x)
y = NOT(x)
z = BUF (y)
OUTPUT(z)
";
        let c = parse_netlist("alias", text).unwrap();
        assert_eq!(c.kind(NodeId(1)), GateKind::Inv);
        assert_eq!(c.kind(NodeId(2)), GateKind::Buf);
    }

    #[test]
    fn error_reporting() {
        let bad_syntax = parse_netlist("x", "INPUT(a)\nwhat is this\n");
        assert!(matches!(
            bad_syntax.unwrap_err(),
            ParseNetlistError::Syntax { line: 2, .. }
        ));
        let bad_gate = parse_netlist("x", "INPUT(a)\nb = FROB(a)\nOUTPUT(b)");
        assert!(matches!(
            bad_gate.unwrap_err(),
            ParseNetlistError::UnknownGate { line: 2, .. }
        ));
        let bad_node = parse_netlist("x", "INPUT(a)\nb = INV(zz)\nOUTPUT(b)");
        assert!(matches!(
            bad_node.unwrap_err(),
            ParseNetlistError::UnknownNode { line: 2, .. }
        ));
        let dup = parse_netlist("x", "INPUT(a)\nINPUT(a)\n");
        assert!(matches!(
            dup.unwrap_err(),
            ParseNetlistError::DuplicateNode { line: 2, .. }
        ));
        let dangling_output = parse_netlist("x", "INPUT(a)\nOUTPUT(qq)\n");
        assert!(matches!(
            dangling_output.unwrap_err(),
            ParseNetlistError::UnknownNode { .. }
        ));
        let wrong_arity = parse_netlist("x", "INPUT(a)\nb = NAND2(a)\nOUTPUT(b)");
        assert!(matches!(
            wrong_arity.unwrap_err(),
            ParseNetlistError::Circuit(_)
        ));
        // Display formats mention line numbers.
        let msg = ParseNetlistError::Syntax {
            line: 9,
            text: "zz".into(),
        }
        .to_string();
        assert!(msg.contains("line 9"));
    }

    #[test]
    fn all_gate_kinds_roundtrip_names() {
        for &k in GateKind::logic_kinds() {
            let name = kind_name(k);
            assert_eq!(kind_from_name(name), Some(k), "{name}");
        }
    }
}
