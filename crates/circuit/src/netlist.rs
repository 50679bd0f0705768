//! Netlist data structures: a combinational DAG of logic gates.

use std::fmt;

/// Index of a node (primary input or gate) in a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Logic function of a node.
///
/// `Input` nodes model primary inputs *and* (for the unrolled s-series
/// benchmarks) flip-flop outputs; they have no fanins and zero intrinsic
/// delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input / register output (no fanins).
    Input,
    /// Buffer (1 fanin).
    Buf,
    /// Inverter (1 fanin).
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 3-input NAND.
    Nand3,
    /// 3-input NOR.
    Nor3,
}

impl GateKind {
    /// Number of fanin pins this gate kind expects.
    pub fn fanin_count(&self) -> usize {
        match self {
            GateKind::Input => 0,
            GateKind::Buf | GateKind::Inv => 1,
            GateKind::Nand2 | GateKind::Nor2 | GateKind::And2 | GateKind::Or2 | GateKind::Xor2 => 2,
            GateKind::Nand3 | GateKind::Nor3 => 3,
        }
    }

    /// Every kind, `Input` first, in [`index`](Self::index) order.
    pub const ALL: [GateKind; 10] = [
        GateKind::Input,
        GateKind::Buf,
        GateKind::Inv,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
        GateKind::Nand3,
        GateKind::Nor3,
    ];

    /// Position of the kind in [`GateKind::ALL`]: a dense index for
    /// per-kind tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// All logic (non-input) kinds.
    pub fn logic_kinds() -> &'static [GateKind] {
        &Self::ALL[1..]
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
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
        };
        f.write_str(s)
    }
}

/// Errors constructing or validating a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate references a fanin at or after itself (the builder requires
    /// nodes in topological order) or out of range.
    InvalidFanin {
        /// The gate being added.
        node: u32,
        /// The offending fanin reference.
        fanin: u32,
    },
    /// The fanin list length does not match the gate kind.
    FaninCountMismatch {
        /// The gate being added.
        node: u32,
        /// Expected pins.
        expected: usize,
        /// Supplied pins.
        got: usize,
    },
    /// An output was declared for a node that does not exist.
    UnknownOutput {
        /// The dangling node reference.
        node: u32,
    },
    /// The circuit has no primary output.
    NoOutputs,
    /// The circuit has no nodes at all.
    Empty,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidFanin { node, fanin } => {
                write!(f, "node n{node} references invalid fanin n{fanin}")
            }
            CircuitError::FaninCountMismatch {
                node,
                expected,
                got,
            } => {
                write!(f, "node n{node} expects {expected} fanins, got {got}")
            }
            CircuitError::UnknownOutput { node } => {
                write!(f, "output references unknown node n{node}")
            }
            CircuitError::NoOutputs => write!(f, "circuit declares no primary outputs"),
            CircuitError::Empty => write!(f, "circuit has no nodes"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// A combinational gate-level circuit.
///
/// Nodes are stored in topological order (fanins always precede their
/// consumers), which the builder enforces; timing analysis can therefore
/// propagate arrival times with a single forward sweep.
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    kinds: Vec<GateKind>,
    /// Flattened fanin lists.
    fanins: Vec<Vec<NodeId>>,
    /// Fanout adjacency (derived).
    fanouts: Vec<Vec<NodeId>>,
    outputs: Vec<NodeId>,
    input_count: usize,
}

impl Circuit {
    /// Starts building a circuit with the given name.
    pub fn builder(name: impl Into<String>) -> CircuitBuilder {
        CircuitBuilder {
            name: name.into(),
            kinds: Vec::new(),
            fanins: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Circuit name (e.g. `"c1908"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count (inputs + gates).
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of logic gates (excluding primary inputs) — the `N_g` of
    /// Table 1.
    pub fn gate_count(&self) -> usize {
        self.node_count() - self.input_count
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Primary outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Kind of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn kind(&self, id: NodeId) -> GateKind {
        self.kinds[id.index()]
    }

    /// Fanins of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        &self.fanins[id.index()]
    }

    /// Fanouts of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// All nodes in topological order.
    pub fn topological_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over the primary-input nodes.
    pub fn inputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topological_order()
            .filter(move |&id| self.kind(id) == GateKind::Input)
    }

    /// Logic depth: the longest input-to-output path measured in gates.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.node_count()];
        let mut max = 0;
        for id in self.topological_order() {
            let l = self
                .fanins(id)
                .iter()
                .map(|f| level[f.index()] + 1)
                .max()
                .unwrap_or(0);
            level[id.index()] = l;
            max = max.max(l);
        }
        max
    }

    /// Per-node logic level (0 for primary inputs).
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.node_count()];
        for id in self.topological_order() {
            level[id.index()] = self
                .fanins(id)
                .iter()
                .map(|f| level[f.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        level
    }
}

/// Builder enforcing topological construction of a [`Circuit`].
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    kinds: Vec<GateKind>,
    fanins: Vec<Vec<NodeId>>,
    outputs: Vec<NodeId>,
}

impl CircuitBuilder {
    /// Adds a primary input, returning its id.
    pub fn input(&mut self) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(GateKind::Input);
        self.fanins.push(Vec::new());
        id
    }

    /// Adds a gate with the given fanins, returning its id.
    ///
    /// # Errors
    ///
    /// [`CircuitError::FaninCountMismatch`] or
    /// [`CircuitError::InvalidFanin`] (forward or out-of-range references).
    pub fn gate(&mut self, kind: GateKind, fanins: &[NodeId]) -> Result<NodeId, CircuitError> {
        let id = NodeId(self.kinds.len() as u32);
        if fanins.len() != kind.fanin_count() {
            return Err(CircuitError::FaninCountMismatch {
                node: id.0,
                expected: kind.fanin_count(),
                got: fanins.len(),
            });
        }
        for f in fanins {
            if f.0 >= id.0 {
                return Err(CircuitError::InvalidFanin {
                    node: id.0,
                    fanin: f.0,
                });
            }
        }
        self.kinds.push(kind);
        self.fanins.push(fanins.to_vec());
        Ok(id)
    }

    /// Declares a primary output.
    pub fn output(&mut self, node: NodeId) -> &mut Self {
        self.outputs.push(node);
        self
    }

    /// Finalises the circuit.
    ///
    /// # Errors
    ///
    /// [`CircuitError::Empty`], [`CircuitError::NoOutputs`] or
    /// [`CircuitError::UnknownOutput`].
    pub fn build(self) -> Result<Circuit, CircuitError> {
        if self.kinds.is_empty() {
            return Err(CircuitError::Empty);
        }
        if self.outputs.is_empty() {
            return Err(CircuitError::NoOutputs);
        }
        for o in &self.outputs {
            if o.index() >= self.kinds.len() {
                return Err(CircuitError::UnknownOutput { node: o.0 });
            }
        }
        let mut fanouts = vec![Vec::new(); self.kinds.len()];
        for (i, fs) in self.fanins.iter().enumerate() {
            for f in fs {
                fanouts[f.index()].push(NodeId(i as u32));
            }
        }
        let input_count = self.kinds.iter().filter(|&&k| k == GateKind::Input).count();
        Ok(Circuit {
            name: self.name,
            kinds: self.kinds,
            fanins: self.fanins,
            fanouts,
            outputs: self.outputs,
            input_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Circuit {
        // a, b inputs; g = NAND2(a, b); h = INV(g); output h.
        let mut b = Circuit::builder("tiny");
        let a = b.input();
        let bb = b.input();
        let g = b.gate(GateKind::Nand2, &[a, bb]).unwrap();
        let h = b.gate(GateKind::Inv, &[g]).unwrap();
        b.output(h);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_accessors() {
        let c = tiny();
        assert_eq!(c.name(), "tiny");
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.input_count(), 2);
        assert_eq!(c.outputs(), &[NodeId(3)]);
        assert_eq!(c.kind(NodeId(2)), GateKind::Nand2);
        assert_eq!(c.fanins(NodeId(2)), &[NodeId(0), NodeId(1)]);
        assert_eq!(c.fanouts(NodeId(0)), &[NodeId(2)]);
        assert_eq!(c.fanouts(NodeId(2)), &[NodeId(3)]);
        assert_eq!(c.inputs().count(), 2);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.levels(), vec![0, 0, 1, 2]);
    }

    #[test]
    fn builder_rejects_bad_fanin_counts() {
        let mut b = Circuit::builder("bad");
        let a = b.input();
        let e = b.gate(GateKind::Nand2, &[a]);
        assert!(matches!(
            e,
            Err(CircuitError::FaninCountMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn builder_rejects_forward_references() {
        let mut b = Circuit::builder("fwd");
        let a = b.input();
        let e = b.gate(GateKind::Inv, &[NodeId(5)]);
        assert!(matches!(
            e,
            Err(CircuitError::InvalidFanin { fanin: 5, .. })
        ));
        let e2 = b.gate(GateKind::Buf, &[NodeId(a.0 + 1)]);
        assert!(e2.is_err());
    }

    #[test]
    fn builder_rejects_empty_and_no_outputs() {
        assert_eq!(
            Circuit::builder("e").build().unwrap_err(),
            CircuitError::Empty
        );
        let mut b = Circuit::builder("n");
        b.input();
        assert_eq!(b.build().unwrap_err(), CircuitError::NoOutputs);
    }

    #[test]
    fn builder_rejects_unknown_output() {
        let mut b = Circuit::builder("u");
        b.input();
        b.output(NodeId(7));
        assert!(matches!(
            b.build().unwrap_err(),
            CircuitError::UnknownOutput { node: 7 }
        ));
    }

    #[test]
    fn gate_kind_pin_counts() {
        assert_eq!(GateKind::Input.fanin_count(), 0);
        assert_eq!(GateKind::Inv.fanin_count(), 1);
        assert_eq!(GateKind::Xor2.fanin_count(), 2);
        assert_eq!(GateKind::Nand3.fanin_count(), 3);
        for k in GateKind::logic_kinds() {
            assert!(k.fanin_count() >= 1);
            assert!(!format!("{k}").is_empty());
        }
        assert_eq!(format!("{}", NodeId(3)), "n3");
    }

    #[test]
    fn gate_kind_index_is_position_in_all() {
        for (i, k) in GateKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{k}");
        }
        assert_eq!(GateKind::logic_kinds().len(), GateKind::ALL.len() - 1);
        assert!(!GateKind::logic_kinds().contains(&GateKind::Input));
    }

    #[test]
    fn error_display() {
        assert!(CircuitError::NoOutputs.to_string().contains("output"));
        assert!(CircuitError::Empty.to_string().contains("no nodes"));
        assert!(CircuitError::InvalidFanin { node: 1, fanin: 2 }
            .to_string()
            .contains("n2"));
    }
}
