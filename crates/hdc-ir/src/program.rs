//! The program representation: typed value slots plus a dataflow graph of
//! nodes.

use crate::instr::HdcInstr;
use crate::stage::StageNode;
use crate::target::Target;
use crate::types::ValueType;

/// Identifier of a value slot within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(usize);

impl ValueId {
    /// Create a value id from a raw index.
    pub fn new(index: usize) -> Self {
        ValueId(index)
    }

    /// The raw index into the program's value table.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a node within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Create a node id from a raw index.
    pub fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The raw index into the program's node list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// How a value slot is bound at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRole {
    /// Provided by the host before execution (datasets, projection matrices,
    /// pre-trained models).
    Input,
    /// Read back by the host after execution.
    Output,
    /// Intermediate value.
    Temp,
}

/// Metadata for one value slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueInfo {
    /// Human-readable name (used by the printer and error messages).
    pub name: String,
    /// The value's type.
    pub ty: ValueType,
    /// Input/output/temporary role.
    pub role: ValueRole,
}

/// The body of a dataflow-graph node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeBody {
    /// A leaf node: a straight-line sequence of HDC instructions.
    Leaf {
        /// The instructions, executed in order.
        instrs: Vec<HdcInstr>,
    },
    /// A generic data-parallel loop (Hetero-C++ `parallel for`): the body is
    /// executed once per dynamic instance with the instance id written to
    /// `index` (HPVM's `getNodeInstanceID`). Iterations must be independent.
    ParallelFor {
        /// Number of dynamic instances.
        count: usize,
        /// Scalar value slot receiving the instance id.
        index: ValueId,
        /// Per-instance instruction sequence.
        body: Vec<HdcInstr>,
    },
    /// A coarse-grain algorithmic stage (`encoding_loop` / `training_loop` /
    /// `inference_loop`).
    Stage(StageNode),
}

/// One node of the top-level dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node name (used in profiles and the printer).
    pub name: String,
    /// The hardware target this node is mapped to.
    pub target: Target,
    /// The node body.
    pub body: NodeBody,
}

impl Node {
    /// All instructions contained in this node (stage bodies included).
    pub fn instrs(&self) -> &[HdcInstr] {
        match &self.body {
            NodeBody::Leaf { instrs } => instrs,
            NodeBody::ParallelFor { body, .. } => body,
            NodeBody::Stage(stage) => &stage.body,
        }
    }

    /// Mutable access to the node's instructions.
    pub fn instrs_mut(&mut self) -> &mut Vec<HdcInstr> {
        match &mut self.body {
            NodeBody::Leaf { instrs } => instrs,
            NodeBody::ParallelFor { body, .. } => body,
            NodeBody::Stage(stage) => &mut stage.body,
        }
    }
}

/// A retargetable HDC program: the HPVM-HDC IR unit of compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// The value slot table.
    values: Vec<ValueInfo>,
    /// The top-level dataflow graph, in a valid topological (execution)
    /// order.
    nodes: Vec<Node>,
}

impl Program {
    /// Create an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            values: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Add a value slot, returning its id.
    pub fn add_value(&mut self, info: ValueInfo) -> ValueId {
        self.values.push(info);
        ValueId(self.values.len() - 1)
    }

    /// Metadata for a value slot.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn value(&self, id: ValueId) -> &ValueInfo {
        &self.values[id.0]
    }

    /// Mutable metadata for a value slot.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn value_mut(&mut self, id: ValueId) -> &mut ValueInfo {
        &mut self.values[id.0]
    }

    /// All value slots, in id order.
    pub fn values(&self) -> &[ValueInfo] {
        &self.values
    }

    /// Ids of every value with the given role.
    pub fn values_with_role(&self, role: ValueRole) -> Vec<ValueId> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.role == role)
            .map(|(i, _)| ValueId(i))
            .collect()
    }

    /// Append a node, returning its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// The nodes of the dataflow graph in execution order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to the nodes.
    pub fn nodes_mut(&mut self) -> &mut Vec<Node> {
        &mut self.nodes
    }

    /// One node by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this program.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Iterate over every instruction in the program (all node bodies).
    pub fn iter_instrs(&self) -> impl Iterator<Item = &HdcInstr> {
        self.nodes.iter().flat_map(|n| n.instrs().iter())
    }

    /// Total number of instructions across all nodes.
    pub fn instr_count(&self) -> usize {
        self.iter_instrs().count()
    }

    /// Number of values whose element kind is `Bit` (a binarization metric).
    pub fn binarized_value_count(&self) -> usize {
        self.values
            .iter()
            .filter(|v| v.ty.element_kind() == Some(hdc_core::element::ElementKind::Bit))
            .count()
    }

    /// Total byte footprint of all values (used to report data-movement
    /// savings from binarization).
    pub fn total_value_bytes(&self) -> usize {
        self.values.iter().map(|v| v.ty.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::DefUse;
    use crate::ops::HdcOp;
    use crate::types::ValueType;
    use hdc_core::element::ElementKind;

    fn simple_program() -> (Program, ValueId, ValueId, ValueId) {
        let mut p = Program::new("test");
        let a = p.add_value(ValueInfo {
            name: "a".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 8,
            },
            role: ValueRole::Input,
        });
        let b = p.add_value(ValueInfo {
            name: "b".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 8,
            },
            role: ValueRole::Temp,
        });
        let c = p.add_value(ValueInfo {
            name: "c".into(),
            ty: ValueType::HyperVector {
                elem: ElementKind::F32,
                dim: 8,
            },
            role: ValueRole::Output,
        });
        (p, a, b, c)
    }

    #[test]
    fn value_roles_and_lookup() {
        let (p, a, _b, c) = simple_program();
        assert_eq!(p.values().len(), 3);
        assert_eq!(p.value(a).name, "a");
        assert_eq!(p.values_with_role(ValueRole::Input), vec![a]);
        assert_eq!(p.values_with_role(ValueRole::Output), vec![c]);
    }

    #[test]
    fn dataflow_edges_follow_def_use() {
        let (mut p, a, b, c) = simple_program();
        p.add_node(Node {
            name: "n0".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(HdcOp::Sign, vec![a.into()], Some(b))],
            },
        });
        p.add_node(Node {
            name: "n1".into(),
            target: Target::Gpu,
            body: NodeBody::Leaf {
                instrs: vec![HdcInstr::new(HdcOp::SignFlip, vec![b.into()], Some(c))],
            },
        });
        let du = DefUse::new(&p);
        let node_of = |sites: &[usize]| -> Vec<NodeId> {
            sites.iter().map(|&si| du.sites[si].kind.node()).collect()
        };
        assert_eq!(node_of(&du.defs[b.index()]), vec![NodeId(0)]);
        assert_eq!(node_of(&du.uses[b.index()]), vec![NodeId(1)]);
        assert_eq!(p.instr_count(), 2);
    }

    #[test]
    fn no_self_edges() {
        let (mut p, a, b, c) = simple_program();
        p.add_node(Node {
            name: "n0".into(),
            target: Target::Cpu,
            body: NodeBody::Leaf {
                instrs: vec![
                    HdcInstr::new(HdcOp::Sign, vec![a.into()], Some(b)),
                    HdcInstr::new(HdcOp::SignFlip, vec![b.into()], Some(c)),
                ],
            },
        });
        let du = DefUse::new(&p);
        let def = du.defs[b.index()][0];
        let used = du.uses[b.index()][0];
        assert_eq!(du.sites[def].kind.node(), du.sites[used].kind.node());
        assert!(def < used, "sites are in program order");
    }

    #[test]
    fn binarization_metrics() {
        let (mut p, _a, b, _c) = simple_program();
        assert_eq!(p.binarized_value_count(), 0);
        let dense_bytes = p.total_value_bytes();
        let ty = p.value(b).ty.with_element_kind(ElementKind::Bit);
        p.value_mut(b).ty = ty;
        assert_eq!(p.binarized_value_count(), 1);
        assert!(p.total_value_bytes() < dense_bytes);
    }
}
