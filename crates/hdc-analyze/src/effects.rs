//! Effect / alias classification over the `Arc`-backed value store.
//!
//! The runtime shares tensor payloads by reference count: moving a value
//! between slots never copies, and genuine copies happen only at
//! representation boundaries (pack/unpack/quantize on store), at
//! per-sample row staging inside interpreted stages, and on copy-on-write
//! of a payload that is still shared ([`hdc_runtime::Value`] docs). This
//! module classifies every node by the strongest effect it can have on
//! that store:
//!
//! * [`EffectClass::ZeroCopy`] — the node only creates fresh payloads and
//!   reads existing ones; it can never materialize a copy of an existing
//!   tensor.
//! * [`EffectClass::CopyOnWrite`] — the node may materialize copies:
//!   it crosses a representation boundary (a `type_cast`, or a result
//!   slot whose declared element kind differs from its tensor operand's),
//!   computes element-wise over bit-packed operands (which the `f64`
//!   interpreter must unpack), or is a stage (whose interpreted path
//!   stages one query row per sample).
//! * [`EffectClass::InPlaceMutating`] — the node updates an existing
//!   payload in place (`set_matrix_row` / `accumulate_row`, or a
//!   `training_loop`, which accumulates into its class matrix). If the
//!   payload is still shared, the runtime copies it first.
//!
//! The classification is deliberately one-directional, and that direction
//! is checked against the executor's own accounting: **if every node is
//! `ZeroCopy`, an execution reports `tensor_bytes_copied == 0`** (see
//! [`hdc_runtime::ExecStats`]). The converse does not hold — a
//! `CopyOnWrite` node may still execute copy-free (e.g. a batched
//! binarized stage, or a cast whose payload is uniquely owned).
//!
//! One diagnostic comes out: [`DiagnosticCode::InPlaceOnInput`]
//! (`HDA011`, info) when an in-place mutation targets an `Input`-role
//! value — the host-provided payload is logically updated, which is
//! usually a surprise worth flagging even though copy-on-write protects
//! the host's own handle.

use crate::diag::{Diagnostic, DiagnosticCode, Location, Severity};
use hdc_core::element::ElementKind;
use hdc_ir::instr::HdcInstr;
use hdc_ir::ops::{HdcOp, OpCategory};
use hdc_ir::program::{NodeBody, Program, ValueRole};
use hdc_ir::stage::StageKind;

/// The strongest store effect a node can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EffectClass {
    /// Creates and reads payloads only; never copies an existing tensor.
    ZeroCopy,
    /// May materialize copies (representation boundaries, bit unpacking,
    /// per-sample stage staging, copy-on-write).
    CopyOnWrite,
    /// Updates an existing payload in place.
    InPlaceMutating,
}

impl EffectClass {
    /// Short lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EffectClass::ZeroCopy => "zero-copy",
            EffectClass::CopyOnWrite => "copy-on-write",
            EffectClass::InPlaceMutating => "in-place-mutating",
        }
    }
}

/// Per-node effect classification for a program.
#[derive(Debug, Clone)]
pub struct Effects {
    /// `per_node[n]` is the class of node `n`, in program node order.
    pub per_node: Vec<EffectClass>,
}

impl Effects {
    /// The one-directional zero-copy contract: when this returns true, an
    /// execution of the program reports `tensor_bytes_copied == 0`.
    pub fn zero_copy_feasible(&self) -> bool {
        self.per_node.iter().all(|c| *c == EffectClass::ZeroCopy)
    }
}

fn instr_is_in_place(instr: &HdcInstr) -> bool {
    matches!(instr.op, HdcOp::SetMatrixRow | HdcOp::AccumulateRow)
}

fn instr_may_copy(program: &Program, instr: &HdcInstr) -> bool {
    // Explicit representation conversion.
    if matches!(instr.op, HdcOp::TypeCast { .. }) {
        return true;
    }
    let operand_elems: Vec<ElementKind> = instr
        .read_values()
        .filter_map(|v| {
            let ty = program.value(v).ty;
            ty.is_tensor().then(|| ty.element_kind()).flatten()
        })
        .collect();
    // The f64 interpreter must unpack bit-packed operands for anything
    // that is not a dedicated packed kernel (the reductions dispatch
    // XOR/popcount directly; selections read scores, not payloads).
    if operand_elems.contains(&ElementKind::Bit)
        && matches!(
            instr.op.category(),
            OpCategory::Elementwise | OpCategory::DataMovement
        )
        && !instr_is_in_place(instr)
    {
        return true;
    }
    // Conversion on store: the result slot's declared kind differs from
    // the tensor operand feeding it (e.g. a binarized `sign` packs).
    if let Some(result) = instr.result {
        let result_ty = program.value(result).ty;
        if result_ty.is_tensor()
            && matches!(
                instr.op.category(),
                OpCategory::Elementwise | OpCategory::DataMovement
            )
        {
            if let (Some(re), Some(first)) = (result_ty.element_kind(), operand_elems.first()) {
                if *first != re {
                    return true;
                }
            }
        }
    }
    false
}

/// Classify every node of `program`.
pub fn classify(program: &Program) -> Effects {
    let per_node = program
        .nodes()
        .iter()
        .map(|node| match &node.body {
            NodeBody::Stage(stage) => {
                // Training stages mutate class memory in place even when no
                // body instruction does so explicitly.
                if matches!(stage.kind, StageKind::Training { .. })
                    || stage.body.iter().any(instr_is_in_place)
                {
                    EffectClass::InPlaceMutating
                } else {
                    // Interpreted stages stage one query row per sample.
                    EffectClass::CopyOnWrite
                }
            }
            NodeBody::Leaf { instrs } | NodeBody::ParallelFor { body: instrs, .. } => {
                let mut class = EffectClass::ZeroCopy;
                for instr in instrs {
                    if instr_is_in_place(instr) {
                        class = EffectClass::InPlaceMutating;
                        break;
                    }
                    if instr_may_copy(program, instr) {
                        class = EffectClass::CopyOnWrite;
                    }
                }
                class
            }
        })
        .collect();
    Effects { per_node }
}

/// Run the effect analysis and collect its diagnostics.
pub fn check(program: &Program) -> (Effects, Vec<Diagnostic>) {
    let effects = classify(program);
    let mut diags = Vec::new();
    for node in program.nodes() {
        // In-place mutation of a host-provided input.
        let mut flag = |value: hdc_ir::program::ValueId, what: &str, ii: Option<usize>| {
            let info = program.value(value);
            if info.role != ValueRole::Input {
                return;
            }
            let location = match ii {
                Some(i) => Location::instr(&node.name, i),
                None => Location::node(&node.name),
            }
            .with_value(&info.name);
            diags.push(Diagnostic {
                code: DiagnosticCode::InPlaceOnInput,
                severity: Severity::Info,
                location,
                message: format!(
                    "{what} updates program input `{}` in place; the runtime will \
                     copy-on-write the host payload before mutating it",
                    info.name
                ),
                suggestion: Some(
                    "copy the input into a temporary first if the aliasing is unintended".into(),
                ),
            });
        };
        match &node.body {
            NodeBody::Stage(stage) => {
                if matches!(stage.kind, StageKind::Training { .. }) {
                    if let Some(classes) = stage.interface.classes {
                        flag(classes, "training_loop", None);
                    }
                }
            }
            NodeBody::Leaf { instrs } | NodeBody::ParallelFor { body: instrs, .. } => {
                for (ii, instr) in instrs.iter().enumerate() {
                    if !instr_is_in_place(instr) {
                        continue;
                    }
                    if let Some(target) = instr.operands.first().and_then(|o| o.as_value()) {
                        flag(target, instr.op.mnemonic(), Some(ii));
                    }
                }
            }
        }
    }
    (effects, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_ir::builder::ProgramBuilder;

    #[test]
    fn dense_leaf_chain_is_zero_copy() {
        let mut b = ProgramBuilder::new("zc");
        let a = b.input_vector("a", ElementKind::F64, 32);
        let m = b.input_matrix("m", ElementKind::F64, 4, 32);
        let d = b.hamming_distance(a, m);
        let sel = b.arg_min(d);
        b.mark_output(sel);
        let p = b.finish();
        let effects = classify(&p);
        assert!(effects.zero_copy_feasible(), "{:?}", effects.per_node);
    }

    #[test]
    fn type_cast_is_copy_on_write() {
        let mut b = ProgramBuilder::new("cow");
        let a = b.input_vector("a", ElementKind::F64, 32);
        let c = b.type_cast(a, ElementKind::Bit);
        b.mark_output(c);
        let p = b.finish();
        let effects = classify(&p);
        assert_eq!(effects.per_node, vec![EffectClass::CopyOnWrite]);
        assert!(!effects.zero_copy_feasible());
    }

    #[test]
    fn in_place_row_update_is_flagged_on_inputs_only() {
        let mut b = ProgramBuilder::new("inplace");
        let host = b.input_matrix("host", ElementKind::F64, 4, 16);
        let own = b.zero_matrix(ElementKind::F64, 4, 16);
        let row = b.input_vector("row", ElementKind::F64, 16);
        b.set_matrix_row(host, row, 0);
        b.set_matrix_row(own, row, 0);
        let out = b.get_matrix_row(host, 0);
        b.mark_output(out);
        let p = b.finish();
        let (effects, diags) = check(&p);
        assert_eq!(effects.per_node, vec![EffectClass::InPlaceMutating]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DiagnosticCode::InPlaceOnInput);
        assert_eq!(diags[0].severity, Severity::Info);
        assert_eq!(diags[0].location.value.as_deref(), Some("host"));
    }

    #[test]
    fn stages_are_never_zero_copy() {
        let mut b = ProgramBuilder::new("stage");
        let feats = b.input_matrix("feats", ElementKind::F64, 4, 8);
        let proj = b.input_matrix("proj", ElementKind::F64, 32, 8);
        let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
            body.matmul(sample, proj)
        });
        b.mark_output(enc);
        let p = b.finish();
        let effects = classify(&p);
        assert_eq!(effects.per_node, vec![EffectClass::CopyOnWrite]);
    }
}
