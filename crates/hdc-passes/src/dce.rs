//! Dead code elimination over every node body.
//!
//! Removes instructions whose results never reach a live value and that
//! have no side effects. Liveness is [`hdc_ir::dataflow::live_values`], the
//! same backward solve the analyzer's `HDA001` runs, from a wider root
//! set: besides the program outputs, the values a node's *semantics*
//! consume (the stage interface, the `body_query`/`body_result` slots, the
//! persistent set populated by data-movement hoisting, the loop index) and
//! the reads of in-place updates are live. Stage and parallel-for bodies
//! are cleaned like leaves.

use hdc_ir::dataflow::{live_values, DefUse};
use hdc_ir::ops::HdcOp;
use hdc_ir::program::{Node, NodeBody, Program, ValueId, ValueRole};

/// Statistics reported by [`eliminate_dead_code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DceReport {
    /// Number of instructions removed.
    pub removed_instrs: usize,
}

fn has_side_effect(op: &HdcOp) -> bool {
    matches!(op, HdcOp::SetMatrixRow | HdcOp::AccumulateRow)
}

/// Values a node's semantics consume regardless of instruction-level
/// reads: removing their producers would change what the node means.
fn protected_values(node: &Node) -> Vec<ValueId> {
    match &node.body {
        NodeBody::Leaf { .. } => Vec::new(),
        NodeBody::ParallelFor { index, .. } => vec![*index],
        NodeBody::Stage(stage) => {
            let mut v = vec![
                stage.interface.queries,
                stage.interface.output,
                stage.body_query,
                stage.body_result,
            ];
            v.extend(stage.interface.classes);
            v.extend(stage.interface.labels);
            v.extend(stage.persistent_values.iter().copied());
            v
        }
    }
}

/// Remove dead instructions from every node body.
pub fn eliminate_dead_code(program: &mut Program) -> DceReport {
    let mut roots = program.values_with_role(ValueRole::Output);
    for node in program.nodes() {
        roots.extend(protected_values(node));
        for instr in node.instrs().iter().filter(|i| has_side_effect(&i.op)) {
            roots.extend(instr.read_values());
        }
    }
    let live = live_values(program, &DefUse::new(program), roots);
    let mut removed_instrs = 0;
    for node in program.nodes_mut() {
        let instrs = node.instrs_mut();
        let before = instrs.len();
        instrs.retain(|i| has_side_effect(&i.op) || i.result.is_none_or(|r| live[r.index()]));
        removed_instrs += before - instrs.len();
    }
    DceReport { removed_instrs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::verify::verify;

    #[test]
    fn unused_chain_is_removed() {
        let mut b = ProgramBuilder::new("dce");
        let a = b.input_vector("a", ElementKind::F32, 64);
        let used = b.sign(a);
        let dead1 = b.sign_flip(a);
        let _dead2 = b.absolute_value(dead1);
        b.mark_output(used);
        let mut p = b.finish();
        assert_eq!(p.instr_count(), 3);
        let report = eliminate_dead_code(&mut p);
        assert_eq!(report.removed_instrs, 2);
        assert_eq!(p.instr_count(), 1);
        verify(&p).unwrap();
    }

    #[test]
    fn side_effects_are_preserved() {
        let mut b = ProgramBuilder::new("side");
        let m = b.input_matrix("m", ElementKind::F32, 4, 64);
        let v = b.input_vector("v", ElementKind::F32, 64);
        b.set_matrix_row(m, v, 2);
        b.mark_output(m);
        let mut p = b.finish();
        let report = eliminate_dead_code(&mut p);
        assert_eq!(report.removed_instrs, 0);
        assert_eq!(p.instr_count(), 1);
    }

    #[test]
    fn live_code_untouched() {
        let mut b = ProgramBuilder::new("live");
        let a = b.input_vector("a", ElementKind::F32, 64);
        let m = b.input_matrix("m", ElementKind::F32, 4, 64);
        let s = b.sign(a);
        let d = b.hamming_distance(s, m);
        let l = b.arg_min(d);
        b.mark_output(l);
        let mut p = b.finish();
        let before = p.clone();
        let report = eliminate_dead_code(&mut p);
        assert_eq!(report.removed_instrs, 0);
        assert_eq!(p, before);
    }

    #[test]
    fn dead_value_inside_stage_body_is_removed() {
        // A dead intermediate inside an encoding body does not survive to
        // execution.
        let mut b = ProgramBuilder::new("stage_dce");
        let feats = b.input_matrix("feats", ElementKind::F32, 4, 8);
        let proj = b.input_matrix("proj", ElementKind::F32, 32, 8);
        let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
            let e = body.matmul(sample, proj);
            let _dead = body.sign_flip(e);
            body.sign(e)
        });
        b.mark_output(enc);
        let mut p = b.finish();
        assert_eq!(p.instr_count(), 3);
        let report = eliminate_dead_code(&mut p);
        assert_eq!(report.removed_instrs, 1);
        assert_eq!(p.instr_count(), 2);
        verify(&p).unwrap();
    }

    #[test]
    fn stage_semantics_values_are_protected() {
        // body_result is not read by any instruction — the stage semantics
        // consume it. Its producer must survive.
        let mut b = ProgramBuilder::new("stage_keep");
        let feats = b.input_matrix("feats", ElementKind::F32, 4, 8);
        let proj = b.input_matrix("proj", ElementKind::F32, 32, 8);
        let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
            body.matmul(sample, proj)
        });
        b.mark_output(enc);
        let mut p = b.finish();
        let report = eliminate_dead_code(&mut p);
        assert_eq!(report.removed_instrs, 0);
        verify(&p).unwrap();
    }

    #[test]
    fn parallel_for_body_dead_value_is_removed() {
        let mut b = ProgramBuilder::new("pfor_dce");
        let acc = b.zero_matrix(ElementKind::F32, 8, 16);
        let rows = b.input_matrix("rows", ElementKind::F32, 8, 16);
        b.parallel_for("scatter", 8, |b, idx| {
            let r = b.get_matrix_row_dyn(rows, idx);
            let _dead = b.sign_flip(r);
            b.accumulate_row(acc, r, idx);
        });
        let out = b.get_matrix_row(acc, 0);
        b.mark_output(out);
        let mut p = b.finish();
        let report = eliminate_dead_code(&mut p);
        assert_eq!(report.removed_instrs, 1);
        verify(&p).unwrap();
    }

    #[test]
    fn transitively_dead_values_removed_across_rounds() {
        let mut b = ProgramBuilder::new("transitive");
        let a = b.input_vector("a", ElementKind::F32, 64);
        let x = b.sign(a);
        let y = b.sign_flip(x);
        let z = b.absolute_value(y);
        let _w = b.cosine(z);
        let keep = b.sign(a);
        b.mark_output(keep);
        let mut p = b.finish();
        let report = eliminate_dead_code(&mut p);
        assert_eq!(report.removed_instrs, 4);
        assert_eq!(p.instr_count(), 1);
    }
}
