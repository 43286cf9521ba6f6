//! Backward liveness over the def-use chains: which values can reach a
//! program output (or a side effect on one)?
//!
//! Roots are the `Output`-role values. Liveness flows backward through
//! instruction sites and through the structural stage flows of
//! [`DefUse`] ([`live_values`], which DCE runs with its own roots), so a
//! value inside a stage body is live exactly when the stage output it
//! feeds is. Two diagnostics come out:
//!
//! * [`DiagnosticCode::DeadValue`] (`HDA001`, warning): an instruction
//!   computes a `Temp` result that never reaches an output. These are the
//!   values DCE should have removed.
//! * [`DiagnosticCode::DeadStageOutput`] (`HDA002`, error): a whole stage's
//!   interface output is dead. Stages are the expensive part of an HDC
//!   program; running one for nothing is treated as an error.

use crate::diag::{Diagnostic, DiagnosticCode, Location, Severity};
use hdc_ir::dataflow::{live_values, DefUse, SiteKind};
use hdc_ir::ops::HdcOp;
use hdc_ir::program::{NodeBody, Program, ValueId, ValueRole};

/// The result of the liveness analysis.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `live[v]` is true when value `v` can reach a program output.
    pub live: Vec<bool>,
}

impl Liveness {
    /// Whether a value is live.
    pub fn is_live(&self, v: ValueId) -> bool {
        self.live[v.index()]
    }
}

/// Compute liveness for `program` over prebuilt def-use chains.
pub fn compute(program: &Program, du: &DefUse) -> Liveness {
    let roots = program.values_with_role(ValueRole::Output);
    Liveness {
        live: live_values(program, du, roots),
    }
}

/// Run liveness and collect its diagnostics.
pub fn check(program: &Program, du: &DefUse) -> (Liveness, Vec<Diagnostic>) {
    let liveness = compute(program, du);
    let mut diags = Vec::new();

    // HDA002 first: a dead stage output makes the whole stage body dead,
    // and per-instruction HDA001 noise inside it would bury the real
    // finding. Track those nodes and skip their bodies below.
    let mut dead_stage_nodes = std::collections::HashSet::new();
    for (ni, node) in program.nodes().iter().enumerate() {
        if let NodeBody::Stage(stage) = &node.body {
            if !liveness.is_live(stage.interface.output) {
                dead_stage_nodes.insert(ni);
                let out_name = &program.value(stage.interface.output).name;
                diags.push(Diagnostic {
                    code: DiagnosticCode::DeadStageOutput,
                    severity: Severity::Error,
                    location: Location::node(&node.name).with_value(out_name),
                    message: format!(
                        "{} output `{}` is never consumed: no later node reads it and it is not a program output",
                        stage.kind, out_name,
                    ),
                    suggestion: Some(format!(
                        "mark `{out_name}` as a program output or delete the `{}` stage",
                        node.name
                    )),
                });
            }
        }
    }

    for site in &du.sites {
        let SiteKind::Instr { node, index } = site.kind else {
            continue;
        };
        if dead_stage_nodes.contains(&node.index()) {
            continue;
        }
        let node_ref = program.node(node);
        let instr = &node_ref.instrs()[index];
        if matches!(instr.op, HdcOp::SetMatrixRow | HdcOp::AccumulateRow) {
            // In-place update: dead only if its target matrix is dead, which
            // the target's own producer diagnostics already cover.
            continue;
        }
        let Some(result) = instr.result else { continue };
        let info = program.value(result);
        if info.role == ValueRole::Temp && !liveness.is_live(result) {
            diags.push(Diagnostic {
                code: DiagnosticCode::DeadValue,
                severity: Severity::Warning,
                location: Location::instr(&node_ref.name, index).with_value(&info.name),
                message: format!(
                    "`{}` result `{}` never reaches a program output",
                    instr.op, info.name
                ),
                suggestion: Some("delete the instruction (DCE should remove it)".to_string()),
            });
        }
    }
    (liveness, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::stage::ScorePolarity;

    #[test]
    fn live_chain_has_no_diagnostics() {
        let mut b = ProgramBuilder::new("live");
        let a = b.input_vector("a", ElementKind::F64, 16);
        let m = b.input_matrix("m", ElementKind::F64, 4, 16);
        let d = b.hamming_distance(a, m);
        let l = b.arg_min(d);
        b.mark_output(l);
        let p = b.finish();
        let du = DefUse::new(&p);
        let (liveness, diags) = check(&p, &du);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        assert!(liveness.is_live(a) && liveness.is_live(d));
    }

    #[test]
    fn dead_leaf_chain_is_flagged() {
        let mut b = ProgramBuilder::new("dead");
        let a = b.input_vector("a", ElementKind::F64, 16);
        let keep = b.sign(a);
        let dead = b.sign_flip(a);
        let _dead2 = b.absolute_value(dead);
        b.mark_output(keep);
        let p = b.finish();
        let du = DefUse::new(&p);
        let (_, diags) = check(&p, &du);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![DiagnosticCode::DeadValue, DiagnosticCode::DeadValue]
        );
    }

    #[test]
    fn dead_value_inside_stage_body_is_found() {
        // The value the original DCE could not see: a dead intermediate
        // *inside* an encoding body.
        let mut b = ProgramBuilder::new("stage_dead");
        let feats = b.input_matrix("feats", ElementKind::F64, 4, 8);
        let proj = b.input_matrix("proj", ElementKind::F64, 32, 8);
        let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
            let e = body.matmul(sample, proj);
            let _dead = body.sign_flip(e);
            body.sign(e)
        });
        b.mark_output(enc);
        let p = b.finish();
        let du = DefUse::new(&p);
        let (_, diags) = check(&p, &du);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagnosticCode::DeadValue);
        assert_eq!(diags[0].location.node.as_deref(), Some("encode"));
    }

    #[test]
    fn dead_stage_output_is_an_error_without_body_noise() {
        let mut b = ProgramBuilder::new("dead_stage");
        let queries = b.input_matrix("q", ElementKind::F64, 4, 32);
        let classes = b.input_matrix("c", ElementKind::F64, 3, 32);
        // Inference stage whose label vector nobody consumes.
        let _labels = b.inference_loop(
            "infer",
            queries,
            classes,
            ScorePolarity::Distance,
            |body, sample| body.hamming_distance(sample, classes),
        );
        let keep = b.sign(queries);
        b.mark_output(keep);
        let p = b.finish();
        let du = DefUse::new(&p);
        let (_, diags) = check(&p, &du);
        assert_eq!(diags.len(), 1, "body noise suppressed: {diags:?}");
        assert_eq!(diags[0].code, DiagnosticCode::DeadStageOutput);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn liveness_flows_through_stage_interface() {
        let mut b = ProgramBuilder::new("through");
        let feats = b.input_matrix("feats", ElementKind::F64, 4, 8);
        let proj = b.input_matrix("proj", ElementKind::F64, 32, 8);
        let classes = b.input_matrix("cls", ElementKind::F64, 3, 32);
        let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
            body.matmul(sample, proj)
        });
        let labels = b.inference_loop(
            "infer",
            enc,
            classes,
            ScorePolarity::Distance,
            |body, sample| body.hamming_distance(sample, classes),
        );
        b.mark_output(labels);
        let p = b.finish();
        let du = DefUse::new(&p);
        let (liveness, diags) = check(&p, &du);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
        // The raw features are live only because the encode output feeds
        // the inference stage that feeds the output.
        assert!(liveness.is_live(feats) && liveness.is_live(proj) && liveness.is_live(enc));
    }
}
