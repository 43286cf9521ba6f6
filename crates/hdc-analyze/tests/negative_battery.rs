//! The negative-test battery: one deliberately malformed program per
//! diagnostic kind, driven through the public [`hdc_analyze::analyze`]
//! entry point (the same path `hdc-lint` takes), asserting the *exact*
//! stable code each program trips. This pins the catalog: a new analysis
//! that changes which code fires for a known-bad shape is a breaking
//! change, not a refinement. Every program also pins the verifier to the
//! analyzer: `hdc_ir::verify` owns the stage-shape and perforation rules,
//! so its `StageShape` and `Perforation` violations are exactly the
//! `HDA003` errors and `HDA005` findings. The `HDA001` and `HDA002`
//! programs also pin DCE to liveness: it removes exactly the dead values,
//! and keeps a dead stage's body.

use hdc_analyze::{analyze, liveness, AnalysisReport, DiagnosticCode, Location, Severity};
use hdc_core::element::ElementKind;
use hdc_core::Perforation;
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::dataflow::DefUse;
use hdc_ir::instr::HdcInstr;
use hdc_ir::ops::HdcOp;
use hdc_ir::program::{Node, NodeBody, ValueId, ValueInfo, ValueRole};
use hdc_ir::stage::ScorePolarity;
use hdc_ir::types::ValueType;
use hdc_ir::verify::{verify, Rule};
use hdc_ir::{Program, Target};
use hdc_passes::{compile, eliminate_dead_code, CompileOptions};

/// Analyze `program` and return its report, asserting that it holds one
/// diagnostic, of `code`, with its severity and stable code string.
/// Extra diagnostics of *other* kinds fail the test: each battery program
/// is built to trip exactly one rule. The verifier must agree with it
/// (see [`assert_verify_agrees`]).
fn expect_only(
    program: &Program,
    code: DiagnosticCode,
    severity: Severity,
    hda: &str,
) -> AnalysisReport {
    let report = analyze(program);
    assert_eq!(
        report.diagnostics.len(),
        1,
        "expected exactly one diagnostic: {report}"
    );
    let diag = &report.diagnostics[0];
    assert_eq!(diag.code, code, "{report}");
    assert_eq!(diag.severity, severity, "{report}");
    assert_eq!(diag.code.as_str(), hda);
    // The JSON surface carries the same stable code.
    assert!(
        report.to_json().contains(hda),
        "JSON lost the code: {}",
        report.to_json()
    );
    assert_verify_agrees(program, &report);
    report
}

/// The verifier owns the stage-shape and perforation rules: its
/// `StageShape` and `Perforation` violations are, one for one and in
/// order, the report's `HDA003` errors and `HDA005` findings, at the same
/// node, instruction and value.
fn assert_verify_agrees(program: &Program, report: &AnalysisReport) {
    let violations = verify(program)
        .err()
        .map_or_else(Vec::new, |e| e.violations);
    let from_verify: Vec<(DiagnosticCode, Location)> = violations
        .iter()
        .filter_map(|v| {
            let code = match v.rule {
                Rule::StageShape => DiagnosticCode::StageShapeMismatch,
                Rule::Perforation => DiagnosticCode::IllegalPerforation,
                Rule::Malformed => return None,
            };
            let location = Location {
                node: Some(v.node.clone()),
                instr: v.instr,
                value: v.value.map(|id| program.value(id).name.clone()),
            };
            Some((code, location))
        })
        .collect();
    let from_report: Vec<(DiagnosticCode, Location)> = report
        .errors()
        .filter(|d| {
            matches!(
                d.code,
                DiagnosticCode::StageShapeMismatch | DiagnosticCode::IllegalPerforation
            )
        })
        .map(|d| (d.code, d.location.clone()))
        .collect();
    assert_eq!(from_verify, from_report, "{report}");
}

/// `verify` rejects `program` with exactly one violation, of `rule`, at the
/// node, instruction and value of the report's one diagnostic.
fn expect_one_violation(program: &Program, report: &AnalysisReport, rule: Rule) {
    let violations = verify(program).unwrap_err().violations;
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!(v.rule, rule, "{v:?}");
    let location = &report.diagnostics[0].location;
    assert_eq!(location.node.as_ref(), Some(&v.node));
    assert_eq!(location.instr, v.instr);
    assert_eq!(
        location.value.as_ref(),
        v.value.map(|id| &program.value(id).name)
    );
}

fn dead_value_program() -> Program {
    let mut b = ProgramBuilder::new("neg_dead_value");
    let a = b.input_vector("a", ElementKind::F64, 16);
    let keep = b.sign(a);
    let _dead = b.sign_flip(a);
    b.mark_output(keep);
    b.finish()
}

fn dead_stage_program() -> Program {
    let mut b = ProgramBuilder::new("neg_dead_stage");
    let queries = b.input_matrix("q", ElementKind::F64, 4, 32);
    let classes = b.input_matrix("c", ElementKind::F64, 3, 32);
    let _labels = b.inference_loop(
        "infer",
        queries,
        classes,
        ScorePolarity::Distance,
        |body, sample| body.hamming_distance(sample, classes),
    );
    let keep = b.sign(queries);
    b.mark_output(keep);
    b.finish()
}

#[test]
fn hda001_dead_value() {
    let report = expect_only(
        &dead_value_program(),
        DiagnosticCode::DeadValue,
        Severity::Warning,
        "HDA001",
    );
    assert!(
        !report.has_errors(),
        "dead value is a warning, not an error"
    );
}

#[test]
fn hda002_dead_stage_output() {
    let report = expect_only(
        &dead_stage_program(),
        DiagnosticCode::DeadStageOutput,
        Severity::Error,
        "HDA002",
    );
    assert!(report.has_errors());
}

#[test]
fn hda003_stage_shape_mismatch() {
    // The builder sizes stage outputs from the body result, so the
    // mismatch is injected by retyping the output behind the body's back —
    // the same corruption a hand-written or externally loaded program
    // could carry.
    let mut b = ProgramBuilder::new("neg_shape");
    let feats = b.input_matrix("feats", ElementKind::F64, 4, 8);
    let proj = b.input_matrix("proj", ElementKind::F64, 32, 8);
    let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
        body.matmul(sample, proj)
    });
    b.mark_output(enc);
    let mut p = b.finish();
    let out = {
        let NodeBody::Stage(stage) = &p.nodes()[0].body else {
            panic!("expected stage")
        };
        stage.interface.output
    };
    p.value_mut(out).ty = ValueType::HyperMatrix {
        elem: ElementKind::F64,
        rows: 4,
        cols: 16,
    };
    let report = expect_only(
        &p,
        DiagnosticCode::StageShapeMismatch,
        Severity::Error,
        "HDA003",
    );
    expect_one_violation(&p, &report, Rule::StageShape);
}

#[test]
fn hda004_bit_taint_leak() {
    let mut b = ProgramBuilder::new("neg_taint");
    let a = b.input_vector("a", ElementKind::F64, 16);
    let norms = b.input_vector("norms", ElementKind::F64, 16);
    let s = b.sign(a);
    let bad = b.div(s, norms); // binarized value into an f64-only kernel
    b.mark_output(bad);
    expect_only(
        &b.finish(),
        DiagnosticCode::BitTaintLeak,
        Severity::Error,
        "HDA004",
    );
}

#[test]
fn hda005_illegal_perforation() {
    // The builder's `red_perf` rejects unsupported ops, so the malformed
    // program is assembled through the raw IR API.
    let mut p = Program::new("neg_perf");
    let a = p.add_value(ValueInfo {
        name: "a".into(),
        ty: ValueType::HyperVector {
            elem: ElementKind::F64,
            dim: 64,
        },
        role: ValueRole::Input,
    });
    let r = p.add_value(ValueInfo {
        name: "r".into(),
        ty: ValueType::HyperVector {
            elem: ElementKind::F64,
            dim: 64,
        },
        role: ValueRole::Output,
    });
    let instr = HdcInstr::new(HdcOp::Sign, vec![a.into()], Some(r))
        .with_perforation(Perforation::strided(0, 64, 2));
    p.add_node(Node {
        name: "n0".into(),
        target: Target::Cpu,
        body: NodeBody::Leaf {
            instrs: vec![instr],
        },
    });
    let report = expect_only(
        &p,
        DiagnosticCode::IllegalPerforation,
        Severity::Error,
        "HDA005",
    );
    expect_one_violation(&p, &report, Rule::Perforation);
}

#[test]
fn hda006_wrap_shift_position() {
    let mut b = ProgramBuilder::new("neg_shift_pos");
    let a = b.input_vector("a", ElementKind::F64, 16);
    let m = b.input_matrix("m", ElementKind::F64, 4, 16);
    let scores = b.cossim(a, m);
    let bad = b.wrap_shift(scores, 1); // permuting scores, not a hypervector
    b.mark_output(bad);
    expect_only(
        &b.finish(),
        DiagnosticCode::WrapShiftPosition,
        Severity::Error,
        "HDA006",
    );
}

#[test]
fn hda007_wrap_shift_noop() {
    let mut b = ProgramBuilder::new("neg_shift_noop");
    let a = b.input_vector("a", ElementKind::F64, 16);
    let noop = b.wrap_shift(a, 32); // 32 % 16 == 0: the identity permutation
    b.mark_output(noop);
    expect_only(
        &b.finish(),
        DiagnosticCode::WrapShiftNoop,
        Severity::Warning,
        "HDA007",
    );
}

#[test]
fn hda008_parallel_for_collision() {
    let mut b = ProgramBuilder::new("neg_collision");
    let acc = b.zero_matrix(ElementKind::F64, 4, 16);
    let rows = b.input_matrix("rows", ElementKind::F64, 8, 16);
    b.parallel_for("collide", 8, |b, idx| {
        let r = b.get_matrix_row_dyn(rows, idx); // index used: no HDA009
        b.set_matrix_row(acc, r, 2); // every instance writes row 2
    });
    let out = b.get_matrix_row(acc, 2);
    b.mark_output(out);
    expect_only(
        &b.finish(),
        DiagnosticCode::ParallelForCollision,
        Severity::Error,
        "HDA008",
    );
}

#[test]
fn hda009_parallel_for_index_unused() {
    let mut b = ProgramBuilder::new("neg_index");
    let acc = b.zero_matrix(ElementKind::F64, 8, 16);
    let row = b.input_vector("row", ElementKind::F64, 16);
    b.parallel_for("ignore", 4, |b, _idx| {
        // accumulate_row is commutative, so the fixed-row accumulation is
        // only the HDA008 *warning* tier — it rides along; the
        // index-unused warning is what this test pins.
        b.accumulate_row(acc, row, 0);
    });
    let out = b.get_matrix_row(acc, 0);
    b.mark_output(out);
    let program = b.finish();
    let report = analyze(&program);
    // Two warnings fire: the unused index, and the warning-tier
    // accumulate collision. Pin the index one exactly.
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(
        codes.contains(&DiagnosticCode::ParallelForIndexUnused),
        "{report}"
    );
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == DiagnosticCode::ParallelForIndexUnused)
        .unwrap();
    assert_eq!(diag.severity, Severity::Warning);
    assert_eq!(diag.code.as_str(), "HDA009");
    assert!(!report.has_errors(), "{report}");
    assert_verify_agrees(&program, &report);
}

#[test]
fn hda010_mixed_perforation() {
    let mut b = ProgramBuilder::new("neg_mixed");
    let a = b.input_vector("a", ElementKind::F64, 64);
    let m = b.input_matrix("m", ElementKind::F64, 4, 64);
    let d1 = b.hamming_distance(a, m);
    b.red_perf(d1, 0, 32, 1);
    let d2 = b.hamming_distance(a, m);
    b.red_perf(d2, 0, 32, 2); // same op, different stride, same node
    b.mark_output(d1);
    b.mark_output(d2);
    expect_only(
        &b.finish(),
        DiagnosticCode::MixedPerforation,
        Severity::Warning,
        "HDA010",
    );
}

#[test]
fn hda011_in_place_on_input() {
    let mut b = ProgramBuilder::new("neg_inplace");
    let host = b.input_matrix("host", ElementKind::F64, 4, 16);
    let row = b.input_vector("row", ElementKind::F64, 16);
    b.set_matrix_row(host, row, 0);
    let out = b.get_matrix_row(host, 0);
    b.mark_output(out);
    let report = expect_only(
        &b.finish(),
        DiagnosticCode::InPlaceOnInput,
        Severity::Info,
        "HDA011",
    );
    assert!(!report.has_errors());
}

#[test]
fn every_code_has_a_battery_entry() {
    // Completeness backstop: the battery above must cover the whole
    // catalog. If a new DiagnosticCode is added, this match stops
    // compiling until the battery grows a test for it.
    let all = [
        DiagnosticCode::DeadValue,
        DiagnosticCode::DeadStageOutput,
        DiagnosticCode::StageShapeMismatch,
        DiagnosticCode::BitTaintLeak,
        DiagnosticCode::IllegalPerforation,
        DiagnosticCode::WrapShiftPosition,
        DiagnosticCode::WrapShiftNoop,
        DiagnosticCode::ParallelForCollision,
        DiagnosticCode::ParallelForIndexUnused,
        DiagnosticCode::MixedPerforation,
        DiagnosticCode::InPlaceOnInput,
    ];
    for (i, code) in all.iter().enumerate() {
        assert_eq!(code.as_str(), format!("HDA{:03}", i + 1));
        assert!(!code.description().is_empty());
    }
}

/// DCE removes exactly what liveness marks dead: afterwards no `HDA001` is
/// left, and every removed instruction's result was dead before.
fn assert_dce_matches_liveness(mut program: Program) {
    let (liveness, diags) = liveness::check(&program, &DefUse::new(&program));
    assert!(
        diags.iter().any(|d| d.code == DiagnosticCode::DeadValue),
        "{diags:?}"
    );
    let results =
        |p: &Program| -> Vec<ValueId> { p.iter_instrs().filter_map(|i| i.result).collect() };
    let before = results(&program);
    let report = eliminate_dead_code(&mut program);
    let after = results(&program);
    let removed: Vec<ValueId> = before.into_iter().filter(|r| !after.contains(r)).collect();
    assert_eq!(removed.len(), report.removed_instrs);
    for r in removed {
        assert!(
            !liveness.is_live(r),
            "DCE removed live `{}`",
            program.value(r).name
        );
    }
    let (_, diags) = liveness::check(&program, &DefUse::new(&program));
    assert!(diags.is_empty(), "left after DCE: {diags:?}");
}

#[test]
fn dce_removes_exactly_the_dead_values() {
    assert_dce_matches_liveness(dead_value_program());
    let mut b = ProgramBuilder::new("dead_in_stage_body");
    let feats = b.input_matrix("feats", ElementKind::F64, 4, 8);
    let proj = b.input_matrix("proj", ElementKind::F64, 32, 8);
    let enc = b.encoding_loop("encode", feats, 32, |body, sample| {
        let e = body.matmul(sample, proj);
        let _dead = body.sign_flip(e);
        body.sign(e)
    });
    b.mark_output(enc);
    assert_dce_matches_liveness(b.finish());
}

#[test]
fn dead_stage_program_compiles_with_its_body_kept() {
    // Nothing reads the stage's labels, but DCE keeps the body that
    // computes `body_result`: the stage semantics consume it, and the
    // verifier rejects a stage body that no longer writes it.
    let mut program = dead_stage_program();
    let instrs = program.instr_count();
    let report = compile(&mut program, &CompileOptions::default()).expect("compiles");
    assert_eq!(report.dce.removed_instrs, 0);
    assert_eq!(program.instr_count(), instrs);
    expect_only(
        &program,
        DiagnosticCode::DeadStageOutput,
        Severity::Error,
        "HDA002",
    );
}
