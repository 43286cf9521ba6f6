//! Human-readable textual dumps of HPVM-HDC IR programs, and the JSON
//! string escaper the reports built on them share.

use crate::instr::HdcInstr;
use crate::program::{NodeBody, Program, ValueRole};
use std::fmt::Write as _;

fn write_instr(out: &mut String, program: &Program, instr: &HdcInstr, indent: &str) {
    let mut line = String::new();
    if let Some(r) = instr.result {
        let _ = write!(line, "%{} : {} = ", r.index(), program.value(r).ty);
    }
    let _ = write!(line, "{}", instr.op);
    for (i, op) in instr.operands.iter().enumerate() {
        if i == 0 {
            let _ = write!(line, " ");
        } else {
            let _ = write!(line, ", ");
        }
        let _ = write!(line, "{op}");
    }
    if let Some(p) = instr.perforation {
        let _ = write!(line, "  !red_perf({p})");
    }
    let _ = writeln!(out, "{indent}{line}");
}

/// Render a program as text. The format is for human inspection and golden
/// tests; it is not meant to be parsed back.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program @{} {{", program.name);
    for (i, v) in program.values().iter().enumerate() {
        let role = match v.role {
            ValueRole::Input => "input",
            ValueRole::Output => "output",
            ValueRole::Temp => "temp",
        };
        let _ = writeln!(out, "  value %{i} \"{}\" : {} ({role})", v.name, v.ty);
    }
    for node in program.nodes() {
        match &node.body {
            NodeBody::Leaf { instrs } => {
                let _ = writeln!(out, "  node @{} target={} {{", node.name, node.target);
                for instr in instrs {
                    write_instr(&mut out, program, instr, "    ");
                }
                let _ = writeln!(out, "  }}");
            }
            NodeBody::ParallelFor { count, index, body } => {
                let _ = writeln!(
                    out,
                    "  parallel_for @{} target={} count={} index=%{} {{",
                    node.name,
                    node.target,
                    count,
                    index.index()
                );
                for instr in body {
                    write_instr(&mut out, program, instr, "    ");
                }
                let _ = writeln!(out, "  }}");
            }
            NodeBody::Stage(stage) => {
                let _ = writeln!(
                    out,
                    "  stage @{} target={} kind={} queries=%{} output=%{} {{",
                    node.name,
                    node.target,
                    stage.kind,
                    stage.interface.queries.index(),
                    stage.interface.output.index()
                );
                for instr in &stage.body {
                    write_instr(&mut out, program, instr, "    ");
                }
                let _ = writeln!(out, "  }}");
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Quote `s` as a JSON string literal, escaping quotes, backslashes and
/// control characters: the one escaper of every hand-written JSON body.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::stage::ScorePolarity;
    use hdc_core::element::ElementKind;

    #[test]
    fn printer_includes_values_nodes_and_annotations() {
        let mut b = ProgramBuilder::new("printme");
        let a = b.input_vector("query", ElementKind::F32, 128);
        let m = b.input_matrix("classes", ElementKind::F32, 4, 128);
        let d = b.hamming_distance(a, m);
        b.red_perf(d, 0, 64, 2);
        let l = b.arg_min(d);
        b.mark_output(l);
        let text = print_program(&b.finish());
        assert!(text.contains("program @printme"));
        assert!(text.contains("hypervector<f32, 128>"));
        assert!(text.contains("hdc.hamming_distance"));
        assert!(text.contains("!red_perf"));
        assert!(text.contains("(output)"));
    }

    #[test]
    fn printer_renders_stage_nodes() {
        let mut b = ProgramBuilder::new("stageprint");
        let q = b.input_matrix("queries", ElementKind::F32, 10, 64);
        let c = b.input_matrix("classes", ElementKind::F32, 3, 64);
        let preds = b.inference_loop("infer", q, c, ScorePolarity::Distance, |b, query| {
            b.hamming_distance(query, c)
        });
        b.mark_output(preds);
        let text = print_program(&b.finish());
        assert!(text.contains("stage @infer"));
        assert!(text.contains("kind=inference_loop"));
    }
}
