//! Diagnostics: stable codes, severities, IR locations, and the
//! machine-readable [`AnalysisReport`].
//!
//! Every analysis in this crate reports findings as [`Diagnostic`]s carrying
//! a stable [`DiagnosticCode`] (`HDA001`–`HDA011`), so tests and CI gates
//! can assert on exact codes rather than message text. The catalog lives in
//! `docs/static-analysis.md`.

use hdc_ir::printer::json_str;
use std::fmt;

/// How serious a diagnostic is.
///
/// `hdc-lint` (and [`AnalysisReport::has_errors`]) fail only on
/// [`Severity::Error`]; warnings and notes are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a property worth knowing, not a defect.
    Info,
    /// Probably a mistake or wasted work, but execution is well-defined.
    Warning,
    /// The program is wrong: results will be meaningless or racy.
    Error,
}

impl Severity {
    /// Lower-case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable identifier of one diagnostic kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticCode {
    /// `HDA001`: an instruction result is never used by anything that
    /// reaches a program output.
    DeadValue,
    /// `HDA002`: a stage's interface output is never consumed — the whole
    /// stage (the expensive part of the program) is dead.
    DeadStageOutput,
    /// `HDA003`: a stage body's result shape or element kind does not match
    /// what the stage interface hands downstream.
    StageShapeMismatch,
    /// `HDA004`: a binarized (`Bit`-tainted) value flows into a kernel that
    /// is meaningless on packed ±1 data (`div`, element-wise `cos`).
    BitTaintLeak,
    /// `HDA005`: a `red_perf` annotation on an operation that does not
    /// support perforation, or with an out-of-range mask.
    IllegalPerforation,
    /// `HDA006`: `wrap_shift` applied to a reduction/selection result or a
    /// non-tensor value — rotating scores or indices is meaningless.
    WrapShiftPosition,
    /// `HDA007`: a `wrap_shift` whose amount is a multiple of the dimension
    /// (a no-op rotation).
    WrapShiftNoop,
    /// `HDA008`: parallel-for instances write the same matrix row (an
    /// immediate row index inside a `ParallelFor` body).
    ParallelForCollision,
    /// `HDA009`: a `ParallelFor` body never reads its instance index, so
    /// every instance computes the same thing.
    ParallelForIndexUnused,
    /// `HDA010`: within one node, some instances of a perforable operation
    /// are perforated and others are not.
    MixedPerforation,
    /// `HDA011`: an in-place mutation (`set_matrix_row`/`accumulate_row`)
    /// targets a host-provided input buffer.
    InPlaceOnInput,
}

impl DiagnosticCode {
    /// The stable `HDAnnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::DeadValue => "HDA001",
            DiagnosticCode::DeadStageOutput => "HDA002",
            DiagnosticCode::StageShapeMismatch => "HDA003",
            DiagnosticCode::BitTaintLeak => "HDA004",
            DiagnosticCode::IllegalPerforation => "HDA005",
            DiagnosticCode::WrapShiftPosition => "HDA006",
            DiagnosticCode::WrapShiftNoop => "HDA007",
            DiagnosticCode::ParallelForCollision => "HDA008",
            DiagnosticCode::ParallelForIndexUnused => "HDA009",
            DiagnosticCode::MixedPerforation => "HDA010",
            DiagnosticCode::InPlaceOnInput => "HDA011",
        }
    }

    /// One-line description of the diagnostic kind (the catalog entry).
    pub fn description(self) -> &'static str {
        match self {
            DiagnosticCode::DeadValue => "instruction result never reaches a program output",
            DiagnosticCode::DeadStageOutput => "stage output is never consumed",
            DiagnosticCode::StageShapeMismatch => {
                "stage body result does not match the stage interface"
            }
            DiagnosticCode::BitTaintLeak => "binarized value flows into a real-valued-only kernel",
            DiagnosticCode::IllegalPerforation => "red_perf annotation is illegal here",
            DiagnosticCode::WrapShiftPosition => "wrap_shift in an illegal position",
            DiagnosticCode::WrapShiftNoop => "wrap_shift rotation is a no-op",
            DiagnosticCode::ParallelForCollision => "parallel instances write the same row",
            DiagnosticCode::ParallelForIndexUnused => "parallel_for never reads its index",
            DiagnosticCode::MixedPerforation => "perforation applied inconsistently",
            DiagnosticCode::InPlaceOnInput => "in-place mutation of a host input buffer",
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the IR a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Location {
    /// The node the finding is in, if any.
    pub node: Option<String>,
    /// Index of the instruction within the node body, if any.
    pub instr: Option<usize>,
    /// Name of the value slot involved, if any.
    pub value: Option<String>,
}

impl Location {
    /// A location naming only a node.
    pub fn node(name: impl Into<String>) -> Self {
        Location {
            node: Some(name.into()),
            ..Location::default()
        }
    }

    /// A location naming a node and an instruction index within it.
    pub fn instr(node: impl Into<String>, index: usize) -> Self {
        Location {
            node: Some(node.into()),
            instr: Some(index),
            ..Location::default()
        }
    }

    /// Attach a value name.
    pub fn with_value(mut self, value: impl Into<String>) -> Self {
        self.value = Some(value.into());
        self
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.node, self.instr) {
            (Some(n), Some(i)) => write!(f, "{n}#{i}")?,
            (Some(n), None) => write!(f, "{n}")?,
            (None, _) => write!(f, "<program>")?,
        }
        if let Some(v) = &self.value {
            write!(f, " (%{v})")?;
        }
        Ok(())
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagnosticCode,
    /// How serious it is.
    pub severity: Severity,
    /// Where it points in the IR.
    pub location: Location,
    /// What is wrong, in terms of the program's own names.
    pub message: String,
    /// How to fix it, when the analysis can tell.
    pub suggestion: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " (fix: {s})")?;
        }
        Ok(())
    }
}

/// The combined result of every analysis over one program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisReport {
    /// The analyzed program's name.
    pub program: String,
    /// All findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether any finding carries the given code.
    pub fn has_code(&self, code: DiagnosticCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// All findings with the given code.
    pub fn with_code(&self, code: DiagnosticCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// One-line summary (`N errors, M warnings, K notes`).
    pub fn summary(&self) -> String {
        let notes = self.diagnostics.len() - self.error_count() - self.warning_count();
        format!(
            "{}: {} errors, {} warnings, {} notes",
            self.program,
            self.error_count(),
            self.warning_count(),
            notes
        )
    }

    /// Machine-readable JSON rendering (stable field names; no external
    /// dependencies, so the escaping is done by hand).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"program\":{},", json_str(&self.program)));
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},",
            self.error_count(),
            self.warning_count()
        ));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&format!("\"code\":{},", json_str(d.code.as_str())));
            out.push_str(&format!("\"severity\":{},", json_str(d.severity.name())));
            match &d.location.node {
                Some(n) => out.push_str(&format!("\"node\":{},", json_str(n))),
                None => out.push_str("\"node\":null,"),
            }
            match d.location.instr {
                Some(i) => out.push_str(&format!("\"instr\":{i},")),
                None => out.push_str("\"instr\":null,"),
            }
            match &d.location.value {
                Some(v) => out.push_str(&format!("\"value\":{},", json_str(v))),
                None => out.push_str("\"value\":null,"),
            }
            out.push_str(&format!("\"message\":{}", json_str(&d.message)));
            if let Some(s) = &d.suggestion {
                out.push_str(&format!(",\"suggestion\":{}", json_str(s)));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        AnalysisReport {
            program: "p".into(),
            diagnostics: vec![
                Diagnostic {
                    code: DiagnosticCode::DeadValue,
                    severity: Severity::Warning,
                    location: Location::instr("n0", 2).with_value("tmp"),
                    message: "result `tmp` is dead".into(),
                    suggestion: Some("remove the instruction".into()),
                },
                Diagnostic {
                    code: DiagnosticCode::BitTaintLeak,
                    severity: Severity::Error,
                    location: Location::node("n1"),
                    message: "binarized \"q\" reaches hdc.div".into(),
                    suggestion: None,
                },
            ],
        }
    }

    #[test]
    fn counts_and_codes() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(r.has_code(DiagnosticCode::DeadValue));
        assert!(!r.has_code(DiagnosticCode::WrapShiftNoop));
        assert_eq!(r.with_code(DiagnosticCode::BitTaintLeak).len(), 1);
    }

    #[test]
    fn codes_are_stable_and_distinct() {
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
        let codes: std::collections::HashSet<&str> = all.iter().map(|c| c.as_str()).collect();
        assert_eq!(codes.len(), all.len());
        for c in all {
            assert!(c.as_str().starts_with("HDA"));
            assert!(!c.description().is_empty());
        }
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"code\":\"HDA001\""));
        assert!(j.contains("\"severity\":\"error\""));
        // The quoted value name inside the message must be escaped.
        assert!(j.contains("binarized \\\"q\\\" reaches hdc.div"));
        assert_eq!(j.matches("\"code\"").count(), 2);
    }

    #[test]
    fn display_renders_every_diagnostic() {
        let text = sample().to_string();
        assert!(text.contains("p: 1 errors, 1 warnings, 0 notes"));
        assert!(text.contains("warning [HDA001] n0#2 (%tmp)"));
        assert!(text.contains("fix: remove the instruction"));
    }
}
