//! Reduction perforation as a compiler configuration (paper §4.2).
//!
//! Applications can attach `red_perf` directives in source (via
//! [`hdc_ir::ProgramBuilder::red_perf`]); this pass lets the *compiler
//! invocation* do the same thing without touching application code, which is
//! how the Table 3 / Figure 7 configurations are explored: each
//! configuration is a [`PerforationConfig`] naming which reduction
//! operations to perforate and how.

use hdc_core::Perforation;
use hdc_ir::ops::HdcOp;
use hdc_ir::program::Program;

/// Which reduction instructions a perforation rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerforationSite {
    /// `hamming_distance` instructions.
    HammingDistance,
    /// `cossim` instructions.
    CosineSimilarity,
    /// `matmul` instructions (perforates the encoding stage).
    MatMul,
    /// `l2norm` instructions.
    L2Norm,
    /// Every perforable reduction.
    AllReductions,
}

impl PerforationSite {
    fn matches(&self, op: &HdcOp) -> bool {
        match self {
            PerforationSite::HammingDistance => matches!(op, HdcOp::HammingDistance),
            PerforationSite::CosineSimilarity => matches!(op, HdcOp::CosineSimilarity),
            PerforationSite::MatMul => matches!(op, HdcOp::MatMul),
            PerforationSite::L2Norm => matches!(op, HdcOp::L2Norm),
            PerforationSite::AllReductions => op.supports_perforation(),
        }
    }
}

/// A set of perforation rules applied by the compiler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerforationConfig {
    /// `(site, descriptor)` pairs; later rules override earlier ones when
    /// both match the same instruction.
    pub rules: Vec<(PerforationSite, Perforation)>,
}

impl PerforationConfig {
    /// A configuration with no rules (no perforation).
    pub fn none() -> Self {
        PerforationConfig { rules: Vec::new() }
    }

    /// Add a rule, builder style.
    pub fn with_rule(mut self, site: PerforationSite, perforation: Perforation) -> Self {
        self.rules.push((site, perforation));
        self
    }

    /// Convenience: perforate every similarity computation
    /// (`hamming_distance` and `cossim`) with the given stride.
    pub fn strided_similarity(stride: usize) -> Self {
        PerforationConfig::none()
            .with_rule(
                PerforationSite::HammingDistance,
                Perforation::strided(0, usize::MAX, stride),
            )
            .with_rule(
                PerforationSite::CosineSimilarity,
                Perforation::strided(0, usize::MAX, stride),
            )
    }

    /// Convenience: perforate the encoding `matmul` with the given stride.
    pub fn strided_encoding(stride: usize) -> Self {
        PerforationConfig::none().with_rule(
            PerforationSite::MatMul,
            Perforation::strided(0, usize::MAX, stride),
        )
    }

    /// Convenience: compute similarities over only the first half of each
    /// hypervector (segmented perforation), Table 3 configuration VIII.
    pub fn first_half_similarity(dimension: usize) -> Self {
        PerforationConfig::none()
            .with_rule(
                PerforationSite::HammingDistance,
                Perforation::segment(0, dimension / 2),
            )
            .with_rule(
                PerforationSite::CosineSimilarity,
                Perforation::segment(0, dimension / 2),
            )
    }
}

/// Statistics reported by [`apply_perforation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerforationReport {
    /// Number of instructions that received a perforation annotation.
    pub annotated_instrs: usize,
    /// Number of instructions that matched a rule but were skipped because
    /// their node is mapped to an HDC accelerator (which does not support
    /// the approximation, §4.2).
    pub skipped_on_accelerators: usize,
}

/// Apply a perforation configuration to every matching reduction
/// instruction of the program.
pub fn apply_perforation(program: &mut Program, config: &PerforationConfig) -> PerforationReport {
    let mut report = PerforationReport::default();
    if config.rules.is_empty() {
        return report;
    }
    for node in program.nodes_mut() {
        let on_accelerator = node.target.is_hdc_accelerator();
        for instr in node.instrs_mut() {
            let mut chosen: Option<Perforation> = None;
            for (site, perf) in &config.rules {
                if site.matches(&instr.op) && instr.op.supports_perforation() {
                    chosen = Some(*perf);
                }
            }
            if let Some(perf) = chosen {
                if on_accelerator {
                    report.skipped_on_accelerators += 1;
                } else {
                    instr.perforation = Some(perf);
                    report.annotated_instrs += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::target::Target;
    use hdc_ir::verify::verify;

    fn inference_program() -> Program {
        let mut b = ProgramBuilder::new("perf_test");
        let features = b.input_vector("features", ElementKind::F32, 617);
        let rp = b.input_matrix("rp", ElementKind::F32, 2048, 617);
        let classes = b.input_matrix("classes", ElementKind::F32, 26, 2048);
        let encoded = b.matmul(features, rp);
        let dists = b.hamming_distance(encoded, classes);
        let sims = b.cossim(encoded, classes);
        let l1 = b.arg_min(dists);
        let l2 = b.arg_max(sims);
        b.mark_output(l1);
        b.mark_output(l2);
        b.finish()
    }

    #[test]
    fn strided_similarity_annotates_only_similarities() {
        let mut p = inference_program();
        let report = apply_perforation(&mut p, &PerforationConfig::strided_similarity(2));
        assert_eq!(report.annotated_instrs, 2);
        for instr in p.iter_instrs() {
            match instr.op {
                HdcOp::HammingDistance | HdcOp::CosineSimilarity => {
                    assert_eq!(instr.perforation.unwrap().stride, 2)
                }
                _ => assert!(instr.perforation.is_none()),
            }
        }
        verify(&p).unwrap();
    }

    #[test]
    fn strided_encoding_annotates_matmul() {
        let mut p = inference_program();
        let report = apply_perforation(&mut p, &PerforationConfig::strided_encoding(4));
        assert_eq!(report.annotated_instrs, 1);
        let mm = p.iter_instrs().find(|i| i.op == HdcOp::MatMul).unwrap();
        assert_eq!(mm.perforation.unwrap().stride, 4);
    }

    #[test]
    fn first_half_uses_segment() {
        let mut p = inference_program();
        apply_perforation(&mut p, &PerforationConfig::first_half_similarity(2048));
        let hd = p
            .iter_instrs()
            .find(|i| i.op == HdcOp::HammingDistance)
            .unwrap();
        let perf = hd.perforation.unwrap();
        assert_eq!((perf.begin, perf.end, perf.stride), (0, 1024, 1));
        verify(&p).unwrap();
    }

    #[test]
    fn later_rules_override_earlier() {
        let mut p = inference_program();
        let config = PerforationConfig::none()
            .with_rule(
                PerforationSite::AllReductions,
                Perforation::strided(0, usize::MAX, 2),
            )
            .with_rule(
                PerforationSite::MatMul,
                Perforation::strided(0, usize::MAX, 8),
            );
        apply_perforation(&mut p, &config);
        let mm = p.iter_instrs().find(|i| i.op == HdcOp::MatMul).unwrap();
        assert_eq!(mm.perforation.unwrap().stride, 8);
        let hd = p
            .iter_instrs()
            .find(|i| i.op == HdcOp::HammingDistance)
            .unwrap();
        assert_eq!(hd.perforation.unwrap().stride, 2);
    }

    #[test]
    fn accelerator_nodes_are_skipped() {
        let mut b = ProgramBuilder::new("acc_perf");
        b.set_default_target(Target::DigitalAsic);
        let queries = b.input_matrix("queries", ElementKind::F32, 10, 2048);
        let classes = b.input_matrix("classes", ElementKind::F32, 26, 2048);
        let preds = b.inference_loop(
            "infer",
            queries,
            classes,
            hdc_ir::stage::ScorePolarity::Distance,
            |b, q| b.hamming_distance(q, classes),
        );
        b.mark_output(preds);
        let mut p = b.finish();
        let report = apply_perforation(&mut p, &PerforationConfig::strided_similarity(2));
        assert_eq!(report.annotated_instrs, 0);
        assert_eq!(report.skipped_on_accelerators, 1);
        assert!(p.iter_instrs().all(|i| i.perforation.is_none()));
    }

    #[test]
    fn empty_config_is_identity() {
        let mut p = inference_program();
        let before = p.clone();
        let report = apply_perforation(&mut p, &PerforationConfig::none());
        assert_eq!(report.annotated_instrs, 0);
        assert_eq!(p, before);
    }
}
