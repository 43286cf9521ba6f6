//! Target assignment: mapping dataflow-graph nodes onto hardware targets
//! with legality checks (paper §4.3 / Figure 4).
//!
//! The paper's compiler lets different nodes of the same program lower to
//! different devices; the HDC accelerators in particular only accept the
//! coarse-grain stage nodes (`encoding_loop` / `training_loop` /
//! `inference_loop`) and support neither `red_perf` annotations nor the
//! operations outside their fixed bipolar datapath. This pass applies a
//! [`TargetConfig`] to every node and *demotes* any stage that is illegal
//! for the requested accelerator to the fallback target instead of emitting
//! an invalid program, so the pipeline's post-pass re-verification always
//! holds.

use hdc_core::ops::ElementwiseOp;
use hdc_ir::ops::HdcOp;
use hdc_ir::program::{Node, NodeBody, Program};
use hdc_ir::target::Target;

/// How nodes are mapped onto hardware targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetConfig {
    /// Target for leaf (straight-line) nodes.
    pub leaf_target: Target,
    /// Target for generic `parallel_for` nodes.
    pub parallel_target: Target,
    /// Target for coarse-grain stage nodes.
    pub stage_target: Target,
    /// Target a stage falls back to when `stage_target` is an accelerator
    /// and the stage is not legal for it.
    pub fallback: Target,
}

impl Default for TargetConfig {
    fn default() -> Self {
        TargetConfig {
            leaf_target: Target::Cpu,
            parallel_target: Target::CpuParallel,
            stage_target: Target::Cpu,
            fallback: Target::Cpu,
        }
    }
}

impl TargetConfig {
    /// Everything on the sequential CPU back end.
    pub fn cpu() -> Self {
        TargetConfig {
            leaf_target: Target::Cpu,
            parallel_target: Target::Cpu,
            stage_target: Target::Cpu,
            fallback: Target::Cpu,
        }
    }

    /// Data-parallel work on the GPU, control on the CPU.
    pub fn gpu(gpu: Target) -> Self {
        assert!(gpu.is_gpu(), "TargetConfig::gpu requires a GPU target");
        TargetConfig {
            leaf_target: Target::Cpu,
            parallel_target: gpu,
            stage_target: gpu,
            fallback: gpu,
        }
    }

    /// Stage nodes on an HDC accelerator, everything else (and illegal
    /// stages) on the CPU.
    ///
    /// # Examples
    ///
    /// ```
    /// use hdc_ir::Target;
    /// use hdc_passes::TargetConfig;
    ///
    /// let config = TargetConfig::accelerator(Target::DigitalAsic);
    /// assert_eq!(config.stage_target, Target::DigitalAsic);
    /// assert_eq!(config.fallback, Target::Cpu);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `accelerator` is not an HDC accelerator target.
    pub fn accelerator(accelerator: Target) -> Self {
        assert!(
            accelerator.is_hdc_accelerator(),
            "TargetConfig::accelerator requires an HDC accelerator target"
        );
        TargetConfig {
            leaf_target: Target::Cpu,
            parallel_target: Target::CpuParallel,
            stage_target: accelerator,
            fallback: Target::Cpu,
        }
    }
}

/// Statistics reported by [`assign_targets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TargetAssignReport {
    /// Number of nodes whose target was set.
    pub assigned_nodes: usize,
    /// Number of stage nodes placed on an HDC accelerator.
    pub accelerated_stages: usize,
    /// Number of stage nodes demoted to the fallback target because they
    /// were illegal for the requested accelerator.
    pub demoted_stages: usize,
}

/// Whether the fixed-function HDC accelerator datapaths implement `op`.
///
/// The digital ASIC and the ReRAM accelerator operate on bipolar / binarized
/// data with compare-accumulate reductions; operations that need general
/// floating-point math (division, element-wise cosine, Gaussian sampling,
/// casts to a float kind) have no hardware equivalent and force the stage
/// onto a programmable device.
///
/// # Examples
///
/// ```
/// use hdc_ir::ops::HdcOp;
/// use hdc_passes::accelerator_supports;
///
/// assert!(accelerator_supports(&HdcOp::HammingDistance));
/// assert!(!accelerator_supports(&HdcOp::ArgTopK { k: 5 }));
/// ```
pub fn accelerator_supports(op: &HdcOp) -> bool {
    match op {
        HdcOp::Elementwise(ElementwiseOp::Div)
        | HdcOp::CosineElementwise
        | HdcOp::Gaussian { .. } => false,
        // The accelerators' compare-accumulate reduction trees emit a single
        // best-match index; multi-candidate top-k selection needs a
        // programmable device.
        HdcOp::ArgTopK { .. } => false,
        HdcOp::TypeCast { to } => !to.is_float(),
        _ => true,
    }
}

/// Why a stage cannot be placed on an HDC accelerator, or `None` when the
/// stage is legal (non-stage nodes are never placed on accelerators and
/// also return `None`).
///
/// This is the legality predicate [`assign_targets`] demotes by; it is
/// public so accelerator back ends (the `hdc-accel` crate) can report *why*
/// a stage stayed on the fallback device.
pub fn stage_illegal_reason(node: &Node) -> Option<&'static str> {
    let stage = match &node.body {
        NodeBody::Stage(stage) => stage,
        // Non-stage nodes are never placed on accelerators; the question
        // does not arise.
        _ => return None,
    };
    if stage.body.iter().any(|i| i.perforation.is_some()) {
        return Some("red_perf annotations are not supported on accelerators");
    }
    if stage.body.iter().any(|i| !accelerator_supports(&i.op)) {
        return Some("stage body uses ops outside the accelerator datapath");
    }
    None
}

/// The placement decision for one stage node, as read back from an assigned
/// program by [`stage_placements`].
///
/// This is the per-stage metadata an accelerator performance model
/// consumes: which device the stage landed on, its kind and static sample
/// count, and — when it is *not* on an accelerator — the legality reason
/// that would keep it off one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlacement {
    /// Name of the stage node.
    pub node: String,
    /// Stage kind name (`encoding_loop` / `training_loop` /
    /// `inference_loop`).
    pub kind: &'static str,
    /// The target the stage is currently assigned to.
    pub target: Target,
    /// Why the stage is illegal for an HDC accelerator, if it is.
    pub illegal_reason: Option<&'static str>,
}

impl StagePlacement {
    /// Whether the stage is placed on one of the HDC accelerators.
    pub fn accelerated(&self) -> bool {
        self.target.is_hdc_accelerator()
    }
}

/// Read back the per-stage placement decisions of an assigned program.
///
/// Call after [`assign_targets`] (or the full pipeline): each stage node is
/// reported with its current target and, for stages on a programmable
/// device, the accelerator-legality reason (if any) that
/// [`assign_targets`] would demote it for.
///
/// # Examples
///
/// ```
/// use hdc_core::element::ElementKind;
/// use hdc_ir::builder::ProgramBuilder;
/// use hdc_ir::Target;
/// use hdc_passes::{assign_targets, stage_placements, TargetConfig};
///
/// let mut b = ProgramBuilder::new("placements");
/// let q = b.input_matrix("q", ElementKind::Bit, 4, 128);
/// let c = b.input_matrix("c", ElementKind::Bit, 2, 128);
/// let preds = b.inference_loop(
///     "infer", q, c, hdc_ir::stage::ScorePolarity::Distance,
///     |b, s| b.hamming_distance(s, c),
/// );
/// b.mark_output(preds);
/// let mut p = b.finish();
/// assign_targets(&mut p, &TargetConfig::accelerator(Target::DigitalAsic));
/// let placements = stage_placements(&p);
/// assert_eq!(placements.len(), 1);
/// assert!(placements[0].accelerated());
/// assert_eq!(placements[0].illegal_reason, None);
/// ```
pub fn stage_placements(program: &Program) -> Vec<StagePlacement> {
    program
        .nodes()
        .iter()
        .filter_map(|node| match &node.body {
            NodeBody::Stage(stage) => Some(StagePlacement {
                node: node.name.clone(),
                kind: stage.kind.name(),
                target: node.target,
                illegal_reason: stage_illegal_reason(node),
            }),
            _ => None,
        })
        .collect()
}

/// Assign every node of `program` a target according to `config`.
///
/// Leaf and `parallel_for` nodes take `leaf_target` / `parallel_target`
/// unconditionally (those are always programmable devices). Stage nodes take
/// `stage_target` when legal; when `stage_target` is an HDC accelerator and
/// the stage carries perforation annotations or unsupported ops, the stage
/// is demoted to `config.fallback` and counted in the report.
///
/// # Examples
///
/// ```
/// use hdc_core::element::ElementKind;
/// use hdc_ir::builder::ProgramBuilder;
/// use hdc_ir::Target;
/// use hdc_passes::{assign_targets, TargetConfig};
///
/// let mut b = ProgramBuilder::new("assign");
/// let q = b.input_matrix("q", ElementKind::Bit, 4, 128);
/// let c = b.input_matrix("c", ElementKind::Bit, 2, 128);
/// let preds = b.inference_loop(
///     "infer", q, c, hdc_ir::stage::ScorePolarity::Distance,
///     |b, s| b.hamming_distance(s, c),
/// );
/// b.mark_output(preds);
/// let mut p = b.finish();
/// let report = assign_targets(&mut p, &TargetConfig::accelerator(Target::ReRamAccelerator));
/// assert_eq!(report.accelerated_stages, 1);
/// assert_eq!(report.demoted_stages, 0);
/// ```
pub fn assign_targets(program: &mut Program, config: &TargetConfig) -> TargetAssignReport {
    let mut report = TargetAssignReport::default();
    for node in program.nodes_mut() {
        let target = match &node.body {
            NodeBody::Leaf { .. } => config.leaf_target,
            NodeBody::ParallelFor { .. } => config.parallel_target,
            NodeBody::Stage(_) => {
                if config.stage_target.is_hdc_accelerator() {
                    if stage_illegal_reason(node).is_some() {
                        report.demoted_stages += 1;
                        config.fallback
                    } else {
                        report.accelerated_stages += 1;
                        config.stage_target
                    }
                } else {
                    config.stage_target
                }
            }
        };
        node.target = target;
        report.assigned_nodes += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::stage::ScorePolarity;
    use hdc_ir::verify::verify;

    fn staged_program(perforate: bool, with_div: bool) -> Program {
        let mut b = ProgramBuilder::new("targets");
        let features = b.input_matrix("features", ElementKind::F32, 20, 617);
        let rp = b.input_matrix("rp", ElementKind::F32, 2048, 617);
        let classes = b.input_matrix("classes", ElementKind::F32, 26, 2048);
        let encoded = b.encoding_loop("encode", features, 2048, |b, q| b.matmul(q, rp));
        let preds = b.inference_loop(
            "infer",
            encoded,
            classes,
            ScorePolarity::Distance,
            |b, q| {
                let d = b.hamming_distance(q, classes);
                if perforate {
                    b.red_perf(d, 0, 2048, 2);
                }
                if with_div {
                    let e = b.div(d, d);
                    return e;
                }
                d
            },
        );
        b.mark_output(preds);
        b.finish()
    }

    #[test]
    fn cpu_config_assigns_everything_to_cpu() {
        let mut p = staged_program(false, false);
        let report = assign_targets(&mut p, &TargetConfig::cpu());
        assert_eq!(report.assigned_nodes, p.nodes().len());
        assert!(p.nodes().iter().all(|n| n.target == Target::Cpu));
        verify(&p).unwrap();
    }

    #[test]
    fn accelerator_config_places_stages_on_accelerator() {
        let mut p = staged_program(false, false);
        let report = assign_targets(&mut p, &TargetConfig::accelerator(Target::DigitalAsic));
        assert_eq!(report.accelerated_stages, 2);
        assert_eq!(report.demoted_stages, 0);
        for node in p.nodes() {
            if matches!(node.body, NodeBody::Stage(_)) {
                assert_eq!(node.target, Target::DigitalAsic);
            } else {
                assert!(!node.target.is_hdc_accelerator());
            }
        }
        verify(&p).unwrap();
    }

    #[test]
    fn perforated_stage_is_demoted() {
        let mut p = staged_program(true, false);
        let report = assign_targets(&mut p, &TargetConfig::accelerator(Target::ReRamAccelerator));
        assert_eq!(report.demoted_stages, 1, "perforated inference stage");
        assert_eq!(report.accelerated_stages, 1, "clean encoding stage");
        // The demoted stage landed on the fallback, and the program is valid:
        // verify() would reject red_perf on an accelerator node.
        verify(&p).unwrap();
    }

    #[test]
    fn unsupported_ops_demote_stage() {
        let mut p = staged_program(false, true);
        let report = assign_targets(&mut p, &TargetConfig::accelerator(Target::DigitalAsic));
        assert_eq!(report.demoted_stages, 1);
        verify(&p).unwrap();
    }

    #[test]
    fn accelerator_support_matrix() {
        assert!(accelerator_supports(&HdcOp::HammingDistance));
        assert!(accelerator_supports(&HdcOp::MatMul));
        assert!(accelerator_supports(&HdcOp::Sign));
        assert!(accelerator_supports(&HdcOp::Elementwise(
            ElementwiseOp::Add
        )));
        assert!(accelerator_supports(&HdcOp::TypeCast {
            to: ElementKind::Bit
        }));
        assert!(!accelerator_supports(&HdcOp::Elementwise(
            ElementwiseOp::Div
        )));
        assert!(!accelerator_supports(&HdcOp::ArgTopK { k: 3 }));
        assert!(!accelerator_supports(&HdcOp::CosineElementwise));
        assert!(!accelerator_supports(&HdcOp::Gaussian { seed: 1 }));
        assert!(!accelerator_supports(&HdcOp::TypeCast {
            to: ElementKind::F32
        }));
    }

    #[test]
    #[should_panic(expected = "requires an HDC accelerator")]
    fn accelerator_config_rejects_non_accelerator() {
        TargetConfig::accelerator(Target::Gpu);
    }

    #[test]
    fn stage_placements_report_targets_and_reasons() {
        let mut p = staged_program(true, false);
        assign_targets(&mut p, &TargetConfig::accelerator(Target::DigitalAsic));
        let placements = stage_placements(&p);
        assert_eq!(placements.len(), 2, "encode + infer");
        let encode = placements.iter().find(|s| s.node == "encode").unwrap();
        assert!(encode.accelerated());
        assert_eq!(encode.kind, "encoding_loop");
        assert_eq!(encode.illegal_reason, None);
        let infer = placements.iter().find(|s| s.node == "infer").unwrap();
        assert!(!infer.accelerated(), "perforated stage demoted");
        assert_eq!(infer.kind, "inference_loop");
        assert!(infer.illegal_reason.unwrap().contains("red_perf"));
    }

    #[test]
    fn gpu_config_places_parallel_work_on_gpu() {
        let mut b = ProgramBuilder::new("gpu");
        let m = b.input_matrix("m", ElementKind::F32, 8, 64);
        let out = b.input_matrix("out", ElementKind::F32, 8, 64);
        b.mark_output(out);
        b.parallel_for("rows", 8, |b, idx| {
            let row = b.get_matrix_row_dyn(m, idx);
            let s = b.sign(row);
            b.set_matrix_row_dyn(out, s, idx);
        });
        let mut p = b.finish();
        assign_targets(&mut p, &TargetConfig::gpu(Target::Gpu));
        let par = p
            .nodes()
            .iter()
            .find(|n| matches!(n.body, NodeBody::ParallelFor { .. }))
            .unwrap();
        assert_eq!(par.target, Target::Gpu);
    }
}
