//! The model-backed accelerated execution path.
//!
//! [`AcceleratedExecutor`] is the execution mode the accelerator targets
//! plug into: it re-targets a compiled program onto one of the HDC
//! accelerators (hoisting loop-invariant transfers and applying the
//! legality demotion of `hdc-passes::target_assign`), executes it
//! **functionally** through the `hdc-runtime` interpreter — the sequential
//! and batched CPU schedules remain the output oracle, and the equivalence
//! suite asserts bit-identical outputs — and charges the modeled
//! programming / streaming / compute cost of every accelerator-placed
//! stage against the stage trace of what actually ran.

use crate::model::{AcceleratorModel, StageCost};
use hdc_ir::program::Program;
use hdc_ir::Target;
use hdc_passes::{
    assign_targets, hoist_data_movement, stage_placements, StagePlacement, TargetConfig,
};
use hdc_runtime::{ExecStats, Executor, Outputs, Result};

/// [`ExecStats`] extended with the modeled accelerator accounting: the
/// interpreter's functional counters plus the per-stage cost model output.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelExecStats {
    /// The interpreter's counters for the functional execution (its
    /// `accelerated_stage_samples` field counts exactly the samples the
    /// model charged).
    pub exec: ExecStats,
    /// The modeled per-stage accelerator costs.
    pub modeled: AccelReport,
}

/// The modeled cost report of one accelerated run.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelReport {
    /// The accelerator the run was modeled on.
    pub target: Target,
    /// Modeled cost of every stage that executed on the accelerator, in
    /// execution order.
    pub stages: Vec<StageCost>,
    /// Stages that stayed on the fallback device, with the legality reason
    /// when there is one.
    pub demoted: Vec<StagePlacement>,
}

impl AccelReport {
    /// Number of stage executions modeled on the accelerator.
    pub fn accelerated_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total modeled accelerator time across all accelerated stages (s).
    pub fn accel_seconds(&self) -> f64 {
        self.stages.iter().map(StageCost::accel_seconds).sum()
    }

    /// Total modeled CPU time for the same stages (s).
    pub fn cpu_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.cpu_seconds).sum()
    }

    /// Total modeled energy across all accelerated stages (J).
    pub fn energy_joules(&self) -> f64 {
        self.stages.iter().map(|s| s.energy_joules).sum()
    }

    /// Modeled accelerator-vs-CPU speedup over the accelerated stages
    /// (`1.0` when nothing was accelerated).
    pub fn modeled_speedup(&self) -> f64 {
        let accel = self.accel_seconds();
        if accel == 0.0 {
            return 1.0;
        }
        self.cpu_seconds() / accel
    }
}

/// The outcome of one accelerated run: the (oracle-identical) outputs plus
/// the extended execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelRun {
    /// The program outputs — bit-identical to the CPU schedules.
    pub outputs: Outputs,
    /// Functional counters plus modeled accelerator accounting.
    pub stats: AccelExecStats,
}

/// Executes a program with its stage nodes placed on one HDC accelerator,
/// accounting modeled cost while the `hdc-runtime` kernels produce the
/// (oracle-identical) outputs.
///
/// # Examples
///
/// ```
/// use hdc_accel::{AcceleratedExecutor, AcceleratorModel};
/// use hdc_core::prelude::*;
/// use hdc_ir::prelude::*;
/// use hdc_runtime::Value;
///
/// // A binarized inference stage: 4 queries against 2 class vectors.
/// let mut b = ProgramBuilder::new("accel_infer");
/// let q = b.input_matrix("queries", ElementKind::Bit, 4, 128);
/// let c = b.input_matrix("classes", ElementKind::Bit, 2, 128);
/// let preds = b.inference_loop("infer", q, c, ScorePolarity::Distance, |b, s| {
///     b.hamming_distance(s, c)
/// });
/// b.mark_output(preds);
/// let program = b.finish();
///
/// let ax = AcceleratedExecutor::new(
///     &program,
///     Target::DigitalAsic,
///     AcceleratorModel::default(),
/// );
/// let mut rng = HdcRng::seed_from_u64(1);
/// let classes = BitMatrix::from_dense(&hdc_core::random::bipolar_hypermatrix::<f64>(2, 128, &mut rng));
/// let queries = BitMatrix::from_rows(vec![
///     classes.row(0).unwrap().clone(),
///     classes.row(1).unwrap().clone(),
///     classes.row(0).unwrap().clone(),
///     classes.row(1).unwrap().clone(),
/// ]).unwrap();
/// let run = ax
///     .run_with(|exec| {
///         exec.bind("queries", Value::bit_matrix(queries))?;
///         exec.bind("classes", Value::bit_matrix(classes))?;
///         Ok(())
///     })
///     .unwrap();
/// assert_eq!(run.outputs.indices(preds).unwrap(), &[0, 1, 0, 1]);
/// assert_eq!(run.stats.modeled.accelerated_stages(), 1);
/// assert!(run.stats.modeled.modeled_speedup() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratedExecutor {
    program: Program,
    model: AcceleratorModel,
    target: Target,
}

impl AcceleratedExecutor {
    /// Re-target `program` onto `target`: clone it, hoist loop-invariant
    /// stage transfers (so programming cost is charged once per stage, the
    /// Listing-6 optimization — a no-op if the pass already ran), and
    /// assign stage nodes to the accelerator with legality demotion to the
    /// CPU fallback.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not an HDC accelerator
    /// ([`Target::is_hdc_accelerator`]).
    pub fn new(program: &Program, target: Target, model: AcceleratorModel) -> Self {
        assert!(
            target.is_hdc_accelerator(),
            "AcceleratedExecutor requires an HDC accelerator target"
        );
        let mut program = program.clone();
        hoist_data_movement(&mut program);
        assign_targets(&mut program, &TargetConfig::accelerator(target));
        AcceleratedExecutor {
            program,
            model,
            target,
        }
    }

    /// The re-targeted program this executor runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The accelerator target stages were placed on.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The model used for cost accounting.
    pub fn model(&self) -> &AcceleratorModel {
        &self.model
    }

    /// The per-stage placement decisions (accelerated vs demoted-with-reason)
    /// of the re-targeted program.
    pub fn placements(&self) -> Vec<StagePlacement> {
        stage_placements(&self.program)
    }

    /// Execute the program: `bind` receives the underlying interpreter to
    /// bind inputs on, then the program runs with batched kernels and every
    /// accelerator-placed stage in the resulting trace is charged its
    /// modeled cost.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors from verification, binding, or
    /// execution.
    pub fn run_with<F>(&self, bind: F) -> Result<AccelRun>
    where
        F: FnOnce(&mut Executor) -> Result<()>,
    {
        let mut exec = Executor::new(&self.program)?;
        bind(&mut exec)?;
        let outputs = exec.run()?;
        let mut stages = Vec::new();
        for entry in exec.stage_trace() {
            if !entry.target.is_hdc_accelerator() {
                continue;
            }
            let node = self
                .program
                .nodes()
                .iter()
                .find(|n| n.name == entry.node)
                .expect("traced stage exists in the program");
            if let Some(cost) = self.model.stage_cost(&self.program, node, entry.samples) {
                stages.push(cost);
            }
        }
        let demoted = self
            .placements()
            .into_iter()
            .filter(|p| !p.accelerated())
            .collect();
        Ok(AccelRun {
            outputs,
            stats: AccelExecStats {
                exec: exec.stats(),
                modeled: AccelReport {
                    target: self.target,
                    stages,
                    demoted,
                },
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_core::prelude::*;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::stage::ScorePolarity;
    use hdc_runtime::{ExecMode, Value};

    /// Eight queries against four classes: XOR/popcount Hamming when
    /// `binarized`, dense cosine otherwise.
    fn staged_inference(perforate: bool, binarized: bool) -> Program {
        let elem = if binarized {
            ElementKind::Bit
        } else {
            ElementKind::F64
        };
        let polarity = if binarized {
            ScorePolarity::Distance
        } else {
            ScorePolarity::Similarity
        };
        let mut b = ProgramBuilder::new("exec_test");
        let q = b.input_matrix("queries", elem, 8, 256);
        let c = b.input_matrix("classes", elem, 4, 256);
        let preds = b.inference_loop("infer", q, c, polarity, |b, s| {
            let d = if binarized {
                b.hamming_distance(s, c)
            } else {
                b.cossim(s, c)
            };
            if perforate {
                b.red_perf(d, 0, 256, 2);
            }
            d
        });
        b.mark_output(preds);
        b.finish()
    }

    fn bind_data(exec: &mut Executor, binarized: bool) -> hdc_runtime::Result<()> {
        let mut rng = HdcRng::seed_from_u64(3);
        let classes: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(4, 256, &mut rng);
        let queries: HyperMatrix<f64> = HyperMatrix::from_rows(
            (0..8)
                .map(|i| classes.row_vector(i % 4).unwrap())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        if binarized {
            exec.bind(
                "queries",
                Value::bit_matrix(BitMatrix::from_dense(&queries)),
            )?;
            exec.bind(
                "classes",
                Value::bit_matrix(BitMatrix::from_dense(&classes)),
            )?;
        } else {
            exec.bind("queries", Value::matrix(queries))?;
            exec.bind("classes", Value::matrix(classes))?;
        }
        Ok(())
    }

    #[test]
    fn accelerated_outputs_match_oracle_and_account_samples() {
        for binarized in [true, false] {
            let p = staged_inference(false, binarized);
            let bind = |exec: &mut Executor| bind_data(exec, binarized);
            // Oracle: the same program executed sequentially on the CPU.
            let mut oracle = Executor::new(&p).unwrap();
            oracle.set_mode(ExecMode::Sequential);
            bind(&mut oracle).unwrap();
            let expect = oracle.run().unwrap();
            for target in [Target::DigitalAsic, Target::ReRamAccelerator] {
                let ax = AcceleratedExecutor::new(&p, target, AcceleratorModel::default());
                let run = ax.run_with(bind).unwrap();
                let preds = run.outputs.iter().next().unwrap().0;
                assert_eq!(
                    run.outputs.get(preds).unwrap(),
                    expect.get(preds).unwrap(),
                    "{target} binarized={binarized}: accelerated path must be bit-identical \
                     to the oracle"
                );
                assert_eq!(run.stats.exec.accelerated_stage_samples, 8);
                assert_eq!(run.stats.modeled.accelerated_stages(), 1);
                assert_eq!(run.stats.modeled.stages[0].samples, 8);
                assert!(run.stats.modeled.demoted.is_empty());
                assert!(run.stats.modeled.energy_joules() > 0.0);
            }
        }
    }

    #[test]
    fn perforated_stage_is_demoted_and_unmodeled() {
        let p = staged_inference(true, true);
        let ax =
            AcceleratedExecutor::new(&p, Target::ReRamAccelerator, AcceleratorModel::default());
        let run = ax.run_with(|exec| bind_data(exec, true)).unwrap();
        assert_eq!(run.stats.modeled.accelerated_stages(), 0);
        assert_eq!(run.stats.exec.accelerated_stage_samples, 0);
        assert_eq!(run.stats.modeled.demoted.len(), 1);
        assert!(run.stats.modeled.demoted[0]
            .illegal_reason
            .unwrap()
            .contains("red_perf"));
        assert_eq!(run.stats.modeled.modeled_speedup(), 1.0);
    }

    #[test]
    #[should_panic(expected = "requires an HDC accelerator")]
    fn rejects_programmable_targets() {
        let p = staged_inference(false, true);
        AcceleratedExecutor::new(&p, Target::Gpu, AcceleratorModel::default());
    }
}
