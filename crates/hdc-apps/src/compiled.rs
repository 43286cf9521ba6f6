//! The one bind / run / harvest path the three apps share.

use crate::{AppError, Result};
use hdc_accel::{AccelRun, AcceleratedExecutor, AcceleratorModel};
use hdc_datasets::Dataset;
use hdc_ir::program::{Program, ValueId, ValueRole};
use hdc_ir::Target;
use hdc_passes::{compile, CompileOptions, CompileReport};
use hdc_runtime::{ExecMode, ExecStats, Executor, Outputs, Value};

/// A compiled app program with its dataset and its host inputs. The inputs
/// are wrapped once as `Arc`-backed [`Value`]s, so every run binds them by
/// reference-count bump instead of copying the dataset.
#[derive(Debug)]
pub(crate) struct Compiled {
    pub(crate) dataset: Dataset,
    pub(crate) program: Program,
    pub(crate) report: CompileReport,
    inputs: Vec<(&'static str, Value)>,
}

impl Compiled {
    /// Compile `program` through the pass pipeline; `inputs` maps each
    /// input slot name to the value every run binds to it.
    pub(crate) fn new(
        dataset: Dataset,
        mut program: Program,
        options: &CompileOptions,
        inputs: Vec<(&'static str, Value)>,
    ) -> Result<Self> {
        let report = compile(&mut program, options)?;
        Ok(Compiled {
            dataset,
            program,
            report,
            inputs,
        })
    }

    /// Bind every host input on `exec`.
    fn bind(&self, exec: &mut Executor) -> hdc_runtime::Result<()> {
        for (name, value) in &self.inputs {
            exec.bind(name, value.clone())?;
        }
        Ok(())
    }

    /// An executor for `program` — this app's program or one derived from
    /// it — running under `mode` with every host input bound.
    pub(crate) fn executor<'p>(
        &self,
        program: &'p Program,
        mode: ExecMode,
    ) -> Result<Executor<'p>> {
        let mut exec = Executor::new(program)?;
        exec.set_mode(mode);
        self.bind(&mut exec)?;
        Ok(exec)
    }

    /// Run the compiled program under `mode`.
    pub(crate) fn run(&self, mode: ExecMode) -> Result<(Outputs, ExecStats)> {
        let mut exec = self.executor(&self.program, mode)?;
        let out = exec.run()?;
        Ok((out, exec.stats()))
    }

    /// Run the compiled program through the accelerator back end.
    pub(crate) fn run_accelerated(
        &self,
        model: &AcceleratorModel,
        target: Target,
    ) -> Result<AccelRun> {
        let ax = AcceleratedExecutor::new(&self.program, target, model.clone());
        Ok(ax.run_with(|exec| self.bind(exec))?)
    }

    /// Run the compiled program once, batched, with the named values
    /// flipped to outputs, and return them in `names` order.
    pub(crate) fn harvest(&self, names: &[&str]) -> Result<Vec<Value>> {
        let mut program = self.program.clone();
        let mut ids = Vec::with_capacity(names.len());
        for &name in names {
            let id = program
                .values()
                .iter()
                .position(|v| v.name == name)
                .map(ValueId::new)
                .ok_or_else(|| AppError::UnknownValue(name.to_string()))?;
            program.value_mut(id).role = ValueRole::Output;
            ids.push(id);
        }
        let out = self.executor(&program, ExecMode::Batched)?.run()?;
        Ok(ids
            .iter()
            .map(|&id| out.get(id).expect("marked as an output above").clone())
            .collect())
    }
}
