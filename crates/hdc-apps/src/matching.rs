//! Top-k spectral matching (HyperOMS-style library search).
//!
//! Open-modification spectral-library search scores every query spectrum
//! against a reference library and reports the best `k` candidates per
//! query — top-1 classification throws away exactly the candidates a
//! downstream re-scorer needs. This app is the reason the IR grew the
//! `arg_top_k` intrinsic:
//!
//! ```text
//! library ──► encoding_loop ─┐
//! queries ──► encoding_loop ─┴─► cossim (all pairs) ──► arg_top_k ──► candidates
//! ```
//!
//! Both encodings binarize (random projection + `sign`), so in batched
//! mode the all-pairs similarity runs as one XOR/popcount batch kernel
//! over the whole query×library grid and `arg_top_k` selects each row's
//! best `k` library entries in one batched selection kernel — flattened
//! row-major, query `i`'s candidates at `[i*k, (i+1)*k)`, best first. In
//! sequential mode the executor takes the dense reference kernels and a
//! per-row selection loop instead; the candidate lists are identical
//! (bipolar rows share one norm, so the dense cosine is a positive
//! rescaling of the popcount form), which the `app_equivalence` suite
//! asserts.

use crate::compiled::Compiled;
use crate::{ExecMode, Result};
use hdc_core::element::ElementKind;
use hdc_datasets::Dataset;
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::{Program, ValueId};
use hdc_passes::{CompileOptions, CompileReport};
use hdc_runtime::{ExecStats, Outputs, Value};

/// The compiled spectral-matching application.
#[derive(Debug)]
pub struct MatchingApp {
    core: Compiled,
    top_k: ValueId,
    top_1: ValueId,
    k: usize,
}

/// The outcome of one matching run.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchingRun {
    /// Flattened row-major top-k candidate lists: query `i`'s candidates at
    /// `[i*k, (i+1)*k)`, best first.
    pub candidates: Vec<usize>,
    /// Best single candidate per query (`arg_max` over the same scores;
    /// always equals the first entry of each top-k list).
    pub best: Vec<usize>,
    /// Fraction of queries whose true library entry appears in their top-k
    /// list.
    pub recall_at_k: f64,
    /// Fraction of queries whose true library entry is the single best
    /// candidate.
    pub recall_at_1: f64,
    /// Executor counters for the run.
    pub stats: ExecStats,
}

impl MatchingApp {
    /// Build and compile the matching program: the dataset's **train split**
    /// is the reference library, its **test split** the query batch, encoded
    /// at hypervector dimension `dim`; every query reports its best `k`
    /// library candidates.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Compile`](crate::AppError::Compile) if the pass
    /// pipeline rejects the program (e.g. `k` larger than the library).
    pub fn new(dataset: Dataset, dim: usize, k: usize) -> Result<Self> {
        Self::with_options(dataset, dim, k, &CompileOptions::default())
    }

    /// [`MatchingApp::new`] with explicit compile options (e.g. the dense
    /// baseline configuration, or an accelerator target assignment).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Compile`](crate::AppError::Compile) if the pass
    /// pipeline rejects the program (e.g. `k` larger than the library).
    pub fn with_options(
        dataset: Dataset,
        dim: usize,
        k: usize,
        options: &CompileOptions,
    ) -> Result<Self> {
        let (program, top_k, top_1) = build_program(&dataset, dim, k);
        let inputs = vec![
            ("library", Value::matrix(dataset.train.features.clone())),
            ("queries", Value::matrix(dataset.test.features.clone())),
        ];
        let core = Compiled::new(dataset, program, options, inputs)?;
        Ok(MatchingApp {
            core,
            top_k,
            top_1,
            k,
        })
    }

    /// The compiled IR program.
    pub fn program(&self) -> &Program {
        &self.core.program
    }

    /// The pass pipeline's compile report.
    pub fn compile_report(&self) -> &CompileReport {
        &self.core.report
    }

    /// The dataset (train = library, test = queries).
    pub fn dataset(&self) -> &Dataset {
        &self.core.dataset
    }

    /// Candidates reported per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Execute the app under the given mode.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Runtime`](crate::AppError::Runtime) if execution
    /// fails.
    pub fn run(&self, mode: ExecMode) -> Result<MatchingRun> {
        let (out, stats) = self.core.run(mode)?;
        self.outcome(&out, stats)
    }

    fn outcome(&self, out: &Outputs, stats: ExecStats) -> Result<MatchingRun> {
        let candidates = out.indices(self.top_k)?.to_vec();
        let best = out.indices(self.top_1)?.to_vec();
        Ok(MatchingRun {
            recall_at_k: self.dataset().test_recall_at_k(&candidates, self.k),
            recall_at_1: self.dataset().test_accuracy(&best),
            candidates,
            best,
            stats,
        })
    }

    /// Execute the app through the accelerator back end: the two encoding
    /// stages are re-targeted onto `target` while the all-pairs similarity
    /// and `arg_top_k` selection stay on the CPU (they are leaf
    /// instructions, and the accelerators' reduction trees emit a single
    /// best match, not a candidate list). Candidate lists stay bit-identical
    /// to [`run`](MatchingApp::run).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Runtime`](crate::AppError::Runtime) if execution
    /// fails.
    pub fn run_accelerated(
        &self,
        model: &hdc_accel::AcceleratorModel,
        target: hdc_ir::Target,
    ) -> Result<crate::Accelerated<MatchingRun>> {
        let run = self.core.run_accelerated(model, target)?;
        Ok(crate::Accelerated {
            run: self.outcome(&run.outputs, run.stats.exec)?,
            modeled: run.stats.modeled,
        })
    }

    /// Run the compiled program once (batched) with the named values
    /// flipped to outputs, and return them in `names` order. Harvested
    /// values are `Arc`-backed; holding them never copies a tensor.
    ///
    /// # Errors
    ///
    /// [`AppError::UnknownValue`](crate::AppError::UnknownValue) if the
    /// program has no value of one of the names, or
    /// [`AppError::Runtime`](crate::AppError::Runtime) if the run fails.
    pub fn harvest(&self, names: &[&str]) -> Result<Vec<Value>> {
        self.core.harvest(names)
    }
}

fn build_program(dataset: &Dataset, dim: usize, k: usize) -> (Program, ValueId, ValueId) {
    let bins = dataset.meta.features;
    let library_size = dataset.train.len();
    let queries = dataset.test.len();
    let mut b = ProgramBuilder::new("hd_spectral_matching");
    let library = b.input_matrix("library", ElementKind::F64, library_size, bins);
    let query_x = b.input_matrix("queries", ElementKind::F64, queries, bins);
    let rp = b.random_bipolar_matrix(ElementKind::F64, dim, bins);
    b.name_value(rp, "rp_matrix");
    let enc_lib = b.encoding_loop("encode_library", library, dim, |b, q| {
        let e = b.matmul(q, rp);
        b.sign(e)
    });
    let enc_queries = b.encoding_loop("encode_queries", query_x, dim, |b, q| {
        let e = b.matmul(q, rp);
        b.sign(e)
    });
    // All-pairs similarity: one queries x library score matrix in a single
    // reduction call.
    let scores = b.cossim(enc_queries, enc_lib);
    b.name_value(scores, "scores");
    let top_k = b.arg_top_k(scores, k);
    b.name_value(top_k, "top_k");
    let top_1 = b.arg_max(scores);
    b.name_value(top_1, "top_1");
    b.mark_output(top_k);
    b.mark_output(top_1);
    (b.finish(), top_k, top_1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_datasets::synthetic::{hyperoms_like, HyperOmsParams};
    use hdc_ir::ops::HdcOp;

    fn small_dataset() -> Dataset {
        hyperoms_like(&HyperOmsParams {
            library_size: 16,
            bins: 80,
            peaks: 8,
            queries_per_entry: 2,
            ..HyperOmsParams::default()
        })
    }

    #[test]
    fn program_contains_top_k_instruction() {
        let app = MatchingApp::new(small_dataset(), 256, 3).unwrap();
        assert!(app
            .program()
            .iter_instrs()
            .any(|i| matches!(i.op, HdcOp::ArgTopK { k: 3 })));
    }

    #[test]
    fn top1_heads_every_candidate_list() {
        let app = MatchingApp::new(small_dataset(), 256, 3).unwrap();
        let run = app.run(ExecMode::Batched).unwrap();
        assert_eq!(run.candidates.len(), app.dataset().test.len() * 3);
        assert_eq!(run.best.len(), app.dataset().test.len());
        for (i, &b) in run.best.iter().enumerate() {
            assert_eq!(run.candidates[i * 3], b, "top-1 must head list {i}");
        }
        assert!(run.recall_at_k >= run.recall_at_1);
    }
}
