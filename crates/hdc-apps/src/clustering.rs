//! HD clustering: hypervector centroids with assign / update rounds.
//!
//! The HDC analogue of k-means (the paper's HD-Clustering application):
//! samples are encoded once, centroids live as bipolar hypervectors, and
//! each round (1) assigns every sample to its most similar centroid with an
//! `inference_loop` and (2) rebuilds each centroid by bundling its members
//! and re-binarizing:
//!
//! ```text
//! samples ──► encoding_loop ──► [assign ──► accumulate-by-assignment ──► sign]×T ──► assign
//! ```
//!
//! The update loop is expressed with the granular intrinsics — a
//! `parallel_for` over samples gathering each sample's assignment
//! (`get_element`) and accumulating its encoded row into the new centroid
//! accumulator (`accumulate_row`) — plus a `type_cast` precision barrier so
//! automatic binarization keeps the *accumulator* in full precision while
//! the centroids themselves binarize. The previous centroid is blended into
//! the accumulator before the `sign`, which keeps empty clusters stable
//! instead of collapsing them to a constant vector.
//!
//! The number of rounds is a compile-time constant: the builder unrolls the
//! assign/update sequence into the dataflow graph, one stage + loop node
//! pair per round.

use crate::compiled::Compiled;
use crate::{ExecMode, Result};
use hdc_core::element::ElementKind;
use hdc_datasets::Dataset;
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::{Program, ValueId};
use hdc_ir::stage::ScorePolarity;
use hdc_passes::{CompileOptions, CompileReport};
use hdc_runtime::{ExecStats, Outputs, Value};

/// The compiled clustering application.
#[derive(Debug)]
pub struct ClusteringApp {
    core: Compiled,
    assignments: ValueId,
    k: usize,
    rounds: usize,
}

/// The outcome of one clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringRun {
    /// Final cluster assignment per sample (values in `0..k`).
    pub assignments: Vec<usize>,
    /// Cluster purity against the dataset's ground-truth labels: each
    /// cluster votes its majority label; purity is the fraction of samples
    /// covered by their cluster's majority.
    pub purity: f64,
    /// Executor counters for the run.
    pub stats: ExecStats,
}

impl ClusteringApp {
    /// Build and compile the clustering program: cluster the **training
    /// split** of `dataset` into `meta.classes` clusters at hypervector
    /// dimension `dim`, running `rounds` assign/update rounds.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Compile`](crate::AppError::Compile) if the pass
    /// pipeline rejects the program.
    pub fn new(dataset: Dataset, dim: usize, rounds: usize) -> Result<Self> {
        Self::with_options(dataset, dim, rounds, &CompileOptions::default())
    }

    /// [`ClusteringApp::new`] with explicit compile options (e.g. the dense
    /// baseline configuration, or an accelerator target assignment).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Compile`](crate::AppError::Compile) if the pass
    /// pipeline rejects the program.
    pub fn with_options(
        dataset: Dataset,
        dim: usize,
        rounds: usize,
        options: &CompileOptions,
    ) -> Result<Self> {
        let k = dataset.meta.classes;
        let (program, assignments) = build_program(&dataset, dim, k, rounds);
        let inputs = vec![("samples", Value::matrix(dataset.train.features.clone()))];
        let core = Compiled::new(dataset, program, options, inputs)?;
        Ok(ClusteringApp {
            core,
            assignments,
            k,
            rounds,
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

    /// The dataset whose training split is clustered.
    pub fn dataset(&self) -> &Dataset {
        &self.core.dataset
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of assign/update rounds unrolled into the program.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Execute the app under the given mode.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Runtime`](crate::AppError::Runtime) if execution
    /// fails.
    pub fn run(&self, mode: ExecMode) -> Result<ClusteringRun> {
        let (out, stats) = self.core.run(mode)?;
        self.outcome(&out, stats)
    }

    fn outcome(&self, out: &Outputs, stats: ExecStats) -> Result<ClusteringRun> {
        let assignments = out.indices(self.assignments)?.to_vec();
        Ok(ClusteringRun {
            purity: purity(&assignments, &self.dataset().train.labels, self.k),
            assignments,
            stats,
        })
    }

    /// Execute the app through the accelerator back end: the encoding and
    /// assignment stages are re-targeted onto `target`, the
    /// accumulate-by-assignment update loops stay on the CPU (they are
    /// `parallel_for` nodes, which accelerators do not accept), and the
    /// assignments stay bit-identical to [`run`](ClusteringApp::run).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::Runtime`](crate::AppError::Runtime) if execution
    /// fails.
    pub fn run_accelerated(
        &self,
        model: &hdc_accel::AcceleratorModel,
        target: hdc_ir::Target,
    ) -> Result<crate::Accelerated<ClusteringRun>> {
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

/// Cluster purity: each cluster is credited its majority ground-truth
/// label's count; purity is the covered fraction. `1.0` means every cluster
/// is label-pure; `1 / classes` is chance level.
pub fn purity(assignments: &[usize], truth: &[usize], k: usize) -> f64 {
    assert_eq!(assignments.len(), truth.len(), "one assignment per sample");
    if assignments.is_empty() {
        return 0.0;
    }
    let classes = truth.iter().copied().max().map_or(1, |m| m + 1);
    let mut counts = vec![vec![0usize; classes]; k];
    for (&a, &t) in assignments.iter().zip(truth) {
        counts[a][t] += 1;
    }
    let covered: usize = counts
        .iter()
        .map(|c| c.iter().copied().max().unwrap_or(0))
        .sum();
    covered as f64 / assignments.len() as f64
}

fn build_program(dataset: &Dataset, dim: usize, k: usize, rounds: usize) -> (Program, ValueId) {
    let features = dataset.meta.features;
    let n = dataset.train.len();
    assert!(k >= 1 && k <= n, "need 1..=samples clusters, got {k}");
    let mut b = ProgramBuilder::new("hd_clustering");
    let samples = b.input_matrix("samples", ElementKind::F64, n, features);
    let rp = b.random_bipolar_matrix(ElementKind::F64, dim, features);
    b.name_value(rp, "rp_matrix");
    let encoded = b.encoding_loop("encode", samples, dim, |b, q| {
        let e = b.matmul(q, rp);
        b.sign(e)
    });
    // Seed centroids from the first k encoded samples (the deterministic
    // k-means++-free initialization the HDC clustering apps use).
    let seed_centroids = b.zero_matrix(ElementKind::F64, k, dim);
    b.name_value(seed_centroids, "centroids_0");
    for i in 0..k {
        let row = b.get_matrix_row(encoded, i as i64);
        b.set_matrix_row(seed_centroids, row, i as i64);
    }
    let mut centroids = seed_centroids;
    for round in 0..rounds {
        let assign = b.inference_loop(
            &format!("assign_{round}"),
            encoded,
            centroids,
            ScorePolarity::Similarity,
            |b, q| b.cossim(q, centroids),
        );
        // Bundle each cluster's members. The type_cast is a binarization
        // barrier: the accumulator must stay full precision so member
        // counts add exactly before the final sign.
        let acc = b.zero_matrix(ElementKind::F64, k, dim);
        b.name_value(acc, &format!("cluster_acc_{round}"));
        b.parallel_for(&format!("update_{round}"), n, |b, idx| {
            let row = b.get_matrix_row_dyn(encoded, idx);
            let row_dense = b.type_cast(row, ElementKind::F64);
            let cluster = b.get_element_dyn(assign, idx);
            b.accumulate_row(acc, row_dense, cluster);
        });
        // Blend in the previous centroid: majority vote with the old
        // centroid as tie-breaker, and empty clusters keep their centroid.
        let previous = b.type_cast(centroids, ElementKind::F64);
        let blended = b.add(acc, previous);
        centroids = b.sign(blended);
        b.name_value(centroids, &format!("centroids_{}", round + 1));
    }
    let assignments = b.inference_loop(
        "assign_final",
        encoded,
        centroids,
        ScorePolarity::Similarity,
        |b, q| b.cossim(q, centroids),
    );
    b.mark_output(assignments);
    (b.finish(), assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_datasets::synthetic::{isolet_like, IsoletParams};
    use hdc_ir::program::NodeBody;

    fn small_dataset() -> Dataset {
        isolet_like(&IsoletParams {
            classes: 3,
            features: 24,
            train_per_class: 8,
            test_per_class: 1,
            noise: 0.8,
            seed: 23,
        })
    }

    #[test]
    fn purity_metric() {
        // Perfect clustering up to label permutation scores 1.0.
        assert_eq!(purity(&[1, 1, 0, 0], &[0, 0, 1, 1], 2), 1.0);
        assert_eq!(purity(&[0, 0, 0, 0], &[0, 0, 1, 1], 2), 0.5);
        assert_eq!(purity(&[], &[], 2), 0.0);
    }

    #[test]
    fn program_unrolls_rounds() {
        let app = ClusteringApp::new(small_dataset(), 128, 2).unwrap();
        let stages = app
            .program()
            .nodes()
            .iter()
            .filter(|n| matches!(n.body, NodeBody::Stage(_)))
            .count();
        // encode + (assign x rounds) + final assign.
        assert_eq!(stages, 1 + 2 + 1);
        let loops = app
            .program()
            .nodes()
            .iter()
            .filter(|n| matches!(n.body, NodeBody::ParallelFor { .. }))
            .count();
        assert_eq!(loops, 2, "one update loop per round");
    }

    #[test]
    fn assignments_cover_samples() {
        let app = ClusteringApp::new(small_dataset(), 128, 2).unwrap();
        let run = app.run(ExecMode::Batched).unwrap();
        assert_eq!(run.assignments.len(), app.dataset().train.len());
        assert!(run.assignments.iter().all(|&a| a < app.k()));
        assert!(run.purity > 0.0);
    }
}
