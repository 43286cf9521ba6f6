//! # hdc-apps
//!
//! The HPVM-HDC application suite: three end-to-end HDC workloads, each
//! expressed in the `hdc-ir` builder DSL, compiled through the full
//! `hdc-passes` pipeline (automatic binarization → data-movement hoisting →
//! target assignment → DCE), and executed by the `hdc-runtime` interpreter
//! in either executor mode:
//!
//! * [`classification`] — HD classification with iterative perceptron
//!   retraining: encode train/test sets by random projection + `sign`,
//!   bootstrap class hypervectors inside a `training_loop` (mispredicted
//!   samples are added to the true class row and subtracted from the
//!   predicted row, every epoch), binarize, classify the test set.
//! * [`clustering`] — HD clustering: hypervector centroids seeded from the
//!   first samples, then a fixed number of assign / centroid-update rounds
//!   (`inference_loop` against the centroid matrix, accumulation by
//!   assignment, re-`sign`).
//! * [`matching`] — top-k spectral matching: encode a reference library and
//!   a query batch, score all pairs in one similarity call, and select each
//!   query's best `k` candidates with the `arg_top_k` intrinsic.
//!
//! Every app exposes the same surface: `new(...)` builds *and compiles* the
//! program (the compile report is kept for inspection), `run(mode)` executes
//! it under [`ExecMode::Batched`] (matrix-level kernels) or
//! [`ExecMode::Sequential`] (the per-sample reference oracle) and returns
//! predictions plus [`ExecStats`](hdc_runtime::ExecStats), and
//! `run_accelerated(model, target)` executes it through the `hdc-accel`
//! back end — stages re-targeted onto the digital ASIC or the ReRAM
//! accelerator, outputs still bit-identical to the CPU modes, plus a
//! modeled per-stage cost report ([`Accelerated`]), and `harvest(names)`
//! runs the program once and returns the named intermediate values (the
//! trained artifacts a servable model is built from). All three share one
//! private bind / run / harvest core; each app only maps outputs. The
//! `app_equivalence` integration suite pins the two modes to identical
//! outputs for all three apps, and `accel_equivalence` pins the
//! accelerated runs to the same outputs.
//!
//! Workload data comes from `hdc-datasets`: seeded synthetic ISOLET-like /
//! EMG-like / HyperOMS-like generators, so every run is reproducible.
//!
//! # Example
//!
//! ```
//! use hdc_apps::classification::ClassificationApp;
//! use hdc_apps::ExecMode;
//! use hdc_datasets::synthetic::{isolet_like, IsoletParams};
//!
//! let dataset = isolet_like(&IsoletParams {
//!     classes: 5, features: 64, train_per_class: 6, test_per_class: 3,
//!     noise: 1.0, seed: 7,
//! });
//! let app = ClassificationApp::new(dataset, 512, 2).unwrap();
//! let batched = app.run(ExecMode::Batched).unwrap();
//! let sequential = app.run(ExecMode::Sequential).unwrap();
//! assert_eq!(batched.predictions, sequential.predictions);
//! assert!(batched.accuracy > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod classification;
pub mod clustering;
mod compiled;
pub mod matching;

pub use classification::{ClassificationApp, ClassificationRun, HarvestedClassifier};
pub use clustering::{ClusteringApp, ClusteringRun};
pub use hdc_runtime::ExecMode;
pub use matching::{MatchingApp, MatchingRun};

/// An application run executed through the accelerator back end
/// (`hdc-accel`): the ordinary run outcome — predictions are bit-identical
/// to the CPU executor modes — plus the modeled per-stage accelerator cost
/// report.
///
/// Produced by each app's `run_accelerated` method. The accelerated path
/// is not an [`ExecMode`] because it returns strictly more than the CPU
/// modes do; functionally it executes the batched kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerated<R> {
    /// The ordinary run outcome (predictions, quality metric, interpreter
    /// counters).
    pub run: R,
    /// The modeled accelerator cost report for the run.
    pub modeled: hdc_accel::AccelReport,
}

/// Errors raised while compiling or executing an application.
#[derive(Debug)]
#[non_exhaustive]
pub enum AppError {
    /// The pass pipeline rejected or broke the program.
    Compile(hdc_passes::PipelineError),
    /// Execution failed.
    Runtime(hdc_runtime::RuntimeError),
    /// A harvest named a value the app's program does not have.
    UnknownValue(String),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Compile(e) => write!(f, "app compilation failed: {e}"),
            AppError::Runtime(e) => write!(f, "app execution failed: {e}"),
            AppError::UnknownValue(name) => write!(f, "app program has no value named `{name}`"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<hdc_passes::PipelineError> for AppError {
    fn from(e: hdc_passes::PipelineError) -> Self {
        AppError::Compile(e)
    }
}

impl From<hdc_runtime::RuntimeError> for AppError {
    fn from(e: hdc_runtime::RuntimeError) -> Self {
        AppError::Runtime(e)
    }
}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, AppError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_names() {
        assert_eq!(ExecMode::Batched.name(), "batched");
        assert_eq!(ExecMode::Sequential.to_string(), "sequential");
        assert!(ExecMode::Batched.is_batched());
        assert!(!ExecMode::Sequential.is_batched());
    }
}
