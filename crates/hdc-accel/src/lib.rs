//! # hdc-accel
//!
//! The accelerator back end of the HPVM-HDC reproduction: analytical
//! performance models for the two fixed-function HDC accelerator targets
//! (the 40 nm digital ASIC and the ReRAM processing-in-memory design) and
//! a model-backed execution path that reports modeled
//! accelerator-vs-CPU speedups while the `hdc-runtime` kernels produce the
//! actual outputs.
//!
//! The paper's central claim is that compiling the coarse-grain HDC stages
//! (`encoding_loop` / `training_loop` / `inference_loop`) onto
//! fixed-function accelerators yields large speedups over CPU execution.
//! No silicon is attached to this repository, so the back end splits the
//! claim into two parts it *can* reproduce end to end:
//!
//! * **Functional execution** stays on the interpreter: an accelerated
//!   stage computes bit-identical outputs to the sequential per-sample
//!   oracle (asserted by the `accel_equivalence` and `listing1_accounting`
//!   suites).
//! * **Performance** comes from an analytical model
//!   ([`AcceleratorModel`]): programming cost from the persistent values
//!   hoisted by the data-movement pass, per-sample streaming cost from the
//!   stage interface, and datapath compute cost from the lowering nests of
//!   the stage body — compared against a CPU roofline over the *same*
//!   nests. `docs/accelerator-model.md` derives every equation with a
//!   worked example.
//!
//! The pieces:
//!
//! * [`AccelParams`] / [`CpuParams`] — every device number as a named,
//!   swappable field; [`calibrate`] measures this host's [`CpuParams`]
//!   roofline.
//! * [`AcceleratorModel`] — [`AcceleratorModel::stage_cost`] turns one
//!   accelerator-placed stage node plus a sample count into exact modeled
//!   bits / cycles and derived seconds / energy ([`StageCost`]).
//! * [`AcceleratedExecutor`] — re-targets a program onto an accelerator
//!   (with the legality demotion of `hdc-passes`), executes it through
//!   `hdc-runtime`, and folds the model's accounting with the
//!   interpreter's [`ExecStats`](hdc_runtime::ExecStats) into
//!   [`AccelExecStats`].
//!
//! # Example
//!
//! ```
//! use hdc_accel::{AcceleratedExecutor, AcceleratorModel};
//! use hdc_core::prelude::*;
//! use hdc_ir::prelude::*;
//! use hdc_runtime::Value;
//!
//! // Listing-1-shaped inference as a stage, binarized.
//! let mut b = ProgramBuilder::new("modeled_inference");
//! let q = b.input_matrix("queries", ElementKind::Bit, 100, 2048);
//! let c = b.input_matrix("classes", ElementKind::Bit, 26, 2048);
//! let preds = b.inference_loop("infer", q, c, ScorePolarity::Distance, |b, s| {
//!     b.hamming_distance(s, c)
//! });
//! b.mark_output(preds);
//! let program = b.finish();
//!
//! let ax = AcceleratedExecutor::new(
//!     &program,
//!     Target::DigitalAsic,
//!     AcceleratorModel::default(),
//! );
//! let mut rng = HdcRng::seed_from_u64(7);
//! let classes = BitMatrix::from_dense(&hdc_core::random::bipolar_hypermatrix::<f64>(26, 2048, &mut rng));
//! let queries = BitMatrix::from_rows(
//!     (0..100).map(|i| classes.row(i % 26).unwrap().clone()).collect::<Vec<_>>(),
//! ).unwrap();
//! let run = ax
//!     .run_with(|exec| {
//!         exec.bind("queries", Value::bit_matrix(queries))?;
//!         exec.bind("classes", Value::bit_matrix(classes))?;
//!         Ok(())
//!     })
//!     .unwrap();
//!
//! // Functional outputs come from the real kernels...
//! assert_eq!(run.outputs.indices(preds).unwrap()[..3], [0, 1, 2]);
//! // ...while the model accounts the accelerated stage: 26*2048-bit class
//! // memory programmed once, 7 datapath cycles per sample.
//! let stage = &run.stats.modeled.stages[0];
//! assert_eq!(stage.programming_bits, 26 * 2048);
//! assert_eq!(stage.cycles_per_sample, 7);
//! assert!(run.stats.modeled.modeled_speedup() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod executor;
pub mod model;
pub mod params;

pub use executor::{AccelExecStats, AccelReport, AccelRun, AcceleratedExecutor};
pub use model::{logical_bits, AcceleratorModel, StageCost};
pub use params::{AccelParams, CpuParams};
