//! # hdc-serve
//!
//! The serving layer: everything below this crate runs a workload once and
//! exits; this crate answers *requests*. It turns the committed batch
//! advantage of the stack's matrix kernels into throughput under concurrent
//! load by coalescing single-query inference requests into micro-batches:
//!
//! * [`model`] — [`ServableModel`]: an app's trained artifacts (projection
//!   matrix, class memory / centroids / encoded library) harvested into
//!   `Arc`-shared [`Value`](hdc_runtime::Value)s plus an inference-only
//!   program built and compiled per batch size on first use. Binding a
//!   model to an executor is a refcount bump, not a copy.
//! * [`registry`] — [`ModelRegistry`]: named, `Arc`-shared, atomically
//!   swappable model store (the COW value store keeps in-flight windows
//!   valid across a swap).
//! * [`coalescer`] — [`Coalescer`]: the pure time/size-windowed batching
//!   queue, unit-testable with a [`MockClock`].
//! * [`service`] — [`Service`]: the dispatcher thread gathering requests
//!   into windows, executing each window through the batched executor, and
//!   scattering per-row results back over one-shot `std::sync::mpsc`
//!   channels ([`ResponseFuture`] is the blocking ticket for one); plus
//!   health/stats snapshots backed by
//!   [`ExecStats`](hdc_runtime::ExecStats) and an optional HTTP façade
//!   for them.
//! * [`loadgen`] — open-loop load generator reporting p50/p99 latency and
//!   QPS, every response checked against the sequential oracle (driven by
//!   the `load_gen` bin).
//! * [`online`] — [`OnlineTrainer`]: labeled-feedback perceptron updates
//!   against a *shadow* class memory, re-frozen through the pass pipeline
//!   and atomically published via [`ModelRegistry::swap`] under a
//!   [`SwapPolicy`] (every N updates / every T elapsed). The replay is
//!   `hdc_runtime::replay_epoch`, the offline trainer's own schedule;
//!   readers never see a partial update, and the `online_equivalence`
//!   suite pins the online replay bit-identical to the offline batched
//!   trainer.
//!
//! The serving discipline mirrors the rest of the repo: every coalesced
//! window must be **bit-identical** to serving each of its requests alone
//! through the sequential oracle (`serving_equivalence` integration suite),
//! and malformed traffic must degrade to typed [`ServeError`]s, never
//! panics (`serving_chaos` suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod coalescer;
pub mod loadgen;
pub mod model;
pub mod online;
pub mod registry;
pub mod service;

pub use clock::{Clock, MockClock, SystemClock};
pub use coalescer::{Coalescer, WindowConfig};

pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use model::{Prediction, ServableModel};
pub use online::{FeedOutcome, OnlineStats, OnlineTrainer, OnlineTrainerConfig, SwapPolicy};
pub use registry::ModelRegistry;
pub use service::{
    serve_http, Health, HttpHandle, ResponseFuture, Service, ServiceConfig, ServiceStats,
};

use std::fmt;

/// Typed serving errors. Every way a request can fail maps to one of these
/// variants; the service never panics on malformed traffic, and one bad
/// request never poisons the window it would have been coalesced with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The named model is not (or no longer) in the registry.
    UnknownModel(String),
    /// The query vector length does not match the model's feature count.
    WrongDimension {
        /// Feature count the model expects.
        expected: usize,
        /// Length of the submitted query.
        got: usize,
    },
    /// The query was empty.
    EmptyQuery,
    /// The query contained a non-finite payload (NaN or infinity). Rejected
    /// at submission: an all-NaN score row has no defined arg-min/arg-max,
    /// and a runtime error there would fail every request coalesced into
    /// the same window.
    NonFinitePayload {
        /// Index of the first offending element.
        index: usize,
    },
    /// A feedback sample carried a label outside the model's class range.
    UnknownLabel {
        /// The submitted label.
        label: usize,
        /// Number of classes the model's memory holds rows for.
        classes: usize,
    },
    /// The named model carries no dense training accumulator, so an
    /// online trainer cannot attach to it (cluster assigners, matchers,
    /// or classifiers rebuilt without their train state).
    NotAdaptable(String),
    /// No online trainer is attached for the named model.
    NoTrainer(String),
    /// The service is shutting down and no longer accepts requests.
    ShuttingDown,
    /// Building a servable model failed (artifact harvest or program
    /// compilation); carries the underlying error text.
    ModelBuild(String),
    /// The executor failed while running a window; carries the runtime
    /// error text. With submission-time validation in place this indicates
    /// a serving-layer bug, not bad traffic.
    Execution(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model `{name}`"),
            ServeError::WrongDimension { expected, got } => {
                write!(f, "query has {got} features, model expects {expected}")
            }
            ServeError::EmptyQuery => f.write_str("query is empty"),
            ServeError::NonFinitePayload { index } => {
                write!(f, "query element {index} is not finite")
            }
            ServeError::UnknownLabel { label, classes } => {
                write!(f, "feedback label {label} outside class range 0..{classes}")
            }
            ServeError::NotAdaptable(name) => {
                write!(
                    f,
                    "model `{name}` carries no train state for online adaptation"
                )
            }
            ServeError::NoTrainer(name) => {
                write!(f, "no online trainer attached for model `{name}`")
            }
            ServeError::ShuttingDown => f.write_str("service is shutting down"),
            ServeError::ModelBuild(msg) => write!(f, "model build failed: {msg}"),
            ServeError::Execution(msg) => write!(f, "window execution failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
