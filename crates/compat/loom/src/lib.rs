//! Offline, API-compatible subset of the `loom` model checker.
//!
//! Like the sibling `rand` / `rayon` stand-ins, this crate exists
//! because the build environment has no registry access; the API mirrors
//! upstream loom so swapping in the real dependency is a one-line
//! `Cargo.toml` change. It provides what the workspace's concurrency models
//! use: [`model`], [`thread::spawn`] / [`thread::JoinHandle::join`], and
//! [`sync`]'s `Mutex` / `RwLock` / atomics.
//!
//! # Execution model
//!
//! [`model`] runs the closure repeatedly, once per distinct thread
//! interleaving, until the schedule space is exhausted (depth-first
//! search with backtracking, exactly like upstream loom's exhaustive
//! mode). Within one run, every model thread is a real OS thread but the
//! scheduler gates them so **exactly one runs at a time**; each
//! synchronization operation (lock acquire/release, atomic access,
//! `yield_now`, spawn, join) is a *decision point* where the scheduler
//! picks which runnable thread continues. The chosen branch indices form
//! a trace; after a run completes the deepest incrementable decision is
//! advanced and the prefix replayed, enumerating every schedule.
//!
//! Differences from upstream loom, stated honestly:
//!
//! - Interleavings are explored at *synchronization-operation* granularity.
//!   Plain (non-atomic) shared-memory races cannot be expressed in safe
//!   Rust without these types, so this matches what the workspace needs.
//! - Atomic orderings are all treated as `SeqCst`: the checker explores
//!   thread interleavings, not relaxed-memory reorderings. A bug that only
//!   manifests under `Relaxed`/`Acquire-Release` weakening is out of scope.
//! - `loom::sync::Arc` is plain `std::sync::Arc` (no causality tracking).
//!
//! Unlike upstream loom, the synchronization types here also work *outside*
//! [`model`]: with no scheduler installed on the current thread they
//! delegate straight to their `std::sync` counterparts with identical
//! observable behavior. This lets production code (e.g. the serving
//! registry) use `loom::sync` types unconditionally, so the model checker
//! explores the *real* code rather than a transliterated copy.
//!
//! # Failure reporting
//!
//! A panic in any thread of any schedule aborts the exploration and
//! re-raises the panic after printing the offending schedule's decision
//! trace. If every thread blocks, the run fails with a deadlock report.
//! `LOOM_MAX_BRANCHES` (default 200 000) bounds the number of schedules;
//! exceeding it panics rather than silently truncating coverage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scheduler;
pub mod sync;
pub mod thread;

pub use scheduler::{model, model_iterations};
