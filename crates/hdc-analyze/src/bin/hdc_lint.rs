//! `hdc-lint`: run the static analyzer over the repo's committed program
//! suite (or a named subset) and exit non-zero when any program carries
//! error-severity diagnostics.
//!
//! ```text
//! hdc-lint [--json] [--list] [NAME ...]
//! ```
//!
//! With no names, every known program is linted: the three application
//! pipelines in both default (binarized) and baseline (dense)
//! configurations, the serving programs at two batch sizes, and the
//! online trainer's encode/freeze programs. `--json` emits one
//! machine-readable report per line; `--list` prints the known names.

use hdc_analyze::analyze;
use hdc_apps::{ClassificationApp, ClusteringApp, MatchingApp};
use hdc_datasets::synthetic::{isolet_like, IsoletParams};
use hdc_ir::program::Program;
use hdc_passes::pipeline::CompileOptions;
use hdc_serve::{ModelRegistry, OnlineTrainer, OnlineTrainerConfig, ServableModel, SwapPolicy};
use std::sync::Arc;

fn small_dataset(seed: u64) -> hdc_datasets::Dataset {
    isolet_like(&IsoletParams {
        classes: 4,
        features: 32,
        train_per_class: 6,
        test_per_class: 5,
        noise: 1.2,
        seed,
    })
}

const DIM: usize = 256;

/// Every program the lint suite knows how to build.
const NAMES: &[&str] = &[
    "classification",
    "classification-baseline",
    "clustering",
    "clustering-baseline",
    "matching",
    "matching-baseline",
    "serve-classifier",
    "serve-cluster",
    "serve-matcher",
    "online-encode",
    "online-freeze",
];

fn build(name: &str) -> Result<Vec<Program>, String> {
    let options = if name.ends_with("-baseline") {
        CompileOptions::baseline()
    } else {
        CompileOptions::default()
    };
    let err = |e: &dyn std::fmt::Display| format!("building `{name}`: {e}");
    match name {
        "classification" | "classification-baseline" => {
            let app = ClassificationApp::with_options(small_dataset(11), DIM, 2, &options)
                .map_err(|e| err(&e))?;
            Ok(vec![app.program().clone()])
        }
        "clustering" | "clustering-baseline" => {
            let app = ClusteringApp::with_options(small_dataset(12), DIM, 3, &options)
                .map_err(|e| err(&e))?;
            Ok(vec![app.program().clone()])
        }
        "matching" | "matching-baseline" => {
            let app = MatchingApp::with_options(small_dataset(13), DIM, 3, &options)
                .map_err(|e| err(&e))?;
            Ok(vec![app.program().clone()])
        }
        "serve-classifier" | "serve-cluster" | "serve-matcher" => {
            let model = match name {
                "serve-classifier" => {
                    let app =
                        ClassificationApp::new(small_dataset(11), DIM, 2).map_err(|e| err(&e))?;
                    ServableModel::classifier("lint", &app).map_err(|e| err(&e))?
                }
                "serve-cluster" => {
                    let app = ClusteringApp::new(small_dataset(12), DIM, 3).map_err(|e| err(&e))?;
                    ServableModel::cluster_assigner("lint", &app).map_err(|e| err(&e))?
                }
                _ => {
                    let app = MatchingApp::new(small_dataset(13), DIM, 3).map_err(|e| err(&e))?;
                    ServableModel::matcher("lint", &app).map_err(|e| err(&e))?
                }
            };
            // Two batch sizes: the single-query fast path and a coalesced
            // window, each built and compiled at its own size.
            let mut programs = Vec::new();
            for rows in [1usize, 8] {
                programs.push(
                    model
                        .program_for(rows)
                        .map_err(|e| err(&e))?
                        .as_ref()
                        .clone(),
                );
            }
            Ok(programs)
        }
        "online-encode" | "online-freeze" => {
            let app = ClassificationApp::new(small_dataset(11), DIM, 2).map_err(|e| err(&e))?;
            let model = Arc::new(ServableModel::classifier("lint", &app).map_err(|e| err(&e))?);
            let registry = Arc::new(ModelRegistry::new());
            registry.register("lint", model);
            let mut trainer = OnlineTrainer::attach(
                registry,
                "lint",
                OnlineTrainerConfig {
                    policy: SwapPolicy::manual(),
                    ..OnlineTrainerConfig::default()
                },
            )
            .map_err(|e| err(&e))?;
            if name == "online-freeze" {
                Ok(vec![trainer.freeze_program().clone()])
            } else {
                Ok(vec![trainer
                    .encoding_program(4)
                    .map_err(|e| err(&e))?
                    .as_ref()
                    .clone()])
            }
        }
        other => Err(format!(
            "unknown program `{other}` (use --list to see the suite)"
        )),
    }
}

fn main() {
    let mut json = false;
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => {
                for n in NAMES {
                    println!("{n}");
                }
                return;
            }
            "--help" | "-h" => {
                println!("usage: hdc-lint [--json] [--list] [NAME ...]");
                println!("lints the committed program suite; exits 1 on error diagnostics");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("hdc-lint: unknown flag `{other}`");
                std::process::exit(2);
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        names = NAMES.iter().map(|s| s.to_string()).collect();
    }

    let mut linted = 0usize;
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    for name in &names {
        let programs = match build(name) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("hdc-lint: {e}");
                std::process::exit(2);
            }
        };
        for program in &programs {
            let report = analyze(program);
            linted += 1;
            total_errors += report.error_count();
            total_warnings += report.warning_count();
            if json {
                println!("{}", report.to_json());
            } else if report.diagnostics.is_empty() {
                println!("{name} ({}): clean", report.program);
            } else {
                print!("{report}");
            }
        }
    }
    if !json {
        println!("hdc-lint: {linted} program(s), {total_errors} errors, {total_warnings} warnings");
    }
    if total_errors > 0 {
        std::process::exit(1);
    }
}
