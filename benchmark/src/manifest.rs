//! The benchmark's contract: workload names, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is this
//! table rendered by `--print-manifest`; a unit test keeps the two equal.

/// How long one run measures, in seconds (`--seconds`).
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Names are fixed: later issues refer to them.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "classify_retrain",
        why: "paper's headline app, binarized: the runtime's epoch-training loop and the projection matmul do the work, bit scoring almost none",
    },
    Workload {
        name: "match_dense_topk",
        why: "dense f64 all-pairs cosine plus arg_top_k dominate; bit kernels and the training loop are bypassed",
    },
    Workload {
        name: "match_dense_perf50",
        why: "match_dense_topk with stride-2 similarity perforation: same kernels on the strided path, so a fix there moves only this row",
    },
    Workload {
        name: "cluster_bits",
        why: "third paper app: segmented accumulate plus bit Hamming, the binarized path match_dense_* bypasses",
    },
    Workload {
        name: "serve_light",
        why: "open loop at 1000 req/s, far below capacity: latency is the coalescer deadline plus per-window fixed cost, kernels idle",
    },
    Workload {
        name: "serve_saturated",
        why: "closed loop, 128 in flight: every window full, so per-row cost and the single dispatcher set throughput",
    },
    Workload {
        name: "serve_online",
        why: "one client replays a drift tape, query then feedback: shadow update, re-freeze and atomic swap beside reads",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Deterministic per seed: two runs of the same code must agree exactly
    /// (`--repeat-check`).
    pub exact: bool,
}

/// Every workload reports every one of these, never zero (README, "What
/// each end-to-end metric means on each workload").
///
/// The timing bounds are the widest the contract allows. On the reference
/// host whole runs drift by 10 to 15 % over minutes (README, "Steadiness"),
/// which no statistic inside a run removes; a tighter bound would reject
/// the benchmark against itself. Exactness does not rest on `quality`'s
/// bound: every output is compared with the sequential reference.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "compile_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "quality",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: "latency_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "latency_p90_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
        exact: false,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that repeats exactly between two runs of the same code on
    /// the batch workloads and on `serve_online` (`--repeat-check`).
    pub exact: bool,
}

const fn time(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "s",
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit: "count",
        better,
        exact: true,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// Crate names are the layers. A metric reads 0 on a workload that
/// bypasses its layer.
pub const PER_LAYER: [Layer; 68] = [
    time("hdc-datasets.generate_s"),
    time("hdc-apps.new_s"),
    time("hdc-apps.run_s"),
    time("hdc-passes.compile_s"),
    count("hdc-passes.binarized_values", Better::Higher),
    time("hdc-ir.verify_s"),
    count("hdc-ir.program_instrs", Better::Lower),
    time("hdc-analyze.analyze_s"),
    count("hdc-analyze.diagnostics", Better::Lower),
    time("hdc-runtime.exec_new_bind_s"),
    time("hdc-runtime.self_s"),
    Layer {
        name: "hdc-runtime.bytes_copied",
        unit: "B",
        better: Better::Lower,
        exact: true,
    },
    count("hdc-runtime.instructions", Better::Lower),
    count("hdc-runtime.batched_kernel_ops", Better::Higher),
    count("hdc-runtime.bit_kernel_ops", Better::Higher),
    count("hdc-runtime.epoch_kernel_ops", Better::Higher),
    count("hdc-runtime.rescored_samples", Better::Lower),
    count("hdc-runtime.stage_samples", Better::Lower),
    count("hdc-runtime.shard_merge_ops", Better::Lower),
    count("hdc-runtime.unprobed_kernel_ops", Better::Lower),
    time("hdc-core.encode_s"),
    rate("hdc-core.encode_gflops", "GFLOP/s"),
    time("hdc-core.score_s"),
    rate("hdc-core.score_gbytes_per_s", "GB/s"),
    rate("hdc-core.score_popcount_words_per_s", "1/s"),
    time("hdc-core.select_s"),
    time("hdc-core.accumulate_s"),
    time("compat-rayon.par_call_s"),
    time("hdc-serve.submit_s"),
    time("hdc-serve.window_exec_b1_s"),
    time("hdc-serve.window_exec_b16_s"),
    time("hdc-serve.window_exec_b64_s"),
    time("hdc-serve.window_per_row_s"),
    time("hdc-serve.window_fixed_s"),
    time("hdc-serve.queue_wait_s"),
    count("hdc-serve.windows", Better::Lower),
    count("hdc-serve.size_full_windows", Better::Higher),
    count("hdc-serve.deadline_windows", Better::Lower),
    Layer {
        name: "hdc-serve.rows_per_window",
        unit: "rows",
        better: Better::Higher,
        exact: true,
    },
    count("hdc-serve.partitioned_windows", Better::Lower),
    count("hdc-serve.rejected", Better::Lower),
    count("hdc-serve.failed", Better::Lower),
    time("hdc-serve.coalescer_push_s"),
    time("hdc-serve.registry_get_s"),
    time("hdc-serve.registry_swap_s"),
    time("hdc-serve.feedback_s"),
    time("hdc-serve.trainer_feed_s"),
    time("hdc-serve.publish_s"),
    count("hdc-serve.swaps_published", Better::Higher),
    count("hdc-serve.online_updates", Better::Lower),
    time("hdc-serve.oracle_infer_s"),
    time("hdc-serve.latency_p50_s"),
    time("hdc-serve.latency_p99_s"),
    time("hdc-serve.latency_max_s"),
    Layer {
        name: "hdc-serve.over_20ms_share",
        unit: "fraction",
        better: Better::Lower,
        exact: false,
    },
    time("loadgen.late_p99_s"),
    rate("loadgen.achieved_rate_per_s", "1/s"),
    count("hdc-accel.asic.modeled_cycles", Better::Lower),
    time("hdc-accel.asic.modeled_accel_s"),
    count("hdc-accel.asic.accelerated_stages", Better::Higher),
    count("hdc-accel.asic.demoted_stages", Better::Lower),
    count("hdc-accel.reram.modeled_cycles", Better::Lower),
    time("hdc-accel.reram.modeled_accel_s"),
    count("hdc-accel.reram.accelerated_stages", Better::Higher),
    count("hdc-accel.reram.demoted_stages", Better::Lower),
    time("hdc-accel.host_s"),
    time("trace.setup_self_s"),
    // As many as repetitions fit the run: not an exact-repeat count.
    Layer {
        name: "trace.spans",
        unit: "count",
        better: Better::Lower,
        exact: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn better(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
            "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
            "  \"paths\": [\"benchmark\"],\n",
            "  \"run_seconds\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"end_to_end\": [\n{}\n  ],\n",
            "  \"per_layer\": [\n{}\n  ]\n",
            "}}\n"
        ),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_manifest_is_this_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
    }
}
