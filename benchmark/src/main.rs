//! The repo benchmark. See `benchmark/README.md`.
//!
//! One run measures one workload in this process and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `--all` and `--repeat-check` run
//! every workload, each in a child process of its own, so that
//! `peak_rss_bytes` is per workload.

mod batch;
mod digest;
mod loadgen;
mod manifest;
mod probes;
mod report;
mod serve;
mod stats;
mod surface;
mod trace;

use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use report::{print_table, worsening, RunResult};
use std::process::{Command, ExitCode};
use trace::Tracer;

const USAGE: &str = "\
usage: hdc-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
       hdc-benchmark --all [--seed <n>] [--seconds <s>]
       hdc-benchmark --repeat-check [--seed <n>] [--seconds <s>]
       hdc-benchmark --write-expected
       hdc-benchmark --print-manifest
Run from the repository root. Workloads:";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    One,
    All,
    RepeatCheck,
    WriteExpected,
    PrintManifest,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: digest::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        mode: Mode::One,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--all" => parsed.mode = Mode::All,
            "--repeat-check" => parsed.mode = Mode::RepeatCheck,
            "--write-expected" => parsed.mode = Mode::WriteExpected,
            "--print-manifest" => parsed.mode = Mode::PrintManifest,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.mode == Mode::One {
        let name = parsed.workload.as_deref().ok_or("--workload is required")?;
        manifest::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    }
    Ok(parsed)
}

/// `VmHWM` of this process: the most resident memory it ever held.
fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Which runner a workload of the manifest belongs to.
enum Kind {
    Batch(&'static batch::Batch),
    /// A fixed-rate or fixed-concurrency load: its schedule, and so its
    /// counts, depend on timing.
    Rate(&'static serve::Rate),
    Online,
}

fn kind(name: &str) -> Kind {
    if let Some(b) = batch::WORKLOADS.iter().find(|b| b.name == name) {
        Kind::Batch(b)
    } else if let Some(r) = serve::RATE_WORKLOADS.iter().find(|r| r.name == name) {
        Kind::Rate(r)
    } else {
        Kind::Online
    }
}

/// Measure one workload in this process.
fn run_one(args: &Args) -> Result<RunResult, String> {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match kind(name) {
        Kind::Batch(b) => batch::run(b, args.seed, args.seconds, &mut tracer),
        Kind::Rate(r) => serve::run_rate(r, args.seed, args.seconds, &mut tracer),
        Kind::Online => serve::run_online(args.seed, args.seconds, &mut tracer),
    }?;
    let peak_rss = peak_rss_bytes()?;
    for error in &outcome.errors {
        eprintln!("error: {error}");
    }
    let metrics = if args.trace {
        outcome
            .layers
            .set("trace.spans", tracer.span_count() as f64);
        let path = format!("benchmark/out/trace-{name}.json");
        tracer
            .write_json(std::path::Path::new(&path), name)
            .map_err(|e| format!("writing {path}: {e}"))?;
        outcome.layers.named()
    } else {
        outcome.end_to_end.named(peak_rss)
    };
    let title = format!(
        "{name} seed={} seconds={} trace={} [{}]: {} attempted, {} failed",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        surface::host_facts(),
        outcome.attempted,
        outcome.failed
    );
    print_table(&title, &metrics, &outcome.summaries);
    Ok(RunResult {
        correct: outcome.failed == 0 && outcome.errors.is_empty(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: metrics
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
    })
}

/// Run one workload in a child process and read its result line back.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    println!(
        "{{\"workload\": \"{name}\", \"trace\": {}, \"result\": {line}}}",
        u8::from(trace)
    );
    let result = RunResult::parse(line)
        .ok_or_else(|| format!("{name}: no result line ({})", output.status))?;
    if !output.status.success() || !result.correct || result.failed > 0 {
        return Err(format!(
            "{name}: {} failed of {} attempted, correct={} ({})",
            result.failed, result.attempted, result.correct, output.status
        ));
    }
    Ok(result)
}

fn stamp_host() {
    let rustc = Command::new("rustc").arg("--version").output();
    let rustc = rustc.map_or("rustc unknown".to_string(), |o| {
        String::from_utf8_lossy(&o.stdout).trim().to_string()
    });
    eprintln!("host: {} {rustc}", surface::host_facts());
}

/// Every workload, untraced then traced; prints the tracing overhead.
fn run_all(args: &Args) -> Result<(), String> {
    stamp_host();
    let mut failures = Vec::new();
    for w in &WORKLOADS {
        let untraced = run_child(w.name, args, false);
        let traced = run_child(w.name, args, true);
        match (untraced, traced) {
            (Ok(untraced), Ok(traced)) => {
                // The timing a user waits on, traced over untraced.
                let (e2e, layer) = match kind(w.name) {
                    Kind::Batch(_) => ("run_s", "hdc-apps.run_s"),
                    _ => ("latency_p50_s", "hdc-serve.latency_p50_s"),
                };
                let share =
                    traced.metric(layer).unwrap_or(0.0) / untraced.metric(e2e).unwrap_or(1.0) - 1.0;
                eprintln!("  trace.overhead_share ({layer} / {e2e} - 1)  {share:+.4}\n");
            }
            (a, b) => failures.extend(a.err().into_iter().chain(b.err())),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Runs per workload in each of the two sets `--repeat-check` compares. A
/// single run can sit in a burst of interference that doubles a timing
/// taken once, like `setup_s`; the median of three cannot.
const SET_RUNS: usize = 3;

/// Two sets of runs of the same code must agree: the medians of the
/// end-to-end metrics within their bounds, `quality` and the exact-repeat
/// counts identically.
fn repeat_check(args: &Args) -> Result<(), String> {
    stamp_host();
    let mut complaints = Vec::new();
    for w in &WORKLOADS {
        let set = || -> Result<Vec<RunResult>, String> {
            (0..SET_RUNS)
                .map(|_| run_child(w.name, args, false))
                .collect()
        };
        let (first, second) = (set()?, set()?);
        for m in &END_TO_END {
            let of = |set: &[RunResult]| -> Vec<f64> {
                set.iter()
                    .map(|r| r.metric(m.name).unwrap_or(0.0))
                    .collect()
            };
            let (all_a, all_b) = (of(&first), of(&second));
            let (a, b) = (stats::median(&all_a), stats::median(&all_b));
            let apart = worsening(m.better, a, b).max(worsening(m.better, b, a));
            let repeats = all_a.iter().chain(&all_b).all(|v| *v == all_a[0]);
            let verdict = if (m.exact && !repeats) || apart > m.bound {
                "DIFFERS"
            } else {
                "ok"
            };
            eprintln!(
                "  {:<18} {:<18} {a:>16.6} {b:>16.6} {apart:>+8.4} (bound {}) {verdict}",
                w.name, m.name, m.bound
            );
            if verdict != "ok" {
                complaints.push(format!("{}: {} {all_a:?} vs {all_b:?}", w.name, m.name));
            }
        }
        // Counts repeat on the workloads whose schedule does not depend on
        // timing: the batch workloads and the single-client replay.
        if !matches!(kind(w.name), Kind::Rate(_)) {
            let first = run_child(w.name, args, true)?;
            let second = run_child(w.name, args, true)?;
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let (a, b) = (first.metric(m.name), second.metric(m.name));
                if a != b {
                    complaints.push(format!("{}: {} {a:?} vs {b:?}", w.name, m.name));
                }
            }
        }
    }
    if complaints.is_empty() {
        eprintln!("repeat-check: both sets agree");
        Ok(())
    } else {
        Err(format!("repeat-check failed:\n{}", complaints.join("\n")))
    }
}

/// Regenerate `benchmark/expected/*.digest` from the sequential references.
fn write_expected() -> Result<(), String> {
    let seed = digest::DEFAULT_SEED;
    for b in &batch::WORKLOADS {
        let path = digest::write(b.name, &batch::oracle(b, seed)?).map_err(|e| e.to_string())?;
        eprintln!("wrote {}", path.display());
    }
    let pool = serve::rate_oracle(seed)?;
    for r in &serve::RATE_WORKLOADS {
        let path = digest::write(r.name, &pool).map_err(|e| e.to_string())?;
        eprintln!("wrote {}", path.display());
    }
    let path =
        digest::write(serve::ONLINE, &serve::online_oracle(seed)?).map_err(|e| e.to_string())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            for w in &WORKLOADS {
                eprintln!("  {:<20} {}", w.name, w.why);
            }
            return ExitCode::from(2);
        }
    };
    let done = match args.mode {
        Mode::One => run_one(&args).map(|result| {
            println!("{}", result.to_json_line());
            result.correct
        }),
        Mode::All => run_all(&args).map(|()| true),
        Mode::RepeatCheck => repeat_check(&args).map(|()| true),
        Mode::WriteExpected => write_expected().map(|()| true),
        Mode::PrintManifest => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let a = args(&[
            "--workload",
            "serve_light",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_light"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 8.0, true));
        assert!(a.mode == Mode::One);
    }

    #[test]
    fn bad_invocations_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve_light", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "serve_light", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--all", "--bogus"]).is_err());
    }

    #[test]
    fn every_manifest_workload_has_a_runner() {
        for w in &WORKLOADS {
            let known = batch::WORKLOADS.iter().any(|b| b.name == w.name)
                || serve::RATE_WORKLOADS.iter().any(|r| r.name == w.name)
                || w.name == serve::ONLINE;
            assert!(known, "{}", w.name);
        }
        assert_eq!(
            batch::WORKLOADS.len() + serve::RATE_WORKLOADS.len() + 1,
            WORKLOADS.len()
        );
    }
}
