//! The `hdc-lint` binary counts the programs it lints, not the names it
//! was given: `serve-classifier` builds two serve programs (1 and 8 rows),
//! so the summary and the `--json` output must both say two.

use std::process::Command;

fn lint(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hdc-lint"))
        .args(args)
        .output()
        .expect("hdc-lint runs");
    assert!(out.status.success(), "hdc-lint {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn summary_and_json_count_the_programs_linted() {
    let text = lint(&["serve-classifier"]);
    let summary = text.lines().last().expect("a summary line");
    assert!(
        summary.starts_with("hdc-lint: 2 program(s), 0 errors"),
        "{text}"
    );
    let json = lint(&["--json", "serve-classifier"]);
    assert_eq!(json.lines().count(), 2, "{json}");
    assert!(json.lines().all(|l| l.contains("\"errors\":0,")), "{json}");
}
