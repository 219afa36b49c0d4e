//! Every workload at `--smoke` size (at most 32 inputs, one pass), run
//! through the built binary:
//!
//! * every metric it prints is declared, with the same unit, in
//!   `BENCHMARK.json`;
//! * the deterministic counts repeat exactly across two runs with the same
//!   seed;
//! * a deliberately wrong golden row makes the run fail.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_swp-benchmark");

/// Metrics that depend only on the inputs, never on timing.
const DETERMINISTIC: &[&str] = &[
    "proven_share",
    "ii_over_lb",
    "core.ii_slack_sum",
    "heuristics.ims.ticks",
    "milp.ticks",
    "milp.bb_nodes",
    "cpsat.ticks",
    "cpsat.nodes",
];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create a temporary directory");
    dir
}

/// Runs a smoke-size traced run in a temporary directory, where it
/// writes its spans.
fn run(workload: &str, extra: &[&str]) -> Output {
    Command::new(BIN)
        .args(["--workload", workload, "--smoke", "--trace", "1"])
        .args(extra)
        .current_dir(tmp_dir("work"))
        .output()
        .expect("run swp-benchmark")
}

/// `metric → (value, unit)` from the `workload metric value unit` lines.
fn printed(workload: &str, out: &Output) -> BTreeMap<String, (String, String)> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| match l.split(' ').collect::<Vec<_>>()[..] {
            [w, name, value, unit] if w == workload => {
                Some((name.to_string(), (value.to_string(), unit.to_string())))
            }
            _ => None,
        })
        .collect()
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

fn check_workload(workload: &str) {
    let bench =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("read BENCHMARK.json");
    let (a, b) = (run(workload, &[]), run(workload, &[]));
    for out in [&a, &b] {
        assert!(
            out.status.success(),
            "{workload} failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(last_line(out).starts_with("{\"correct\": true"));
    }
    let (ma, mb) = (printed(workload, &a), printed(workload, &b));
    assert!(
        ma.len() > 40,
        "{workload}: only {} metrics printed",
        ma.len()
    );
    for (name, (_, unit)) in &ma {
        let declared = bench.lines().any(|l| {
            l.contains(&format!("\"name\": \"{name}\""))
                && l.contains(&format!("\"unit\": \"{unit}\""))
        });
        assert!(
            declared,
            "{workload}: {name} ({unit}) is not declared in BENCHMARK.json"
        );
    }
    for name in DETERMINISTIC {
        assert_eq!(
            ma.get(*name),
            mb.get(*name),
            "{workload}: {name} differs between runs"
        );
    }
}

#[test]
fn corpus_ims() {
    check_workload("corpus-ims");
}

#[test]
fn corpus_exact_ilp() {
    check_workload("corpus-exact-ilp");
}

#[test]
fn corpus_portfolio() {
    check_workload("corpus-portfolio");
}

#[test]
fn families() {
    check_workload("families");
}

#[test]
fn swpd_mixed() {
    check_workload("swpd-mixed");
}

/// Negative control: shifting one proven golden period by one makes the
/// otherwise passing run fail.
#[test]
fn wrong_golden_row_fails_the_run() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/corpus.tsv");
    let text = std::fs::read_to_string(golden).expect("read golden/corpus.tsv");
    let mut changed = false;
    let rows: Vec<String> = text
        .lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            match f[..] {
                [name, t_lb, period, "1"]
                    if !changed && !name.starts_with('#') && period != "-" =>
                {
                    changed = true;
                    let wrong = period.parse::<u32>().expect("numeric period") + 1;
                    format!("{name}\t{t_lb}\t{wrong}\t1")
                }
                _ => line.to_string(),
            }
        })
        .collect();
    assert!(changed, "no proven row to corrupt");
    let dir = tmp_dir("wrong-golden");
    std::fs::write(dir.join("corpus.tsv"), rows.join("\n") + "\n").expect("write golden copy");
    let out = run(
        "corpus-ims",
        &["--golden", dir.to_str().expect("utf-8 path")],
    );
    assert!(!out.status.success(), "a wrong golden row went unnoticed");
    assert!(last_line(&out).starts_with("{\"correct\": false"));
}
