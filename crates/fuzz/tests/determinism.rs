//! Same-seed campaigns must be byte-identical — across runs and across
//! worker counts.
//!
//! The runner uses tick budgets only (no wall clock) and the artifact
//! record carries no timing, so the full JSONL artifact is a pure
//! function of `(seed, cases, generator knobs)`. This is what lets CI
//! `cmp` two smoke-run artifacts and what makes `--seed` a complete
//! reproduction handle.

use swp_fuzz::{gen_case, run_case, to_json_line, DiffOptions, FuzzCase, GenConfig};
use swp_harness::executor;
use swp_loops::fingerprint::{ddg_fingerprint, machine_fingerprint};

fn campaign(seed: u64, cases: usize, workers: usize) -> Vec<String> {
    let cfg = GenConfig {
        seed,
        ..GenConfig::default()
    };
    let opts = DiffOptions::default();
    // Generate *and* schedule inside the sharded executor, exactly like
    // the `fuzz` binary, so cross-worker interleaving is part of what
    // this test pins down.
    let results: Vec<Option<(FuzzCase, String)>> = executor::run_indexed(cases, workers, |index| {
        let case = gen_case(&cfg, index);
        let report = run_case(&case, &opts);
        let line = to_json_line(
            &report,
            ddg_fingerprint(&case.ddg),
            machine_fingerprint(&case.machine),
        );
        Some((case, line))
    });
    results
        .into_iter()
        .map(|r| r.expect("campaign never skips").1)
        .collect()
}

#[test]
fn artifact_is_byte_identical_across_workers_and_runs() {
    let a = campaign(5, 12, 1);
    let b = campaign(5, 12, 4);
    let c = campaign(5, 12, 4);
    assert_eq!(a, b, "worker count changed the artifact");
    assert_eq!(b, c, "a repeated run changed the artifact");
    assert_eq!(a.len(), 12);
    for line in &a {
        swp_fuzz::check_json_line(line).expect("artifact line parses");
    }
}

#[test]
fn different_seeds_differ() {
    // Guards against a seed-plumbing regression that would silently
    // make every campaign identical.
    assert_ne!(campaign(5, 4, 1), campaign(6, 4, 1));
}
