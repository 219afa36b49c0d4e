//! The differential fuzzing campaign driver
//! (`cargo run -p swp-fuzz --release --bin fuzz -- --help` lists its
//! flags).
//!
//! Cases are sharded over the `swp-harness` thread-pool executor and
//! reported in campaign order, so the JSONL artifact for a completed
//! same-seed run is byte-identical at any worker count. `--budget-ms`
//! is a wall-clock stop for CI smoke runs: cases not started before the
//! deadline are skipped (and counted), already-finished records stay
//! deterministic. `--inject-fault` deliberately breaks the baseline
//! configuration via the scheduler's test-only fault plan, to
//! demonstrate end to end that the oracle catches a broken engine and
//! the shrinker minimizes the counterexample. `--engine` narrows the
//! driver matrix to one exact engine (plus the baseline it is
//! cross-checked against) — CI uses `--engine portfolio` for a cheap
//! portfolio-focused smoke.
//!
//! `--incremental` switches to the incremental-vs-cold differential: a
//! warm [`SolveSession`] per case, a seeded `--edits`-step edit script,
//! and a cold `schedule_with` re-solve at every step. Warm reuse must
//! never change a decision, and every warm-accepted schedule is
//! re-verified by the checker and the cycle-accurate simulator.
//!
//! [`SolveSession`]: swp_incr::SolveSession

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use swp_core::{Engine, FaultPlan};
use swp_fuzz::{
    gen_case, run_case, run_incr_case, shrink, to_json_line, write_regression, CaseReport,
    DiffOptions, FuzzCase, GenConfig, IncrOptions, IncrReport, MachineFamily,
};
use swp_harness::{executor, Cli, Flags};
use swp_loops::fingerprint::{ddg_fingerprint, machine_fingerprint};

const CLI: Cli = Cli {
    name: "fuzz",
    usage: "\
usage: fuzz [flags]

  --seed N                 campaign seed (default 0)
  --cases N                cases to generate (default 200)
  --workers N              worker threads (default 1)
  --budget-ms MS           skip cases not started within MS (default: no limit)
  --ticks N                tick cap per engine invocation (default 2000000)
  --adversarial F          share of adversarial cases (default 0.6)
  --max-nodes N            largest generated DDG (default 8)
  --machine-family classic|vliw|regpressure
                           machine generator (default classic)
  --engine ilp|cp|portfolio
                           run only this exact engine's configurations
  --inject-fault reject-schedules|reject-ilp|reject-heuristic|fail-ilp|fail-heuristic
                           break the baseline configuration on purpose
  --no-metamorphic         skip the metamorphic relations
  --incremental            incremental-vs-cold differential instead
  --edits N                edit-script length per case (default 4)
  --artifact PATH          write the timing-free JSONL artifact to PATH
  --shrink                 minimize one counterexample per violation kind
  --out DIR                write regression files to DIR (default: stderr)
  -h, --help               print this help
",
};

fn parse_fault(name: &str) -> Result<FaultPlan, String> {
    match name {
        "reject-schedules" => Ok(FaultPlan {
            reject_ilp_schedule: true,
            reject_heuristic_schedule: true,
            ..FaultPlan::default()
        }),
        "reject-ilp" => Ok(FaultPlan {
            reject_ilp_schedule: true,
            ..FaultPlan::default()
        }),
        "reject-heuristic" => Ok(FaultPlan {
            reject_heuristic_schedule: true,
            ..FaultPlan::default()
        }),
        "fail-ilp" => Ok(FaultPlan {
            fail_ilp: true,
            ..FaultPlan::default()
        }),
        "fail-heuristic" => Ok(FaultPlan {
            fail_heuristic_incumbent: true,
            ..FaultPlan::default()
        }),
        other => Err(format!(
            "unknown fault `{other}` (use reject-schedules, reject-ilp, \
             reject-heuristic, fail-ilp, or fail-heuristic)"
        )),
    }
}

fn main() -> ExitCode {
    CLI.run(run)
}

#[allow(clippy::too_many_lines)]
fn run(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.get_or("seed", 0)?;
    let cases: usize = flags.get_or("cases", 200)?;
    let workers: usize = flags.get_or("workers", 1)?;
    let budget_ms: u64 = flags.get_or("budget-ms", 0)?;
    let adversarial: f64 = flags.get_or("adversarial", 0.6)?;
    let max_nodes: usize = flags.get_or("max-nodes", 8)?;
    let ticks: u64 = flags.get_or("ticks", 2_000_000)?;
    let do_shrink = flags.has("shrink");
    let family = match flags.get("machine-family") {
        None => MachineFamily::Classic,
        Some(s) => MachineFamily::parse(s).ok_or_else(|| {
            format!("unknown machine family `{s}` (use classic, vliw, or regpressure)")
        })?,
    };

    let gen_config = GenConfig {
        seed,
        max_nodes,
        adversarial_fraction: adversarial,
        family,
        ..GenConfig::default()
    };

    // Each mode rejects the flags only the other one reads.
    const DIFF_ONLY: &[&str] = &[
        "engine",
        "inject-fault",
        "artifact",
        "shrink",
        "no-metamorphic",
    ];
    let incremental = flags.has("incremental");
    let other_mode = if incremental { DIFF_ONLY } else { &["edits"] };
    if let Some(name) = other_mode
        .iter()
        .find(|&&n| flags.get(n).is_some() || flags.has(n))
    {
        let mode = if incremental { "with" } else { "without" };
        return Err(format!("flag --{name} has no effect {mode} --incremental"));
    }
    if incremental {
        let incr_opts = IncrOptions {
            seed,
            ticks_per_solve: ticks,
            edits: flags.get_or("edits", 4)?,
        };
        return run_incremental(flags, &gen_config, &incr_opts, cases, workers, budget_ms);
    }
    let mut opts = DiffOptions {
        ticks_per_config: ticks,
        metamorphic: !flags.has("no-metamorphic"),
        ..DiffOptions::default()
    };
    if let Some(engine) = flags.get("engine") {
        opts.engine_filter = Some(
            Engine::from_name(engine)
                .ok_or_else(|| format!("unknown engine `{engine}` (use ilp, cp, or portfolio)"))?,
        );
    }
    if let Some(fault) = flags.get("inject-fault") {
        opts.faults = parse_fault(fault)?;
        opts.metamorphic = false;
    }

    let deadline = (budget_ms > 0).then(|| Instant::now() + Duration::from_millis(budget_ms));
    let started = Instant::now();
    println!(
        "== swp-fuzz: seed {seed}, {cases} cases ({} family), {workers} worker(s), \
         {ticks} ticks/config ==",
        family.as_str()
    );

    let gen_ref = &gen_config;
    let opts_ref = &opts;
    let results: Vec<Option<(FuzzCase, CaseReport)>> =
        executor::run_indexed(cases, workers, move |index| {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Some(None); // budget spent: skip, but keep the slot
                }
            }
            let case = gen_case(gen_ref, index);
            let report = run_case(&case, opts_ref);
            Some(Some((case, report)))
        })
        .into_iter()
        .map(Option::flatten)
        .collect();

    // Artifact: completed cases, campaign order, timing-free.
    if let Some(path) = flags.get("artifact") {
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create artifact {path}: {e}"))?;
        for entry in results.iter().flatten() {
            let (case, report) = entry;
            let line = to_json_line(
                report,
                ddg_fingerprint(&case.ddg),
                machine_fingerprint(&case.machine),
            );
            writeln!(file, "{line}").map_err(|e| format!("artifact write failed: {e}"))?;
        }
    }

    // Telemetry.
    let completed = results.iter().flatten().count();
    let skipped = cases - completed;
    let scheduled = results
        .iter()
        .flatten()
        .filter(|(_, r)| r.proven_t.is_some())
        .count();
    let metamorphic: u64 = results
        .iter()
        .flatten()
        .map(|(_, r)| u64::from(r.metamorphic_checked))
        .sum();
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut failing: Vec<&(FuzzCase, CaseReport)> = Vec::new();
    for entry in results.iter().flatten() {
        if !entry.1.passed() {
            failing.push(entry);
        }
        for v in &entry.1.violations {
            *by_kind.entry(v.kind.as_str()).or_insert(0) += 1;
        }
    }
    let violations: usize = by_kind.values().sum();
    println!(
        "completed {completed}/{cases} case(s) ({skipped} skipped by --budget-ms), \
         {scheduled} with a proven optimum, {metamorphic} metamorphic check(s)"
    );
    println!(
        "violations: {violations} across {} failing case(s) [{:.1}s]",
        failing.len(),
        started.elapsed().as_secs_f64()
    );
    for (kind, n) in &by_kind {
        println!("  {kind}: {n}");
    }

    if failing.is_empty() {
        println!("ok: zero property violations");
        return Ok(ExitCode::SUCCESS);
    }

    // Report (and optionally shrink) one representative per kind.
    let out_dir = flags.get("out").map(std::path::PathBuf::from);
    let mut seen = BTreeMap::new();
    for (case, report) in &failing {
        let v = &report.violations[0];
        if seen.contains_key(v.kind.as_str()) {
            continue;
        }
        seen.insert(v.kind.as_str(), true);
        eprintln!(
            "\ncase {}: {} [{}] {}",
            case.name,
            v.kind.as_str(),
            v.config,
            v.details
        );
        let minimized = if do_shrink {
            let outcome = shrink(case, &opts, v.kind);
            eprintln!(
                "shrunk to {} node(s) / {} edge(s) after {} candidate(s)",
                outcome.case.ddg.num_nodes(),
                outcome.case.ddg.num_edges(),
                outcome.tested
            );
            outcome.case
        } else {
            (*case).clone()
        };
        let text = write_regression(&minimized, Some(v.kind));
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
            let file = dir.join(format!("{}-{}.txt", v.kind.as_str(), case.name));
            std::fs::write(&file, &text).map_err(|e| format!("cannot write {file:?}: {e}"))?;
            eprintln!("regression file written to {}", file.display());
        } else {
            eprintln!("--- regression file ---\n{text}-----------------------");
        }
    }
    Ok(ExitCode::FAILURE)
}

/// The incremental-vs-cold campaign: one warm session + seeded edit
/// script per case, a cold re-solve at every step, decisions compared
/// only when both sides finished inside the tick budget.
fn run_incremental(
    flags: &Flags,
    gen_config: &GenConfig,
    opts: &IncrOptions,
    cases: usize,
    workers: usize,
    budget_ms: u64,
) -> Result<ExitCode, String> {
    let deadline = (budget_ms > 0).then(|| Instant::now() + Duration::from_millis(budget_ms));
    let started = Instant::now();
    println!(
        "== swp-fuzz --incremental: seed {}, {cases} cases, {workers} worker(s), \
         {} edit(s)/case, {} ticks/solve ==",
        opts.seed, opts.edits, opts.ticks_per_solve
    );

    let results: Vec<Option<(FuzzCase, IncrReport)>> =
        executor::run_indexed(cases, workers, move |index| {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Some(None);
                }
            }
            let case = gen_case(gen_config, index);
            let report = run_incr_case(&case, opts);
            Some(Some((case, report)))
        })
        .into_iter()
        .map(Option::flatten)
        .collect();

    let completed = results.iter().flatten().count();
    let skipped = cases - completed;
    let (mut steps, mut compared) = (0usize, 0usize);
    let (mut hints, mut replays) = (0u64, 0u64);
    let mut failing: Vec<&(FuzzCase, IncrReport)> = Vec::new();
    for entry in results.iter().flatten() {
        let r = &entry.1;
        steps += r.steps;
        compared += r.compared;
        hints += r.ims_hint_hits;
        replays += r.replays;
        if !r.passed() {
            failing.push(entry);
        }
    }
    println!(
        "completed {completed}/{cases} case(s) ({skipped} skipped by --budget-ms), \
         {steps} step(s), {compared} conclusive comparison(s)"
    );
    println!(
        "reuse: {hints} hint hit(s), {replays} replay(s) [{:.1}s]",
        started.elapsed().as_secs_f64()
    );

    if failing.is_empty() {
        println!("ok: zero incremental divergences");
        return Ok(ExitCode::SUCCESS);
    }

    // Incremental failures depend on the whole edit script, which the
    // structural shrinker cannot preserve — emit the unshrunk case.
    let out_dir = flags.get("out").map(std::path::PathBuf::from);
    for (case, report) in failing.iter().take(3) {
        let v = &report.violations[0];
        eprintln!(
            "\ncase {}: {} [{}] {}",
            case.name,
            v.kind.as_str(),
            v.config,
            v.details
        );
        let text = write_regression(case, Some(v.kind));
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
            let file = dir.join(format!("{}-{}.txt", v.kind.as_str(), case.name));
            std::fs::write(&file, &text).map_err(|e| format!("cannot write {file:?}: {e}"))?;
            eprintln!("regression file written to {}", file.display());
        } else {
            eprintln!("--- regression file ---\n{text}-----------------------");
        }
    }
    eprintln!("{} failing case(s) total", failing.len());
    Ok(ExitCode::FAILURE)
}
