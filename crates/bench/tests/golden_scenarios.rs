//! Golden cross-engine matrix over the scenario corpus.
//!
//! `tests/scenarios/` holds a committed corpus of VLIW issue-bundle and
//! register-pressure kernels in the `swp-fuzz` regression format — two
//! handcrafted anchors plus fixed-seed generator output from both
//! machine-model families. Every scenario is solved by the ILP and the
//! CP backend under deterministic tick budgets (no wall-clock limits,
//! no heuristic incumbent, so the *exact* engines are the ones pinned),
//! and the resulting `(T, engine, optimality, max_live)` row is
//! compared against a golden table. The staged portfolio must agree on
//! every proven decision, and each accepted schedule is re-verified by
//! the independent checker, the pressure validator, and the
//! cycle-accurate simulator (which rejects any bundle overflow).
//!
//! On intentional changes:
//!
//! ```text
//! SCENARIO_WRITE=1 cargo test -p swp-bench --test golden_scenarios   # corpus
//! GOLDEN_PRINT=1   cargo test -p swp-bench --test golden_scenarios -- --nocapture
//! ```
//!
//! and paste the printed table over the constant below.

use std::fs;
use std::path::PathBuf;

use swp_core::{Budget, Engine, RateOptimalScheduler, ScheduleResult, SchedulerConfig, SolvedBy};
use swp_ddg::{Ddg, OpClass};
use swp_fuzz::{gen_cases, parse_regression, write_regression, FuzzCase, GenConfig, MachineFamily};
use swp_machine::{simulate, Machine, UnitPolicy};

/// Deterministic tick budget per engine invocation; generous for the
/// small guaranteed-schedulable kernels committed here.
const TICKS: u64 = 2_000_000;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(scenarios_dir())
        .expect("tests/scenarios must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    files.sort();
    files
}

/// The PLDI-95 running example's FP loop (load → fmul → fadd⟲ → store).
fn fp_loop() -> Ddg {
    let mut g = Ddg::new();
    let ld = g.add_node("load", OpClass::new(2), 3);
    let m1 = g.add_node("fmul", OpClass::new(1), 2);
    let a1 = g.add_node("fadd", OpClass::new(1), 2);
    let st = g.add_node("store", OpClass::new(2), 3);
    g.add_edge(ld, m1, 0).unwrap();
    g.add_edge(m1, a1, 0).unwrap();
    g.add_edge(a1, st, 0).unwrap();
    g.add_edge(a1, a1, 1).unwrap();
    g
}

/// A long-latency FP producer feeding a consumer: more than one value
/// is live per residue unless the cap stretches the period.
fn pressure_chain() -> Ddg {
    let mut g = Ddg::new();
    let a = g.add_node("a", OpClass::new(1), 3);
    let b = g.add_node("b", OpClass::new(1), 1);
    g.add_edge(a, b, 0).unwrap();
    g
}

/// The committed corpus, regenerated with `SCENARIO_WRITE=1`: two
/// handcrafted anchors plus the first three guaranteed-schedulable
/// cases of a fixed-seed campaign per machine-model family.
fn build_corpus() -> Vec<(String, FuzzCase)> {
    let mut corpus = vec![
        (
            "vliw-fp-loop".to_string(),
            FuzzCase {
                index: 0,
                name: "vliw-fp-loop".to_string(),
                guaranteed: true,
                machine: Machine::example_vliw(),
                ddg: fp_loop(),
                max_live: None,
            },
        ),
        (
            "pressure-fp-chain".to_string(),
            FuzzCase {
                index: 0,
                name: "pressure-fp-chain".to_string(),
                guaranteed: true,
                machine: Machine::example_clean(),
                ddg: pressure_chain(),
                max_live: Some(1),
            },
        ),
    ];
    for (family, seed) in [
        (MachineFamily::Vliw, 101u64),
        (MachineFamily::RegPressure, 202),
    ] {
        let config = GenConfig {
            seed,
            max_nodes: 6,
            family,
            ..GenConfig::default()
        };
        let picked: Vec<FuzzCase> = gen_cases(&config, 40)
            .into_iter()
            .filter(|c| c.guaranteed)
            .take(3)
            .collect();
        assert_eq!(picked.len(), 3, "campaign seed {seed} must yield 3 cases");
        for case in picked {
            corpus.push((format!("{}-s{seed}-{}", family.as_str(), case.name), case));
        }
    }
    corpus
}

/// Writes the corpus files. A no-op unless `SCENARIO_WRITE=1`.
#[test]
fn regenerate_corpus() {
    if std::env::var("SCENARIO_WRITE").is_err() {
        return;
    }
    let dir = scenarios_dir();
    fs::create_dir_all(&dir).expect("create tests/scenarios");
    for (name, case) in build_corpus() {
        let path = dir.join(format!("{name}.txt"));
        fs::write(&path, write_regression(&case, None)).expect("write scenario file");
        println!("wrote {}", path.display());
    }
}

#[test]
fn corpus_is_nonempty() {
    assert!(
        corpus_files().len() >= 8,
        "the committed scenario corpus should not shrink silently"
    );
}

#[test]
fn committed_corpus_matches_generator() {
    // The committed files must be exactly what `SCENARIO_WRITE=1` would
    // regenerate — no hand-edited drift.
    for (name, case) in build_corpus() {
        let path = scenarios_dir().join(format!("{name}.txt"));
        let on_disk = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing committed scenario ({e})"));
        assert_eq!(
            on_disk,
            write_regression(&case, None),
            "{name}: committed scenario diverged from the generator; \
             rerun with SCENARIO_WRITE=1"
        );
    }
}

fn exact_config(engine: Engine, max_live: Option<u32>) -> SchedulerConfig {
    SchedulerConfig {
        // Tick budgets only: outcomes are machine-speed independent.
        time_limit_per_t: None,
        // No heuristic incumbent, so the pinned `by=` column names the
        // exact engine that settled the period.
        heuristic_incumbent: false,
        engine,
        max_live,
        ..SchedulerConfig::default()
    }
}

fn solve(case: &FuzzCase, engine: Engine) -> ScheduleResult {
    let budget = Budget::with_tick_limit(TICKS);
    RateOptimalScheduler::new(case.machine.clone(), exact_config(engine, case.max_live))
        .schedule_with(&case.ddg, &budget)
        .unwrap_or_else(|e| panic!("{}: engine {engine:?} failed: {e}", case.name))
}

fn engine_cell(r: &ScheduleResult) -> String {
    let by = match r.solved_by() {
        SolvedBy::Ilp => "ilp",
        SolvedBy::Cp => "cp",
        SolvedBy::Heuristic => "ims",
    };
    format!(
        "T={} proven={} by={}",
        r.schedule.initiation_interval(),
        r.is_proven_optimal(),
        by
    )
}

/// Re-verifies one accepted schedule with every independent oracle.
fn verify(name: &str, case: &FuzzCase, r: &ScheduleResult) {
    r.schedule
        .validate(&case.ddg, &case.machine)
        .unwrap_or_else(|e| panic!("{name}: checker rejected accepted schedule: {e}"));
    if let Some(limit) = case.max_live {
        r.schedule
            .validate_pressure(&case.ddg, limit)
            .unwrap_or_else(|e| panic!("{name}: pressure cap broken: {e}"));
        assert!(
            r.schedule.max_live(&case.ddg) <= limit,
            "{name}: census exceeds the cap"
        );
    }
    // The simulator independently enforces bundle width and slot-group
    // caps: any overflow is a hard `BundleExceeded` error.
    let policy = if r.schedule.is_mapped() {
        UnitPolicy::Fixed
    } else {
        UnitPolicy::Dynamic
    };
    simulate(&case.machine, &case.ddg, &r.schedule, 4, policy)
        .unwrap_or_else(|e| panic!("{name}: simulator rejected accepted schedule: {e}"));
}

const GOLDEN_SCENARIOS: &str = "\
pressure-fp-chain nodes=2 t_lb=1 max_live=1 ilp[T=3 proven=true by=ilp] cp[T=3 proven=true by=cp]
regpressure-s202-case0000 nodes=2 t_lb=2 max_live=2 ilp[T=2 proven=true by=ilp] cp[T=2 proven=true by=cp]
regpressure-s202-case0002 nodes=2 t_lb=2 max_live=1 ilp[T=2 proven=true by=ilp] cp[T=2 proven=true by=cp]
regpressure-s202-case0003 nodes=4 t_lb=3 max_live=4 ilp[T=3 proven=true by=ilp] cp[T=3 proven=true by=cp]
vliw-fp-loop nodes=4 t_lb=2 max_live=- ilp[T=2 proven=true by=ilp] cp[T=2 proven=true by=cp]
vliw-s101-case0006 nodes=4 t_lb=6 max_live=- ilp[T=6 proven=true by=ilp] cp[T=6 proven=true by=cp]
vliw-s101-case0008 nodes=3 t_lb=3 max_live=- ilp[T=3 proven=true by=ilp] cp[T=3 proven=true by=cp]
vliw-s101-case0009 nodes=6 t_lb=4 max_live=- ilp[T=4 proven=true by=ilp] cp[T=4 proven=true by=cp]
";

#[test]
fn golden_scenario_matrix() {
    let mut rows = Vec::new();
    for path in corpus_files() {
        let name = path
            .file_stem()
            .expect("file stem")
            .to_string_lossy()
            .into_owned();
        let source = fs::read_to_string(&path).expect("readable scenario file");
        let case = parse_regression(&name, &source)
            .unwrap_or_else(|e| panic!("{e}"))
            .case;

        let ilp = solve(&case, Engine::Ilp);
        let cp = solve(&case, Engine::Cp);
        let port = solve(&case, Engine::Portfolio);
        for r in [&ilp, &cp, &port] {
            verify(&name, &case, r);
        }

        // Cross-engine agreement: a proven period is THE period.
        assert_eq!(ilp.is_proven_optimal(), cp.is_proven_optimal(), "{name}");
        if ilp.is_proven_optimal() {
            assert_eq!(
                ilp.schedule.initiation_interval(),
                cp.schedule.initiation_interval(),
                "{name}: exact engines disagree on the proven period"
            );
        }
        if port.is_proven_optimal() && ilp.is_proven_optimal() {
            assert_eq!(
                port.schedule.initiation_interval(),
                ilp.schedule.initiation_interval(),
                "{name}: portfolio disagrees with the exact engines"
            );
        }

        let max_live = case
            .max_live
            .map_or_else(|| "-".to_string(), |m| m.to_string());
        rows.push(format!(
            "{name} nodes={} t_lb={} max_live={max_live} ilp[{}] cp[{}]",
            case.ddg.num_nodes(),
            ilp.t_lb(),
            engine_cell(&ilp),
            engine_cell(&cp),
        ));
    }
    let table = format!("{}\n", rows.join("\n"));
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("--- golden scenario matrix ---\n{table}");
        return;
    }
    assert_eq!(
        table, GOLDEN_SCENARIOS,
        "scenario matrix drifted; rerun with GOLDEN_PRINT=1 and review"
    );
}
