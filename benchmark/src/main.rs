//! `swp-benchmark`: the end-to-end and per-layer benchmark of the
//! scheduling stack. See `README.md` next to this crate for the
//! workloads, the metrics and how to read them.
//!
//! ```text
//! swp-benchmark --workload <name>|all [--seed N] [--seconds S] [--trace [0|1]]
//!               [--out FILE] [--smoke] [--golden DIR]
//! swp-benchmark --write-golden [--workload <name>|all]
//! swp-benchmark compare A.jsonl B.jsonl [--json OUT] [--commit SHA]
//! ```
//!
//! One workload runs per process; `all` re-executes this binary once per
//! workload, one at a time. Every metric is printed as
//! `workload metric value unit`, and the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (or, with `--trace 1`, the per-layer ones). Any failed output
//! check makes the exit code non-zero.

mod compare;
mod golden;
mod json;
mod metrics;
mod solve;
mod swpd;
mod trace;

use golden::Golden;
use metrics::{Report, END_TO_END, PER_LAYER};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: &[&str] = &[
    "corpus-ims",
    "corpus-exact-ilp",
    "corpus-portfolio",
    "families",
    "swpd-mixed",
];

/// The paper corpus's generator seed; golden files are written for it.
const DEFAULT_SEED: u64 = 0x5CED_1995;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// Options of one workload run.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub smoke: bool,
}

impl RunOpts {
    /// Writes a traced run's spans as JSONL under `.bench_out/`.
    pub fn write_spans(&self, workload: &str, tracer: &trace::Tracer) {
        let path = Path::new(".bench_out").join(format!("{workload}-{}.spans.jsonl", self.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("swp-benchmark: {}: {e}", path.display());
        }
    }
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    write_golden: bool,
    out: Option<PathBuf>,
    golden: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15,
        trace: false,
        smoke: false,
        write_golden: false,
        out: None,
        golden: Path::new(MANIFEST_DIR).join("golden"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = value(&mut i, "--workload")?,
            "--seed" => {
                cli.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer")?
            }
            "--seconds" => {
                cli.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs an unsigned integer")?
            }
            "--trace" => {
                cli.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                }
            }
            "--out" => cli.out = Some(value(&mut i, "--out")?.into()),
            "--golden" => cli.golden = value(&mut i, "--golden")?.into(),
            "--smoke" => cli.smoke = true,
            "--write-golden" => cli.write_golden = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let known = cli.workload == "all" || WORKLOADS.contains(&cli.workload.as_str());
    if !(known || cli.write_golden && cli.workload.is_empty()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let bench = Path::new(MANIFEST_DIR).join("../BENCHMARK.json");
        return ExitCode::from(compare::main(&args[1..], &bench) as u8);
    }
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("swp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.write_golden {
        return write_golden(&cli);
    }
    if cli.workload == "all" {
        return run_all(&args);
    }
    let opts = RunOpts {
        seed: cli.seed,
        seconds: Duration::from_secs(cli.seconds),
        trace: cli.trace,
        smoke: cli.smoke,
    };
    // The golden comparison applies to the default seed only.
    let golden = if cli.seed == DEFAULT_SEED {
        let path = cli
            .golden
            .join(format!("{}.tsv", solve::golden_name(&cli.workload)));
        match Golden::load(&path) {
            Ok(g) => Some(g),
            Err(e) => {
                eprintln!("swp-benchmark: golden file {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let report = match cli.workload.as_str() {
        "swpd-mixed" => swpd::run(&opts, golden.as_ref()),
        w => solve::run(w, &opts, golden.as_ref()),
    };
    emit(&cli, &report)
}

/// Prints every measured metric, appends the run record to `--out`, and
/// ends standard output with the result object.
fn emit(cli: &Cli, report: &Report) -> ExitCode {
    let reported = if cli.trace { PER_LAYER } else { END_TO_END };
    let measured: Vec<&(&str, &str)> = if cli.trace {
        END_TO_END.iter().chain(PER_LAYER).collect()
    } else {
        END_TO_END.iter().collect()
    };
    let value = |name: &str| report.values.get(name).copied().unwrap_or(f64::NAN);
    let fields = |list: &[&(&str, &str)]| -> String {
        list.iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value(name))
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (name, unit) in &measured {
        println!("{} {name} {} {unit}", cli.workload, value(name));
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let counts = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}",
        report.attempted, report.failed
    );
    if let Some(out) = &cli.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {counts}, \"metrics\": {{{}}}}}\n",
            cli.workload,
            cli.seed,
            cli.trace,
            fields(&measured)
        );
        let appended = OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = appended {
            eprintln!("swp-benchmark: {}: {e}", out.display());
        }
    }
    let reported: Vec<&(&str, &str)> = reported.iter().collect();
    println!("{{{counts}, \"metrics\": {{{}}}}}", fields(&reported));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no NaN; an unmeasured value prints as `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Runs every workload in its own process, one after another.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("swp-benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut passed = args.to_vec();
    if let Some(i) = passed.iter().position(|a| a == "--workload") {
        passed.drain(i..i + 2);
    }
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(&passed)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("swp-benchmark: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("swp-benchmark: {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the golden files for the default seed.
fn write_golden(cli: &Cli) -> ExitCode {
    let mut chosen: Vec<&str> = if cli.workload.is_empty() || cli.workload == "all" {
        WORKLOADS.iter().map(|w| solve::golden_name(w)).collect()
    } else {
        vec![solve::golden_name(&cli.workload)]
    };
    chosen.dedup();
    for name in chosen {
        let rows = match name {
            "swpd-mixed" => swpd::reference_rows(DEFAULT_SEED),
            name => solve::reference_rows(name, DEFAULT_SEED),
        };
        let path = cli.golden.join(format!("{name}.tsv"));
        let proven = rows.iter().filter(|r| r.1.proven).count();
        if let Err(e) = Golden::write(&path, &rows) {
            eprintln!("swp-benchmark: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "swp-benchmark: wrote {} ({} rows, {proven} proven)",
            path.display(),
            rows.len()
        );
    }
    ExitCode::SUCCESS
}
