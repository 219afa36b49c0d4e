//! `swp-benchmark compare A B`: two sets of runs, side by side.
//!
//! A set is a file of run records as `--out` appends them (one JSON
//! object per line). For every (workload, metric) the table gives each
//! set's median and quartiles and its spread (interquartile distance over
//! the median), then a verdict against the bound in `BENCHMARK.json`:
//!
//! * `ok` — B's median is no worse than A's by more than the bound;
//! * `worse` — it is, and both spreads are within the bound;
//! * `unresolved` — a spread exceeds the bound, and B's runs do not all
//!   read better than A's;
//! * for per-layer counts, `same` or `differs` (seed by seed).

use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default, exclusive method), plus the plain median.
pub fn summary(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let median = crate::metrics::quantile(&v, 0.5);
    if v.len() < 2 {
        return (median, median, median);
    }
    let (ld, n) = (v.len() as i64, 4i64);
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        (v[j as usize - 1] * (n as f64 - delta) + v[j as usize] * delta) / n as f64
    };
    (median, q(1), q(3))
}

struct Declared {
    unit: String,
    higher_better: bool,
    bound: Option<f64>,
}

fn declared(bench: &Json) -> BTreeMap<String, Declared> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).map(Json::as_array).unwrap_or_default() {
            let (Some(name), Some(unit)) = (
                m.get("name").and_then(Json::as_str),
                m.get("unit").and_then(Json::as_str),
            ) else {
                continue;
            };
            out.insert(
                name.to_string(),
                Declared {
                    unit: unit.to_string(),
                    higher_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    out
}

/// `(workload, metric) → [(seed, value)]` from a file of run records.
type Set = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        for (name, m) in run.get("metrics").map(Json::fields).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push((seed, v));
            }
        }
    }
    Ok(set)
}

fn verdict(d: &Declared, a: &[(u64, f64)], b: &[(u64, f64)]) -> &'static str {
    let va: Vec<f64> = a.iter().map(|x| x.1).collect();
    let vb: Vec<f64> = b.iter().map(|x| x.1).collect();
    let Some(bound) = d.bound else {
        if d.unit != "count" {
            return "-";
        }
        let (mut sa, mut sb) = (a.to_vec(), b.to_vec());
        sa.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        sb.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        return if sa == sb { "same" } else { "differs" };
    };
    let (ma, qa1, qa3) = summary(&va);
    let (mb, qb1, qb3) = summary(&vb);
    let spread = |m: f64, q1: f64, q3: f64| (q3 - q1) / m.abs().max(f64::MIN_POSITIVE);
    let worse_by =
        if d.higher_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let better_everywhere = if d.higher_better {
        vb.iter().cloned().fold(f64::INFINITY, f64::min)
            > va.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    } else {
        vb.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            < va.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    if spread(ma, qa1, qa3) > bound || spread(mb, qb1, qb3) > bound {
        if better_everywhere {
            "ok"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// Runs the subcommand; returns the process exit code.
pub fn main(args: &[String], bench: &Path) -> i32 {
    let mut files = Vec::new();
    let (mut json_out, mut commit) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = it.next().cloned(),
            "--commit" => commit = it.next().cloned(),
            f => files.push(f.to_string()),
        }
    }
    let [a_path, b_path] = &files[..] else {
        eprintln!("usage: swp-benchmark compare A.jsonl B.jsonl [--json OUT] [--commit SHA]");
        return 2;
    };
    let loaded = (|| -> Result<_, String> {
        let text =
            std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
        Ok((
            declared(&json::parse(&text)?),
            load_set(Path::new(a_path))?,
            load_set(Path::new(b_path))?,
        ))
    })();
    let (decl, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("swp-benchmark compare: {e}");
            return 2;
        }
    };

    let mut keys: Vec<&(String, String)> = a.keys().chain(b.keys()).collect();
    keys.sort_by_key(|(w, m)| {
        let rank = |n: &str| {
            crate::metrics::END_TO_END
                .iter()
                .chain(crate::metrics::PER_LAYER)
                .position(|x| x.0 == n)
                .unwrap_or(usize::MAX)
        };
        (crate::WORKLOADS.iter().position(|x| x == w), rank(m))
    });
    keys.dedup();
    let mut bad = 0;
    let mut rows = String::new();
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "A spread",
        "B spread"
    );
    for key in keys {
        let (Some(d), va, vb) = (
            decl.get(&key.1),
            a.get(key).cloned().unwrap_or_default(),
            b.get(key).cloned().unwrap_or_default(),
        ) else {
            eprintln!("swp-benchmark compare: {} is not declared", key.1);
            bad += 1;
            continue;
        };
        if va.is_empty() || vb.is_empty() {
            continue;
        }
        let status = verdict(d, &va, &vb);
        if matches!(status, "worse" | "unresolved" | "differs") {
            bad += 1;
        }
        let sa = summary(&va.iter().map(|x| x.1).collect::<Vec<_>>());
        let sb = summary(&vb.iter().map(|x| x.1).collect::<Vec<_>>());
        let spread = |s: (f64, f64, f64)| (s.2 - s.1) / s.0.abs().max(f64::MIN_POSITIVE);
        println!(
            "{:<18} {:<26} {:>14.6} {:>14} {:>14.6} {:>14} {:>8.4} {:>8.4}  {status}",
            key.0,
            key.1,
            sa.0,
            format!("{:.4}..{:.4}", sa.1, sa.2),
            sb.0,
            format!("{:.4}..{:.4}", sb.1, sb.2),
            spread(sa),
            spread(sb),
        );
        let _ = write!(
            rows,
            "{}{{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"a\":{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}},\"b\":{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}},\"verdict\":\"{status}\"}}",
            if rows.is_empty() { "" } else { ",\n    " },
            key.0, key.1, d.unit, va.len(), sa.0, sa.1, sa.2, vb.len(), sb.0, sb.1, sb.2
        );
    }
    if let Some(out) = json_out {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut seeds: Vec<u64> = a.values().flatten().map(|x| x.0).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
        let doc = format!(
            "{{\n  \"commit\": \"{}\",\n  \"nproc\": {nproc},\n  \"seeds\": [{}],\n  \"set_a\": \"{a_path}\",\n  \"set_b\": \"{b_path}\",\n  \"rows\": [\n    {rows}\n  ]\n}}\n",
            commit.unwrap_or_default(),
            seeds.join(", ")
        );
        if let Err(e) = std::fs::write(&out, doc) {
            eprintln!("swp-benchmark compare: {out}: {e}");
            return 2;
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summary(&v), (5.5, 2.75, 8.25));
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let d = Declared {
            unit: "us".into(),
            higher_better: false,
            bound: Some(0.1),
        };
        let a: Vec<(u64, f64)> = (0..10).map(|s| (s, 100.0 + s as f64 * 0.1)).collect();
        let same: Vec<(u64, f64)> = a.iter().map(|&(s, v)| (s, v + 1.0)).collect();
        let slow: Vec<(u64, f64)> = a.iter().map(|&(s, v)| (s, v * 1.5)).collect();
        let noisy: Vec<(u64, f64)> = (0..10).map(|s| (s, 50.0 + s as f64 * 20.0)).collect();
        assert_eq!(verdict(&d, &a, &same), "ok");
        assert_eq!(verdict(&d, &a, &slow), "worse");
        assert_eq!(verdict(&d, &a, &noisy), "unresolved");
    }
}
