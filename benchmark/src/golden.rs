//! Golden reference outcomes for the default seed.
//!
//! One TSV per workload (`golden/<workload>.tsv`): input name, `T_lb`,
//! `T` (`-` when no schedule exists in the window), and whether `T` is
//! proven. A row is marked proven only where the ILP and the CP engine,
//! run separately with the IMS incumbent off, reached the same proven
//! answer, so the reference never comes from the configuration under
//! test.

use crate::solve::Outcome;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

const HEADER: &str = "# input\tt_lb\tT\tproven";

pub struct Golden {
    rows: HashMap<String, Outcome>,
}

impl Golden {
    /// Loads a golden file.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` naming the malformed line.
    pub fn load(path: &Path) -> io::Result<Golden> {
        let text = std::fs::read_to_string(path)?;
        let bad = |n: usize| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: malformed golden row", path.display(), n + 1),
            )
        };
        let mut rows = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let [name, t_lb, period, proven] = f[..] else {
                return Err(bad(n));
            };
            let outcome = Outcome {
                t_lb: t_lb.parse().map_err(|_| bad(n))?,
                period: match period {
                    "-" => None,
                    p => Some(p.parse().map_err(|_| bad(n))?),
                },
                proven: proven == "1",
            };
            rows.insert(name.to_string(), outcome);
        }
        Ok(Golden { rows })
    }

    /// Writes `rows` in input order.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write(path: &Path, rows: &[(String, Outcome)]) -> io::Result<()> {
        let mut out = format!("{HEADER}\n");
        for (name, o) in rows {
            let period = o.period.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "{name}\t{}\t{period}\t{}", o.t_lb, u8::from(o.proven));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Checks one outcome against its golden row (inputs without a row
    /// pass). The bound must match; against a proven row, a proven answer
    /// must match exactly and no schedule may beat the proven period.
    pub fn check(&self, name: &str, got: &Outcome) -> Result<(), String> {
        let Some(want) = self.rows.get(name) else {
            return Ok(());
        };
        let mismatch = || Err(format!("{name}: got {got:?}, golden {want:?}"));
        if got.t_lb != want.t_lb {
            return mismatch();
        }
        if !want.proven {
            return Ok(());
        }
        match (want.period, got.period) {
            (Some(w), Some(g)) if g < w || (got.proven && g != w) => mismatch(),
            (Some(_), None) if got.proven => mismatch(),
            // Every period in the window was refuted by both engines.
            (None, Some(_)) => mismatch(),
            _ => Ok(()),
        }
    }
}
