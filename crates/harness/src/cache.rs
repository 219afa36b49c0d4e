//! The on-disk result cache: a JSONL artifact read back as a key-value
//! store.
//!
//! The artifact written by a run doubles as the cache for the next one:
//! each line is a complete [`LoopRecord`] carrying its own
//! [`CacheKey`] (DDG + machine + config fingerprints), so a re-run
//! simply loads the file, looks up each loop's key, and re-solves only
//! the misses. A loop keyed identically always produced the same
//! outcome (solves are deterministic given the config), so serving the
//! stored record is equivalent to re-solving — that equivalence is
//! enforced by the cache-correctness tests.
//!
//! Robustness: a corrupted, truncated, or foreign line is *skipped with
//! a warning*, never a panic — an artifact whose tail was cut off by a
//! kill mid-write must still resume cleanly.

use crate::record::{CacheKey, LoopRecord};
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// An in-memory index of a JSONL artifact, keyed by fingerprint triple.
#[derive(Debug, Default)]
pub struct ResultCache {
    map: HashMap<CacheKey, LoopRecord>,
    skipped_lines: usize,
    loaded_lines: usize,
}

impl ResultCache {
    /// An empty cache (every lookup misses).
    pub fn empty() -> ResultCache {
        ResultCache::default()
    }

    /// Loads an artifact. A missing file yields an empty cache (first
    /// run); unreadable lines are skipped and counted in
    /// [`skipped_lines`](Self::skipped_lines). When the same key appears
    /// on several lines the last one wins.
    ///
    /// Corruption is reported as **one warning per file** on stderr
    /// (first offending line plus a total), not one per line — a
    /// half-overwritten artifact can hold thousands of bad lines and
    /// must not bury the run's real output.
    ///
    /// # Errors
    ///
    /// Only real I/O errors (permission, disk) — never parse problems.
    pub fn load(path: &Path) -> io::Result<ResultCache> {
        Self::load_with_warner(path, &mut |msg| eprintln!("{msg}"))
    }

    /// [`load`](Self::load) with the warning sink made explicit, so
    /// tests (and embedders with their own logging) can observe exactly
    /// what would be printed. `warn` is invoked at most once per file.
    ///
    /// # Errors
    ///
    /// Only real I/O errors (permission, disk) — never parse problems.
    pub fn load_with_warner(path: &Path, warn: &mut dyn FnMut(&str)) -> io::Result<ResultCache> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ResultCache::empty()),
            Err(e) => return Err(e),
        };
        let mut cache = ResultCache::empty();
        let mut first_bad: Option<(usize, String)> = None;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match LoopRecord::from_json_line(line) {
                Ok(rec) => {
                    cache.loaded_lines += 1;
                    cache.map.insert(rec.key, rec);
                }
                Err(why) => {
                    cache.skipped_lines += 1;
                    if first_bad.is_none() {
                        first_bad = Some((lineno + 1, why));
                    }
                }
            }
        }
        if let Some((lineno, why)) = first_bad {
            warn(&format!(
                "swp-harness: skipped {} corrupt artifact line(s) in {} \
                 (first at line {lineno}: {why})",
                cache.skipped_lines,
                path.display()
            ));
        }
        Ok(cache)
    }

    /// Looks up a record by its fingerprint triple.
    pub fn lookup(&self, key: &CacheKey) -> Option<&LoopRecord> {
        self.map.get(key)
    }

    /// Inserts (or replaces, matching the loader's last-wins rule) a
    /// record under its own key. This is the live-update path for
    /// embedders that keep the cache hot in memory while appending the
    /// same records to the artifact — the `swpd` daemon serves repeat
    /// fingerprints from here without a disk round trip.
    pub fn insert(&mut self, record: LoopRecord) {
        self.map.insert(record.key, record);
    }

    /// Number of distinct cached records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lines that failed to parse during [`load`](Self::load).
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Lines successfully loaded (before last-wins dedup).
    pub fn loaded_lines(&self) -> usize {
        self.loaded_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SuiteOutcome;
    use std::time::Duration;

    fn rec(i: usize, cfg: u64) -> LoopRecord {
        LoopRecord {
            index: i,
            name: format!("loop{i:04}"),
            num_nodes: 5,
            key: CacheKey {
                ddg: 1000 + i as u64,
                machine: 7,
                config: cfg,
            },
            t_lb: 2,
            t_lb_counting: 2,
            period: Some(2),
            outcome: SuiteOutcome::Scheduled {
                slack: 0,
                solved_by: swp_core::SolvedBy::Ilp,
            },
            proven: true,
            bb_nodes: 3,
            lp_iterations: 50,
            ticks: 60,
            periods_attempted: 1,
            any_timeout: false,
            solve_time: Duration::from_micros(10),
            cached: false,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("swp-harness-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let c = ResultCache::load(&tmp("does-not-exist.jsonl")).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.skipped_lines(), 0);
    }

    #[test]
    fn loads_lines_and_skips_corruption() {
        let path = tmp("mixed.jsonl");
        let good0 = rec(0, 1).to_json_line();
        let good2 = rec(2, 1).to_json_line();
        let good1 = rec(1, 1).to_json_line();
        let truncated = &good0[..good0.len() / 2];
        let body = format!("{good2}\nnot json\n{good0}\n\n{truncated}\n{good1}\n");
        std::fs::write(&path, body).unwrap();

        let c = ResultCache::load(&path).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.skipped_lines(), 2);
        assert_eq!(c.loaded_lines(), 3);
        for i in 0..3 {
            assert_eq!(c.lookup(&rec(i, 1).key).map(|r| r.index), Some(i));
        }
        assert!(c.lookup(&rec(1, 999).key).is_none(), "config key mismatch");
    }

    #[test]
    fn many_corrupt_lines_warn_exactly_once_per_file() {
        let path = tmp("very-corrupt.jsonl");
        let good = rec(0, 1).to_json_line();
        let mut body = String::new();
        body.push_str("not json at all\n");
        body.push_str("{\"schema\":\"wrong\"}\n");
        body.push_str(&good[..good.len() / 3]); // truncated mid-write
        body.push('\n');
        body.push_str(&good);
        body.push('\n');
        body.push_str("}{ inverted\n");
        std::fs::write(&path, body).unwrap();

        let mut warnings: Vec<String> = Vec::new();
        let c =
            ResultCache::load_with_warner(&path, &mut |m| warnings.push(m.to_string())).unwrap();
        assert_eq!(c.len(), 1, "the one good line still loads");
        assert_eq!(c.skipped_lines(), 4);
        assert_eq!(
            warnings.len(),
            1,
            "4 corrupt lines must produce exactly one deduplicated warning, got: {warnings:?}"
        );
        assert!(warnings[0].contains("skipped 4 corrupt artifact line(s)"));
        assert!(
            warnings[0].contains("first at line 1"),
            "warning should locate the first bad line: {}",
            warnings[0]
        );
    }

    #[test]
    fn clean_artifact_warns_never() {
        let path = tmp("clean.jsonl");
        std::fs::write(&path, format!("{}\n", rec(0, 1).to_json_line())).unwrap();
        let mut warnings = 0usize;
        let c = ResultCache::load_with_warner(&path, &mut |_| warnings += 1).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(warnings, 0);
    }

    #[test]
    fn last_line_wins_on_duplicate_keys() {
        let path = tmp("dups.jsonl");
        let mut newer = rec(4, 1);
        newer.bb_nodes = 999;
        let body = format!("{}\n{}\n", rec(4, 1).to_json_line(), newer.to_json_line());
        std::fs::write(&path, body).unwrap();
        let c = ResultCache::load(&path).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&newer.key).unwrap().bb_nodes, 999);
    }
}
