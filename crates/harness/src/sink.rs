//! Streaming sinks for per-loop records.
//!
//! A [`RunSink`] receives each [`LoopRecord`] as soon as its loop
//! finishes — in **completion order**, which under parallel execution is
//! not corpus order (each record carries its corpus `index`; the run
//! report's record vector is always re-sorted to corpus order). Sinks
//! let a long corpus run stream progress to disk or a progress meter
//! instead of buffering everything in memory.

use crate::record::LoopRecord;
use crate::telemetry::RunSummary;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Consumes per-loop records as they complete.
pub trait RunSink: Send {
    /// Called once per finished loop, in completion order.
    fn on_record(&mut self, record: &LoopRecord);

    /// Called once after the run with the aggregated summary.
    fn on_summary(&mut self, _summary: &RunSummary) {}
}

/// Discards everything.
#[derive(Debug, Default)]
pub struct NullSink;

impl RunSink for NullSink {
    fn on_record(&mut self, _record: &LoopRecord) {}
}

/// Collects records in memory (completion order).
#[derive(Debug, Default)]
pub struct VecSink {
    /// The records seen so far.
    pub records: Vec<LoopRecord>,
}

impl RunSink for VecSink {
    fn on_record(&mut self, record: &LoopRecord) {
        self.records.push(record.clone());
    }
}

/// Streams records to a JSONL file, one line per record, flushed per
/// record so an interrupted run leaves a resumable artifact (at worst
/// its final line is truncated — which the cache loader skips with a
/// warning rather than failing the resume).
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    written: usize,
}

impl JsonlSink {
    /// Creates (truncating) the artifact at `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file.
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
            written: 0,
        })
    }

    /// Opens the artifact at `path` for appending (creating it if
    /// missing) — the resume path.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file.
    pub fn append(path: &Path) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?),
            written: 0,
        })
    }

    /// Lines written through this sink (excludes pre-existing lines of
    /// an appended artifact).
    pub fn written(&self) -> usize {
        self.written
    }

    /// Writes one record line immediately.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or flushing.
    pub fn write_record(&mut self, record: &LoopRecord) -> io::Result<()> {
        let line = record.to_json_line();
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        self.written += 1;
        Ok(())
    }
}

impl RunSink for JsonlSink {
    fn on_record(&mut self, record: &LoopRecord) {
        // Sinks are infallible by contract; a dying disk should not kill
        // a mostly-done corpus run. Complain and carry on.
        if let Err(e) = self.write_record(record) {
            eprintln!(
                "swp-harness: artifact write failed for loop {}: {e}",
                record.index
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CacheKey, SuiteOutcome};
    use std::time::Duration;

    fn rec(i: usize) -> LoopRecord {
        LoopRecord {
            index: i,
            name: format!("loop{i:04}"),
            num_nodes: 3,
            key: CacheKey {
                ddg: i as u64,
                machine: 1,
                config: 2,
            },
            t_lb: 1,
            t_lb_counting: 1,
            period: None,
            outcome: SuiteOutcome::Unscheduled,
            proven: false,
            bb_nodes: 0,
            lp_iterations: 0,
            ticks: 0,
            periods_attempted: 0,
            any_timeout: false,
            solve_time: Duration::ZERO,
            cached: false,
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines_and_append_extends() {
        let dir = std::env::temp_dir().join(format!("swp-harness-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.jsonl");

        let mut sink = JsonlSink::create(&path).unwrap();
        sink.on_record(&rec(0));
        sink.on_record(&rec(1));
        assert_eq!(sink.written(), 2);
        drop(sink);

        let mut sink = JsonlSink::append(&path).unwrap();
        sink.on_record(&rec(2));
        drop(sink);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, l) in lines.iter().enumerate() {
            let r = LoopRecord::from_json_line(l).expect("valid line");
            assert_eq!(r.index, i);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vec_sink_collects() {
        let mut s = VecSink::default();
        s.on_record(&rec(5));
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].index, 5);
        NullSink.on_record(&rec(0)); // and the null sink ignores
    }
}
