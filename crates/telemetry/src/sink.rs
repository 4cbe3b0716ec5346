//! Where events go: null, ring buffer, or buffered JSONL file.
//!
//! A sink is deliberately `&mut`-threaded through **orchestration code
//! only** (the campaign loop, the experiment binaries, the explorer's
//! merge phase) — never into parallel workers. Workers return plain
//! deterministic data (counters merged in input order); events are built
//! from the merged results, so what a sink observes — and therefore what
//! any consumer of the stream sees — is bit-identical across thread
//! counts, and the digests of the reports the events describe never
//! depend on whether a sink is attached at all.

use crate::event::Event;
use std::collections::VecDeque;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Consumes telemetry events. Implementations must be cheap when idle:
/// the hot path of every campaign runs with a sink attached.
pub trait TelemetrySink {
    /// Accepts one event.
    fn emit(&mut self, event: &Event);

    /// Flushes buffered output (no-op for memory sinks).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The do-nothing sink: telemetry "off", and free — the other two cost
/// what the repo benchmark's `telemetry.{jsonl,ring}_ns_per_event` say.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&mut self, _event: &Event) {}
}

/// A bounded in-memory ring: keeps the most recent `cap` events, for
/// tests and for embedding a "recent activity" view without a file.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    events: VecDeque<Event>,
    /// Events accepted over the sink's lifetime (≥ `events.len()`).
    seen: u64,
}

impl RingSink {
    /// A ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            events: VecDeque::new(),
            seen: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Retained event count (≤ cap).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events accepted over the sink's lifetime, including evicted ones.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }
}

impl TelemetrySink for RingSink {
    fn emit(&mut self, event: &Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        self.events.push_back(event.clone());
        self.seen += 1;
    }
}

/// A buffered JSONL file sink: one event per line, opened with the
/// versioned header line ([`Event::header`]). Flushed on drop; I/O
/// errors after creation are counted, never panicked on — telemetry
/// must not take a campaign down.
pub struct JsonlSink {
    out: io::BufWriter<Box<dyn Write>>,
    lines: u64,
    io_errors: u64,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("io_errors", &self.io_errors)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates (truncates) `path` and writes the schema header line.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = fs::File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// [`create`](Self::create), but the first line is the given header
    /// event instead of the plain [`Event::header`] — for producers that
    /// annotate the stream (e.g. a `requires` field declaring which
    /// event series validators must find). The header should extend
    /// `Event::header()` so the schema version stays on the wire.
    pub fn create_with_header(path: &Path, header: &Event) -> io::Result<Self> {
        let file = fs::File::create(path)?;
        Ok(Self::from_writer_with_header(Box::new(file), header))
    }

    /// Wraps any writer (tests use a `Vec<u8>` buffer); writes the
    /// schema header line immediately.
    pub fn from_writer(w: Box<dyn Write>) -> Self {
        Self::from_writer_with_header(w, &Event::header())
    }

    /// [`from_writer`](Self::from_writer) with a caller-built header
    /// line (see [`create_with_header`](Self::create_with_header)).
    pub fn from_writer_with_header(w: Box<dyn Write>, header: &Event) -> Self {
        let mut sink = JsonlSink {
            out: io::BufWriter::new(w),
            lines: 0,
            io_errors: 0,
        };
        sink.emit(header);
        sink
    }

    /// Lines written so far (header included).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Write errors swallowed so far (0 on a healthy stream).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }
}

impl TelemetrySink for JsonlSink {
    fn emit(&mut self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(_) => self.io_errors += 1,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Opens the sink behind a `--telemetry FILE` flag: a [`JsonlSink`] at
/// `path` (parent directories created as needed), or a [`NullSink`] when
/// `path` is empty. A non-empty `requires` (comma-separated tokens, e.g.
/// `"venues,route,rebalance"`) lands in the stream header as a *promise*
/// of event series: `telemetry_check` fails a stream that lacks one, so
/// producers gate their own streams.
pub fn open(path: &str, requires: &str) -> io::Result<Box<dyn TelemetrySink>> {
    if path.is_empty() {
        return Ok(Box::new(NullSink));
    }
    let mut header = Event::header();
    if !requires.is_empty() {
        header = header.with_str("requires", requires);
    }
    let create = || {
        if let Some(dir) = Path::new(path).parent() {
            fs::create_dir_all(dir)?;
        }
        JsonlSink::create_with_header(Path::new(path), &header)
    };
    let sink =
        create().map_err(|e| io::Error::new(e.kind(), format!("cannot open {path}: {e}")))?;
    Ok(Box::new(sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_jsonl;

    #[test]
    fn ring_sink_keeps_the_most_recent_events() {
        let mut ring = RingSink::new(3);
        for i in 0..5u64 {
            ring.emit(&Event::new("tick").with_u64("i", i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_seen(), 5);
        let kept: Vec<u64> = ring.events().map(|e| e.u64_field("i").unwrap()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_sink_writes_header_then_events() {
        let path = std::env::temp_dir().join(format!(
            "xchain-telemetry-sink-test-{}.jsonl",
            std::process::id()
        ));
        {
            let mut sink = JsonlSink::create(&path).expect("create");
            sink.emit(&Event::new("epoch").with_u64("epoch", 0));
            sink.emit(&Event::new("epoch").with_u64("epoch", 1));
            assert_eq!(sink.lines(), 3);
            assert_eq!(sink.io_errors(), 0);
        } // drop flushes
        let text = fs::read_to_string(&path).expect("readable");
        let events = parse_jsonl(&text).expect("valid stream");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].u64_field("epoch"), Some(1));
        let _ = fs::remove_file(&path);
    }
}
