//! Chrome trace-event collection and export.
//!
//! [`TraceEvents`] is a bounded, thread-safe buffer of complete
//! (`"ph":"X"`) spans. [`TraceEvents::to_chrome_json`] renders the
//! standard `{"traceEvents":[...]}` document that `chrome://tracing`
//! and Perfetto load directly. Timestamps are microseconds relative to
//! the collector's creation; the buffer is capped so a long run cannot
//! balloon memory — overflow is counted, not stored.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default cap on stored events (~4 MiB of JSON).
pub const DEFAULT_EVENT_CAP: usize = 50_000;

/// One complete span.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Span name (`"compute"`, `"connect"`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Track (thread lane) the span renders on.
    pub tid: u64,
    /// Optional `args` entry (`("round", 42)`).
    pub arg: Option<(&'static str, u64)>,
}

/// A bounded collector of trace spans.
#[derive(Debug)]
pub struct TraceEvents {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    cap: usize,
    dropped: AtomicU64,
}

impl Default for TraceEvents {
    fn default() -> Self {
        TraceEvents::new(DEFAULT_EVENT_CAP)
    }
}

impl TraceEvents {
    /// A collector that keeps at most `cap` events.
    pub fn new(cap: usize) -> TraceEvents {
        TraceEvents {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// The instant all span timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record a complete span. `start` values before the epoch clamp
    /// to 0.
    pub fn complete(
        &self,
        name: &'static str,
        tid: u64,
        start: Instant,
        dur: Duration,
        arg: Option<(&'static str, u64)>,
    ) {
        let start_ns = start
            .checked_duration_since(self.epoch)
            .unwrap_or(Duration::ZERO)
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        let ev = TraceEvent {
            name,
            start_ns,
            dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
            tid,
            arg,
        };
        let mut events = self.events.lock().unwrap();
        if events.len() < self.cap {
            events.push(ev);
        } else {
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// `true` when no events are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded after the cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Render the Chrome trace-event JSON document.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events.lock().unwrap();
        let mut out = String::with_capacity(events.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"obs\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{}.{:03},\"dur\":{}.{:03}",
                escape(ev.name),
                ev.tid,
                ev.start_ns / 1_000,
                ev.start_ns % 1_000,
                ev.dur_ns / 1_000,
                ev.dur_ns % 1_000,
            ));
            if let Some((k, v)) = ev.arg {
                out.push_str(&format!(",\"args\":{{\"{}\":{v}}}", escape(k)));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping — span names are expected to be
/// identifiers, but a stray quote must not corrupt the document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A small per-thread lane id for trace tracks: stable within a thread,
/// dense across threads, and cheap to read.
pub fn trace_tid() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Relaxed));
        }
        t.get()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_shape_and_cap() {
        let t = TraceEvents::new(2);
        let now = t.epoch();
        t.complete(
            "alpha",
            1,
            now,
            Duration::from_micros(5),
            Some(("round", 3)),
        );
        t.complete(
            "beta",
            2,
            now + Duration::from_micros(5),
            Duration::from_nanos(1500),
            None,
        );
        t.complete("gamma", 1, now, Duration::ZERO, None); // over cap
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"alpha\""));
        assert!(json.contains("\"args\":{\"round\":3}"));
        assert!(json.contains("\"dur\":1.500"));
        assert!(!json.contains("gamma"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn tids_are_stable_per_thread_and_distinct() {
        let here = trace_tid();
        assert_eq!(here, trace_tid());
        let other = std::thread::spawn(trace_tid).join().unwrap();
        assert_ne!(here, other);
    }
}
