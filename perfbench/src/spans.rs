//! The benchmark's own spans: recorded around the calls it makes into
//! each layer's public functions, kept in memory, and written out once
//! at the end as chrome://tracing JSON in the same event shape
//! `dptd trace --dump` emits (`B`/`E` pairs with `args.v` and hex
//! `trace`/`span`/`parent` ids), so both open in the same viewer.
//!
//! Recording is off unless [`set_enabled`] turned it on: end-to-end
//! numbers come from runs where every span site is one relaxed load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `client.submit`.
    pub name: &'static str,
    /// Recording thread (0 = the main thread).
    pub tid: u64,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
    /// Free argument (a round, a report count, ...).
    pub arg: u64,
    /// The operation this span belongs to (all spans of one round share it).
    pub trace: u64,
    /// This span's id.
    pub id: u64,
    /// The enclosing span (0 = none).
    pub parent: u64,
}

impl Span {
    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it records itself when dropped (or [`Open::end`]ed).
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    tid: u64,
    start: Instant,
    arg: u64,
    trace: u64,
    id: u64,
    parent: u64,
    live: bool,
}

/// Begin a span named `name` under `parent` (or a new root when `parent`
/// is `None`) on thread `tid`.
pub fn begin(name: &'static str, tid: u64, arg: u64, parent: Option<&Open>) -> Open {
    let live = enabled();
    let id = if live {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    };
    let (trace, parent_id) = match parent {
        Some(p) => (p.trace, p.id),
        None => (id, 0),
    };
    Open {
        name,
        tid,
        start: Instant::now(),
        arg,
        trace,
        id,
        parent: parent_id,
        live,
    }
}

impl Open {
    /// End the span now and return its length in seconds.
    pub fn end(mut self) -> f64 {
        self.finish()
    }

    fn finish(&mut self) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(self.start).as_secs_f64();
        if self.live {
            self.live = false;
            let base = epoch();
            let span = Span {
                name: self.name,
                tid: self.tid,
                start_ns: self.start.saturating_duration_since(base).as_nanos() as u64,
                end_ns: end.saturating_duration_since(base).as_nanos() as u64,
                arg: self.arg,
                trace: self.trace,
                id: self.id,
                parent: self.parent,
            };
            SPANS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(span);
        }
        secs
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        if self.live {
            self.finish();
        }
    }
}

/// Every span recorded so far, ordered by start.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    spans.sort_by_key(|s| (s.start_ns, s.tid));
    spans
}

/// A copy of every span recorded so far, ordered by start.
pub fn peek() -> Vec<Span> {
    let mut spans = SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    spans.sort_by_key(|s| (s.start_ns, s.tid));
    spans
}

/// Render spans as chrome://tracing JSON under process lane `pid`.
pub fn chrome_json(spans: &[Span], pid: u64) -> String {
    let mut events: Vec<(u64, char, &Span)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        events.push((s.start_ns, 'B', s));
        events.push((s.end_ns, 'E', s));
    }
    // Ends sort before begins at the same instant so back-to-back spans
    // nest correctly in the viewer.
    events.sort_by_key(|(ts, ph, s)| (*ts, *ph != 'E', s.tid));
    let mut out = String::with_capacity(events.len() * 120 + 2);
    out.push('[');
    for (i, (ts, ph, s)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{:.3},\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"v\":{},\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"}}}}",
            s.name,
            *ts as f64 / 1e3,
            s.tid,
            s.arg,
            s.trace,
            s.id,
            s.parent,
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_pairs_begin_and_end_events() {
        let spans = vec![
            Span {
                name: "client.round",
                tid: 1,
                start_ns: 1_000,
                end_ns: 9_000,
                arg: 3,
                trace: 7,
                id: 7,
                parent: 0,
            },
            Span {
                name: "client.submit",
                tid: 1,
                start_ns: 2_000,
                end_ns: 3_500,
                arg: 256,
                trace: 7,
                id: 8,
                parent: 7,
            },
        ];
        let json = chrome_json(&spans, 0);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.contains(
            "{\"name\":\"client.submit\",\"ph\":\"B\",\"ts\":2.000,\"pid\":0,\"tid\":1,\
             \"args\":{\"v\":256,\"trace\":\"0000000000000007\",\"span\":\"0000000000000008\",\
             \"parent\":\"0000000000000007\"}}"
        ));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }
}
