//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer: name, start, end, parent span, and request id. They stay in
//! memory until the run ends and are then written out as Chrome
//! trace-event JSON (complete `"ph": "X"` events), which Perfetto and
//! `chrome://tracing` open directly.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `eval.tableau`.
    pub name: &'static str,
    /// Offset of the start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the end from the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: usize,
}

impl Span {
    /// The span's wall time.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags every span recorded from now on with request `id`.
    pub fn set_request(&mut self, id: usize) {
        self.request = id;
    }

    /// Runs `f` inside a span named `name`; spans `f` records become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// [`Recorder::span`] around a call that records no child spans.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed wall time of the spans named `name` in request `request`.
    pub fn total(&self, request: usize, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.request == request && s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover. Children of one span never overlap (the recorder
    /// is single-threaded), so the covered time is their summed duration.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.duration());
            }
        }
        out
    }

    /// The spans `keep` selects as Chrome trace-event JSON; `id` and
    /// `parent` are indices into [`Recorder::spans`].
    pub fn chrome_json(&self, keep: impl Fn(&Span) -> bool) -> String {
        let self_times = self.self_times();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if !keep(s) {
                continue;
            }
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{},\"self_us\":{:.3}}}}}",
                s.name,
                micros(s.start),
                micros(s.duration()),
                s.request,
                micros(self_times[i]),
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_totals_and_self_time() {
        let mut rec = Recorder::new();
        rec.set_request(3);
        rec.span("outer", |rec| {
            rec.leaf("inner", || busy(Duration::from_millis(2)));
            rec.leaf("inner", || busy(Duration::from_millis(2)));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3));
        let inner = rec.total(3, "inner");
        assert!(inner >= Duration::from_millis(4));
        let self_times = rec.self_times();
        assert_eq!(self_times[0], spans[0].duration() - inner);
        assert_eq!(rec.total(4, "inner"), Duration::ZERO);
        let json = rec.chrome_json(|_| true);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        let outer = rec.chrome_json(|s| s.name == "outer");
        assert_eq!(outer.matches("\"ph\":\"X\"").count(), 1);
    }
}
