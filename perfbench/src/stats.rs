//! Measurement plumbing: order statistics, the span recorder of the traced
//! run, the failure ledger and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of a sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean of a sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One recorded span: a named call into a layer, timed from outside.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    /// Index of the span that caused this one, if any.
    parent: Option<usize>,
}

/// In-memory span recorder of the traced run.  Spans are kept until the
/// run ends and then summarised per name (and optionally written out).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; [`close`](Self::close) ends it.  Returns its index,
    /// which later spans name as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Durations, in milliseconds, of every span named `name`.
    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end - s.start))
            .collect()
    }

    /// Mean span duration in microseconds and the number of spans (NaN
    /// when there are none, which the finite-metrics gate then fails).
    pub fn mean_us(&self, name: &str) -> (f64, usize) {
        let d = self.durations_ms(name);
        let v = if d.is_empty() {
            f64::NAN
        } else {
            mean(&d) * 1e3
        };
        (v, d.len())
    }

    /// Median span duration in milliseconds and the number of spans (NaN
    /// when there are none).
    pub fn median_ms(&self, name: &str) -> (f64, usize) {
        let d = self.durations_ms(name);
        let v = if d.is_empty() { f64::NAN } else { median(&d) };
        (v, d.len())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// Operations attempted and failed over a run, plus the correctness gates.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Counts one correctness gate; a failed gate is an operation failed.
    pub fn gate(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if ok {
            println!("gate ok     {name}");
        } else {
            self.failed += 1;
            println!("gate FAILED {name}");
        }
    }

    /// Counts `failed` failures out of `attempted` operations of one kind.
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            println!("FAILED {failed} of {attempted} {what}");
        }
    }
}

/// The metrics a run reports, in report order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records a metric and prints it with the basis it was computed on.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, basis: &str) {
        println!("{name:<34} {value:>14.4} {unit:<9} {basis}");
        self.entries.push((name, value, unit));
    }

    /// `true` when every recorded value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The last line of a run: one JSON object summarising it.
    pub fn result_line(&self, ledger: &Ledger) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; `all_finite` gates them.
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            ledger.failed == 0,
            ledger.attempted.max(1),
            ledger.failed,
        )
    }
}
