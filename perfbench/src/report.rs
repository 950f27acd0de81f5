//! Reducing samples to metrics, the spans of the traced pass, and the
//! JSON the benchmark prints and writes (`telemetry::json` renders it).

use horse_metrics::RobustSummary;
use horse_telemetry::json::JsonValue;

/// Exact quantile of unsorted samples (nearest rank on the sorted copy).
/// 0 for no samples.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile_sorted(&sorted, q)
}

pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantiles of one window of samples.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    pub samples: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// Samples strictly above the window's p99.
    pub beyond_p99: u64,
}

/// Samples reduced window by window as they arrive in time order: only
/// the current window's samples are held, so memory does not grow with
/// the run. A figure is the robust mean of its per-window values (IQR
/// outliers dropped, then a 10 % trimmed mean): a window hit by a burst of
/// machine stalls cannot swing it, while a slower or faster stretch of
/// the run is averaged in rather than voted out.
#[derive(Debug, Default)]
pub struct Windows {
    window_ns: u64,
    current: u64,
    buf: Vec<u64>,
    done: Vec<WindowStats>,
}

impl Windows {
    /// `windows` equal windows over `span_ns`.
    pub fn new(span_ns: u64, windows: usize) -> Self {
        Self {
            window_ns: (span_ns / windows.max(1) as u64).max(1),
            ..Self::default()
        }
    }

    /// Records `value` for an event at `at_ns` (non-decreasing).
    pub fn push(&mut self, at_ns: u64, value: u64) {
        let window = at_ns / self.window_ns;
        if window != self.current {
            self.flush();
            self.current = window;
        }
        self.buf.push(value);
    }

    /// Reduces the samples of the current window.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.buf.sort_unstable();
        let p99 = quantile_sorted(&self.buf, 0.99);
        self.done.push(WindowStats {
            samples: self.buf.len() as u64,
            p50: quantile_sorted(&self.buf, 0.5),
            p90: quantile_sorted(&self.buf, 0.9),
            p99,
            beyond_p99: self.buf.len() as u64 - self.buf.partition_point(|&x| x <= p99) as u64,
        });
        self.buf.clear();
    }

    /// The robust mean over the windows of one statistic (0 without
    /// samples).
    pub fn mean_of(&self, stat: impl Fn(&WindowStats) -> u64) -> f64 {
        debug_assert!(self.buf.is_empty(), "flush before reading");
        let values: Vec<f64> = self.done.iter().map(|w| stat(w) as f64).collect();
        robust_mean(&values)
    }

    pub fn samples(&self) -> u64 {
        self.done.iter().map(|w| w.samples).sum()
    }

    pub fn beyond_p99(&self) -> u64 {
        self.done.iter().map(|w| w.beyond_p99).sum()
    }
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64
}

/// Median of repeated measurements, reduced by `metrics::robust`.
pub fn median(samples: &[f64]) -> f64 {
    RobustSummary::of(samples).median
}

/// Trimmed mean of the IQR-surviving samples (`metrics::robust`); 0 for
/// no samples.
pub fn robust_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    RobustSummary::of(samples).mean
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "duplicate {name}"
        );
        self.0.push((name, value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// `{"name": {"unit": "u", "value": v}, ...}`
    pub fn to_json(&self) -> JsonValue {
        object(self.0.iter().map(|(name, value, unit)| {
            (
                name.as_str(),
                object([
                    ("unit", JsonValue::String(unit.to_string())),
                    ("value", number(*value)),
                ]),
            )
        }))
    }
}

/// A JSON number with every digit Rust prints for it (non-finite values,
/// which JSON cannot hold, become 0).
pub fn number(v: f64) -> JsonValue {
    JsonValue::Number(if v.is_finite() { v } else { 0.0 })
}

/// A JSON object from its `(key, value)` pairs.
pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One wall-clock span the benchmark recorded around a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// ns since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same log, or [`ROOT`].
    pub parent: u32,
    /// The request (or first request of a batch) the span served.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory; written out when the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Appends a span and returns its index (for children's `parent`).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// The first `limit` spans as Chrome trace events (one track per
    /// pass), with the parent index and request id as args.
    pub fn chrome_events(&self, pid: u32, tid: u32, limit: usize, out: &mut Vec<JsonValue>) {
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = if s.parent == ROOT {
                JsonValue::Null
            } else {
                number(f64::from(s.parent))
            };
            out.push(object([
                ("name", JsonValue::String(s.name.into())),
                ("ph", JsonValue::String("X".into())),
                ("pid", number(f64::from(pid))),
                ("tid", number(f64::from(tid))),
                ("ts", number(s.start_ns as f64 / 1e3)),
                ("dur", number(s.dur_ns() as f64 / 1e3)),
                (
                    "args",
                    object([
                        ("id", number(i as f64)),
                        ("parent", parent),
                        ("request", number(s.request as f64)),
                    ]),
                ),
            ]));
        }
    }
}

/// Chrome trace JSON (`chrome://tracing`, Perfetto) with the run's
/// provenance under `metadata`.
pub fn chrome_trace(events: Vec<JsonValue>, metadata: JsonValue) -> String {
    let trace = object([
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", JsonValue::String("ns".into())),
        ("metadata", metadata),
    ]);
    trace.render() + "\n"
}

/// Peak resident memory of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` in the working
/// directory only ("unknown" outside a git checkout).
pub fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD");
    let sha = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
        None => head,
    };
    sha.unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn windows_reduce_each_window_and_take_the_median() {
        let mut w = Windows::new(300, 3);
        for (at, v) in [(0, 1), (50, 3), (100, 10), (150, 30), (250, 5)] {
            w.push(at, v);
        }
        w.flush();
        assert_eq!(w.samples(), 5);
        // Window p50s are 1, 10 and 5.
        assert!((w.mean_of(|s| s.p50) - 16.0 / 3.0).abs() < 1e-9);
        // p99 of each window is its largest sample: nothing lies beyond.
        assert_eq!(w.beyond_p99(), 0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", 2.0, "count");
        assert_eq!(
            m.to_json().render(),
            r#"{"a":{"unit":"ms","value":1.5},"b":{"unit":"count","value":2}}"#
        );
    }
}
