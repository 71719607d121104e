//! Wall-clock spans the benchmark records around its own calls into each
//! layer's public functions, written out as a Chrome trace (one track per
//! layer) and a per-layer table with self time.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub layer: &'static str,
    pub name: String,
    pub start_s: f64,
    pub dur_s: f64,
    /// The span open when this one started.
    pub parent: Option<usize>,
}

/// Spans kept in memory until the run ends. The benchmark drives the
/// layers from one thread, so open spans nest as a stack.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span on `layer`'s track; returns its result and
    /// the span's duration in seconds.
    pub fn span<R>(&self, layer: &'static str, name: String, f: impl FnOnce() -> R) -> (R, f64) {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start_s = self.origin.elapsed().as_secs_f64();
            spans.push(SpanRec { layer, name, start_s, dur_s: 0.0, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let result = f();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let dur_s = self.origin.elapsed().as_secs_f64() - spans[idx].start_s;
        spans[idx].dur_s = dur_s;
        (result, dur_s)
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: &'static str,
    pub spans: usize,
    pub total_s: f64,
    /// Total minus the time covered by child spans.
    pub self_s: f64,
}

/// Per-layer span counts, total and self time, in first-seen order.
pub fn layer_table(spans: &[SpanRec]) -> Vec<LayerRow> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.dur_s;
        }
    }
    let mut rows: Vec<LayerRow> = Vec::new();
    for (s, child) in spans.iter().zip(&child_s) {
        let pos = match rows.iter().position(|r| r.layer == s.layer) {
            Some(pos) => pos,
            None => {
                rows.push(LayerRow { layer: s.layer, spans: 0, total_s: 0.0, self_s: 0.0 });
                rows.len() - 1
            }
        };
        let row = &mut rows[pos];
        row.spans += 1;
        row.total_s += s.dur_s;
        row.self_s += s.dur_s - child;
    }
    rows
}

/// Tab-separated rendering of [`layer_table`].
pub fn layer_tsv(rows: &[LayerRow]) -> String {
    let mut out = String::from("layer\tspans\ttotal_s\tself_s\n");
    for r in rows {
        let _ = writeln!(out, "{}\t{}\t{:.6}\t{:.6}", r.layer, r.spans, r.total_s, r.self_s);
    }
    out
}

/// Chrome trace-event JSON: one complete (`X`) event per span, one
/// thread track per layer, named by metadata events.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut layers: Vec<&'static str> = Vec::new();
    for s in spans {
        if !layers.contains(&s.layer) {
            layers.push(s.layer);
        }
    }
    let mut events: Vec<String> = layers
        .iter()
        .enumerate()
        .map(|(tid, layer)| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                escape(layer)
            )
        })
        .collect();
    for s in spans {
        let tid = layers.iter().position(|l| *l == s.layer).unwrap_or(0);
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid}}}",
            escape(&s.name),
            escape(s.layer),
            s.start_s * 1e6,
            s.dur_s * 1e6
        ));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(layer: &'static str, start_s: f64, dur_s: f64, parent: Option<usize>) -> SpanRec {
        SpanRec { layer, name: format!("{layer}@{start_s}"), start_s, dur_s, parent }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            rec("bench", 0.0, 10.0, None),
            rec("klang", 1.0, 3.0, Some(0)),
            rec("klang", 5.0, 2.0, Some(0)),
            rec("sanitizer", 7.0, 1.0, Some(0)),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].layer, rows[0].spans), ("bench", 1));
        assert!((rows[0].self_s - 4.0).abs() < 1e-12);
        assert!((rows[1].total_s - 5.0).abs() < 1e-12);
        assert!((rows[1].self_s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_chrome_json_names_tracks() {
        let t = Tracer::new();
        let ((inner, _), outer_s) =
            t.span("bench", "iteration 0".into(), || t.span("serve", "serve \"lf\"".into(), || 7));
        assert_eq!(inner, 7);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].dur_s <= outer_s);
        let json = chrome_json(&spans);
        assert!(json.contains("\"args\":{\"name\":\"serve\"}"));
        assert!(json.contains("serve \\\"lf\\\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
