//! The unified finding schema shared by the `sanitize` and `analyze` CLIs.
//!
//! Both tools — the dynamic sanitizer (this crate) and the static verifier
//! (`ompx-analyzer`) — emit the same JSON shape, so CI consumers parse one
//! format:
//!
//! ```json
//! {
//!   "findings": [
//!     {"tool": "...", "kernel": "...", "location": "...",
//!      "severity": "error", "message": "..."}
//!   ],
//!   "count": 1,
//!   "exit_code": 1
//! }
//! ```
//!
//! `tool` is the producing checker (`memcheck`, `racecheck`, … for the
//! sanitizer; `racecheck`, `synccheck`, `boundscheck`, `launchcheck`,
//! `summarycheck` for the analyzer), `location` a human-readable position
//! (block/thread/index for dynamic findings, the access or buffer
//! description for static ones).

use ompx_sim::san::Diagnostic;
use ompx_telemetry::json::{self, Doc};

/// Finding severity. Errors drive the non-zero exit code; warnings are
/// reported but do not fail a run by themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    /// JSON/text spelling.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding in the unified schema.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Producing checker, e.g. `memcheck` or `boundscheck`.
    pub tool: String,
    /// Kernel the finding concerns (empty for host-side findings).
    pub kernel: String,
    /// Human-readable position: block/thread/index for dynamic findings,
    /// access or buffer description for static ones.
    pub location: String,
    /// Error or warning.
    pub severity: Severity,
    /// Defect description.
    pub message: String,
}

impl Finding {
    /// Convert a dynamic sanitizer diagnostic into the unified schema.
    /// Every sanitizer diagnostic is an error.
    pub fn from_diagnostic(d: &Diagnostic) -> Finding {
        let mut location = String::new();
        if d.kernel.is_empty() {
            location.push_str("host");
        } else {
            location.push_str(&format!(
                "block ({},{},{}) thread ({},{},{})",
                d.block.0, d.block.1, d.block.2, d.thread.0, d.thread.1, d.thread.2
            ));
        }
        if let Some(a) = d.address {
            location.push_str(&format!(" index {a}"));
        }
        if let Some(l) = &d.alloc {
            location.push_str(&format!(" of {l}"));
        }
        Finding {
            tool: d.kind.tool().to_string(),
            kernel: d.kernel.clone(),
            location,
            severity: Severity::Error,
            message: format!("{}: {}", d.kind.label(), d.message),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.tool, self.severity)?;
        if !self.kernel.is_empty() {
            write!(f, " in kernel `{}`", self.kernel)?;
        }
        if !self.location.is_empty() {
            write!(f, " at {}", self.location)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// CI exit code for a finding list: 0 when no *errors* (warnings alone stay
/// clean), 1 otherwise.
pub fn exit_code(findings: &[Finding]) -> i32 {
    i32::from(findings.iter().any(|f| f.severity == Severity::Error))
}

/// Count `findings` into the ambient metric registry (if one is
/// installed) as `findings_total{tool, severity}` — the reporting-side
/// companion to the per-diagnostic `sanitizer_findings_total` the dynamic
/// sanitizer records at detection time. CLIs call this once per report so
/// a metrics snapshot covers static-analyzer findings too.
pub fn record_findings_metrics(findings: &[Finding]) {
    if let Some(reg) = ompx_telemetry::active() {
        for f in findings {
            reg.counter_add(
                "findings_total",
                &[("tool", &f.tool), ("severity", f.severity.label())],
                1,
            );
        }
    }
}

/// Append the unified schema's fields (`findings`, `count`, `exit_code`)
/// to `doc`, after any fields the caller wrote first.
pub fn findings_fields<'d>(doc: &'d mut Doc, findings: &[Finding]) -> &'d mut Doc {
    let rows = findings.iter().map(|f| {
        format!(
            "{{\"tool\": {}, \"kernel\": {}, \"location\": {}, \"severity\": \"{}\", \"message\": {}}}",
            json::quoted(&f.tool),
            json::quoted(&f.kernel),
            json::quoted(&f.location),
            f.severity.label(),
            json::quoted(&f.message)
        )
    });
    doc.rows("findings", rows)
        .field("count", findings.len())
        .field("exit_code", exit_code(findings))
}

/// Render a finding list as the unified JSON document.
pub fn render_json(findings: &[Finding]) -> String {
    findings_fields(&mut Doc::new(), findings).finish()
}

/// Render a finding list as a human-readable multi-line report with the
/// sanitizer's summary-tail convention.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{f}\n"));
    }
    out.push_str(&format!(
        "========= {} finding(s){}\n",
        findings.len(),
        if findings.is_empty() { " — clean run" } else { "" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            tool: "boundscheck".into(),
            kernel: "k".into(),
            location: "read buf[i]".into(),
            severity: Severity::Error,
            message: "index may exceed len".into(),
        }
    }

    #[test]
    fn json_has_the_unified_fields() {
        let json = render_json(&[sample()]);
        for key in ["\"tool\"", "\"kernel\"", "\"location\"", "\"severity\"", "\"message\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"exit_code\": 1"));
    }

    #[test]
    fn special_characters_round_trip_through_the_reader() {
        let mut f = sample();
        f.message = "a\"b\\c\nd\te\r".into();
        let doc = json::parse(&render_json(&[f.clone()])).unwrap();
        let row = &doc.get("findings").and_then(json::Json::as_arr).unwrap()[0];
        assert_eq!(row.get("message").and_then(json::Json::as_str), Some(f.message.as_str()));
        assert_eq!(
            render_json(&[]),
            "{\n  \"findings\": [],\n  \"count\": 0,\n  \"exit_code\": 0\n}\n"
        );
    }

    #[test]
    fn warnings_do_not_fail_the_run() {
        let mut w = sample();
        w.severity = Severity::Warning;
        assert_eq!(exit_code(&[w.clone()]), 0);
        assert_eq!(exit_code(&[w, sample()]), 1);
        assert_eq!(exit_code(&[]), 0);
    }

    #[test]
    fn findings_metrics_count_by_tool_and_severity() {
        let ((), snap) = ompx_telemetry::with_metrics(|| {
            let mut w = sample();
            w.severity = Severity::Warning;
            record_findings_metrics(&[sample(), sample(), w]);
        });
        let errors = [("severity", "error"), ("tool", "boundscheck")];
        let warns = [("severity", "warning"), ("tool", "boundscheck")];
        assert_eq!(snap.counter("findings_total", &errors), 2);
        assert_eq!(snap.counter("findings_total", &warns), 1);
    }

    #[test]
    fn diagnostic_conversion_carries_position() {
        use ompx_sim::san::DiagKind;
        let d = Diagnostic {
            kind: DiagKind::OutOfBounds,
            kernel: "vecadd".into(),
            block: (1, 0, 0),
            thread: (3, 0, 0),
            address: Some(42),
            alloc: Some("out".into()),
            message: "Write of element 42 past the end of out (len 32)".into(),
        };
        let f = Finding::from_diagnostic(&d);
        assert_eq!(f.tool, "memcheck");
        assert_eq!(f.kernel, "vecadd");
        assert!(f.location.contains("block (1,0,0)"));
        assert!(f.location.contains("index 42"));
        assert!(f.message.starts_with("out-of-bounds access:"));
        assert_eq!(f.severity, Severity::Error);
    }
}
