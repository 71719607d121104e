//! The benchmark's own arithmetic: medians, the tail rule, geometric
//! means, the Figure 8 error, and the serving ratios. Every function is
//! pure so it is unit-tested without running a workload.

use ompx_serve::{Response, Verdict};
use ompx_sim::span::{Span, Track};
use std::collections::HashMap;

/// Median (mean of the two middle values for an even count); NaN when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// How many samples must lie beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

/// A tail value with the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    pub samples: usize,
    /// Samples ranked beyond `value`: `TAIL_BEYOND`, or half the samples
    /// when there are too few for that.
    pub beyond: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: of `n` sorted samples, the one with rank `n - TAIL_BEYOND`, at
/// percentile `100 * (n - TAIL_BEYOND) / n`. A tail is never below the
/// median, so with `2 * TAIL_BEYOND` samples or fewer no tail can be
/// resolved and the rank is `n - n / 2`, the (lower) median, with
/// `n / 2` samples beyond it.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    let beyond = TAIL_BEYOND.min(n / 2);
    let rank = n - beyond;
    Tail {
        value: if n == 0 { f64::NAN } else { v[rank - 1] },
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond,
    }
}

/// Geometric mean of positive values; NaN when empty. The logs are summed
/// in sorted order, so the result does not depend on the input order.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (sorted(xs).iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Figure 8 error: the geometric mean over `(modeled, paper)` pairs of
/// `max(m/p, p/m)`. 1 is a perfect match; over- and under-prediction by
/// the same factor count the same.
pub fn fig8_err(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|&(m, p)| (m / p).max(p / m)).collect();
    geomean(&ratios)
}

/// Whether a response completed with the fault-free checksum of its app.
pub fn completed_ok(r: &Response, expected: &HashMap<&'static str, u64>) -> bool {
    matches!(r.verdict, Verdict::Success | Verdict::Fallback)
        && r.checksum.is_some()
        && r.checksum == expected.get(r.app).copied()
}

/// Share of offered requests that completed correctly within their
/// deadline. Rejected, failed and corrupt requests all count as misses;
/// a completed best-effort request (no deadline) counts as a hit.
pub fn slo_frac(responses: &[Response], expected: &HashMap<&'static str, u64>) -> f64 {
    let hits =
        responses.iter().filter(|r| completed_ok(r, expected) && !r.missed_deadline()).count();
    hits as f64 / responses.len().max(1) as f64
}

/// Max over min modeled busy seconds across the members still serving:
/// a lost or benched member's busy time says nothing about routing, so
/// `members` yields `(busy_s, live)` and only live members count. NaN
/// without a live member.
pub fn busy_skew(members: impl IntoIterator<Item = (f64, bool)>) -> f64 {
    let live: Vec<f64> = members.into_iter().filter(|&(_, live)| live).map(|(b, _)| b).collect();
    if live.is_empty() {
        return f64::NAN;
    }
    let max = live.iter().copied().fold(f64::MIN, f64::max);
    let min = live.iter().copied().fold(f64::MAX, f64::min);
    max / min
}

/// Modeled queueing delay of every executed request: the start of the
/// first device span carrying the request's trace id, minus its arrival.
pub fn queue_waits(responses: &[Response], spans: &[Span]) -> Vec<f64> {
    let mut first_start: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if let (Track::Device(_), Some(t)) = (s.track, s.trace) {
            let e = first_start.entry(t).or_insert(s.start_s);
            *e = e.min(s.start_s);
        }
    }
    responses
        .iter()
        .filter_map(|r| first_start.get(&r.trace?).map(|start| start - r.arrival_s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_hecbench::ProgVersion;
    use ompx_resilience::Priority;
    use ompx_sim::span::SpanCategory;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: rank 90 is the highest with ten samples above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile, t.samples, t.beyond), (90.0, 90.0, 100, 10));
        // 1..=30 (shuffled): rank 20, percentile 66.7.
        let mut xs: Vec<f64> = (1..=30).map(f64::from).collect();
        xs.reverse();
        let t = tail(&xs);
        assert_eq!(t.value, 20.0);
        assert!((t.percentile - 200.0 / 3.0).abs() < 1e-9);
        // Twenty-one samples: rank 11, just above the median, still has
        // ten beyond it.
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 11.0);
    }

    #[test]
    fn tail_floors_at_the_median_without_enough_samples() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.value, t.samples, t.beyond), (7.0, 3, 1));
        // Twenty samples: rank 10 has ten beyond it and is the lower
        // median; no higher rank keeps ten beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile, t.beyond), (10.0, 50.0, 10));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn geomean_and_fig8_err() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        // Bit-identical whatever the order of its inputs.
        let xs = [0.3, 1e-4, 7.0, 2.5e3, 0.9];
        let mut ys = xs;
        ys.reverse();
        assert_eq!(geomean(&xs).to_bits(), geomean(&ys).to_bits());
        // Exact match scores 1.
        assert!((fig8_err(&[(0.5, 0.5), (3.0, 3.0)]) - 1.0).abs() < 1e-12);
        // 2x over and 2x under are the same error.
        assert!((fig8_err(&[(2.0, 1.0)]) - 2.0).abs() < 1e-12);
        assert!((fig8_err(&[(1.0, 2.0)]) - 2.0).abs() < 1e-12);
        // Geometric mean of 2 and 8 is 4.
        assert!((fig8_err(&[(2.0, 1.0), (1.0, 8.0)]) - 4.0).abs() < 1e-12);
    }

    fn resp(id: u32, verdict: Verdict, checksum: Option<u64>, deadline_s: Option<f64>) -> Response {
        Response {
            id,
            tenant: 0,
            app: "adam",
            version: ProgVersion::Ompx,
            member: Some(1),
            batch_size: 1,
            verdict,
            arrival_s: 1.0,
            priority: Priority::Interactive,
            deadline_s,
            hedged: false,
            done_s: 2.0,
            checksum,
            trace: Some(u64::from(id) + 1),
        }
    }

    #[test]
    fn slo_frac_counts_rejects_failures_and_late_requests_as_misses() {
        let expected: HashMap<&'static str, u64> = [("adam", 7)].into_iter().collect();
        let rs = vec![
            resp(0, Verdict::Success, Some(7), Some(3.0)),
            resp(1, Verdict::Fallback, Some(7), None),
            resp(2, Verdict::Rejected("full".into()), None, Some(3.0)),
            resp(3, Verdict::TypedError("lost".into()), None, Some(3.0)),
            resp(4, Verdict::Success, Some(7), Some(1.5)),
            resp(5, Verdict::Corrupt("bits".into()), Some(8), Some(3.0)),
            resp(6, Verdict::Success, Some(8), Some(3.0)),
            resp(7, Verdict::Success, Some(7), Some(3.0)),
        ];
        // Hits: 0 (on time), 1 (best effort, no deadline), 7. Misses:
        // the reject, the typed error, the late one, corrupt, wrong sum.
        assert!((slo_frac(&rs, &expected) - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(slo_frac(&[], &expected), 0.0);
    }

    #[test]
    fn busy_skew_ignores_lost_members() {
        let members = [(10.0, true), (5.0, true), (0.1, false), (20.0, true)];
        assert!((busy_skew(members) - 4.0).abs() < 1e-12);
        // Dropping the lost member's 0.1 s is what keeps the ratio
        // meaningful.
        assert!((busy_skew([(3.0, true), (0.0, false)]) - 1.0).abs() < 1e-12);
        assert!(busy_skew([(3.0, false)]).is_nan());
    }

    #[test]
    fn queue_wait_joins_the_first_device_span_by_trace_id() {
        let span = |track, start_s, trace| Span {
            track,
            name: "batch".into(),
            cat: SpanCategory::Kernel,
            start_s,
            dur_s: 0.5,
            bytes: 0,
            flow_in: None,
            flow_out: None,
            trace,
        };
        let spans = vec![
            span(Track::Device(0), 4.0, Some(1)),
            span(Track::Device(1), 3.0, Some(1)),
            span(Track::Host, 1.5, Some(1)),
            span(Track::Device(0), 6.0, Some(2)),
        ];
        let mut rejected = resp(2, Verdict::Rejected("full".into()), None, None);
        rejected.trace = None;
        let rs = vec![
            resp(0, Verdict::Success, Some(7), None),
            resp(1, Verdict::Success, Some(7), None),
            rejected,
        ];
        // Request 0 (trace 1) first reaches a device at 3.0, request 1
        // (trace 2) at 6.0, both arrived at 1.0; the reject has no span.
        assert_eq!(queue_waits(&rs, &spans), vec![2.0, 5.0]);
    }
}
