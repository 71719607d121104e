//! Aggregation of a serve run into the `BENCH_serve.json` report:
//! throughput, modeled latency percentiles, batch shape, per-device
//! utilization, per-tenant fairness shares, per-class deadline
//! accounting, and the resilience counters (hedges, breaker activity,
//! spare promotions).
//!
//! Every field is a pure function of the (deterministic) responses, so
//! the rendered JSON is byte-stable for a fixed seed — which is what the
//! CI baseline gate diffs against.

use crate::pool::DevicePool;
use crate::request::{Response, Verdict};
use crate::server::ResilienceStats;
use ompx_resilience::Priority;
use ompx_telemetry::json::Doc;
use ompx_telemetry::percentile_interp;

/// Per-member rollup.
#[derive(Debug, Clone)]
pub struct DeviceSummary {
    pub member: usize,
    pub kind: &'static str,
    pub served: u64,
    pub batches: u64,
    pub busy_s: f64,
    pub lost: bool,
    /// Still benched as a warm spare at drain time (a promoted spare
    /// reports `false` and its serving counters).
    pub standby: bool,
}

/// Per-tenant rollup. `share` is this tenant's fraction of all served
/// (executed) requests — the fairness accounting the scheduler optimizes.
/// The latency percentiles are over the tenant's own served requests
/// (modeled queueing + service), so tail unfairness is visible even when
/// the served shares balance.
#[derive(Debug, Clone)]
pub struct TenantShare {
    pub tenant: u32,
    pub served: u64,
    pub rejected: u64,
    pub share: f64,
    pub latency_p50_s: f64,
    pub latency_p95_s: f64,
    pub latency_p99_s: f64,
}

/// Per-priority-class rollup: what the deadline scheduler delivered.
/// `lateness_p99` is the p99 of `latency / deadline budget` over the
/// class's completed requests (≤ 1 means the SLO held at the tail);
/// 0 for deadline-free classes.
#[derive(Debug, Clone)]
pub struct ClassStat {
    pub class: &'static str,
    pub completed: u64,
    pub shed: u64,
    pub deadline_misses: u64,
    pub lateness_p99: f64,
}

/// The full serve report.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub seed: u64,
    pub clients: u32,
    pub tenants: u32,
    pub total: u64,
    pub completed: u64,
    pub success: u64,
    pub fallback: u64,
    pub typed_error: u64,
    pub rejected: u64,
    pub corrupt: u64,
    /// Modeled time of the last completion.
    pub makespan_s: f64,
    /// Completed requests per modeled second.
    pub throughput_rps: f64,
    pub latency_p50_s: f64,
    pub latency_p95_s: f64,
    pub latency_p99_s: f64,
    pub batch_count: u64,
    pub batch_max: u64,
    pub batch_mean: f64,
    pub classes: Vec<ClassStat>,
    pub resilience: ResilienceStats,
    pub devices: Vec<DeviceSummary>,
    pub fairness: Vec<TenantShare>,
}

/// Roll a run's responses, final pool state, and resilience counters
/// into the report.
pub fn build(
    seed: u64,
    clients: u32,
    tenants: u32,
    responses: &[Response],
    pool: &DevicePool,
    stats: &ResilienceStats,
) -> ServeReport {
    let mut success = 0u64;
    let mut fallback = 0u64;
    let mut typed_error = 0u64;
    let mut rejected = 0u64;
    let mut corrupt = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    let mut served_per_tenant = vec![0u64; tenants as usize];
    let mut rejected_per_tenant = vec![0u64; tenants as usize];
    let mut tenant_latencies: Vec<Vec<f64>> = vec![Vec::new(); tenants as usize];
    for r in responses {
        match &r.verdict {
            Verdict::Success => success += 1,
            Verdict::Fallback => fallback += 1,
            Verdict::TypedError(_) => typed_error += 1,
            Verdict::Rejected(_) => rejected += 1,
            Verdict::Corrupt(_) => corrupt += 1,
        }
        if matches!(r.verdict, Verdict::Rejected(_)) {
            rejected_per_tenant[r.tenant as usize] += 1;
        } else {
            latencies.push(r.latency_s());
            served_per_tenant[r.tenant as usize] += 1;
            tenant_latencies[r.tenant as usize].push(r.latency_s());
        }
    }
    latencies.sort_by(f64::total_cmp);
    for tl in &mut tenant_latencies {
        tl.sort_by(f64::total_cmp);
    }
    let completed = latencies.len() as u64;
    let makespan_s = responses.iter().map(|r| r.done_s).fold(0.0f64, f64::max);
    let throughput_rps = if makespan_s > 0.0 { completed as f64 / makespan_s } else { 0.0 };

    // Batch shape, one sample per executed batch: responses carry the
    // batch size per member request, so count each (member, done) once
    // via the per-pool batch counters and the per-response max.
    let batch_count: u64 = pool.members.iter().map(|m| m.batches).sum();
    let batch_max = responses.iter().map(|r| r.batch_size as u64).max().unwrap_or(0);
    let batch_mean = if batch_count > 0 { completed as f64 / batch_count as f64 } else { 0.0 };

    let classes = Priority::ALL
        .iter()
        .map(|&p| {
            let mut done = 0u64;
            let mut shed = 0u64;
            let mut misses = 0u64;
            let mut lateness: Vec<f64> = Vec::new();
            for r in responses.iter().filter(|r| r.priority == p) {
                if matches!(r.verdict, Verdict::Rejected(_)) {
                    shed += 1;
                    continue;
                }
                done += 1;
                if r.missed_deadline() {
                    misses += 1;
                }
                if let Some(l) = r.lateness_ratio() {
                    lateness.push(l);
                }
            }
            lateness.sort_by(f64::total_cmp);
            ClassStat {
                class: p.label(),
                completed: done,
                shed,
                deadline_misses: misses,
                lateness_p99: percentile_interp(&lateness, 0.99),
            }
        })
        .collect();

    let devices = pool
        .members
        .iter()
        .enumerate()
        .map(|(i, m)| DeviceSummary {
            member: i,
            kind: m.kind.label(),
            served: m.served,
            batches: m.batches,
            busy_s: m.busy_s,
            lost: m.lost,
            standby: m.standby,
        })
        .collect();
    let fairness = (0..tenants)
        .map(|t| {
            let tl = &tenant_latencies[t as usize];
            TenantShare {
                tenant: t,
                served: served_per_tenant[t as usize],
                rejected: rejected_per_tenant[t as usize],
                share: if completed > 0 {
                    served_per_tenant[t as usize] as f64 / completed as f64
                } else {
                    0.0
                },
                latency_p50_s: percentile_interp(tl, 0.50),
                latency_p95_s: percentile_interp(tl, 0.95),
                latency_p99_s: percentile_interp(tl, 0.99),
            }
        })
        .collect();

    ServeReport {
        seed,
        clients,
        tenants,
        total: responses.len() as u64,
        completed,
        success,
        fallback,
        typed_error,
        rejected,
        corrupt,
        makespan_s,
        throughput_rps,
        latency_p50_s: percentile_interp(&latencies, 0.50),
        latency_p95_s: percentile_interp(&latencies, 0.95),
        latency_p99_s: percentile_interp(&latencies, 0.99),
        batch_count,
        batch_max,
        batch_mean,
        classes,
        resilience: stats.clone(),
        devices,
        fairness,
    }
}

/// Render the report as the `BENCH_serve.json` document (schema
/// `ompx-bench-serve-v2`). Field order and float formatting are fixed so
/// the output is byte-stable for baseline diffing.
pub fn render_json(r: &ServeReport) -> String {
    let classes = r.classes.iter().map(|c| {
        format!(
            "{{\"class\":\"{}\",\"completed\":{},\"shed\":{},\"deadline_misses\":{},\"lateness_p99\":{:e}}}",
            c.class, c.completed, c.shed, c.deadline_misses, c.lateness_p99,
        )
    });
    let devices = r.devices.iter().map(|d| {
        format!(
            "{{\"member\":{},\"kind\":\"{}\",\"served\":{},\"batches\":{},\"busy_s\":{:e},\"lost\":{},\"standby\":{}}}",
            d.member, d.kind, d.served, d.batches, d.busy_s, d.lost, d.standby,
        )
    });
    let fairness = r.fairness.iter().map(|t| {
        format!(
            "{{\"tenant\":{},\"served\":{},\"rejected\":{},\"share\":{:.4},\"latency_p50_s\":{:e},\"latency_p95_s\":{:e},\"latency_p99_s\":{:e}}}",
            t.tenant,
            t.served,
            t.rejected,
            t.share,
            t.latency_p50_s,
            t.latency_p95_s,
            t.latency_p99_s,
        )
    });
    let s = &r.resilience;
    Doc::new()
        .str("schema", "ompx-bench-serve-v2")
        .field("seed", r.seed)
        .field("clients", r.clients)
        .field("tenants", r.tenants)
        .field("total", r.total)
        .field("completed", r.completed)
        .field(
            "verdicts",
            format_args!(
                "{{\"success\":{},\"fallback\":{},\"typed_error\":{},\"rejected\":{},\"corrupt\":{}}}",
                r.success, r.fallback, r.typed_error, r.rejected, r.corrupt
            ),
        )
        .field("makespan_s", format_args!("{:e}", r.makespan_s))
        .field("throughput_rps", format_args!("{:e}", r.throughput_rps))
        .field("latency_p50_s", format_args!("{:e}", r.latency_p50_s))
        .field("latency_p95_s", format_args!("{:e}", r.latency_p95_s))
        .field("latency_p99_s", format_args!("{:e}", r.latency_p99_s))
        .field(
            "batches",
            format_args!(
                "{{\"count\":{},\"max\":{},\"mean\":{:.4}}}",
                r.batch_count, r.batch_max, r.batch_mean
            ),
        )
        .rows("classes", classes)
        .field(
            "resilience",
            format_args!(
                "{{\"hedges_launched\":{},\"hedges_won\":{},\"hedges_skipped\":{},\"breaker_transitions\":{},\"breaker_opens\":{},\"spares_promoted\":{},\"deadline_misses\":{}}}",
                s.hedges_launched,
                s.hedges_won,
                s.hedges_skipped,
                s.breaker_transitions,
                s.breaker_opens,
                s.spares_promoted,
                s.deadline_misses
            ),
        )
        .rows("devices", devices)
        .rows("fairness", fairness)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{DeviceKind, DevicePool};
    use ompx_hecbench::ProgVersion;

    fn resp(
        id: u32,
        tenant: u32,
        verdict: Verdict,
        arrival: f64,
        done: f64,
        batch: usize,
    ) -> Response {
        Response {
            id,
            tenant,
            app: "adam",
            version: ProgVersion::Ompx,
            member: Some(0),
            batch_size: batch,
            verdict,
            arrival_s: arrival,
            priority: Priority::Batch,
            deadline_s: None,
            hedged: false,
            done_s: done,
            checksum: Some(1),
            trace: None,
        }
    }

    fn no_stats() -> ResilienceStats {
        ResilienceStats::default()
    }

    #[test]
    fn report_buckets_and_percentiles() {
        let mut pool = DevicePool::new(&[DeviceKind::A100], None, 1);
        pool.members[0].batches = 2;
        pool.members[0].served = 3;
        let responses = vec![
            resp(0, 0, Verdict::Success, 0.0, 1.0, 2),
            resp(1, 1, Verdict::Success, 0.0, 1.0, 2),
            resp(2, 0, Verdict::Fallback, 1.0, 4.0, 1),
            resp(3, 1, Verdict::Rejected("full".into()), 2.0, 2.0, 1),
        ];
        let r = build(9, 4, 2, &responses, &pool, &no_stats());
        assert_eq!((r.success, r.fallback, r.rejected, r.corrupt), (2, 1, 1, 0));
        assert_eq!(r.completed, 3);
        assert_eq!(r.total, 4);
        assert!((r.makespan_s - 4.0).abs() < 1e-12);
        assert!((r.latency_p50_s - 1.0).abs() < 1e-12);
        // Interpolated ranks over sorted [1, 1, 3]: rank 1.9 and 1.98.
        assert!((r.latency_p95_s - 2.8).abs() < 1e-12);
        assert!((r.latency_p99_s - 2.96).abs() < 1e-12);
        assert_eq!(r.batch_count, 2);
        assert_eq!(r.batch_max, 2);
        assert!((r.batch_mean - 1.5).abs() < 1e-12);
        let shares: f64 = r.fairness.iter().map(|t| t.share).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn class_stats_split_by_priority_and_count_misses() {
        let pool = DevicePool::new(&[DeviceKind::A100], None, 1);
        let mut interactive_met = resp(0, 0, Verdict::Success, 0.0, 1.0, 1);
        interactive_met.priority = Priority::Interactive;
        interactive_met.deadline_s = Some(2.0);
        let mut interactive_missed = resp(1, 0, Verdict::Success, 0.0, 5.0, 1);
        interactive_missed.priority = Priority::Interactive;
        interactive_missed.deadline_s = Some(2.0);
        let mut be_shed = resp(2, 1, Verdict::Rejected("brownout".into()), 0.0, 0.0, 1);
        be_shed.priority = Priority::BestEffort;
        let responses = vec![interactive_met, interactive_missed, be_shed];
        let r = build(9, 3, 2, &responses, &pool, &no_stats());
        assert_eq!(r.classes.len(), 3);
        let by = |label: &str| r.classes.iter().find(|c| c.class == label).unwrap().clone();
        let i = by("interactive");
        assert_eq!((i.completed, i.shed, i.deadline_misses), (2, 0, 1));
        // Lateness over [0.5, 2.5]: p99 interpolates toward the miss.
        assert!(i.lateness_p99 > 1.0);
        let b = by("best_effort");
        assert_eq!((b.completed, b.shed, b.deadline_misses), (0, 1, 0));
        assert_eq!(by("batch").completed, 0);
    }

    #[test]
    fn all_rejected_percentiles_are_zero() {
        // No completed request: every percentile (global and per-tenant)
        // must come out 0.0, not panic or index out of range.
        let pool = DevicePool::new(&[DeviceKind::A100], None, 1);
        let responses = vec![
            resp(0, 0, Verdict::Rejected("full".into()), 0.0, 0.0, 1),
            resp(1, 1, Verdict::Rejected("full".into()), 1.0, 1.0, 1),
        ];
        let r = build(9, 2, 2, &responses, &pool, &no_stats());
        assert_eq!(r.completed, 0);
        assert_eq!(r.latency_p50_s, 0.0);
        assert_eq!(r.latency_p95_s, 0.0);
        assert_eq!(r.latency_p99_s, 0.0);
        for t in &r.fairness {
            assert_eq!(t.latency_p50_s, 0.0);
            assert_eq!(t.latency_p99_s, 0.0);
        }
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let pool = DevicePool::new(&[DeviceKind::A100], None, 1);
        let responses = vec![resp(0, 0, Verdict::Success, 0.5, 2.5, 1)];
        let r = build(9, 1, 1, &responses, &pool, &no_stats());
        assert!((r.latency_p50_s - 2.0).abs() < 1e-12);
        assert!((r.latency_p95_s - 2.0).abs() < 1e-12);
        assert!((r.latency_p99_s - 2.0).abs() < 1e-12);
        assert!((r.fairness[0].latency_p99_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_tenant_percentiles_cover_only_that_tenants_requests() {
        let pool = DevicePool::new(&[DeviceKind::A100], None, 1);
        let responses = vec![
            resp(0, 0, Verdict::Success, 0.0, 1.0, 1),
            resp(1, 0, Verdict::Success, 0.0, 3.0, 1),
            resp(2, 1, Verdict::Success, 0.0, 10.0, 1),
        ];
        let r = build(9, 3, 2, &responses, &pool, &no_stats());
        assert!((r.fairness[0].latency_p50_s - 2.0).abs() < 1e-12);
        assert!((r.fairness[1].latency_p50_s - 10.0).abs() < 1e-12);
        assert!(r.fairness[0].latency_p99_s < r.fairness[1].latency_p99_s);
    }

    #[test]
    fn json_is_stable_and_tagged() {
        let pool = DevicePool::new(&[DeviceKind::A100, DeviceKind::Mi250], None, 1);
        let responses = vec![resp(0, 0, Verdict::Success, 0.0, 2.0, 1)];
        let mut stats = no_stats();
        stats.hedges_launched = 3;
        stats.spares_promoted = 1;
        let r = build(9, 1, 1, &responses, &pool, &stats);
        let a = render_json(&r);
        let b = render_json(&r);
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"ompx-bench-serve-v2\""));
        assert!(a.contains("\"kind\":\"a100\""));
        assert!(a.contains("\"kind\":\"mi250\""));
        assert!(a.contains("\"standby\":false"));
        assert!(a.contains("\"hedges_launched\":3"));
        assert!(a.contains("\"spares_promoted\":1"));
        assert!(a.contains("\"class\":\"interactive\""));
    }
}
