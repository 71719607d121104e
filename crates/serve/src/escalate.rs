//! Chaos-escalation campaign: the same seeded serve load replayed at a
//! ladder of fault-rate multipliers, with an SLO contract asserted per
//! rung.
//!
//! One chaos run shows the pool surviving one fault schedule. The
//! resilience claim is stronger: as injected pressure escalates, the
//! layer must *degrade by policy* — interactive traffic keeps its
//! deadline SLO (hedging and breakers route around slow and failing
//! members), correctness never bends (zero `Corrupt` verdicts at every
//! rung), and the brownout ladder sheds monotonically more as pressure
//! grows, never less. [`escalate`] runs the ladder and
//! [`ompx_resilience::check_contract`] turns any breach into a finding
//! the CLI exits non-zero on. Everything inherits the serve loop's
//! determinism, so the rendered JSON/CSV are byte-stable for a fixed
//! `(cfg, spec, multipliers)` and CI gates on them like the other
//! baselines.

use crate::error::ServeError;
use crate::loadgen::LoadSpec;
use crate::report::build;
use crate::server::{serve, ServeConfig};
use ompx_resilience::{check_contract, RungSlo};
use ompx_telemetry::json::{self, Doc};

/// The default ladder: from the plan's own rate to 16× it, doubling.
pub const DEFAULT_MULTIPLIERS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// One rung of the escalation: the multiplier it ran at plus the
/// SLO-relevant slice of that run's report.
#[derive(Debug, Clone)]
pub struct EscalateRung {
    pub multiplier: f64,
    /// The effective per-op fault rate the rung injected.
    pub fault_rate: f64,
    pub completed: u64,
    pub success: u64,
    pub fallback: u64,
    pub typed_error: u64,
    pub rejected: u64,
    pub corrupt: u64,
    /// Fraction of offered requests shed at admission.
    pub shed_frac: f64,
    /// p99 of interactive `latency / deadline budget` (≤ 1 = SLO held).
    pub interactive_p99_ratio: f64,
    pub deadline_misses: u64,
    pub hedges_launched: u64,
    pub hedges_won: u64,
    pub breaker_opens: u64,
    pub spares_promoted: u64,
    pub throughput_rps: f64,
    pub latency_p99_s: f64,
}

/// A full escalation campaign: the shared run identity, one rung per
/// multiplier, and the contract breaches (empty = contract held).
#[derive(Debug, Clone)]
pub struct EscalateResult {
    pub seed: u64,
    pub clients: u32,
    pub tenants: u32,
    /// The base plan's per-op fault rate (multiplied per rung).
    pub base_rate: f64,
    pub rungs: Vec<EscalateRung>,
    /// SLO contract breaches from [`check_contract`], in rung order.
    pub violations: Vec<String>,
}

/// Replay `cfg` against `spec` once per multiplier, scaling the fault
/// plan's per-op rate each time (the loss schedule and everything else
/// stay fixed), then check the SLO contract over the resulting rungs.
pub fn escalate(
    cfg: &ServeConfig,
    spec: &LoadSpec,
    multipliers: &[f64],
) -> Result<EscalateResult, ServeError> {
    if multipliers.is_empty() {
        return Err(ServeError::InvalidConfig("escalation needs at least one multiplier".into()));
    }
    let base = cfg.plan.clone().ok_or_else(|| {
        ServeError::InvalidConfig("escalation needs a fault plan (run without --no-faults)".into())
    })?;
    let mut rungs = Vec::with_capacity(multipliers.len());
    for &k in multipliers {
        if k.is_nan() || k <= 0.0 {
            return Err(ServeError::InvalidConfig(format!("multiplier {k} is not positive")));
        }
        let mut plan = base.clone();
        plan.rate = (base.rate * k).min(1.0);
        let mut c = cfg.clone();
        let fault_rate = plan.rate;
        c.plan = Some(plan);
        let out = serve(&c, spec)?;
        let report =
            build(c.seed, spec.clients, spec.tenants, &out.responses, &out.pool, &out.stats);
        let interactive_p99_ratio = report
            .classes
            .iter()
            .find(|cl| cl.class == "interactive")
            .map(|cl| cl.lateness_p99)
            .unwrap_or(0.0);
        rungs.push(EscalateRung {
            multiplier: k,
            fault_rate,
            completed: report.completed,
            success: report.success,
            fallback: report.fallback,
            typed_error: report.typed_error,
            rejected: report.rejected,
            corrupt: report.corrupt,
            shed_frac: if report.total > 0 {
                report.rejected as f64 / report.total as f64
            } else {
                0.0
            },
            interactive_p99_ratio,
            deadline_misses: out.stats.deadline_misses,
            hedges_launched: out.stats.hedges_launched,
            hedges_won: out.stats.hedges_won,
            breaker_opens: out.stats.breaker_opens,
            spares_promoted: out.stats.spares_promoted,
            throughput_rps: report.throughput_rps,
            latency_p99_s: report.latency_p99_s,
        });
    }
    let slo: Vec<RungSlo> = rungs
        .iter()
        .map(|r| RungSlo {
            multiplier: r.multiplier,
            interactive_p99_ratio: r.interactive_p99_ratio,
            corrupt: r.corrupt,
            shed_frac: r.shed_frac,
        })
        .collect();
    Ok(EscalateResult {
        seed: cfg.seed,
        clients: spec.clients,
        tenants: spec.tenants,
        base_rate: base.rate,
        rungs,
        violations: check_contract(&slo),
    })
}

/// Render the campaign as the `BENCH_resilience.json` document (schema
/// `ompx-bench-resilience-v1`). Field order and float formatting are
/// fixed so the output is byte-stable for baseline diffing.
pub fn render_escalate_json(e: &EscalateResult) -> String {
    let rungs = e.rungs.iter().map(|r| {
        format!(
            "{{\"multiplier\":{:e},\"fault_rate\":{:e},\"completed\":{},\"verdicts\":{{\"success\":{},\"fallback\":{},\"typed_error\":{},\"rejected\":{},\"corrupt\":{}}},\"shed_frac\":{:e},\"interactive_p99_ratio\":{:e},\"deadline_misses\":{},\"hedges_launched\":{},\"hedges_won\":{},\"breaker_opens\":{},\"spares_promoted\":{},\"throughput_rps\":{:e},\"latency_p99_s\":{:e}}}",
            r.multiplier,
            r.fault_rate,
            r.completed,
            r.success,
            r.fallback,
            r.typed_error,
            r.rejected,
            r.corrupt,
            r.shed_frac,
            r.interactive_p99_ratio,
            r.deadline_misses,
            r.hedges_launched,
            r.hedges_won,
            r.breaker_opens,
            r.spares_promoted,
            r.throughput_rps,
            r.latency_p99_s,
        )
    });
    let violations: Vec<String> = e.violations.iter().map(|v| json::quoted(v)).collect();
    Doc::new()
        .str("schema", "ompx-bench-resilience-v1")
        .field("seed", e.seed)
        .field("clients", e.clients)
        .field("tenants", e.tenants)
        .field("base_rate", format_args!("{:e}", e.base_rate))
        .rows("rungs", rungs)
        .field("violations", format_args!("[{}]", violations.join(",")))
        .finish()
}

/// Render the campaign as a plotting-friendly CSV: one row per rung.
pub fn render_escalate_csv(e: &EscalateResult) -> String {
    let mut out = String::from(
        "multiplier,fault_rate,completed,success,fallback,typed_error,rejected,corrupt,shed_frac,interactive_p99_ratio,deadline_misses,hedges_launched,hedges_won,breaker_opens,spares_promoted,throughput_rps,latency_p99_s\n",
    );
    for r in &e.rungs {
        out.push_str(&format!(
            "{:e},{:e},{},{},{},{},{},{},{:e},{:e},{},{},{},{},{},{:e},{:e}\n",
            r.multiplier,
            r.fault_rate,
            r.completed,
            r.success,
            r.fallback,
            r.typed_error,
            r.rejected,
            r.corrupt,
            r.shed_frac,
            r.interactive_p99_ratio,
            r.deadline_misses,
            r.hedges_launched,
            r.hedges_won,
            r.breaker_opens,
            r.spares_promoted,
            r.throughput_rps,
            r.latency_p99_s,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::fault::FaultPlan;

    fn tiny_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::new(7);
        cfg.plan = Some(FaultPlan::seeded(7, 0.01));
        cfg
    }

    fn tiny_spec() -> LoadSpec {
        LoadSpec { seed: 7, clients: 24, tenants: 4 }
    }

    #[test]
    fn escalation_is_deterministic_and_scales_the_rate() {
        let cfg = tiny_cfg();
        let spec = tiny_spec();
        let a = escalate(&cfg, &spec, &[1.0, 4.0]).expect("escalate");
        let b = escalate(&cfg, &spec, &[1.0, 4.0]).expect("escalate");
        assert_eq!(render_escalate_json(&a), render_escalate_json(&b));
        assert_eq!(render_escalate_csv(&a), render_escalate_csv(&b));
        assert_eq!(a.rungs.len(), 2);
        assert!((a.rungs[0].fault_rate - 0.01).abs() < 1e-12);
        assert!((a.rungs[1].fault_rate - 0.04).abs() < 1e-12);
        // Correctness never bends, whatever the rate.
        for r in &a.rungs {
            assert_eq!(r.corrupt, 0);
            assert_eq!(r.completed + r.rejected, 24);
        }
    }

    #[test]
    fn rate_saturates_at_one() {
        let mut cfg = tiny_cfg();
        cfg.plan = Some(FaultPlan::seeded(7, 0.2));
        let e = escalate(&cfg, &tiny_spec(), &[16.0]).expect("escalate");
        assert!((e.rungs[0].fault_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_plan_and_bad_ladders_are_typed_errors() {
        let mut cfg = tiny_cfg();
        cfg.plan = None;
        assert!(matches!(escalate(&cfg, &tiny_spec(), &[1.0]), Err(ServeError::InvalidConfig(_))));
        let cfg = tiny_cfg();
        assert!(matches!(escalate(&cfg, &tiny_spec(), &[]), Err(ServeError::InvalidConfig(_))));
        assert!(matches!(escalate(&cfg, &tiny_spec(), &[0.0]), Err(ServeError::InvalidConfig(_))));
    }
}
