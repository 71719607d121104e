//! Summary auto-extraction: fit affine access summaries from memory traces.
//!
//! The extractor runs a kernel under the simulator's memtrace hooks on a
//! few small *fit* grids, then infers a draft [`KernelSummary`] from the
//! observed events alone: per (buffer, mode, barrier-class) group it fits
//! affine index expressions (including strided progressions and clamped
//! boundary forms), infers guards from which threads did and did not touch
//! the buffer, and reconstructs barrier-delimited phases from the observed
//! barrier counters. Drafts are *never* trusted: the caller replay-validates
//! them on larger, unseen grids ([`crate::replay::validate_replay`]) before
//! any check consumes them.
//!
//! Residuals the fitter cannot explain degrade *soundly*: they become a
//! conservative whole-buffer interval access marked
//! [`Access::imprecise`], which boundscheck and racecheck treat as opaque
//! and surface as `SummaryImprecise` findings. Observed behaviour is thus
//! always covered — the draft over-approximates, it never silently drops
//! events.
//!
//! Fitting is deterministic: groups are visited in a canonical order and
//! every internal map is ordered, so the same traces always produce the
//! same summary (tested below).

use crate::check::analyze;
use crate::expr::{
    and, bid_x, c, free, item, lt, max_e, min_e, param, tid_x, Env, Expr, Pred, Var,
};
use crate::replay::{items_for, predicted_set, validate_replay, AllocMemo};
use crate::summary::{
    Access, Barrier, BufferDecl, Domain, FreeDecl, GroundDomain, KernelSummary, LaunchShape, Mode,
    SharedDecl, Space, SummaryFlags, Valuation,
};
use ompx_sanitizer::Severity;
use ompx_sim::memtrace::{BarrierEvent, MemAccessKind, MemEvent, MemSpace};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What to extract: the launch-visible facts the harness already knows
/// (geometry, declared buffers, domain shape) — everything the trace alone
/// cannot name. Accesses, guards, phases, and barriers are *inferred*.
pub struct ExtractSpec {
    pub kernel: String,
    pub app: String,
    pub version: String,
    pub launch: LaunchShape,
    pub flags: SummaryFlags,
    pub warp_ops: bool,
    pub domain: Domain,
    pub buffers: Vec<BufferDecl>,
    pub shared: Vec<SharedDecl>,
    /// Small grids to fit on — one [`Trace`] each, in order. Parameters
    /// should take pairwise-distinct values across fit valuations so fitted
    /// constants symbolize unambiguously.
    pub fit: Vec<Valuation>,
    /// Larger, unseen grids the caller replay-validates the draft on.
    pub validate: Vec<Valuation>,
}

/// One fit run's raw trace.
pub struct Trace {
    pub events: Vec<MemEvent>,
    pub barriers: Vec<BarrierEvent>,
}

/// A fitted draft summary plus what degraded along the way.
pub struct Extraction {
    pub summary: KernelSummary,
    /// Human-readable notes, one per group that fell back to an opaque
    /// whole-buffer access.
    pub imprecise: Vec<String>,
    /// Number of barrier-delimited phases inferred.
    pub phases: usize,
}

const MAX_THREADS: i64 = 200_000;
const PREDICT_CAP: u64 = 4_000_000;
const MAX_ROUNDS: usize = 8;

type Tau = ((u32, u32, u32), (u32, u32, u32));
type TauSet = BTreeMap<Tau, BTreeSet<i64>>;

struct TInfo {
    tid: (u32, u32, u32),
    bid: (u32, u32, u32),
    items: Vec<i64>,
}

struct Ctx {
    val: Valuation,
    bdim: (i64, i64, i64),
    gdim: (i64, i64, i64),
    domain: GroundDomain,
    threads: BTreeMap<Tau, TInfo>,
}

struct Fit<'a> {
    spec: &'a ExtractSpec,
    ctxs: Vec<Ctx>,
    /// Sorted union of parameter names across fit valuations.
    params: Vec<String>,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum GSpace {
    Global(String),
    Shared(usize),
}

impl GSpace {
    fn to_space(&self) -> Space {
        match self {
            GSpace::Global(l) => Space::Global(l.clone()),
            GSpace::Shared(s) => Space::Shared(*s),
        }
    }
}

impl std::fmt::Display for GSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GSpace::Global(l) => write!(f, "{l}"),
            GSpace::Shared(s) => write!(f, "shared[{s}]"),
        }
    }
}

fn mode_of(k: MemAccessKind) -> Mode {
    match k {
        MemAccessKind::Read => Mode::Read,
        MemAccessKind::Write => Mode::Write,
        MemAccessKind::Atomic => Mode::Atomic,
    }
}

fn mode_rank(m: Mode) -> u8 {
    match m {
        Mode::Read => 0,
        Mode::Write => 1,
        Mode::Atomic => 2,
    }
}

fn mode_from_rank(r: u8) -> Mode {
    match r {
        0 => Mode::Read,
        1 => Mode::Write,
        _ => Mode::Atomic,
    }
}

struct Namer {
    n: usize,
}

impl Namer {
    fn fresh(&mut self, prefix: &str) -> String {
        let name = format!("{prefix}{}", self.n);
        self.n += 1;
        name
    }
}

/// One candidate explanation for part of a group: every index expression
/// is emitted as its own access under the shared guard and frees.
struct Hyp {
    indices: Vec<Expr>,
    base_guard: Option<Pred>,
    frees: Vec<FreeDecl>,
    /// Exact hypotheses must reproduce the remaining set *exactly* (they
    /// run before any peeling); inexact ones only need to stay inside the
    /// originally observed set.
    exact: bool,
}

struct AccessDraft {
    indices: Vec<Expr>,
    guard: Pred,
    frees: Vec<FreeDecl>,
    imprecise: bool,
}

// ---------------------------------------------------------------------------
// Small expression helpers (keep emitted summaries readable).

fn add_simpl(a: Expr, b: Expr) -> Expr {
    if a == c(0) {
        return b;
    }
    if b == c(0) {
        return a;
    }
    a + b
}

fn mul_simpl(k: i64, e: Expr) -> Expr {
    match k {
        0 => c(0),
        1 => e,
        _ => c(k) * e,
    }
}

fn sub_one(e: Expr) -> Expr {
    match e {
        Expr::Const(k) => c(k - 1),
        other => other - c(1),
    }
}

// ---------------------------------------------------------------------------
// Context construction.

fn build_ctx(spec: &ExtractSpec, val: &Valuation) -> Result<Ctx, String> {
    let skeleton = KernelSummary {
        kernel: spec.kernel.clone(),
        app: spec.app.clone(),
        version: spec.version.clone(),
        launch: spec.launch.clone(),
        flags: spec.flags,
        warp_ops: spec.warp_ops,
        domain: spec.domain.clone(),
        frees: vec![],
        buffers: spec.buffers.clone(),
        shared: spec.shared.clone(),
        accesses: vec![],
        barriers: vec![],
        valuations: vec![val.clone()],
    };
    let g = skeleton.ground(val)?;
    if g.block_size() * g.grid_size() > MAX_THREADS {
        return Err(format!(
            "fit grid `{}` has {} threads (cap {MAX_THREADS}); use a smaller fit valuation",
            val.name,
            g.block_size() * g.grid_size()
        ));
    }
    let bdim = (i64::from(g.block.0), i64::from(g.block.1), i64::from(g.block.2));
    let gdim = (i64::from(g.grid.0), i64::from(g.grid.1), i64::from(g.grid.2));
    let mut threads = BTreeMap::new();
    for bz in 0..g.grid.2 {
        for by in 0..g.grid.1 {
            for bx in 0..g.grid.0 {
                for tz in 0..g.block.2 {
                    for ty in 0..g.block.1 {
                        for tx in 0..g.block.0 {
                            let block_rank =
                                (i64::from(bz) * gdim.1 + i64::from(by)) * gdim.0 + i64::from(bx);
                            let thread_rank =
                                (i64::from(tz) * bdim.1 + i64::from(ty)) * bdim.0 + i64::from(tx);
                            let rank = block_rank * g.block_size() + thread_rank;
                            let items = items_for(&g, rank, thread_rank == 0);
                            threads.insert(
                                ((bx, by, bz), (tx, ty, tz)),
                                TInfo { tid: (tx, ty, tz), bid: (bx, by, bz), items },
                            );
                        }
                    }
                }
            }
        }
    }
    Ok(Ctx { val: val.clone(), bdim, gdim, domain: g.domain, threads })
}

/// Group the spec kernel's events of every trace by (space, mode rank,
/// barrier class modulo `l`), each group holding one [`TauSet`] per trace.
/// Events are grouped under integer space ids (each allocation's label is
/// looked up once); the groups come back in (space, mode, class) order.
fn collect_groups(
    spec: &ExtractSpec,
    traces: &[Trace],
    l: u32,
) -> BTreeMap<(GSpace, u8, u32), Vec<TauSet>> {
    let mut spaces: Vec<GSpace> = Vec::new();
    let mut intern = |space: GSpace| {
        spaces.iter().position(|s| *s == space).unwrap_or_else(|| {
            spaces.push(space);
            spaces.len() - 1
        })
    };
    let mut allocs = AllocMemo::new();
    let mut groups: HashMap<(usize, u8, u32), Vec<TauSet>> = HashMap::new();
    for (v, t) in traces.iter().enumerate() {
        for e in &t.events {
            if *e.kernel != *spec.kernel {
                continue;
            }
            let space = match &e.space {
                MemSpace::Global { alloc_id, label } => {
                    allocs.get(*alloc_id, label, |l| intern(GSpace::Global(l.to_string())))
                }
                MemSpace::Shared { slot } => intern(GSpace::Shared(*slot)),
            };
            let key = (space, mode_rank(mode_of(e.kind)), e.phase % l);
            let per_ctx = groups.entry(key).or_insert_with(|| vec![TauSet::new(); traces.len()]);
            per_ctx[v].entry((e.block, e.thread)).or_default().insert(e.index as i64);
        }
    }
    groups
        .into_iter()
        .map(|((space, mode, class), g)| ((spaces[space].clone(), mode, class), g))
        .collect()
}

// ---------------------------------------------------------------------------
// Symbolization: turn per-valuation fitted constants back into parameter
// expressions. Fails (`None`) when no parameter explains the variation.

fn symbolize(fit: &Fit<'_>, vals: &[i64]) -> Option<Expr> {
    if vals.iter().all(|&x| x == vals[0]) {
        return Some(c(vals[0]));
    }
    for p in &fit.params {
        let matches = |off: i64| {
            fit.ctxs.iter().enumerate().all(|(i, cx)| cx.val.get(p) == Some(vals[i] - off))
        };
        if matches(0) {
            return Some(param(p));
        }
        if matches(1) {
            return Some(param(p) + c(1));
        }
        if matches(-1) {
            return Some(param(p) - c(1));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Prediction: evaluate a candidate access over every thread of a fit grid.

struct Cand {
    indices: Vec<Expr>,
    guard: Pred,
    frees: Vec<FreeDecl>,
}

fn const_of(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(k) => Some(*k),
        _ => None,
    }
}

fn predict(fit: &Fit<'_>, cand: &Cand, v: usize) -> Option<TauSet> {
    let ctx = &fit.ctxs[v];
    let block = fit.spec.launch.block;
    let subst = |var: &Var| -> Option<i64> {
        match var {
            Var::Param(p) => ctx.val.get(p),
            Var::BDimX => Some(i64::from(block.0)),
            Var::BDimY => Some(i64::from(block.1)),
            Var::BDimZ => Some(i64::from(block.2)),
            Var::GDimX => Some(ctx.gdim.0),
            Var::GDimY => Some(ctx.gdim.1),
            Var::GDimZ => Some(ctx.gdim.2),
            _ => None,
        }
    };
    let indices: Vec<Expr> = cand.indices.iter().map(|e| e.subst(&subst)).collect();
    let guard = cand.guard.subst(&subst);
    let mut vars = BTreeSet::new();
    for e in &indices {
        e.vars(&mut vars);
    }
    guard.vars(&mut vars);
    if vars.iter().any(|w| matches!(w, Var::Param(_))) {
        return None;
    }
    let mut frees: Vec<(String, i64, i64)> = Vec::new();
    for f in &cand.frees {
        if !vars.contains(&Var::Free(f.name.clone())) {
            continue;
        }
        let lo = const_of(&f.lo.subst(&subst))?;
        let hi = const_of(&f.hi.subst(&subst))?;
        if hi < lo {
            return Some(TauSet::new());
        }
        frees.push((f.name.clone(), lo, hi));
    }
    let needs_item =
        vars.contains(&Var::Item) || matches!(ctx.domain, GroundDomain::BlockChunked { .. });
    let mut combos: u64 = 0;
    let mut out = TauSet::new();
    for (tau, ti) in &ctx.threads {
        let items: &[i64] = if needs_item { &ti.items } else { &[0] };
        for &it in items {
            let mut asg: Vec<(String, i64)> =
                frees.iter().map(|(n, lo, _)| (n.clone(), *lo)).collect();
            'odometer: loop {
                combos += 1;
                if combos > PREDICT_CAP {
                    return None;
                }
                let env = Env {
                    tid: (i64::from(ti.tid.0), i64::from(ti.tid.1), i64::from(ti.tid.2)),
                    bid: (i64::from(ti.bid.0), i64::from(ti.bid.1), i64::from(ti.bid.2)),
                    bdim: ctx.bdim,
                    gdim: ctx.gdim,
                    item: it,
                    frees: &asg,
                };
                match guard.eval(&env) {
                    Some(true) => {
                        for e in &indices {
                            let x = i64::try_from(e.eval(&env)?).ok()?;
                            out.entry(*tau).or_default().insert(x);
                        }
                    }
                    Some(false) => {}
                    None => return None,
                }
                let mut i = 0;
                loop {
                    if i == asg.len() {
                        break 'odometer;
                    }
                    asg[i].1 += 1;
                    if asg[i].1 <= frees[i].2 {
                        break;
                    }
                    asg[i].1 = frees[i].1;
                    i += 1;
                }
            }
        }
    }
    out.retain(|_, s| !s.is_empty());
    Some(out)
}

/// Accept a candidate if, in every fit grid, every predicted access lies
/// inside the *originally* observed set (so peels never invent behaviour a
/// collision with an earlier peel would hide). Exact candidates must also
/// reproduce the remaining set precisely.
fn accepts(
    fit: &Fit<'_>,
    cand: &Cand,
    orig: &[TauSet],
    exact_rem: Option<&[TauSet]>,
) -> Option<Vec<TauSet>> {
    let mut preds = Vec::new();
    for v in 0..fit.ctxs.len() {
        let p = predict(fit, cand, v)?;
        for (tau, s) in &p {
            let o = orig[v].get(tau);
            if !s.iter().all(|x| o.is_some_and(|os| os.contains(x))) {
                return None;
            }
        }
        if let Some(rem) = exact_rem {
            for (tau, s) in &rem[v] {
                if !s.is_empty() && p.get(tau) != Some(s) {
                    return None;
                }
            }
            for (tau, s) in &p {
                match rem[v].get(tau) {
                    Some(rs) if rs == s => {}
                    _ => return None,
                }
            }
        }
        preds.push(p);
    }
    Some(preds)
}

fn subtract(rem: &mut [TauSet], preds: &[TauSet]) {
    for (v, p) in preds.iter().enumerate() {
        for (tau, s) in p {
            if let Some(r) = rem[v].get_mut(tau) {
                for x in s {
                    r.remove(x);
                }
            }
        }
        rem[v].retain(|_, s| !s.is_empty());
    }
}

fn count(rem: &[TauSet]) -> usize {
    rem.iter().map(|m| m.values().map(BTreeSet::len).sum::<usize>()).sum()
}

// ---------------------------------------------------------------------------
// Participants and drivers.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Driver {
    Item,
    TidX,
    BidX,
}

fn driver_expr(d: Driver) -> Expr {
    match d {
        Driver::Item => item(),
        Driver::TidX => tid_x(),
        Driver::BidX => bid_x(),
    }
}

fn driver_val(ti: &TInfo, d: Driver) -> Option<i64> {
    match d {
        Driver::Item => ti.items.first().copied(),
        Driver::TidX => Some(i64::from(ti.tid.0)),
        Driver::BidX => Some(i64::from(ti.bid.0)),
    }
}

fn participants<'a>(ctx: &'a Ctx, rem: &'a TauSet) -> Vec<(&'a TInfo, &'a BTreeSet<i64>)> {
    rem.iter()
        .filter(|(_, s)| !s.is_empty())
        .filter_map(|(tau, s)| ctx.threads.get(tau).map(|ti| (ti, s)))
        .collect()
}

fn single_item(fit: &Fit<'_>) -> bool {
    fit.ctxs.iter().all(|c| c.threads.values().all(|t| t.items.len() <= 1))
}

fn participants_single_item(fit: &Fit<'_>, rem: &[TauSet]) -> bool {
    fit.ctxs
        .iter()
        .zip(rem)
        .all(|(ctx, r)| participants(ctx, r).iter().all(|(ti, _)| ti.items.len() == 1))
}

// ---------------------------------------------------------------------------
// Offset classification: turn per-valuation offset sets into an index term.

fn classify_offsets(
    fit: &Fit<'_>,
    namer: &mut Namer,
    dsets: &[Vec<i64>],
) -> Option<(Vec<Expr>, Vec<FreeDecl>)> {
    if dsets.iter().any(Vec::is_empty) {
        return None;
    }
    if dsets.iter().all(|d| d.len() == 1) {
        let beta = symbolize(fit, &dsets.iter().map(|d| d[0]).collect::<Vec<_>>())?;
        return Some((vec![beta], vec![]));
    }
    // Arithmetic progression with a common stride across valuations.
    let mut stride: Option<i64> = None;
    let mut progression = true;
    for d in dsets {
        for w in d.windows(2) {
            let s = w[1] - w[0];
            match stride {
                None => stride = Some(s),
                Some(t) if t == s => {}
                _ => progression = false,
            }
        }
    }
    if progression {
        if let Some(s) = stride {
            let lo = symbolize(fit, &dsets.iter().map(|d| d[0]).collect::<Vec<_>>());
            let cnt = symbolize(fit, &dsets.iter().map(|d| d.len() as i64).collect::<Vec<_>>());
            if let (Some(lo), Some(cnt)) = (lo, cnt) {
                let name = namer.fresh("o");
                let hi = sub_one(cnt);
                let term = add_simpl(lo, mul_simpl(s, free(&name)));
                return Some((vec![term], vec![FreeDecl { name, lo: c(0), hi }]));
            }
        }
    }
    // A small identical offset set: one access per offset.
    let first = &dsets[0];
    if first.len() <= 4 && dsets.iter().all(|d| d == first) {
        return Some((first.iter().map(|&d| c(d)).collect(), vec![]));
    }
    None
}

// ---------------------------------------------------------------------------
// Hypothesis generators.

/// Strided progression (round 0, single-item domains): every participant's
/// set is an arithmetic progression with a shared stride, whose base is
/// affine in one driver. Catches tiled loops (`tid + 64·t`) and packed
/// per-item records (`18·item + k`).
fn gen_progression(fit: &Fit<'_>, rem: &[TauSet], namer: &mut Namer) -> Vec<Hyp> {
    let mut stride: Option<i64> = None;
    for (ctx, r) in fit.ctxs.iter().zip(rem) {
        for (_, s) in participants(ctx, r) {
            let xs: Vec<i64> = s.iter().copied().collect();
            for w in xs.windows(2) {
                let d = w[1] - w[0];
                match stride {
                    None => stride = Some(d),
                    Some(t) if t == d => {}
                    _ => return vec![],
                }
            }
        }
    }
    let Some(d) = stride else { return vec![] };
    for driver in [Driver::Item, Driver::TidX, Driver::BidX] {
        if let Some(h) = try_progression_driver(fit, rem, d, driver, namer) {
            return vec![h];
        }
    }
    vec![]
}

fn try_progression_driver(
    fit: &Fit<'_>,
    rem: &[TauSet],
    d: i64,
    driver: Driver,
    namer: &mut Namer,
) -> Option<Hyp> {
    let mut alpha: Option<i64> = None;
    let mut betas = Vec::new();
    let mut kvals = Vec::new();
    let mut bounds = Vec::new();
    let mut uniform = true;
    for (ctx, r) in fit.ctxs.iter().zip(rem) {
        let mut parts: Vec<(i64, &BTreeSet<i64>)> = Vec::new();
        for (ti, s) in participants(ctx, r) {
            parts.push((driver_val(ti, driver)?, s));
        }
        if parts.is_empty() {
            return None;
        }
        let (vmin, smin) = parts.iter().min_by_key(|(v, _)| *v).unwrap();
        let (vmax, smax) = parts.iter().max_by_key(|(v, _)| *v).unwrap();
        let base_min = *smin.iter().next().unwrap();
        let base_max = *smax.iter().next().unwrap();
        let a = if vmax == vmin {
            0
        } else {
            let num = base_max - base_min;
            let den = vmax - vmin;
            if num % den != 0 {
                return None;
            }
            num / den
        };
        match alpha {
            None => alpha = Some(a),
            Some(x) if x == a => {}
            _ => return None,
        }
        let b = base_min - a * vmin;
        let mut k = 0i64;
        for (v, s) in &parts {
            if *s.iter().next().unwrap() != a * v + b {
                return None;
            }
            k = k.max(s.len() as i64);
        }
        if parts.iter().any(|(_, s)| (s.len() as i64) < k) {
            uniform = false;
        }
        betas.push(b);
        kvals.push(k);
        bounds.push(1 + parts.iter().map(|(_, s)| *s.iter().last().unwrap()).max().unwrap());
    }
    let alpha = alpha?;
    let beta = symbolize(fit, &betas)?;
    let k_e = symbolize(fit, &kvals)?;
    let name = namer.fresh("k");
    let idx = add_simpl(
        mul_simpl(alpha, driver_expr(driver)),
        add_simpl(beta, mul_simpl(d, free(&name))),
    );
    let frees = vec![FreeDecl { name, lo: c(0), hi: sub_one(k_e) }];
    let base_guard = if uniform { None } else { Some(lt(idx.clone(), symbolize(fit, &bounds)?)) };
    Some(Hyp { indices: vec![idx], base_guard, frees, exact: true })
}

/// Multi-item affine (round 0, grid-stride / block-chunked domains):
/// `α·item + D` where `D` is an offset set shared by every item, optionally
/// clamped to the buffer (`min(max(·, 0), N−1)`) for halo reads.
fn gen_multi_item(fit: &Fit<'_>, rem: &[TauSet], namer: &mut Namer) -> Vec<Hyp> {
    let ctx0 = &fit.ctxs[0];
    let parts0 = participants(ctx0, &rem[0]);
    if parts0.is_empty() {
        return vec![];
    }
    let all_vals = |parts: &Vec<(&TInfo, &BTreeSet<i64>)>| -> (i64, i64) {
        let lo = parts.iter().map(|(_, s)| *s.iter().next().unwrap()).min().unwrap();
        let hi = parts.iter().map(|(_, s)| *s.iter().last().unwrap()).max().unwrap();
        (lo, hi)
    };
    let (slo, shi) = all_vals(&parts0);
    let ilo = parts0.iter().flat_map(|(ti, _)| ti.items.iter().copied()).min();
    let ihi = parts0.iter().flat_map(|(ti, _)| ti.items.iter().copied()).max();
    let mut acands = Vec::new();
    if let (Some(ilo), Some(ihi)) = (ilo, ihi) {
        if ihi > ilo {
            acands.push((shi - slo) / (ihi - ilo));
        }
    }
    for a in [1, 0] {
        if !acands.contains(&a) {
            acands.push(a);
        }
    }
    let mut out = Vec::new();
    for a in acands {
        // Offset set per valuation, from the participant whose
        // intersection is widest (clamped edge threads narrow theirs).
        let mut dsets = Vec::new();
        let mut ok = true;
        let mut nmax = Vec::new();
        for (ctx, r) in fit.ctxs.iter().zip(rem) {
            let parts = participants(ctx, r);
            if parts.is_empty() {
                ok = false;
                break;
            }
            nmax.push(1 + all_vals(&parts).1);
            let mut best: Option<BTreeSet<i64>> = None;
            for (ti, s) in &parts {
                let mut dset: Option<BTreeSet<i64>> = None;
                for &i in &ti.items {
                    let shifted: BTreeSet<i64> = s.iter().map(|x| x - a * i).collect();
                    dset = Some(match dset {
                        None => shifted,
                        Some(p) => p.intersection(&shifted).copied().collect(),
                    });
                }
                let dset = dset.unwrap_or_default();
                if best.as_ref().is_none_or(|b| dset.len() > b.len()) {
                    best = Some(dset);
                }
            }
            let best = best.unwrap_or_default();
            if best.is_empty() {
                ok = false;
                break;
            }
            dsets.push(best.into_iter().collect::<Vec<i64>>());
        }
        if !ok {
            continue;
        }
        let Some((terms, frees)) = classify_offsets(fit, namer, &dsets) else { continue };
        let raw: Vec<Expr> =
            terms.iter().map(|t| add_simpl(mul_simpl(a, item()), t.clone())).collect();
        out.push(Hyp { indices: raw.clone(), base_guard: None, frees: frees.clone(), exact: true });
        if let Some(n_e) = symbolize(fit, &nmax) {
            let clamped: Vec<Expr> =
                raw.iter().map(|e| min_e(max_e(e.clone(), c(0)), sub_one(n_e.clone()))).collect();
            out.push(Hyp { indices: clamped, base_guard: None, frees, exact: true });
        }
    }
    out
}

/// Plain affine peel: `α·driver + D`, accepted whenever the prediction
/// stays inside the observed set.
fn gen_affine(fit: &Fit<'_>, rem: &[TauSet], namer: &mut Namer) -> Vec<Hyp> {
    let mut out = Vec::new();
    let singles = participants_single_item(fit, rem);
    let mut alphas_tried = BTreeSet::new();
    for driver in [Driver::Item, Driver::TidX, Driver::BidX] {
        if driver == Driver::Item && !singles {
            continue;
        }
        // α from the driver-extreme participants of each valuation.
        let mut alpha: Option<i64> = None;
        let mut consistent = true;
        for (ctx, r) in fit.ctxs.iter().zip(rem) {
            let mut parts: Vec<(i64, i64)> = Vec::new();
            for (ti, s) in participants(ctx, r) {
                match driver_val(ti, driver) {
                    Some(v) => parts.push((v, *s.iter().next().unwrap())),
                    None => consistent = false,
                }
            }
            if parts.is_empty() || !consistent {
                consistent = false;
                break;
            }
            let (vmin, bmin) = *parts.iter().min_by_key(|(v, _)| *v).unwrap();
            let (vmax, bmax) = *parts.iter().max_by_key(|(v, _)| *v).unwrap();
            let a = if vmax == vmin {
                0
            } else if (bmax - bmin) % (vmax - vmin) == 0 {
                (bmax - bmin) / (vmax - vmin)
            } else {
                consistent = false;
                break;
            };
            match alpha {
                None => alpha = Some(a),
                Some(x) if x == a => {}
                _ => {
                    consistent = false;
                    break;
                }
            }
        }
        let mut acands = Vec::new();
        if consistent {
            if let Some(a) = alpha {
                if a != 0 {
                    acands.push(a);
                }
            }
        }
        for a in acands {
            if !alphas_tried.insert((format!("{driver:?}"), a)) {
                continue;
            }
            if let Some(h) = affine_offsets(fit, rem, namer, driver, a) {
                out.push(h);
            }
        }
    }
    // The driver-free α=0 case once: a set of indices common to every
    // participant (uniform reads).
    if let Some(h) = affine_offsets(fit, rem, namer, Driver::Item, 0) {
        out.push(h);
    }
    out
}

fn affine_offsets(
    fit: &Fit<'_>,
    rem: &[TauSet],
    namer: &mut Namer,
    driver: Driver,
    a: i64,
) -> Option<Hyp> {
    let mut dsets = Vec::new();
    for (ctx, r) in fit.ctxs.iter().zip(rem) {
        let parts = participants(ctx, r);
        if parts.is_empty() {
            return None;
        }
        let mut dset: Option<BTreeSet<i64>> = None;
        for (ti, s) in &parts {
            let v = if a == 0 { 0 } else { driver_val(ti, driver)? };
            let shifted: BTreeSet<i64> = s.iter().map(|x| x - a * v).collect();
            dset = Some(match dset {
                None => shifted,
                Some(p) => p.intersection(&shifted).copied().collect(),
            });
        }
        let dset = dset.unwrap_or_default();
        if dset.is_empty() {
            return None;
        }
        dsets.push(dset.into_iter().collect::<Vec<i64>>());
    }
    let (terms, frees) = classify_offsets(fit, namer, &dsets)?;
    let indices =
        terms.into_iter().map(|t| add_simpl(mul_simpl(a, driver_expr(driver)), t)).collect();
    Some(Hyp { indices, base_guard: None, frees, exact: false })
}

/// Clamped-item peel for boundary halos: `clamp(item + δ, 0, N−1)` with δ
/// the most common base offset among remaining participants.
fn gen_clamped(fit: &Fit<'_>, rem: &[TauSet], orig: &[TauSet]) -> Vec<Hyp> {
    if !participants_single_item(fit, rem) {
        return vec![];
    }
    let mut deltas: BTreeMap<i64, usize> = BTreeMap::new();
    for (ctx, r) in fit.ctxs.iter().zip(rem) {
        for (ti, s) in participants(ctx, r) {
            let Some(i) = ti.items.first() else { return vec![] };
            *deltas.entry(s.iter().next().unwrap() - i).or_default() += 1;
        }
    }
    let Some((&delta, _)) = deltas.iter().max_by_key(|(_, n)| **n) else { return vec![] };
    let mut nmax = Vec::new();
    for o in orig {
        let hi = o.values().filter_map(|s| s.iter().last()).max();
        match hi {
            Some(&h) => nmax.push(1 + h),
            None => return vec![],
        }
    }
    let Some(n_e) = symbolize(fit, &nmax) else { return vec![] };
    let raw = add_simpl(item(), c(delta));
    let idx =
        if delta >= 0 { min_e(raw, sub_one(n_e)) } else { min_e(max_e(raw, c(0)), sub_one(n_e)) };
    vec![Hyp { indices: vec![idx], base_guard: None, frees: vec![], exact: false }]
}

// ---------------------------------------------------------------------------
// Guard inference.

fn compose(g: Pred, base: &Option<Pred>) -> Pred {
    match (g, base) {
        (Pred::True, Some(b)) => b.clone(),
        (g, Some(b)) => and(g, b.clone()),
        (g, None) => g,
    }
}

/// Guard ladder, most permissive first: no guard, an item bound, a
/// leading-threads bound. Bounds come from the participating threads and
/// are symbolized back to parameters.
fn ladder(fit: &Fit<'_>, rem: &[TauSet], base: &Option<Pred>) -> Vec<Pred> {
    let mut out = vec![compose(Pred::True, base)];
    let mut item_hi = Vec::new();
    let mut tid_hi = Vec::new();
    let mut items_ok = true;
    for (ctx, r) in fit.ctxs.iter().zip(rem) {
        let parts = participants(ctx, r);
        if parts.is_empty() {
            return out;
        }
        match parts
            .iter()
            .map(|(ti, _)| if ti.items.len() == 1 { ti.items.first().copied() } else { None })
            .collect::<Option<Vec<i64>>>()
        {
            Some(is) => item_hi.push(1 + is.into_iter().max().unwrap()),
            None => items_ok = false,
        }
        tid_hi.push(1 + parts.iter().map(|(ti, _)| i64::from(ti.tid.0)).max().unwrap());
    }
    if items_ok {
        if let Some(x) = symbolize(fit, &item_hi) {
            out.push(compose(lt(item(), x), base));
        }
    }
    if let Some(x) = symbolize(fit, &tid_hi) {
        out.push(compose(lt(tid_x(), x), base));
    }
    out
}

// ---------------------------------------------------------------------------
// Per-group fitting loop.

fn fit_group(
    fit: &Fit<'_>,
    space: &GSpace,
    orig: &[TauSet],
    namer: &mut Namer,
) -> (Vec<AccessDraft>, Option<String>) {
    let mut drafts = Vec::new();
    let mut rem: Vec<TauSet> = orig.to_vec();
    let multi = !single_item(fit);
    for round in 0..MAX_ROUNDS {
        let total = count(&rem);
        if total == 0 {
            break;
        }
        let mut hyps = Vec::new();
        if round == 0 {
            if multi {
                hyps.extend(gen_multi_item(fit, &rem, namer));
            } else {
                hyps.extend(gen_progression(fit, &rem, namer));
            }
        }
        hyps.extend(gen_affine(fit, &rem, namer));
        hyps.extend(gen_clamped(fit, &rem, orig));
        let mut advanced = false;
        'hyps: for hyp in hyps {
            for guard in ladder(fit, &rem, &hyp.base_guard) {
                let cand = Cand { indices: hyp.indices.clone(), guard, frees: hyp.frees.clone() };
                let exact = if hyp.exact { Some(rem.as_slice()) } else { None };
                if let Some(preds) = accepts(fit, &cand, orig, exact) {
                    subtract(&mut rem, &preds);
                    if count(&rem) < total {
                        drafts.push(AccessDraft {
                            indices: cand.indices,
                            guard: cand.guard,
                            frees: cand.frees,
                            imprecise: false,
                        });
                        advanced = true;
                        break 'hyps;
                    }
                }
            }
        }
        if !advanced {
            break;
        }
    }
    let leftover = count(&rem);
    if leftover == 0 {
        return (drafts, None);
    }
    // Sound degradation: cover the residual with an opaque whole-buffer
    // interval access. Replay stays clean; checks report SummaryImprecise.
    let len = space_len(fit, space, orig);
    let name = namer.fresh("x");
    drafts.push(AccessDraft {
        indices: vec![free(&name)],
        guard: Pred::True,
        frees: vec![FreeDecl { name, lo: c(0), hi: sub_one(len) }],
        imprecise: true,
    });
    let note = format!(
        "{space}: {leftover} observed accesses have no affine fit; degraded to a \
         conservative whole-buffer access"
    );
    (drafts, Some(note))
}

/// Declared length of a buffer or shared array; falls back to the largest
/// observed index when the spec does not declare one.
fn space_len(fit: &Fit<'_>, space: &GSpace, orig: &[TauSet]) -> Expr {
    let declared = match space {
        GSpace::Global(l) => fit.spec.buffers.iter().find(|b| &b.name == l).map(|b| b.len.clone()),
        GSpace::Shared(s) => fit.spec.shared.iter().find(|d| &d.slot == s).map(|d| d.len.clone()),
    };
    if let Some(e) = declared {
        return e;
    }
    let maxes: Vec<i64> = orig
        .iter()
        .map(|m| 1 + m.values().filter_map(|s| s.iter().last()).max().copied().unwrap_or(0))
        .collect();
    symbolize(fit, &maxes).unwrap_or_else(|| c(maxes.iter().copied().max().unwrap_or(1)))
}

// ---------------------------------------------------------------------------
// Assembly and phase-count selection.

fn phase_name(l: u32, class: u32) -> String {
    if l == 1 {
        "main".to_string()
    } else {
        format!("p{class}")
    }
}

impl<'a> Fit<'a> {
    /// The fit contexts of every fit valuation of `spec`, shared by every
    /// phase-length candidate.
    fn new(spec: &'a ExtractSpec) -> Result<Fit<'a>, String> {
        let mut ctxs = Vec::new();
        for val in &spec.fit {
            ctxs.push(build_ctx(spec, val)?);
        }
        let mut params: BTreeSet<String> = BTreeSet::new();
        for val in &spec.fit {
            for (p, _) in val.entries() {
                params.insert(p.clone());
            }
        }
        Ok(Fit { spec, ctxs, params: params.into_iter().collect() })
    }
}

fn fit_all(fit: &Fit<'_>, traces: &[Trace], l: u32, max_b: u32) -> (KernelSummary, Vec<String>) {
    let spec = fit.spec;
    let groups = collect_groups(spec, traces, l);
    let mut namer = Namer { n: 0 };
    let mut accesses = Vec::new();
    let mut frees = Vec::new();
    let mut notes = Vec::new();
    for ((space, mrank, class), data) in &groups {
        let (drafts, note) = fit_group(fit, space, data, &mut namer);
        if let Some(n) = note {
            notes.push(n);
        }
        for d in drafts {
            frees.extend(d.frees.clone());
            for idx in d.indices {
                accesses.push(Access {
                    space: space.to_space(),
                    mode: mode_from_rank(*mrank),
                    index: idx,
                    guard: d.guard.clone(),
                    phase: phase_name(l, *class),
                    imprecise: d.imprecise,
                });
            }
        }
    }
    // Declare any traced buffer or shared array the spec missed, so
    // boundscheck has a length for every access.
    let mut buffers = spec.buffers.clone();
    let mut shared = spec.shared.clone();
    for (space, _, _) in groups.keys() {
        match space {
            GSpace::Global(label) if !buffers.iter().any(|b| &b.name == label) => {
                let data = &groups[&(space.clone(), 0, 0)];
                buffers.push(BufferDecl { name: label.clone(), len: space_len(fit, space, data) });
            }
            GSpace::Shared(slot) if !shared.iter().any(|s| &s.slot == slot) => {
                let data = &groups[&(space.clone(), 0, 0)];
                shared.push(SharedDecl { slot: *slot, len: space_len(fit, space, data) });
            }
            _ => {}
        }
    }
    let barriers = if max_b > 0 {
        (0..l).map(|i| Barrier { guard: Pred::True, phase: phase_name(l, i) }).collect()
    } else {
        vec![]
    };
    (
        KernelSummary {
            kernel: spec.kernel.clone(),
            app: spec.app.clone(),
            version: spec.version.clone(),
            launch: spec.launch.clone(),
            flags: spec.flags,
            warp_ops: spec.warp_ops,
            domain: spec.domain.clone(),
            frees,
            buffers,
            shared,
            accesses,
            barriers,
            valuations: spec.fit.clone(),
        },
        notes,
    )
}

/// Extract a draft summary from fit traces (one per fit valuation).
///
/// Phase structure is chosen by trying every plausible barrier-cycle
/// length `L` (1 up to one past the deepest observed barrier count, capped)
/// and keeping the one whose draft produces the fewest check and replay
/// errors, breaking ties toward fewer opaque accesses, then toward the
/// smallest `L`. The returned summary's valuations are the fit valuations
/// followed by the validation valuations, so downstream `analyze --replay`
/// re-validates on grids the fitter never saw.
pub fn extract(spec: &ExtractSpec, traces: &[Trace]) -> Result<Extraction, String> {
    if traces.len() != spec.fit.len() {
        return Err(format!("got {} traces for {} fit valuations", traces.len(), spec.fit.len()));
    }
    if spec.fit.is_empty() {
        return Err("extraction needs at least one fit valuation".into());
    }
    let observed: usize =
        traces.iter().map(|t| t.events.iter().filter(|e| *e.kernel == *spec.kernel).count()).sum();
    if observed == 0 {
        return Err(format!("no trace events for kernel `{}`", spec.kernel));
    }
    let max_b = traces
        .iter()
        .flat_map(|t| t.barriers.iter())
        .filter(|b| *b.kernel == *spec.kernel)
        .map(|b| b.ordinal + 1)
        .max()
        .unwrap_or(0);
    let candidates: Vec<u32> =
        if max_b == 0 { vec![1] } else { (1..=(max_b + 1).min(6)).collect() };
    let fit = Fit::new(spec)?;
    let mut best: Option<(usize, usize, u32, KernelSummary, Vec<String>)> = None;
    for l in candidates {
        let (summary, notes) = fit_all(&fit, traces, l, max_b);
        let mut errors =
            analyze(&summary, 32).iter().filter(|f| f.severity == Severity::Error).count();
        for (v, t) in traces.iter().enumerate() {
            errors += validate_replay(&summary, &spec.fit[v], &t.events, &t.barriers)
                .iter()
                .filter(|f| f.severity == Severity::Error)
                .count();
        }
        let score = (errors, notes.len(), l);
        if best.as_ref().is_none_or(|(e, n, bl, _, _)| score < (*e, *n, *bl)) {
            best = Some((errors, notes.len(), l, summary, notes));
        }
    }
    let (_, _, l, mut summary, notes) = best.unwrap();
    summary.valuations = spec.fit.iter().chain(spec.validate.iter()).cloned().collect();
    Ok(Extraction { summary, imprecise: notes, phases: l as usize })
}

// ---------------------------------------------------------------------------
// Diffing extracted vs hand-written summaries.

/// How one `(space, mode)` bucket of the extracted summary compares to the
/// hand-written one, by predicted access sets under a shared valuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffClass {
    /// Identical predicted sets.
    Equal,
    /// The extracted set is a strict subset — a documented refinement.
    ExtractedMorePrecise,
    /// The extracted set is wider, but an opaque (imprecise) access in
    /// this bucket explains the widening.
    ExplainedByOpaque,
    /// Sets diverge with no opaque access to blame: a real finding.
    Unexplained,
}

#[derive(Debug, Clone)]
pub struct DiffEntry {
    pub space: String,
    pub mode: Mode,
    pub class: DiffClass,
    pub detail: String,
}

/// A predicted cell: block coordinates (zero for global memory) and index.
type Cell = (u32, u32, u32, i64);

/// Predicted cells per (space label, mode rank).
type Buckets = BTreeMap<(String, u8), BTreeSet<Cell>>;

fn bucketed(s: &KernelSummary, val: &Valuation) -> Result<Buckets, String> {
    let g = s.ground(val)?;
    let mut findings = Vec::new();
    let Some(pred) = predicted_set(&g, &mut findings) else {
        return Err(findings
            .first()
            .map(|f| f.message.clone())
            .unwrap_or_else(|| "prediction failed".into()));
    };
    // Bucket under integer space ids; name each bucket once.
    let mut by_id: HashMap<(u32, u8), Vec<Cell>> = HashMap::new();
    for &(space, block, index, mode) in pred.keys.keys() {
        by_id.entry((space, mode_rank(mode))).or_default().push((block.0, block.1, block.2, index));
    }
    let mut out = Buckets::new();
    for ((space, mode), cells) in by_id {
        let mut cells: BTreeSet<_> = cells.into_iter().collect();
        out.entry((pred.spaces.name(space), mode)).or_default().append(&mut cells);
    }
    Ok(out)
}

/// Compare the predicted access sets of an extracted summary against the
/// hand-written one under a valuation both can ground.
pub fn diff_summaries(
    extracted: &KernelSummary,
    hand: &KernelSummary,
    val: &Valuation,
) -> Result<Vec<DiffEntry>, String> {
    let e = bucketed(extracted, val)?;
    let h = bucketed(hand, val)?;
    let mut spaces: BTreeSet<(String, u8)> = BTreeSet::new();
    spaces.extend(e.keys().cloned());
    spaces.extend(h.keys().cloned());
    let empty = BTreeSet::new();
    let mut out = Vec::new();
    for key in spaces {
        let es = e.get(&key).unwrap_or(&empty);
        let hs = h.get(&key).unwrap_or(&empty);
        let mode = mode_from_rank(key.1);
        let opaque = extracted.accesses.iter().any(|a| {
            a.imprecise
                && a.mode == mode
                && match (&a.space, key.0.as_str()) {
                    (Space::Global(l), s) => l == s,
                    (Space::Shared(slot), s) => s == format!("shared[{slot}]"),
                }
        });
        let class = if es == hs {
            DiffClass::Equal
        } else if es.is_subset(hs) {
            DiffClass::ExtractedMorePrecise
        } else if opaque {
            DiffClass::ExplainedByOpaque
        } else {
            DiffClass::Unexplained
        };
        out.push(DiffEntry {
            space: key.0,
            mode,
            class,
            detail: format!(
                "extracted predicts {} cells, hand-written {} (valuation `{}`)",
                es.len(),
                hs.len(),
                val.name
            ),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Rendering: Rust literal and human-readable description.

fn expr_rs(e: &Expr) -> String {
    match e {
        Expr::Const(k) => format!("c({k})"),
        Expr::Var(Var::TidX) => "tid_x()".into(),
        Expr::Var(Var::BidX) => "bid_x()".into(),
        Expr::Var(Var::Item) => "item()".into(),
        Expr::Var(Var::Param(p)) => format!("param(\"{p}\")"),
        Expr::Var(Var::Free(n)) => format!("free(\"{n}\")"),
        Expr::Var(other) => format!("v(Var::{other:?})"),
        Expr::Add(a, b) => {
            if let Expr::Mul(x, y) = &**b {
                if **x == Expr::Const(-1) {
                    return format!("({} - {})", expr_rs(a), expr_rs(y));
                }
            }
            format!("({} + {})", expr_rs(a), expr_rs(b))
        }
        Expr::Mul(a, b) => format!("({} * {})", expr_rs(a), expr_rs(b)),
        Expr::Div(a, b) => format!("div_e({}, {})", expr_rs(a), expr_rs(b)),
        Expr::Mod(a, b) => format!("mod_e({}, {})", expr_rs(a), expr_rs(b)),
        Expr::Min(a, b) => format!("min_e({}, {})", expr_rs(a), expr_rs(b)),
        Expr::Max(a, b) => format!("max_e({}, {})", expr_rs(a), expr_rs(b)),
    }
}

fn pred_rs(p: &Pred) -> String {
    match p {
        Pred::True => "Pred::True".into(),
        Pred::Lt(a, b) => format!("lt({}, {})", expr_rs(a), expr_rs(b)),
        Pred::Le(a, b) => format!("le({}, {})", expr_rs(a), expr_rs(b)),
        Pred::Eq(a, b) => format!("eq({}, {})", expr_rs(a), expr_rs(b)),
        Pred::And(a, b) => format!("and({}, {})", pred_rs(a), pred_rs(b)),
        Pred::Or(a, b) => {
            format!("Pred::Or(Box::new({}), Box::new({}))", pred_rs(a), pred_rs(b))
        }
        Pred::Not(a) => format!("Pred::Not(Box::new({}))", pred_rs(a)),
    }
}

/// Render the summary as a `hecbench::summaries`-style Rust literal,
/// ready to paste next to a hand-written one.
pub fn to_rust_literal(s: &KernelSummary) -> String {
    let mut out = String::new();
    let domain = match &s.domain {
        Domain::OnePerThread => "Domain::OnePerThread".to_string(),
        Domain::GridStride(e) => format!("Domain::GridStride({})", expr_rs(e)),
        Domain::BlockChunked(e) => format!("Domain::BlockChunked({})", expr_rs(e)),
    };
    out.push_str("KernelSummary {\n");
    out.push_str(&format!("    kernel: \"{}\".into(),\n", s.kernel));
    out.push_str(&format!("    app: \"{}\".into(),\n", s.app));
    out.push_str(&format!("    version: \"{}\".into(),\n", s.version));
    out.push_str(&format!(
        "    launch: LaunchShape {{ block: ({}, {}, {}), grid: [{}, {}, {}] }},\n",
        s.launch.block.0,
        s.launch.block.1,
        s.launch.block.2,
        expr_rs(&s.launch.grid[0]),
        expr_rs(&s.launch.grid[1]),
        expr_rs(&s.launch.grid[2]),
    ));
    out.push_str(&format!(
        "    flags: SummaryFlags {{ uses_block_sync: {}, uses_warp_ops: {} }},\n",
        s.flags.uses_block_sync, s.flags.uses_warp_ops
    ));
    out.push_str(&format!("    warp_ops: {},\n", s.warp_ops));
    out.push_str(&format!("    domain: {domain},\n"));
    out.push_str("    frees: vec![\n");
    for f in &s.frees {
        out.push_str(&format!(
            "        FreeDecl {{ name: \"{}\".into(), lo: {}, hi: {} }},\n",
            f.name,
            expr_rs(&f.lo),
            expr_rs(&f.hi)
        ));
    }
    out.push_str("    ],\n    buffers: vec![\n");
    for b in &s.buffers {
        out.push_str(&format!(
            "        BufferDecl {{ name: \"{}\".into(), len: {} }},\n",
            b.name,
            expr_rs(&b.len)
        ));
    }
    out.push_str("    ],\n    shared: vec![\n");
    for sh in &s.shared {
        out.push_str(&format!(
            "        SharedDecl {{ slot: {}, len: {} }},\n",
            sh.slot,
            expr_rs(&sh.len)
        ));
    }
    out.push_str("    ],\n    accesses: vec![\n");
    for a in &s.accesses {
        let space = match &a.space {
            Space::Global(l) => format!("Space::Global(\"{l}\".into())"),
            Space::Shared(slot) => format!("Space::Shared({slot})"),
        };
        out.push_str(&format!(
            "        Access {{ space: {space}, mode: Mode::{:?}, index: {}, guard: {}, \
             phase: \"{}\".into(), imprecise: {} }},\n",
            a.mode,
            expr_rs(&a.index),
            pred_rs(&a.guard),
            a.phase,
            a.imprecise
        ));
    }
    out.push_str("    ],\n    barriers: vec![\n");
    for b in &s.barriers {
        out.push_str(&format!(
            "        Barrier {{ guard: {}, phase: \"{}\".into() }},\n",
            pred_rs(&b.guard),
            b.phase
        ));
    }
    out.push_str("    ],\n    valuations: vec![\n");
    for v in &s.valuations {
        let vals = v
            .entries()
            .iter()
            .map(|(k, x)| format!("(\"{k}\", {x})"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("        Valuation::new(\"{}\", &[{vals}]),\n", v.name));
    }
    out.push_str("    ],\n}\n");
    out
}

/// Human-readable one-screen description of an extracted summary.
pub fn describe(s: &KernelSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} ({} / {}): block ({},{},{}), {} access(es), {} barrier phase entr{}\n",
        s.kernel,
        s.app,
        s.version,
        s.launch.block.0,
        s.launch.block.1,
        s.launch.block.2,
        s.accesses.len(),
        s.barriers.len(),
        if s.barriers.len() == 1 { "y" } else { "ies" },
    ));
    for a in &s.accesses {
        out.push_str(&format!(
            "  {} {} [{}]  guard: {}  phase: {}{}\n",
            a.space,
            a.mode.label(),
            a.index,
            a.guard,
            a.phase,
            if a.imprecise { "  (IMPRECISE: whole-buffer over-approximation)" } else { "" }
        ));
    }
    for f in &s.frees {
        out.push_str(&format!("  free ${} in [{}, {}]\n", f.name, f.lo, f.hi));
    }
    out.push_str(&format!(
        "  valuations: {}\n",
        s.valuations.iter().map(|v| v.name.as_str()).collect::<Vec<_>>().join(", ")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ceil_div;

    fn gev(
        kernel: &str,
        block: (u32, u32, u32),
        thread: (u32, u32, u32),
        label: &str,
        index: usize,
        kind: MemAccessKind,
        phase: u32,
    ) -> MemEvent {
        MemEvent {
            kernel: kernel.into(),
            launch: 0,
            block,
            thread,
            space: MemSpace::Global { alloc_id: 0, label: label.into() },
            index,
            kind,
            phase,
        }
    }

    fn sev(
        kernel: &str,
        block: (u32, u32, u32),
        thread: (u32, u32, u32),
        slot: usize,
        index: usize,
        kind: MemAccessKind,
        phase: u32,
    ) -> MemEvent {
        MemEvent {
            kernel: kernel.into(),
            launch: 0,
            block,
            thread,
            space: MemSpace::Shared { slot },
            index,
            kind,
            phase,
        }
    }

    /// `copy`-style kernel: block 4, grid ceil(n/4); thread `gid < n`
    /// writes `out[gid]`.
    fn copy_spec() -> ExtractSpec {
        ExtractSpec {
            kernel: "copy".into(),
            app: "toy".into(),
            version: "ompx".into(),
            launch: LaunchShape { block: (4, 1, 1), grid: [ceil_div(param("n"), 4), c(1), c(1)] },
            flags: SummaryFlags::default(),
            warp_ops: false,
            domain: Domain::OnePerThread,
            buffers: vec![BufferDecl { name: "out".into(), len: param("n") }],
            shared: vec![],
            fit: vec![Valuation::new("fit-a", &[("n", 6)]), Valuation::new("fit-b", &[("n", 11)])],
            validate: vec![Valuation::new("big", &[("n", 37)])],
        }
    }

    fn copy_trace(n: usize) -> Trace {
        let blocks = n.div_ceil(4);
        let mut events = Vec::new();
        for b in 0..blocks {
            for t in 0..4usize {
                let gid = b * 4 + t;
                if gid < n {
                    events.push(gev(
                        "copy",
                        (b as u32, 0, 0),
                        (t as u32, 0, 0),
                        "out",
                        gid,
                        MemAccessKind::Write,
                        0,
                    ));
                }
            }
        }
        Trace { events, barriers: vec![] }
    }

    #[test]
    fn extracts_guarded_item_write_and_replays_on_unseen_grid() {
        let spec = copy_spec();
        let ext = extract(&spec, &[copy_trace(6), copy_trace(11)]).unwrap();
        assert_eq!(ext.phases, 1);
        assert!(ext.imprecise.is_empty(), "{:?}", ext.imprecise);
        assert_eq!(ext.summary.accesses.len(), 1);
        let a = &ext.summary.accesses[0];
        assert_eq!(a.index, item());
        assert_eq!(a.guard, lt(item(), param("n")));
        assert!(!a.imprecise);
        // The summary carries fit + validation valuations.
        assert_eq!(ext.summary.valuations.len(), 3);
        // Replay-validate on a larger grid the fitter never saw.
        let big = copy_trace(37);
        let findings = validate_replay(&ext.summary, &spec.validate[0], &big.events, &big.barriers);
        assert!(findings.iter().all(|f| f.severity != Severity::Error), "{findings:?}");
    }

    #[test]
    fn extraction_is_deterministic() {
        let spec = copy_spec();
        let a = extract(&spec, &[copy_trace(6), copy_trace(11)]).unwrap();
        let b = extract(&spec, &[copy_trace(6), copy_trace(11)]).unwrap();
        assert_eq!(to_rust_literal(&a.summary), to_rust_literal(&b.summary));
        assert!(to_rust_literal(&a.summary).contains("Space::Global(\"out\".into())"));
    }

    /// Data-dependent gather: `tbl[(7·gid + 3) mod n]` has no affine fit,
    /// so extraction must degrade to an opaque whole-buffer access that
    /// analyze surfaces as `SummaryImprecise` — and replay must stay clean.
    #[test]
    fn non_affine_gather_degrades_to_imprecise() {
        let mut spec = copy_spec();
        spec.kernel = "gather".into();
        spec.buffers.push(BufferDecl { name: "tbl".into(), len: param("n") });
        let gather_trace = |n: usize| {
            let mut t = copy_trace(n);
            let mut events: Vec<MemEvent> = t
                .events
                .iter()
                .map(|e| {
                    let mut r = e.clone();
                    r.kernel = "gather".into();
                    r
                })
                .collect();
            for e in events.clone() {
                let mut r = e;
                r.space = MemSpace::Global { alloc_id: 1, label: "tbl".into() };
                r.index = (7 * r.index + 3) % n;
                r.kind = MemAccessKind::Read;
                events.push(r);
            }
            t.events = events;
            t
        };
        let ext = extract(&spec, &[gather_trace(6), gather_trace(11)]).unwrap();
        assert_eq!(ext.imprecise.len(), 1, "{:?}", ext.imprecise);
        assert!(ext.imprecise[0].contains("tbl"));
        let opaque: Vec<_> = ext.summary.accesses.iter().filter(|a| a.imprecise).collect();
        assert_eq!(opaque.len(), 1);
        assert_eq!(opaque[0].space, Space::Global("tbl".into()));
        // Opaque access => SummaryImprecise warnings, zero errors.
        let findings = analyze(&ext.summary, 32);
        assert!(findings.iter().all(|f| f.severity != Severity::Error), "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("SummaryImprecise")));
        // Whole-buffer coverage keeps replay clean on an unseen grid.
        let big = gather_trace(37);
        let findings = validate_replay(&ext.summary, &spec.validate[0], &big.events, &big.barriers);
        assert!(findings.iter().all(|f| f.severity != Severity::Error), "{findings:?}");
    }

    /// Two-phase shared staging: write `tile[t]`, barrier, read `tile[t]`
    /// and `tile[t+1]` (guarded). Phase-count selection must pick L = 2:
    /// merging the phases would make the cross-thread read race the write.
    #[test]
    fn infers_two_barrier_phases_for_staged_shared_kernel() {
        let spec = ExtractSpec {
            kernel: "stage".into(),
            app: "toy".into(),
            version: "ompx".into(),
            launch: LaunchShape { block: (4, 1, 1), grid: [c(1), c(1), c(1)] },
            flags: SummaryFlags { uses_block_sync: true, uses_warp_ops: false },
            warp_ops: false,
            domain: Domain::OnePerThread,
            buffers: vec![],
            shared: vec![SharedDecl { slot: 0, len: c(4) }],
            fit: vec![Valuation::new("fit-a", &[]), Valuation::new("fit-b", &[])],
            validate: vec![],
        };
        let stage_trace = || {
            let mut events = Vec::new();
            let mut barriers = Vec::new();
            for t in 0..4u32 {
                events.push(sev(
                    "stage",
                    (0, 0, 0),
                    (t, 0, 0),
                    0,
                    t as usize,
                    MemAccessKind::Write,
                    0,
                ));
                barriers.push(BarrierEvent {
                    kernel: "stage".into(),
                    launch: 0,
                    block: (0, 0, 0),
                    thread: (t, 0, 0),
                    ordinal: 0,
                });
                events.push(sev(
                    "stage",
                    (0, 0, 0),
                    (t, 0, 0),
                    0,
                    t as usize,
                    MemAccessKind::Read,
                    1,
                ));
                if t < 3 {
                    events.push(sev(
                        "stage",
                        (0, 0, 0),
                        (t, 0, 0),
                        0,
                        t as usize + 1,
                        MemAccessKind::Read,
                        1,
                    ));
                }
            }
            Trace { events, barriers }
        };
        let ext = extract(&spec, &[stage_trace(), stage_trace()]).unwrap();
        assert_eq!(ext.phases, 2, "{}", describe(&ext.summary));
        assert_eq!(ext.summary.barriers.len(), 2);
        assert!(ext.imprecise.is_empty(), "{:?}", ext.imprecise);
        let findings = analyze(&ext.summary, 32);
        assert!(findings.iter().all(|f| f.severity != Severity::Error), "{findings:?}");
        let t = stage_trace();
        let findings = validate_replay(&ext.summary, &spec.fit[0], &t.events, &t.barriers);
        assert!(findings.iter().all(|f| f.severity != Severity::Error), "{findings:?}");
    }

    /// Tiled progression: each thread reads `m[3·gid + k]`, k in 0..3.
    #[test]
    fn fits_strided_progressions() {
        let mut spec = copy_spec();
        spec.kernel = "pack".into();
        spec.buffers = vec![BufferDecl { name: "m".into(), len: c(3) * param("n") }];
        let pack_trace = |n: usize| {
            let blocks = n.div_ceil(4);
            let mut events = Vec::new();
            for b in 0..blocks {
                for t in 0..4usize {
                    let gid = b * 4 + t;
                    if gid < n {
                        for k in 0..3 {
                            events.push(gev(
                                "pack",
                                (b as u32, 0, 0),
                                (t as u32, 0, 0),
                                "m",
                                3 * gid + k,
                                MemAccessKind::Read,
                                0,
                            ));
                        }
                    }
                }
            }
            Trace { events, barriers: vec![] }
        };
        let ext = extract(&spec, &[pack_trace(6), pack_trace(11)]).unwrap();
        assert!(ext.imprecise.is_empty(), "{}", describe(&ext.summary));
        let big = pack_trace(37);
        let findings = validate_replay(&ext.summary, &spec.validate[0], &big.events, &big.barriers);
        assert!(findings.iter().all(|f| f.severity != Severity::Error), "{findings:?}");
    }
}
