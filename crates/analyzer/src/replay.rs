//! Replay validation: summaries are checked against reality, not trusted.
//!
//! A replay run executes the real kernel on the simulator with the
//! memory-trace hooks attached (`ompx_sim::memtrace`) on the small
//! concrete grid a valuation describes, then checks that every observed
//! access event is *predicted* by the summary: the predicted set is the
//! union, over all executing threads, their assigned items, and all
//! assignments of the mentioned free variables, of the guarded accesses'
//! `(space, index, mode)` triples. An unpredicted event means the summary
//! under-approximates the kernel — exactly the failure mode that would
//! make a "race-free" verdict worthless — and is reported as a
//! `summarycheck` error.
//!
//! The enumeration prunes loops an access cannot depend on (an access
//! whose index and guard never mention `tid`/`item` is evaluated for one
//! representative thread) and refuses to run past [`ENUM_CAP`]
//! combinations rather than silently sampling.

use crate::expr::Env;
use crate::summary::{Access, Ground, GroundDomain, KernelSummary, Mode, Space, Valuation};
use ompx_sanitizer::{Finding, Severity};
use ompx_sim::memtrace::{BarrierEvent, MemAccessKind, MemEvent, MemSpace};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Upper bound on (thread × item × free) combinations enumerated per
/// access. Hitting it is a finding, never a silent truncation.
const ENUM_CAP: u64 = 8_000_000;

/// How many unpredicted events are itemized before the rest collapse into
/// one count.
const MAX_REPORTED: usize = 5;

/// One predicted (or observed) access in canonical form: the space's id in
/// the summary's [`SpaceIds`], the block coordinates (shared memory is
/// per-block, so the block is part of a shared cell's identity; global
/// cells use `(0, 0, 0)`), the element index, and the mode.
pub(crate) type EvKey = (u32, (u32, u32, u32), i64, Mode);

/// A set of a summary's phases: bit `i` is [`Predicted::phases`]`[i]`.
pub(crate) type PhaseSet = u64;

/// The address spaces a grounded summary's accesses name, interned once
/// per [`Ground`] so that access keys are plain integers: the global
/// buffer labels in sorted order, then the shared slots in sorted order.
pub(crate) struct SpaceIds {
    globals: Vec<String>,
    shared: Vec<usize>,
}

impl SpaceIds {
    fn new(g: &Ground) -> SpaceIds {
        let mut globals = Vec::new();
        let mut shared = Vec::new();
        for a in &g.accesses {
            match &a.space {
                Space::Global(label) => globals.push(label.clone()),
                Space::Shared(slot) => shared.push(*slot),
            }
        }
        globals.sort_unstable();
        globals.dedup();
        shared.sort_unstable();
        shared.dedup();
        SpaceIds { globals, shared }
    }

    fn global(&self, label: &str) -> Option<u32> {
        self.globals.binary_search_by(|l| l.as_str().cmp(label)).ok().map(|i| i as u32)
    }

    fn shared(&self, slot: usize) -> Option<u32> {
        self.shared.binary_search(&slot).ok().map(|i| (self.globals.len() + i) as u32)
    }

    /// The id of a space the summary names.
    fn of(&self, space: &Space) -> u32 {
        let id = match space {
            Space::Global(label) => self.global(label),
            Space::Shared(slot) => self.shared(*slot),
        };
        id.expect("every access space is interned")
    }

    /// The space's name in reports: the buffer label, or `shared[slot]`.
    pub(crate) fn name(&self, id: u32) -> String {
        let id = id as usize;
        match self.globals.get(id) {
            Some(label) => label.clone(),
            None => format!("shared[{}]", self.shared[id - self.globals.len()]),
        }
    }
}

/// Per-allocation memo of what a trace's global label resolves to, so
/// each allocation's label is looked up once. An entry is reused only for
/// the same label — in a recorded trace, the same shared string — so
/// hand-built events that reuse an allocation id stay correct.
pub(crate) struct AllocMemo<T> {
    map: HashMap<usize, (Arc<str>, T)>,
}

impl<T: Copy> AllocMemo<T> {
    pub(crate) fn new() -> Self {
        AllocMemo { map: HashMap::new() }
    }

    /// What allocation `alloc_id` labeled `label` resolves to.
    pub(crate) fn get(
        &mut self,
        alloc_id: usize,
        label: &Arc<str>,
        resolve: impl FnOnce(&str) -> T,
    ) -> T {
        match self.map.get(&alloc_id) {
            Some((l, v)) if Arc::ptr_eq(l, label) || l == label => *v,
            _ => {
                let v = resolve(label);
                self.map.insert(alloc_id, (Arc::clone(label), v));
                v
            }
        }
    }
}

/// A grounded summary's predicted access set: every predicted key with the
/// phases that predict it.
pub(crate) struct Predicted {
    pub(crate) spaces: SpaceIds,
    /// The summary's phase names (of accesses and barriers), sorted.
    phases: Vec<String>,
    pub(crate) keys: HashMap<EvKey, PhaseSet>,
}

impl Predicted {
    /// The predicting phases of each of `events` in order; `0` for an
    /// event of another kernel or one the summary does not predict. Each
    /// allocation's label is looked up once.
    fn phases_of(&self, kernel: &str, events: &[MemEvent]) -> Vec<PhaseSet> {
        let mut allocs = AllocMemo::new();
        let spaces = &self.spaces;
        events
            .iter()
            .map(|e| {
                if *e.kernel != *kernel {
                    return 0;
                }
                let (space, block) = match &e.space {
                    MemSpace::Global { alloc_id, label } => {
                        (allocs.get(*alloc_id, label, |l| spaces.global(l)), (0, 0, 0))
                    }
                    MemSpace::Shared { slot } => (spaces.shared(*slot), e.block),
                };
                let Some(space) = space else { return 0 };
                let key = (space, block, e.index as i64, kind_of(e.kind));
                self.keys.get(&key).copied().unwrap_or(0)
            })
            .collect()
    }

    /// Phase names of `set`, in sorted order.
    fn names(&self, set: PhaseSet) -> Vec<&str> {
        (0..self.phases.len())
            .filter(|&i| set >> i & 1 == 1)
            .map(|i| self.phases[i].as_str())
            .collect()
    }
}

fn kind_of(k: MemAccessKind) -> Mode {
    match k {
        MemAccessKind::Read => Mode::Read,
        MemAccessKind::Write => Mode::Write,
        MemAccessKind::Atomic => Mode::Atomic,
    }
}

/// Validate observed trace events against a summary under one valuation:
/// access-set coverage only (see [`validate_replay`] for the full check
/// including barrier ordering).
pub fn validate_events(
    summary: &KernelSummary,
    val: &Valuation,
    events: &[MemEvent],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let g = match summary.ground(val) {
        Ok(g) => g,
        Err(e) => {
            out.push(mismatch(&summary.kernel, "valuation", e));
            return out;
        }
    };
    validate_coverage(&g, events, &mut out);
    out
}

/// Validate a full replay trace — access-set coverage *and* barrier
/// ordering — against a summary under one valuation.
///
/// The ordering check reconstructs, per (launch, block, thread), the
/// barrier-delimited segments the thread executed (from each event's
/// barrier counter) and requires the segment sequence to walk the
/// summary's barrier list in order: there must be a start offset `s` such
/// that the segment ended by the thread's `c`-th barrier only contains
/// accesses of the phase `barriers[(s + c) mod L]` delimits. Coverage
/// alone cannot see a kernel that reads before the barrier and writes
/// after while the summary claims the reverse; this check can.
pub fn validate_replay(
    summary: &KernelSummary,
    val: &Valuation,
    events: &[MemEvent],
    barriers: &[BarrierEvent],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let g = match summary.ground(val) {
        Ok(g) => g,
        Err(e) => {
            out.push(mismatch(&summary.kernel, "valuation", e));
            return out;
        }
    };
    if let Some((predicted, cands)) = validate_coverage(&g, events, &mut out) {
        validate_barrier_order(&g, events, barriers, &predicted, &cands, &mut out);
    }
    out
}

/// Shared coverage pass: every observed event must be in the predicted
/// set. Returns the prediction and each event's predicting phases (see
/// [`Predicted::phases_of`]) for the ordering pass.
fn validate_coverage(
    g: &Ground,
    events: &[MemEvent],
    out: &mut Vec<Finding>,
) -> Option<(Predicted, Vec<PhaseSet>)> {
    let predicted = predicted_set(g, out)?;
    let cands = predicted.phases_of(&g.kernel, events);
    let mut unpredicted = Vec::new();
    let mut observed = 0usize;
    for (e, &cand) in events.iter().zip(&cands) {
        if *e.kernel != *g.kernel {
            continue;
        }
        observed += 1;
        if cand == 0 {
            unpredicted.push(e);
        }
    }
    if observed == 0 && !g.accesses.is_empty() {
        out.push(Finding {
            tool: "summarycheck".into(),
            kernel: g.kernel.clone(),
            location: format!("valuation `{}`", g.valuation),
            severity: Severity::Warning,
            message: "replay observed no events for this kernel; trace not attached or \
                      kernel name mismatch"
                .into(),
        });
        return Some((predicted, cands));
    }
    for e in unpredicted.iter().take(MAX_REPORTED) {
        let (what, idx) = match &e.space {
            MemSpace::Global { label, .. } => (label.to_string(), e.index),
            MemSpace::Shared { slot } => (format!("shared[{slot}]"), e.index),
        };
        out.push(mismatch(
            &g.kernel,
            format!(
                "block ({},{},{}) thread ({},{},{}) {} {what}[{idx}]",
                e.block.0,
                e.block.1,
                e.block.2,
                e.thread.0,
                e.thread.1,
                e.thread.2,
                kind_of(e.kind).label(),
            ),
            format!(
                "observed access is not predicted by the summary under valuation `{}`",
                g.valuation
            ),
        ));
    }
    if unpredicted.len() > MAX_REPORTED {
        out.push(mismatch(
            &g.kernel,
            format!("valuation `{}`", g.valuation),
            format!(
                "{} further unpredicted events suppressed (of {} observed)",
                unpredicted.len() - MAX_REPORTED,
                observed
            ),
        ));
    }
    Some((predicted, cands))
}

/// Barrier-ordering pass (see [`validate_replay`]) over `events` and their
/// predicting phases `cands`.
fn validate_barrier_order(
    g: &Ground,
    events: &[MemEvent],
    barriers: &[BarrierEvent],
    predicted: &Predicted,
    cands: &[PhaseSet],
    out: &mut Vec<Finding>,
) {
    // The summary's barrier list, filtered to barriers whose guard holds.
    // Barrier guards must be thread-uniform (check_barriers errors
    // otherwise); evaluate with a representative thread. A guard that
    // cannot be evaluated (free variables) disables the ordering check —
    // check_barriers already reports it.
    let bdim = (i64::from(g.block.0), i64::from(g.block.1), i64::from(g.block.2));
    let gdim = (i64::from(g.grid.0), i64::from(g.grid.1), i64::from(g.grid.2));
    let env = Env { tid: (0, 0, 0), bid: (0, 0, 0), bdim, gdim, item: 0, frees: &[] };
    let mut blist: Vec<&str> = Vec::new();
    for b in &g.barriers {
        match b.guard.eval(&env) {
            Some(true) => blist.push(&b.phase),
            Some(false) => {}
            None => return,
        }
    }
    type ThreadKey = (u64, (u32, u32, u32), (u32, u32, u32));
    // Observed barrier count per (launch, block, thread).
    let mut bcount: BTreeMap<ThreadKey, u32> = BTreeMap::new();
    for b in barriers {
        if *b.kernel != *g.kernel {
            continue;
        }
        let c = bcount.entry((b.launch, b.block, b.thread)).or_insert(0);
        *c = (*c).max(b.ordinal + 1);
    }
    if blist.is_empty() {
        if let Some(((launch, block, thread), n)) = bcount.iter().next() {
            out.push(mismatch(
                &g.kernel,
                format!(
                    "launch {launch} block ({},{},{}) thread ({},{},{})",
                    block.0, block.1, block.2, thread.0, thread.1, thread.2
                ),
                format!(
                    "barrier ordering mismatch: thread executed {n} barrier(s) but the \
                     summary declares none (valuation `{}`)",
                    g.valuation
                ),
            ));
        }
        return;
    }
    // Each listed barrier's phase as a one-bit set (barrier phases are in
    // the summary's phase list by construction).
    let bbits: Vec<PhaseSet> = blist
        .iter()
        .map(|p| predicted.phases.binary_search_by(|q| q.as_str().cmp(p)).map_or(0, |i| 1 << i))
        .collect();
    // Candidate phases per (thread, segment): the intersection of the
    // phases predicting each event in the segment. A lane's events are
    // contiguous in the trace, so each run of one segment is intersected
    // before it reaches the map.
    let mut segs: BTreeMap<(ThreadKey, u32), PhaseSet> = BTreeMap::new();
    let mut run: Option<((ThreadKey, u32), PhaseSet)> = None;
    for (e, &cand) in events.iter().zip(cands) {
        if cand == 0 {
            continue; // another kernel's event, or unpredicted
        }
        let key = ((e.launch, e.block, e.thread), e.phase);
        match &mut run {
            Some((k, cur)) if *k == key => *cur &= cand,
            _ => {
                if let Some((k, set)) = run.replace((key, cand)) {
                    segs.entry(k).and_modify(|cur| *cur &= set).or_insert(set);
                }
            }
        }
    }
    if let Some((k, set)) = run {
        segs.entry(k).and_modify(|cur| *cur &= set).or_insert(set);
    }
    let l = blist.len() as u32;
    let listed = |seg: u32, s: u32| bbits[((s + seg) % l) as usize];
    let mut reported = BTreeSet::new();
    for (&(tkey, seg), &cand) in &segs {
        let total = bcount.get(&tkey).copied().unwrap_or(0);
        if seg >= total {
            // Trailing segment: not ended by a barrier, so the barrier
            // list does not constrain it.
            continue;
        }
        if cand == 0 {
            let msg = format!(
                "barrier ordering mismatch: accesses in one barrier-delimited segment \
                 are predicted by no single phase (valuation `{}`)",
                g.valuation
            );
            if reported.insert(msg.clone()) && reported.len() <= MAX_REPORTED {
                out.push(mismatch(&g.kernel, format!("segment {seg}"), msg));
            }
            continue;
        }
        // The segment ended by barrier `seg` must match position
        // (s + seg) mod L of the barrier list for a start offset `s`
        // consistent with the thread's other segments. Per-segment the
        // requirement is: some list position's phase is a candidate.
        let fits = (0..l).any(|s| cand & listed(seg, s) != 0);
        if !fits {
            let ph = predicted.names(cand);
            let msg = format!(
                "barrier ordering mismatch: the segment ended by barrier {seg} executed \
                 phase(s) [{}], but the summary's barrier list [{}] delimits none of \
                 them at that position (valuation `{}`)",
                ph.join(", "),
                blist.join(", "),
                g.valuation
            );
            if reported.insert(msg.clone()) && reported.len() <= MAX_REPORTED {
                out.push(mismatch(&g.kernel, format!("segment {seg}"), msg));
            }
        }
    }
    // Cross-segment consistency: within one thread the start offset must
    // be the same for every segment.
    let mut by_thread: BTreeMap<ThreadKey, Vec<(u32, PhaseSet)>> = BTreeMap::new();
    for (&(tkey, seg), &cand) in &segs {
        let total = bcount.get(&tkey).copied().unwrap_or(0);
        if seg < total && cand != 0 {
            by_thread.entry(tkey).or_default().push((seg, cand));
        }
    }
    for (tkey, list) in &by_thread {
        let ok = (0..l).any(|s| list.iter().all(|&(seg, cand)| cand & listed(seg, s) != 0));
        if !ok {
            let (launch, block, thread) = tkey;
            let msg = format!(
                "barrier ordering mismatch: launch {launch} block ({},{},{}) thread \
                 ({},{},{}) interleaves phases in an order inconsistent with the \
                 summary's barrier list [{}] (valuation `{}`)",
                block.0,
                block.1,
                block.2,
                thread.0,
                thread.1,
                thread.2,
                blist.join(", "),
                g.valuation
            );
            if reported.insert(msg.clone()) && reported.len() <= MAX_REPORTED {
                out.push(mismatch(&g.kernel, "barrier order", msg));
            }
        }
    }
}

fn mismatch(kernel: &str, location: impl Into<String>, message: String) -> Finding {
    Finding {
        tool: "summarycheck".into(),
        kernel: kernel.to_string(),
        location: location.into(),
        severity: Severity::Error,
        message,
    }
}

/// The items one thread executes under the grounded domain.
pub(crate) fn items_for(g: &Ground, rank: i64, is_master: bool) -> Vec<i64> {
    match g.domain {
        GroundDomain::OnePerThread => vec![rank],
        GroundDomain::GridStride { n } => {
            let total = g.block_size() * g.grid_size();
            let mut items = Vec::new();
            let mut i = rank;
            while i < n {
                items.push(i);
                i += total;
            }
            items
        }
        GroundDomain::BlockChunked { n, chunk } => {
            if !is_master {
                return Vec::new();
            }
            let block_rank = rank / g.block_size();
            let lo = block_rank * chunk;
            let hi = n.min(lo + chunk);
            (lo..hi).collect()
        }
    }
}

/// Build the predicted `(space, index, mode)` set for every access under
/// every (thread, item, free-assignment) combination that passes its
/// guard, mapping each predicted key to the phases that predict it.
/// Returns `None` (with findings) if the enumeration cannot run, or if the
/// summary has more phases than a [`PhaseSet`] holds.
pub(crate) fn predicted_set(g: &Ground, out: &mut Vec<Finding>) -> Option<Predicted> {
    use crate::expr::Var;
    let spaces = SpaceIds::new(g);
    let mut phases: Vec<String> = g.accesses.iter().map(|a| a.phase.clone()).collect();
    phases.extend(g.barriers.iter().map(|b| b.phase.clone()));
    phases.sort_unstable();
    phases.dedup();
    if phases.len() > PhaseSet::BITS as usize {
        out.push(mismatch(
            &g.kernel,
            format!("valuation `{}`", g.valuation),
            format!(
                "summary has {} phases; replay tracks at most {}",
                phases.len(),
                PhaseSet::BITS
            ),
        ));
        return None;
    }
    let mut predicted = HashMap::new();
    let bdim = (i64::from(g.block.0), i64::from(g.block.1), i64::from(g.block.2));
    let gdim = (i64::from(g.grid.0), i64::from(g.grid.1), i64::from(g.grid.2));
    for a in &g.accesses {
        let mut vars = BTreeSet::new();
        a.index.vars(&mut vars);
        a.guard.vars(&mut vars);
        let needs_threads =
            vars.iter().any(|v| matches!(v, Var::TidX | Var::TidY | Var::TidZ | Var::Item))
                || matches!(g.domain, GroundDomain::BlockChunked { .. });
        let needs_blocks = needs_threads
            || vars.iter().any(|v| matches!(v, Var::BidX | Var::BidY | Var::BidZ))
            || matches!(a.space, Space::Shared(_));
        let frees: Vec<(String, i64, i64)> = g
            .frees
            .iter()
            .filter(|(n, _, _)| vars.contains(&Var::Free(n.clone())))
            .cloned()
            .collect();
        // Cost estimate before enumerating.
        let free_combos: u64 = frees
            .iter()
            .map(|(_, lo, hi)| u64::try_from((hi - lo + 1).max(0)).unwrap_or(u64::MAX))
            .product();
        let nthreads = if needs_threads { g.block_size().max(1) as u64 } else { 1 };
        let nblocks = if needs_blocks { g.grid_size().max(1) as u64 } else { 1 };
        let per_item: u64 = match g.domain {
            GroundDomain::OnePerThread => 1,
            GroundDomain::GridStride { n } | GroundDomain::BlockChunked { n, .. } => {
                let total = (g.block_size() * g.grid_size()).max(1) as u64;
                (n.max(0) as u64).div_ceil(total).max(1)
            }
        };
        let cost = nblocks
            .saturating_mul(nthreads)
            .saturating_mul(per_item)
            .saturating_mul(free_combos.max(1));
        if cost > ENUM_CAP {
            out.push(mismatch(
                &g.kernel,
                access_desc(a),
                format!(
                    "replay enumeration needs ~{cost} combinations (cap {ENUM_CAP}); \
                     use a smaller valuation"
                ),
            ));
            return None;
        }
        let space = spaces.of(&a.space);
        let phase: PhaseSet = 1 << phases.binary_search(&a.phase).expect("access phase is listed");
        let mut eval_failure = false;
        for bz in 0..gdim.2.max(1) {
            for by in 0..gdim.1.max(1) {
                for bx in 0..gdim.0.max(1) {
                    if !needs_blocks && (bx, by, bz) != (0, 0, 0) {
                        continue;
                    }
                    for tz in 0..bdim.2 {
                        for ty in 0..bdim.1 {
                            for tx in 0..bdim.0 {
                                if !needs_threads && (tx, ty, tz) != (0, 0, 0) {
                                    continue;
                                }
                                let block_rank = (bz * gdim.1 + by) * gdim.0 + bx;
                                let thread_rank = (tz * bdim.1 + ty) * bdim.0 + tx;
                                let rank = block_rank * g.block_size() + thread_rank;
                                let is_master = thread_rank == 0;
                                let items = if vars.contains(&Var::Item)
                                    || matches!(g.domain, GroundDomain::BlockChunked { .. })
                                {
                                    items_for(g, rank, is_master)
                                } else {
                                    vec![0]
                                };
                                for item in items {
                                    predict_one(
                                        a,
                                        (space, phase),
                                        &frees,
                                        Env {
                                            tid: (tx, ty, tz),
                                            bid: (bx, by, bz),
                                            bdim,
                                            gdim,
                                            item,
                                            frees: &[],
                                        },
                                        (bx as u32, by as u32, bz as u32),
                                        needs_blocks,
                                        &mut predicted,
                                        &mut eval_failure,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        if eval_failure {
            out.push(mismatch(
                &g.kernel,
                access_desc(a),
                "summary expression failed to evaluate (division by zero?) during replay \
                 enumeration"
                    .into(),
            ));
            return None;
        }
    }
    Some(Predicted { spaces, phases, keys: predicted })
}

/// Enumerate the access's free-variable assignments for one (thread, item)
/// and insert the passing combinations under the access's interned `space`
/// id and `phase` bit.
#[allow(clippy::too_many_arguments)]
fn predict_one(
    a: &Access,
    (space, phase): (u32, PhaseSet),
    frees: &[(String, i64, i64)],
    env: Env<'_>,
    block: (u32, u32, u32),
    per_block: bool,
    predicted: &mut HashMap<EvKey, PhaseSet>,
    eval_failure: &mut bool,
) {
    if frees.iter().any(|(_, lo, hi)| hi < lo) {
        return; // an empty free range means zero assignments exist
    }
    let mut assignment: Vec<(String, i64)> =
        frees.iter().map(|(n, lo, _)| (n.clone(), *lo)).collect();
    loop {
        let env = Env { frees: &assignment, ..env.clone() };
        match a.guard.eval(&env) {
            Some(true) => match a.index.eval(&env) {
                Some(idx) => {
                    let idx = idx.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
                    let block = match &a.space {
                        Space::Global(_) => (0, 0, 0),
                        Space::Shared(_) => {
                            // Without block enumeration the prediction is
                            // block-independent; replicate across blocks.
                            debug_assert!(per_block);
                            block
                        }
                    };
                    *predicted.entry((space, block, idx, a.mode)).or_insert(0) |= phase;
                }
                None => *eval_failure = true,
            },
            Some(false) => {}
            None => *eval_failure = true,
        }
        // Odometer over the free ranges.
        let mut pos = 0;
        loop {
            if pos == assignment.len() {
                return;
            }
            let (_, lo, hi) = &frees[pos];
            if assignment[pos].1 < *hi {
                assignment[pos].1 += 1;
                break;
            }
            assignment[pos].1 = *lo;
            pos += 1;
        }
    }
}

fn access_desc(a: &Access) -> String {
    format!("{} {}[{}]", a.mode.label(), a.space, a.index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::*;
    use crate::summary::*;

    fn toy(n: i64) -> KernelSummary {
        KernelSummary {
            kernel: "copy".into(),
            app: "toy".into(),
            version: "ompx".into(),
            launch: LaunchShape { block: (4, 1, 1), grid: [ceil_div(param("n"), 4), c(1), c(1)] },
            flags: SummaryFlags::default(),
            warp_ops: false,
            domain: Domain::OnePerThread,
            frees: vec![],
            buffers: vec![
                BufferDecl { name: "a".into(), len: param("n") },
                BufferDecl { name: "b".into(), len: param("n") },
            ],
            shared: vec![],
            accesses: vec![
                Access {
                    space: Space::Global("a".into()),
                    mode: Mode::Read,
                    index: item(),
                    guard: lt(item(), param("n")),
                    imprecise: false,
                    phase: "main".into(),
                },
                Access {
                    space: Space::Global("b".into()),
                    mode: Mode::Write,
                    index: item(),
                    guard: lt(item(), param("n")),
                    imprecise: false,
                    phase: "main".into(),
                },
            ],
            barriers: vec![],
            valuations: vec![Valuation::new("test", &[("n", n)])],
        }
    }

    fn ev(label: &str, index: usize, kind: MemAccessKind) -> MemEvent {
        MemEvent {
            kernel: "copy".into(),
            launch: 0,
            block: (0, 0, 0),
            thread: (index as u32 % 4, 0, 0),
            space: MemSpace::Global { alloc_id: 0, label: label.into() },
            index,
            kind,
            phase: 0,
        }
    }

    #[test]
    fn predicted_events_validate_cleanly() {
        let s = toy(7);
        let events: Vec<MemEvent> = (0..7)
            .flat_map(|i| [ev("a", i, MemAccessKind::Read), ev("b", i, MemAccessKind::Write)])
            .collect();
        let f = validate_events(&s, &s.valuations[0], &events);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unpredicted_event_is_reported() {
        let s = toy(7);
        // A write to `a` is not in the summary (only reads are).
        let f = validate_events(&s, &s.valuations[0], &[ev("a", 0, MemAccessKind::Write)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].tool, "summarycheck");
        assert!(f[0].message.contains("not predicted"), "{}", f[0].message);
    }

    #[test]
    fn more_phases_than_a_phase_set_holds_is_a_finding() {
        let mut s = toy(7);
        let read = s.accesses[0].clone();
        s.accesses = (0..65).map(|i| Access { phase: format!("p{i}"), ..read.clone() }).collect();
        let f = validate_events(&s, &s.valuations[0], &[ev("a", 0, MemAccessKind::Read)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("65 phases"), "{}", f[0].message);
        // 64 phases still fit.
        s.accesses.pop();
        let f = validate_events(&s, &s.valuations[0], &[ev("a", 0, MemAccessKind::Read)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_range_index_is_unpredicted() {
        let s = toy(7);
        let f = validate_events(&s, &s.valuations[0], &[ev("b", 7, MemAccessKind::Write)]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn foreign_kernel_events_are_ignored() {
        let s = toy(7);
        let mut e = ev("b", 100, MemAccessKind::Write);
        e.kernel = "other".into();
        // Only foreign events: triggers the "no events observed" warning.
        let f = validate_events(&s, &s.valuations[0], &[e]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn shared_predictions_are_per_block() {
        let mut s = toy(8);
        s.shared = vec![SharedDecl { slot: 0, len: c(4) }];
        s.accesses = vec![Access {
            space: Space::Shared(0),
            mode: Mode::Write,
            index: tid_x(),
            guard: Pred::True,
            phase: "main".into(),
            imprecise: false,
        }];
        let mk = |block: u32, index: usize| MemEvent {
            kernel: "copy".into(),
            launch: 0,
            block: (block, 0, 0),
            thread: (index as u32, 0, 0),
            space: MemSpace::Shared { slot: 0 },
            index,
            kind: MemAccessKind::Write,
            phase: 0,
        };
        // Both blocks of the 2-block grid are predicted.
        let f = validate_events(&s, &s.valuations[0], &[mk(0, 3), mk(1, 0)]);
        assert!(f.is_empty(), "{f:?}");
        // A block beyond the grid is not.
        let f = validate_events(&s, &s.valuations[0], &[mk(2, 0)]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn grid_stride_items_cover_the_tail() {
        let mut s = toy(11);
        s.domain = Domain::GridStride(param("n"));
        s.launch.grid = [c(1), c(1), c(1)]; // 4 threads, 11 items
        let events: Vec<MemEvent> = (0..11).map(|i| ev("b", i, MemAccessKind::Write)).collect();
        let f = validate_events(&s, &s.valuations[0], &events);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_chunked_items_stay_in_their_chunk() {
        let mut s = toy(10);
        s.domain = Domain::BlockChunked(param("n"));
        s.launch = LaunchShape { block: (1, 1, 1), grid: [c(3), c(1), c(1)] };
        // chunk = ceil(10/3) = 4: block 0 -> 0..4, block 1 -> 4..8, block 2 -> 8..10.
        let mk = |block: u32, index: usize| MemEvent {
            kernel: "copy".into(),
            launch: 0,
            block: (block, 0, 0),
            thread: (0, 0, 0),
            space: MemSpace::Global { alloc_id: 0, label: "b".into() },
            index,
            kind: MemAccessKind::Write,
            phase: 0,
        };
        let f = validate_events(&s, &s.valuations[0], &[mk(0, 3), mk(1, 7), mk(2, 9)]);
        assert!(f.is_empty(), "{f:?}");
    }

    /// A two-phase summary: write shared before the barrier ("load"),
    /// read it after ("compute").
    fn two_phase() -> KernelSummary {
        let mut s = toy(4);
        s.launch.grid = [c(1), c(1), c(1)];
        s.shared = vec![SharedDecl { slot: 0, len: c(4) }];
        s.frees = vec![FreeDecl { name: "s".into(), lo: c(0), hi: c(3) }];
        s.accesses = vec![
            Access {
                space: Space::Shared(0),
                mode: Mode::Write,
                index: tid_x(),
                guard: Pred::True,
                phase: "load".into(),
                imprecise: false,
            },
            Access {
                space: Space::Shared(0),
                mode: Mode::Read,
                index: free("s"),
                guard: Pred::True,
                phase: "compute".into(),
                imprecise: false,
            },
        ];
        s.barriers = vec![Barrier { guard: Pred::True, phase: "load".into() }];
        s
    }

    fn sev(index: usize, kind: MemAccessKind, phase: u32) -> MemEvent {
        MemEvent {
            kernel: "copy".into(),
            launch: 0,
            block: (0, 0, 0),
            thread: (index as u32 % 4, 0, 0),
            space: MemSpace::Shared { slot: 0 },
            index,
            kind,
            phase,
        }
    }

    fn bev(thread: u32, ordinal: u32) -> BarrierEvent {
        BarrierEvent {
            kernel: "copy".into(),
            launch: 0,
            block: (0, 0, 0),
            thread: (thread, 0, 0),
            ordinal,
        }
    }

    #[test]
    fn correct_barrier_order_validates_cleanly() {
        let s = two_phase();
        let mut events = Vec::new();
        let mut barriers = Vec::new();
        for t in 0..4usize {
            events.push(sev(t, MemAccessKind::Write, 0));
            barriers.push(bev(t as u32, 0));
            events.push(sev((t + 1) % 4, MemAccessKind::Read, 1));
        }
        let f = validate_replay(&s, &s.valuations[0], &events, &barriers);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn swapped_phase_order_fails_with_distinct_diagnostic() {
        // Same coverage — every key is predicted — but the kernel read the
        // tile *before* the barrier and wrote it after.
        let s = two_phase();
        let mut events = Vec::new();
        let mut barriers = Vec::new();
        for t in 0..4usize {
            events.push(sev((t + 1) % 4, MemAccessKind::Read, 0));
            barriers.push(bev(t as u32, 0));
            events.push(sev(t, MemAccessKind::Write, 1));
        }
        // Coverage alone stays clean…
        let cov = validate_events(&s, &s.valuations[0], &events);
        assert!(cov.is_empty(), "{cov:?}");
        // …but the ordering check fires with its own diagnostic.
        let f = validate_replay(&s, &s.valuations[0], &events, &barriers);
        assert!(!f.is_empty());
        assert!(f.iter().any(|x| x.message.contains("barrier ordering mismatch")), "{f:?}");
        assert!(f.iter().all(|x| x.severity == Severity::Error));
    }

    #[test]
    fn undeclared_barriers_are_reported() {
        let mut s = two_phase();
        s.barriers.clear();
        s.accesses[1].phase = "load".into(); // single phase, no barriers
        let events: Vec<MemEvent> = (0..4).map(|t| sev(t, MemAccessKind::Write, 0)).collect();
        let barriers: Vec<BarrierEvent> = (0..4).map(|t| bev(t, 0)).collect();
        let f = validate_replay(&s, &s.valuations[0], &events, &barriers);
        assert!(f.iter().any(|x| x.message.contains("summary declares none")), "{f:?}");
    }
}
