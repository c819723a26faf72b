//! Live rescheduling policies.
//!
//! At every control-period boundary the scenario engine hands the policy a
//! [`PolicyCtx`] snapshot (current — possibly drifted — platform, observed
//! vs. allocated throughput, whether the platform changed) and the policy
//! answers with a fresh [`Allocation`] or `None` to keep the current one:
//!
//! * [`PeriodicResolve`] — the paper's §1 (iii) story: the steady-state
//!   schedule is cheap to recompute, so just re-solve every epoch. With
//!   [`Resolver::warm`] the LP relaxation behind LPRG is *warm-started*: one
//!   persistent [`WarmSimplex`] is patched with the platform deltas (speed,
//!   local-link, backbone-bandwidth, connection-cap changes are pure
//!   rhs/coefficient/bound patches — the §2 topology fixes the LP layout)
//!   and re-solved in a handful of dual pivots instead of from scratch.
//! * [`ThresholdTriggered`] — re-solve only when the observed throughput
//!   degrades past a bound relative to what the current allocation promises.
//! * [`StaleScale`] — the paper's stale baseline: keep the epoch-0
//!   allocation and uniformly shrink it with
//!   [`dls_core::adaptive::scale_to_fit`] whenever drift makes it
//!   infeasible.

use crate::report::RecoveryRecord;
use dls_core::adaptive::scale_to_fit;
use dls_core::formulation::{stage2_floor, LpFormulation, LpIndex};
use dls_core::heuristics::{Heuristic, Lprg};
use dls_core::{Allocation, ProblemInstance, SolveError};
use dls_lp::{Basis, ConstraintId, RevisedSimplex, Status, VarId, WarmSimplex};
use dls_platform::ClusterId;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// What the engine knows at a period boundary.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCtx<'a> {
    /// The instance on the *current* (drifted) platform.
    pub inst: &'a ProblemInstance,
    /// Period index (0 = scenario start).
    pub epoch: usize,
    /// `true` iff a platform event fired since the last decision.
    pub platform_changed: bool,
    /// Work completed during the last period, per time unit.
    pub achieved: f64,
    /// Total throughput the current allocation budgets per time unit.
    pub allocated: f64,
    /// `true` iff unshipped work is waiting (throughput comparisons are
    /// only meaningful under backlog).
    pub backlogged: bool,
    /// The currently installed allocation, if any.
    pub current: Option<&'a Allocation>,
}

/// How aggressively a policy should repair its solver state after a
/// failure (the escalation axis the `RecoveryLadder` walks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryLevel {
    /// Discard accumulated factorisation state and refactorise in place:
    /// cheap, clears the numerical drift behind most warm-solve
    /// breakdowns.
    Refactor,
    /// Rebuild the solver context from scratch on the current instance —
    /// the cold rung, forgetting every warm-start artefact.
    Rebuild,
}

/// The persistable half of a policy: what a failover snapshot carries so a
/// restored run decides like the uninterrupted one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyState {
    /// Nothing to persist — the policy re-derives everything from the
    /// timeline (cold and heuristic resolvers).
    Stateless,
    /// The stale baseline's frozen epoch-0 allocation.
    Stale {
        /// The allocation [`StaleScale`] keeps rescaling.
        initial: Option<Allocation>,
    },
    /// A warm-basis descriptor ([`Basis::cols`] / [`Basis::num_cols`]).
    /// Restore is best-effort: an incompatible descriptor just means the
    /// first post-restore solve runs cold — decisions are unchanged either
    /// way (the warm pipeline certifies the same canonical vertex), only
    /// their cost.
    WarmBasis {
        /// Basic column per row, standard-form indices.
        cols: Vec<usize>,
        /// Standard-form column count of the originating shape.
        n_cols: usize,
    },
}

/// A live rescheduling policy. Implementations are driven once per control
/// period; returning `Some` installs a new allocation for the next period's
/// shipments.
pub trait ReschedulePolicy {
    /// Name used in reports (`"periodic-warm"`, `"stale"`, …).
    fn name(&self) -> String;

    /// Decides whether to install a new allocation.
    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Result<Option<Allocation>, SolveError>;

    /// Repairs internal solver state after a failed
    /// [`ReschedulePolicy::decide`], returning `true` when a repair was
    /// actually applied — `false` tells the caller a retry at this level
    /// is pointless (stateless policies fail deterministically). The
    /// default is a no-op.
    fn recover(&mut self, _level: RecoveryLevel, _inst: &ProblemInstance) -> bool {
        false
    }

    /// Takes the recovery-ladder activations recorded since the last call
    /// (empty for policies that never rescue anything). The engine drains
    /// this into [`crate::ScenarioReport::recoveries`].
    fn drain_recovery(&mut self) -> Vec<RecoveryRecord> {
        Vec::new()
    }

    /// Exports the state a failover snapshot must carry.
    fn export_state(&self) -> PolicyState {
        PolicyState::Stateless
    }

    /// Restores state captured by [`ReschedulePolicy::export_state`].
    /// Mismatched state is ignored.
    fn import_state(&mut self, _state: &PolicyState) {}

    /// Called on the **live** policy immediately after a failover snapshot
    /// is captured. Policies carrying incremental numerical state (the
    /// warm simplex's product-form factorisation) must realign it with
    /// what a restore rebuilds from [`ReschedulePolicy::export_state`], so
    /// the continuing run and any replica restored from that snapshot stay
    /// bit-identical. Stateless policies have nothing to align; the default
    /// is a no-op.
    fn checkpoint_barrier(&mut self) {}

    /// Called by a long-lived host (the daemon's tenants) once the run
    /// the policy drives is done and it may rest for long. Policies with a
    /// warm solver context shrink it to what the next decision needs
    /// ([`WarmSimplex::pack`]); nothing a later call returns changes. The
    /// default is a no-op.
    fn pack(&mut self) {}
}

/// Cached per-pair LP bookkeeping for the warm path.
#[derive(Debug, Clone)]
struct PairDelta {
    from: ClusterId,
    to: ClusterId,
    var: VarId,
    /// (7d) rows along the pair's route: a range of `WarmLprg::pair_rows`.
    rows: Range<usize>,
    cap: f64,
}

/// The warm-started LPRG resolver: `relaxation_warm` built once, then
/// platform drift applied as in-place deltas to a persistent
/// [`WarmSimplex`] (see the module docs). The context owns the only copy
/// of the model; the resolver keeps the formulation's [`LpIndex`] to find
/// rows and variables in it, and runs the index's canonical second stage
/// and extraction on it.
#[derive(Debug)]
pub struct WarmLprg {
    index: LpIndex,
    warm: WarmSimplex,
    pairs: Vec<PairDelta>,
    /// Every pair's (7d) rows, back to back in `pairs` order.
    pair_rows: Vec<ConstraintId>,
    /// Times [`WarmLprg::recover`] was invoked (recovery-retry telemetry,
    /// alongside the fallback/refactorisation counters in
    /// [`dls_lp::WarmStats`]). Survives rebuilds.
    recover_calls: u64,
}

impl WarmLprg {
    /// Builds the persistent context from the scenario's initial instance.
    pub fn new(inst: &ProblemInstance) -> Result<Self, SolveError> {
        let LpFormulation { model, index } = LpFormulation::relaxation_warm(inst)?;
        let warm = WarmSimplex::new(model, RevisedSimplex::default()).map_err(SolveError::Lp)?;
        let (pairs, pair_rows) = Self::collect_pairs(inst, &index);
        Ok(WarmLprg {
            index,
            warm,
            pairs,
            pair_rows,
            recover_calls: 0,
        })
    }

    fn collect_pairs(inst: &ProblemInstance, f: &LpIndex) -> (Vec<PairDelta>, Vec<ConstraintId>) {
        let p = &inst.platform;
        let mut pairs = Vec::new();
        let mut pair_rows = Vec::new();
        for from in p.cluster_ids() {
            for to in p.cluster_ids() {
                if from == to {
                    continue;
                }
                let Some(var) = f.alpha_var(from, to) else {
                    continue;
                };
                let Some(minbw) = p.route_bottleneck_bw(from, to) else {
                    continue;
                };
                if !minbw.is_finite() {
                    // Same-router pair: no (7d) rows, uncapped α.
                    continue;
                }
                let start = pair_rows.len();
                if let Some(route) = p.route(from, to) {
                    pair_rows.extend(route.iter().filter_map(|l| f.link_row(*l)));
                }
                let cap = p
                    .route_max_connections(from, to)
                    .map(|b| b as f64 * minbw)
                    .unwrap_or(f64::INFINITY);
                pairs.push(PairDelta {
                    from,
                    to,
                    var,
                    rows: start..pair_rows.len(),
                    cap,
                });
            }
        }
        (pairs, pair_rows)
    }

    /// Mirrors the current platform capacities onto the warm context:
    /// (7b)/(7c)/(7d) right-hand sides, `1/minbw` coefficients (recorded in
    /// the index, which extraction reads), and the pre-materialised α caps.
    fn push_platform(&mut self, inst: &ProblemInstance) -> Result<(), SolveError> {
        let p = &inst.platform;
        for c in p.cluster_ids() {
            if let Some(row) = self.index.compute_row(c) {
                self.warm
                    .set_rhs(row, p.cluster(c).speed)
                    .map_err(SolveError::Lp)?;
            }
            if let Some(row) = self.index.local_link_row(c) {
                self.warm
                    .set_rhs(row, p.cluster(c).local_bw)
                    .map_err(SolveError::Lp)?;
            }
        }
        for l in p.link_ids() {
            if let Some(row) = self.index.link_row(l) {
                self.warm
                    .set_rhs(row, p.link(l).max_connections as f64)
                    .map_err(SolveError::Lp)?;
            }
        }
        for i in 0..self.pairs.len() {
            let (from, to) = (self.pairs[i].from, self.pairs[i].to);
            // Drift moves capacities, never routes, so every pair collected
            // at build time still has one; a platform that lost one is a
            // different LP layout.
            let Some(minbw) = p.route_bottleneck_bw(from, to) else {
                return Err(SolveError::Lp(dls_lp::LpError::StructuralChange(
                    "a warm pair lost its route",
                )));
            };
            let cap = p
                .route_max_connections(from, to)
                .map(|b| b as f64 * minbw)
                .unwrap_or(f64::INFINITY);
            let pair = &mut self.pairs[i];
            let old_minbw = self.index.route_bw(from, to);
            if minbw != old_minbw && minbw > 0.0 {
                for &row in &self.pair_rows[pair.rows.clone()] {
                    self.warm
                        .set_coefficient(row, pair.var, 1.0 / minbw)
                        .map_err(SolveError::Lp)?;
                }
            }
            if cap != pair.cap || (minbw <= 0.0) != (old_minbw <= 0.0) {
                // A dead route (`minbw = 0`) pins α to 0 through its bound.
                let up = if minbw > 0.0 { cap } else { 0.0 };
                self.warm
                    .set_var_bounds(pair.var, 0.0, up)
                    .map_err(SolveError::Lp)?;
            }
            self.index.set_route_bw(from, to, minbw);
            pair.cap = cap;
        }
        Ok(())
    }

    /// Re-solves on the (possibly drifted) platform: platform deltas, a
    /// warm dual-repair solve, the canonical second stage, then the LPRG
    /// rounding. A [`dls_lp::LpError::StructuralChange`] (a patch the warm
    /// context cannot absorb) rebuilds the context once; every *numerical*
    /// failure surfaces to the caller, where the recovery ladder
    /// ([`crate::RecoveryLadder`]) decides between refactorising, rebuilding
    /// and degrading. An oracle disagreement
    /// ([`dls_lp::LpError::WarmColdMismatch`]) is never masked.
    pub fn resolve(&mut self, inst: &ProblemInstance) -> Result<Allocation, SolveError> {
        self.push_platform(inst)?;
        let sol = match self.warm.solve() {
            Ok(sol) => sol,
            Err(dls_lp::LpError::StructuralChange(_)) => {
                // The standard-form layout changed under the patches: a
                // rebuild is the documented contract, not a recovery
                // heuristic. Preserve the oracle knob and telemetry; a
                // second failure is terminal.
                let check = self.warm.check_against_cold;
                let calls = self.recover_calls;
                *self = WarmLprg::new(inst)?;
                self.warm.check_against_cold = check;
                self.recover_calls = calls;
                self.warm.solve().map_err(SolveError::Lp)?
            }
            Err(e) => {
                // Numerical trouble (breakdown, singular basis, iteration
                // limit) and oracle mismatches surface: masking them here
                // would hide exactly what the recovery ladder and the
                // check_against_cold knob exist to observe.
                return Err(SolveError::Lp(e));
            }
        };
        if sol.status != Status::Optimal {
            return Err(SolveError::UnexpectedStatus("non-optimal warm relaxation"));
        }
        let canon = self.index.canonical_stage2(&mut self.warm, sol)?;
        let frac = self.index.extract_fractional(&canon);
        Ok(Lprg.from_relaxation(inst, &frac))
    }

    /// Cumulative warm-solve statistics (solves, pivots, fallbacks,
    /// refactorisations).
    pub fn stats(&self) -> dls_lp::WarmStats {
        self.warm.stats()
    }

    /// The explicit recovery path: requests a fresh factorisation of the
    /// warm basis, so the next resolve retries on clean numerics instead
    /// of compounding whatever drift caused a breakdown. Cheap — no solve
    /// happens here.
    pub fn recover(&mut self) {
        self.recover_calls += 1;
        self.warm.request_refactor();
    }

    /// Times [`WarmLprg::recover`] was invoked.
    pub fn recover_calls(&self) -> u64 {
        self.recover_calls
    }

    /// Realigns the live numerical state with what a restore reconstructs:
    /// schedules a fresh factorisation of the current basis, so the next
    /// solve starts from the same clean factor that [`WarmLprg::seed_basis`]
    /// builds on the restored side. Without this the live context keeps its
    /// incrementally-updated product-form factorisation and drifts from a
    /// restored replica at the ulp level. Not a repair, so unlike
    /// [`WarmLprg::recover`] the recovery counter is untouched.
    pub fn checkpoint_barrier(&mut self) {
        self.warm.request_refactor();
    }

    /// Puts the warm context to rest between resolves
    /// ([`WarmSimplex::pack`]): the next resolve answers the same bits.
    pub fn pack(&mut self) {
        self.warm.pack();
    }

    /// The current warm-basis descriptor, for failover snapshots.
    pub fn basis_descriptor(&self) -> Option<(Vec<usize>, usize)> {
        self.warm.basis().map(|b| (b.cols().to_vec(), b.num_cols()))
    }

    /// Best-effort warm-start from a persisted basis descriptor; `false`
    /// (and a cold next solve) when the descriptor does not fit.
    pub fn seed_basis(&mut self, cols: Vec<usize>, n_cols: usize) -> bool {
        self.warm.seed_basis(&Basis::from_parts(cols, n_cols))
    }

    /// Queues a deterministic solver fault (tests only): see
    /// [`dls_lp::WarmSimplex::debug_inject_fault`].
    #[doc(hidden)]
    pub fn debug_inject_fault(&mut self, fault: dls_lp::InjectedFault) {
        self.warm.debug_inject_fault(fault);
    }

    /// Cross-checks every warm solve against a cold solve of the same
    /// model (the PR-3 oracle knob): on objective disagreement the resolve
    /// fails with [`SolveError::Lp`]. Expensive — tests and benches only.
    pub fn set_check_against_cold(&mut self, on: bool) {
        self.warm.check_against_cold = on;
    }
}

/// How a policy computes a fresh allocation when it decides to re-solve.
pub enum Resolver {
    /// Warm-started LPRG (the PR-3 pipeline; see [`WarmLprg`]). Boxed: the
    /// persistent context dwarfs the other variants.
    Warm(Box<WarmLprg>),
    /// Cold LPRG: rebuild the `relaxation_warm` formulation and solve it
    /// with a fresh revised simplex every time (the baseline the bench
    /// compares against).
    Cold,
    /// Any heuristic re-run from scratch (e.g. `Greedy` for LP-free
    /// scenarios).
    Heuristic(Box<dyn Heuristic + Send>),
}

impl std::fmt::Debug for Resolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resolver::Warm(_) => f.write_str("Resolver::Warm"),
            Resolver::Cold => f.write_str("Resolver::Cold"),
            Resolver::Heuristic(h) => write!(f, "Resolver::Heuristic({})", h.name()),
        }
    }
}

impl Resolver {
    /// Warm-started LPRG over `inst`'s topology.
    pub fn warm(inst: &ProblemInstance) -> Result<Self, SolveError> {
        Ok(Resolver::Warm(Box::new(WarmLprg::new(inst)?)))
    }

    /// Short name for report labels.
    pub fn label(&self) -> &'static str {
        match self {
            Resolver::Warm(_) => "warm",
            Resolver::Cold => "cold",
            Resolver::Heuristic(_) => "heuristic",
        }
    }

    /// The warm LPRG context, if this is a warm resolver (e.g. to inject
    /// test faults or read telemetry).
    pub fn warm_mut(&mut self) -> Option<&mut WarmLprg> {
        match self {
            Resolver::Warm(w) => Some(w),
            Resolver::Cold | Resolver::Heuristic(_) => None,
        }
    }

    /// Computes an allocation for the current platform.
    pub fn resolve(&mut self, inst: &ProblemInstance) -> Result<Allocation, SolveError> {
        match self {
            Resolver::Warm(w) => w.resolve(inst),
            Resolver::Cold => {
                let f = LpFormulation::relaxation_warm(inst)?;
                let solver = RevisedSimplex::default();
                let (sol, basis) = solver.solve_with_basis(&f.model)?;
                if sol.status != Status::Optimal {
                    return Err(SolveError::UnexpectedStatus("non-optimal cold relaxation"));
                }
                let mut frac = f.extract_fractional(&sol);
                // Mirror the warm resolver's canonical second stage so both
                // pipelines extract the *same* optimal vertex (see
                // [`LpIndex::tiebreak_terms`]): pin the certified
                // objective, maximise the tie-break objective warm from the
                // stage-1 basis.
                if let Some(z) = f.objective_var() {
                    let mut stage2 = f.model.clone();
                    stage2.set_bounds(z, stage2_floor(sol.values[z.index()]), f64::INFINITY);
                    stage2.set_objective_coef(z, 0.0);
                    for (v, w) in f.tiebreak_terms() {
                        stage2.set_objective_coef(v, w);
                    }
                    // No basis only without constraints: nothing to warm.
                    let canon = match &basis {
                        Some(b) => solver.solve_warm(&stage2, b)?.0,
                        None => solver.solve(&stage2)?,
                    };
                    if canon.status == Status::Optimal {
                        let objective = frac.objective;
                        frac = f.extract_fractional(&canon);
                        frac.objective = objective;
                    }
                }
                Ok(Lprg.from_relaxation(inst, &frac))
            }
            Resolver::Heuristic(h) => h.solve(inst),
        }
    }

    /// Repairs the resolver after a failed [`Resolver::resolve`]. Warm
    /// contexts refactorise ([`RecoveryLevel::Refactor`]) or are rebuilt
    /// from scratch on the current instance ([`RecoveryLevel::Rebuild`]);
    /// cold and heuristic resolvers are stateless, so there is nothing to
    /// repair and retries are pointless — `false`.
    pub fn recover(&mut self, level: RecoveryLevel, inst: &ProblemInstance) -> bool {
        match self {
            Resolver::Warm(w) => match level {
                RecoveryLevel::Refactor => {
                    w.recover();
                    true
                }
                RecoveryLevel::Rebuild => match WarmLprg::new(inst) {
                    Ok(mut fresh) => {
                        fresh.warm.check_against_cold = w.warm.check_against_cold;
                        fresh.recover_calls = w.recover_calls + 1;
                        **w = fresh;
                        true
                    }
                    Err(_) => false,
                },
            },
            Resolver::Cold | Resolver::Heuristic(_) => false,
        }
    }

    /// The resolver state a failover snapshot carries.
    pub fn export_state(&self) -> PolicyState {
        match self {
            Resolver::Warm(w) => match w.basis_descriptor() {
                Some((cols, n_cols)) => PolicyState::WarmBasis { cols, n_cols },
                None => PolicyState::Stateless,
            },
            Resolver::Cold | Resolver::Heuristic(_) => PolicyState::Stateless,
        }
    }

    /// Restores [`Resolver::export_state`] output (best-effort for warm
    /// bases; everything else is a no-op).
    pub fn import_state(&mut self, state: &PolicyState) {
        if let (Resolver::Warm(w), PolicyState::WarmBasis { cols, n_cols }) = (&mut *self, state) {
            let _ = w.seed_basis(cols.clone(), *n_cols);
        }
    }

    /// See [`ReschedulePolicy::checkpoint_barrier`]: warm contexts schedule
    /// a refactorisation of the current basis; cold and heuristic resolvers
    /// are stateless and have nothing to align.
    pub fn checkpoint_barrier(&mut self) {
        if let Resolver::Warm(w) = self {
            w.checkpoint_barrier();
        }
    }

    /// See [`ReschedulePolicy::pack`]: warm contexts pack their factor;
    /// cold and heuristic resolvers keep nothing between resolves.
    pub fn pack(&mut self) {
        if let Resolver::Warm(w) = self {
            w.pack();
        }
    }
}

/// Re-solve every period.
#[derive(Debug)]
pub struct PeriodicResolve {
    resolver: Resolver,
}

impl PeriodicResolve {
    /// Re-solves every period with the given resolver.
    pub fn new(resolver: Resolver) -> Self {
        PeriodicResolve { resolver }
    }

    /// The underlying resolver (e.g. to inject test faults).
    pub fn resolver_mut(&mut self) -> &mut Resolver {
        &mut self.resolver
    }
}

impl ReschedulePolicy for PeriodicResolve {
    fn name(&self) -> String {
        format!("periodic-{}", self.resolver.label())
    }

    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Result<Option<Allocation>, SolveError> {
        Ok(Some(self.resolver.resolve(ctx.inst)?))
    }

    fn recover(&mut self, level: RecoveryLevel, inst: &ProblemInstance) -> bool {
        self.resolver.recover(level, inst)
    }

    fn export_state(&self) -> PolicyState {
        self.resolver.export_state()
    }

    fn import_state(&mut self, state: &PolicyState) {
        self.resolver.import_state(state);
    }

    fn checkpoint_barrier(&mut self) {
        self.resolver.checkpoint_barrier();
    }

    fn pack(&mut self) {
        self.resolver.pack();
    }
}

/// Re-solve only when observed throughput degrades past
/// `threshold · allocated` while work is backlogged.
#[derive(Debug)]
pub struct ThresholdTriggered {
    /// Degradation bound in `(0, 1]`: re-solve when
    /// `achieved < threshold · allocated`.
    pub threshold: f64,
    resolver: Resolver,
}

impl ThresholdTriggered {
    /// Triggers below `threshold` with the given resolver.
    pub fn new(threshold: f64, resolver: Resolver) -> Self {
        ThresholdTriggered {
            threshold,
            resolver,
        }
    }
}

impl ReschedulePolicy for ThresholdTriggered {
    fn name(&self) -> String {
        format!("threshold-{}", self.resolver.label())
    }

    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Result<Option<Allocation>, SolveError> {
        let degraded =
            ctx.backlogged && ctx.allocated > 0.0 && ctx.achieved < self.threshold * ctx.allocated;
        if ctx.current.is_none() || degraded {
            return Ok(Some(self.resolver.resolve(ctx.inst)?));
        }
        Ok(None)
    }

    fn recover(&mut self, level: RecoveryLevel, inst: &ProblemInstance) -> bool {
        self.resolver.recover(level, inst)
    }

    fn export_state(&self) -> PolicyState {
        self.resolver.export_state()
    }

    fn import_state(&mut self, state: &PolicyState) {
        self.resolver.import_state(state);
    }

    fn checkpoint_barrier(&mut self) {
        self.resolver.checkpoint_barrier();
    }

    fn pack(&mut self) {
        self.resolver.pack();
    }
}

/// The paper's stale baseline: solve once at epoch 0, then only shrink the
/// initial allocation uniformly ([`scale_to_fit`]) when drift makes it
/// infeasible.
#[derive(Debug)]
pub struct StaleScale {
    resolver: Resolver,
    initial: Option<Allocation>,
}

impl StaleScale {
    /// Solves epoch 0 with the given resolver, then never re-optimises.
    pub fn new(resolver: Resolver) -> Self {
        StaleScale {
            resolver,
            initial: None,
        }
    }
}

impl ReschedulePolicy for StaleScale {
    fn name(&self) -> String {
        "stale".into()
    }

    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Result<Option<Allocation>, SolveError> {
        let Some(initial) = &self.initial else {
            let alloc = self.resolver.resolve(ctx.inst)?;
            self.initial = Some(alloc.clone());
            return Ok(Some(alloc));
        };
        if ctx.platform_changed {
            let (scaled, _gamma) = scale_to_fit(initial, ctx.inst);
            return Ok(Some(scaled));
        }
        Ok(None)
    }

    fn recover(&mut self, level: RecoveryLevel, inst: &ProblemInstance) -> bool {
        self.resolver.recover(level, inst)
    }

    fn export_state(&self) -> PolicyState {
        PolicyState::Stale {
            initial: self.initial.clone(),
        }
    }

    fn import_state(&mut self, state: &PolicyState) {
        if let PolicyState::Stale { initial } = state {
            self.initial = initial.clone();
        }
    }

    fn checkpoint_barrier(&mut self) {
        self.resolver.checkpoint_barrier();
    }

    fn pack(&mut self) {
        self.resolver.pack();
    }
}

/// The policies a caller can name: the `dls-cli scenario --policy` flag
/// and the daemon's tenant spec parse their `policy` string into one and
/// [`PolicyKind::build`] it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Warm-started LPRG re-solved every period.
    PeriodicWarm,
    /// Cold LPRG re-solved every period.
    PeriodicCold,
    /// Re-solve only on observed throughput degradation (bound 0.5).
    Threshold,
    /// The paper's stale baseline (`scale_to_fit` on drift).
    Stale,
}

impl PolicyKind {
    /// Parses a CLI-style name (`periodic|periodic-cold|threshold|stale`).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "periodic" | "periodic-warm" => Some(PolicyKind::PeriodicWarm),
            "periodic-cold" => Some(PolicyKind::PeriodicCold),
            "threshold" => Some(PolicyKind::Threshold),
            "stale" => Some(PolicyKind::Stale),
            _ => None,
        }
    }

    /// Instantiates the policy for one run. The box is `Send` so tenants
    /// in the `dls-service` daemon can carry their policy across worker
    /// threads.
    pub fn build(
        &self,
        inst: &ProblemInstance,
    ) -> Result<Box<dyn ReschedulePolicy + Send>, SolveError> {
        Ok(match self {
            PolicyKind::PeriodicWarm => Box::new(PeriodicResolve::new(Resolver::warm(inst)?)),
            PolicyKind::PeriodicCold => Box::new(PeriodicResolve::new(Resolver::Cold)),
            PolicyKind::Threshold => Box::new(ThresholdTriggered::new(0.5, Resolver::Cold)),
            PolicyKind::Stale => Box::new(StaleScale::new(Resolver::Cold)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_core::Objective;
    use dls_platform::{PlatformConfig, PlatformGenerator};

    fn instance(seed: u64, k: usize) -> ProblemInstance {
        let cfg = PlatformConfig {
            num_clusters: k,
            connectivity: 0.6,
            ..PlatformConfig::default()
        };
        ProblemInstance::with_spread_payoffs(
            PlatformGenerator::new(seed).generate(&cfg),
            Objective::MaxMin,
            0.5,
            seed ^ 0x9e37_79b9_7f4a_7c15,
        )
    }

    /// Entrywise canonical-vertex comparison: β must match exactly, α to
    /// solver termination noise. This is the agreement contract the
    /// lexicographic stage 2 buys — warm and cold land on the *same*
    /// vertex, not merely equally good ones.
    fn assert_canonical_eq(inst: &ProblemInstance, a: &Allocation, b: &Allocation, what: &str) {
        for from in inst.platform.cluster_ids() {
            for to in inst.platform.cluster_ids() {
                assert_eq!(
                    a.beta(from, to),
                    b.beta(from, to),
                    "{what}: beta({from:?},{to:?}) diverged"
                );
                let (aa, ab) = (a.alpha(from, to), b.alpha(from, to));
                assert!(
                    (aa - ab).abs() <= 1e-7 * (1.0 + ab.abs()),
                    "{what}: alpha({from:?},{to:?}) {aa} vs {ab}"
                );
            }
        }
    }

    #[test]
    fn warm_resolver_matches_cold_on_drifting_platform() {
        let mut inst = instance(3, 6);
        let mut warm = WarmLprg::new(&inst).unwrap();
        // The PR-3 oracle: every warm solve's objective is cross-checked
        // against a cold solve of the patched model; a mismatch fails the
        // resolve.
        warm.set_check_against_cold(true);
        let mut cold = Resolver::Cold;
        for step in 0..6 {
            // Drift capacities deterministically.
            for (i, c) in inst.platform.clusters.iter_mut().enumerate() {
                c.speed *= 1.0 + 0.07 * (((step + i) % 3) as f64 - 1.0);
                c.local_bw *= 1.0 + 0.05 * (((step + 2 * i) % 3) as f64 - 1.0);
            }
            for (i, l) in inst.platform.links.iter_mut().enumerate() {
                l.bw_per_connection *= 1.0 + 0.06 * (((step + i) % 3) as f64 - 1.0);
            }
            let a = warm.resolve(&inst).unwrap();
            let b = cold.resolve(&inst).unwrap();
            assert!(a.validate(&inst).is_ok(), "step {step}: warm invalid");
            assert!(b.validate(&inst).is_ok(), "step {step}: cold invalid");
            assert_canonical_eq(&inst, &a, &b, &format!("drift step {step}"));
        }
        assert!(warm.stats().solves >= 6);
    }

    #[test]
    fn warm_resolver_is_exactly_cold_on_a_static_platform() {
        // No platform deltas between resolves: the warm context re-certifies
        // the same basis and must reproduce the cold allocation's canonical
        // vertex (this is what makes the scenario pipelines comparable on
        // arrivals-only traces).
        let inst = instance(4, 7);
        let mut warm = WarmLprg::new(&inst).unwrap();
        let mut cold = Resolver::Cold;
        let c0 = cold.resolve(&inst).unwrap();
        for step in 0..4 {
            let w = warm.resolve(&inst).unwrap();
            assert_canonical_eq(&inst, &w, &c0, &format!("static step {step}"));
        }
    }

    #[test]
    fn resolvers_agree_without_an_objective_var() {
        // SUM objectives have no auxiliary `z`, so the canonical second
        // stage is skipped entirely (`objective_var() == None`): both
        // resolvers must still work and agree.
        let cfg = PlatformConfig {
            num_clusters: 6,
            connectivity: 0.6,
            ..PlatformConfig::default()
        };
        let inst = ProblemInstance::with_spread_payoffs(
            PlatformGenerator::new(11).generate(&cfg),
            Objective::Sum,
            0.5,
            11 ^ 0x9e37_79b9_7f4a_7c15,
        );
        let mut warm = WarmLprg::new(&inst).unwrap();
        let mut cold = Resolver::Cold;
        let a = warm.resolve(&inst).unwrap();
        let b = cold.resolve(&inst).unwrap();
        assert!(a.validate(&inst).is_ok());
        let (va, vb) = (a.objective_value(&inst), b.objective_value(&inst));
        assert!((va - vb).abs() <= 1e-6 * (1.0 + vb.abs()), "{va} vs {vb}");
    }

    #[test]
    fn warm_resolver_survives_connection_cap_changes_and_outages() {
        let mut inst = instance(9, 5);
        let mut warm = WarmLprg::new(&inst).unwrap();
        let base = warm.resolve(&inst).unwrap();
        assert!(base.validate(&inst).is_ok());
        // Halve every connection cap and churn cluster 0 out.
        for l in inst.platform.links.iter_mut() {
            l.max_connections = (l.max_connections / 2).max(1);
        }
        inst.platform.clusters[0].speed = 0.0;
        inst.platform.clusters[0].local_bw = 0.0;
        let out = warm.resolve(&inst).unwrap();
        assert!(out.validate(&inst).is_ok());
        // Nothing can be computed at the dead cluster.
        for from in inst.platform.cluster_ids() {
            assert_eq!(out.alpha(from, ClusterId(0)), 0.0);
        }
        let mut cold = Resolver::Cold;
        let reference = cold.resolve(&inst).unwrap();
        let (vo, vr) = (out.objective_value(&inst), reference.objective_value(&inst));
        assert!((vo - vr).abs() <= 1e-6 * (1.0 + vr.abs()), "{vo} vs {vr}");
    }

    #[test]
    fn stale_policy_only_rescales() {
        let inst = instance(5, 5);
        let mut policy = StaleScale::new(Resolver::Cold);
        let ctx = PolicyCtx {
            inst: &inst,
            epoch: 0,
            platform_changed: false,
            achieved: 0.0,
            allocated: 0.0,
            backlogged: false,
            current: None,
        };
        let first = policy.decide(&ctx).unwrap().expect("epoch 0 solves");
        // No platform change → keep.
        let keep = policy
            .decide(&PolicyCtx {
                epoch: 1,
                current: Some(&first),
                ..ctx
            })
            .unwrap();
        assert!(keep.is_none());
        // Drifted platform → uniformly scaled version of the initial.
        let mut drifted = inst.clone();
        for c in drifted.platform.clusters.iter_mut() {
            c.speed /= 2.0;
        }
        let scaled = policy
            .decide(&PolicyCtx {
                inst: &drifted,
                epoch: 2,
                platform_changed: true,
                current: Some(&first),
                ..ctx
            })
            .unwrap()
            .expect("rescale on change");
        assert!(scaled.validate(&drifted).is_ok());
        assert_eq!(scaled.beta, first.beta, "stale β never changes");
    }

    #[test]
    fn threshold_policy_triggers_on_degradation_only() {
        let inst = instance(6, 4);
        let mut policy = ThresholdTriggered::new(0.8, Resolver::Cold);
        let ctx = PolicyCtx {
            inst: &inst,
            epoch: 0,
            platform_changed: false,
            achieved: 0.0,
            allocated: 0.0,
            backlogged: true,
            current: None,
        };
        let first = policy.decide(&ctx).unwrap().expect("first epoch solves");
        let healthy = PolicyCtx {
            epoch: 1,
            achieved: 95.0,
            allocated: 100.0,
            current: Some(&first),
            ..ctx
        };
        assert!(policy.decide(&healthy).unwrap().is_none());
        let degraded = PolicyCtx {
            achieved: 40.0,
            ..healthy
        };
        assert!(policy.decide(&degraded).unwrap().is_some());
        // Idle systems never trigger (no meaningful observation).
        let idle = PolicyCtx {
            backlogged: false,
            achieved: 0.0,
            ..healthy
        };
        assert!(policy.decide(&idle).unwrap().is_none());
    }

    #[test]
    fn policy_kind_parsing() {
        assert_eq!(
            PolicyKind::parse("periodic"),
            Some(PolicyKind::PeriodicWarm)
        );
        assert_eq!(PolicyKind::parse("stale"), Some(PolicyKind::Stale));
        assert_eq!(PolicyKind::parse("nope"), None);
    }
}
