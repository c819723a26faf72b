//! Degraded-mode rescheduling: the recovery ladder.
//!
//! A solver failure inside a policy used to abort the whole scenario —
//! unacceptable for a failure-domain story where the *platform* is already
//! misbehaving (a crash or partition is exactly when the LP gets patched
//! hardest). [`RecoveryLadder`] wraps any [`ReschedulePolicy`] and, when a
//! decide fails with a plausibly-transient solver error, walks an
//! escalation ladder instead of giving up:
//!
//! 1. **warm resolve** — the wrapped policy's ordinary decide (already
//!    failed once when the ladder engages);
//! 2. **refactorise and retry** — [`RecoveryLevel::Refactor`] asks the
//!    policy to rebuild its basis factorisation in place, then retries the
//!    decide, up to a bounded number of attempts;
//! 3. **cold rebuild** — [`RecoveryLevel::Rebuild`] reconstructs the
//!    solver context from scratch on the current instance and retries once;
//! 4. **stale scale** — degraded mode: the currently installed allocation
//!    is shrunk to fit the current platform
//!    ([`dls_core::adaptive::scale_to_fit`]) and installed as the decision,
//!    so the system keeps shipping work under a provably feasible (if
//!    sub-optimal) schedule until a later epoch resolves cleanly.
//!
//! Which rung rescued each incident is recorded as a
//! [`RecoveryRecord`] and drained into
//! [`crate::ScenarioReport::recoveries`] by the engine. Non-transient
//! failures — oracle mismatches ([`dls_lp::LpError::WarmColdMismatch`]),
//! structural changes, malformed models — are *not* caught: they indicate
//! bugs, and masking them would disable exactly the checks that find them.

use crate::policy::{PolicyCtx, PolicyState, RecoveryLevel, ReschedulePolicy};
use crate::report::{RecoveryRecord, RecoveryRung};
use dls_core::adaptive::scale_to_fit;
use dls_core::{Allocation, ProblemInstance, SolveError};
use dls_lp::LpError;

/// `true` for failures the ladder may absorb: plausibly-transient solver
/// trouble (numerical breakdown, budget exhaustion, a singular basis, an
/// unexpected LP status). Everything else — oracle mismatches, structural
/// changes, malformed inputs — surfaces unchanged.
pub fn recoverable(err: &SolveError) -> bool {
    match err {
        SolveError::Lp(l) => matches!(
            l,
            LpError::NumericalBreakdown(_)
                | LpError::SingularBasis
                | LpError::IterationLimit { .. }
                | LpError::NodeLimit { .. }
        ),
        SolveError::UnexpectedStatus(_) => true,
        SolveError::PayoffMismatch { .. }
        | SolveError::InvalidAllocation(_)
        | SolveError::BadPin(_)
        | SolveError::DeferredSolveMoved { .. } => false,
    }
}

/// Wraps any policy with the crash-tolerant escalation ladder described in
/// the module docs.
#[derive(Debug)]
pub struct RecoveryLadder<P> {
    inner: P,
    /// Refactorise-and-retry attempts before escalating to a rebuild.
    pub max_refactor_retries: u32,
    records: Vec<RecoveryRecord>,
}

impl<P: ReschedulePolicy> RecoveryLadder<P> {
    /// Wraps `inner` with the default retry budget (2 refactor retries).
    pub fn new(inner: P) -> Self {
        RecoveryLadder {
            inner,
            max_refactor_retries: 2,
            records: Vec::new(),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped policy, mutably (e.g. to inject test faults).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    fn record(&mut self, epoch: usize, rung: RecoveryRung, error: &SolveError, attempts: u32) {
        self.records.push(RecoveryRecord {
            epoch,
            rung,
            error: error.to_string(),
            attempts,
        });
    }
}

impl<P: ReschedulePolicy> ReschedulePolicy for RecoveryLadder<P> {
    fn name(&self) -> String {
        format!("recovery({})", self.inner.name())
    }

    fn decide(&mut self, ctx: &PolicyCtx<'_>) -> Result<Option<Allocation>, SolveError> {
        let first_err = match self.inner.decide(ctx) {
            Ok(d) => return Ok(d),
            Err(e) if recoverable(&e) => e,
            Err(e) => return Err(e),
        };
        let mut attempts = 1u32;

        // Rung 2: refactorise-and-retry with a bounded budget. A policy
        // that cannot repair at this level (stateless resolvers fail
        // deterministically) skips straight past the retries.
        if self.inner.recover(RecoveryLevel::Refactor, ctx.inst) {
            for _ in 0..self.max_refactor_retries.max(1) {
                attempts += 1;
                match self.inner.decide(ctx) {
                    Ok(d) => {
                        self.record(ctx.epoch, RecoveryRung::Refactor, &first_err, attempts);
                        return Ok(d);
                    }
                    Err(e) if recoverable(&e) => {
                        if !self.inner.recover(RecoveryLevel::Refactor, ctx.inst) {
                            break;
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        // Rung 3: rebuild the solver context from scratch and retry once.
        if self.inner.recover(RecoveryLevel::Rebuild, ctx.inst) {
            attempts += 1;
            match self.inner.decide(ctx) {
                Ok(d) => {
                    self.record(ctx.epoch, RecoveryRung::Rebuild, &first_err, attempts);
                    return Ok(d);
                }
                Err(e) if recoverable(&e) => {}
                Err(e) => return Err(e),
            }
        }

        // Rung 4: degraded mode. Scale the installed allocation to fit the
        // current platform — always feasible, keeps work flowing, and a
        // later epoch can still resolve properly. With no installed
        // allocation there is nothing to degrade to; surface the original
        // error.
        if let Some(current) = ctx.current {
            let (scaled, _gamma) = scale_to_fit(current, ctx.inst);
            self.record(ctx.epoch, RecoveryRung::StaleScale, &first_err, attempts);
            return Ok(Some(scaled));
        }
        Err(first_err)
    }

    fn recover(&mut self, level: RecoveryLevel, inst: &ProblemInstance) -> bool {
        self.inner.recover(level, inst)
    }

    fn drain_recovery(&mut self) -> Vec<RecoveryRecord> {
        std::mem::take(&mut self.records)
    }

    fn export_state(&self) -> PolicyState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &PolicyState) {
        self.inner.import_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RecoveryRung;

    /// A scripted policy: fails with a recoverable error until enough
    /// recover() calls of the demanded level arrive, then succeeds by
    /// delegating to a fixed answer.
    struct Scripted {
        refactors_needed: u32,
        rebuild_clears: bool,
        cleared: bool,
        decides: u32,
    }

    impl ReschedulePolicy for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }

        fn decide(&mut self, _ctx: &PolicyCtx<'_>) -> Result<Option<Allocation>, SolveError> {
            self.decides += 1;
            if self.cleared {
                Ok(None)
            } else {
                Err(SolveError::Lp(LpError::NumericalBreakdown("scripted")))
            }
        }

        fn recover(&mut self, level: RecoveryLevel, _inst: &ProblemInstance) -> bool {
            match level {
                RecoveryLevel::Refactor => {
                    if self.refactors_needed <= 1 {
                        self.cleared = self.refactors_needed == 1;
                        self.refactors_needed = 0;
                        self.cleared
                    } else {
                        self.refactors_needed -= 1;
                        true
                    }
                }
                RecoveryLevel::Rebuild => {
                    if self.rebuild_clears {
                        self.cleared = true;
                    }
                    self.rebuild_clears
                }
            }
        }
    }

    fn ctx<'a>(inst: &'a ProblemInstance, current: Option<&'a Allocation>) -> PolicyCtx<'a> {
        PolicyCtx {
            inst,
            epoch: 3,
            platform_changed: false,
            achieved: 0.0,
            allocated: 0.0,
            backlogged: true,
            current,
        }
    }

    fn instance() -> ProblemInstance {
        use dls_platform::PlatformBuilder;
        let mut b = PlatformBuilder::new();
        let c0 = b.add_cluster(100.0, 20.0);
        let c1 = b.add_cluster(50.0, 30.0);
        b.connect_clusters(c0, c1, 10.0, 2);
        ProblemInstance::uniform(b.build().unwrap(), dls_core::Objective::MaxMin)
    }

    #[test]
    fn refactor_rung_rescues_and_is_recorded() {
        let inst = instance();
        let mut ladder = RecoveryLadder::new(Scripted {
            refactors_needed: 1,
            rebuild_clears: false,
            cleared: false,
            decides: 0,
        });
        let out = ladder.decide(&ctx(&inst, None)).unwrap();
        assert!(out.is_none());
        let recs = ladder.drain_recovery();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].rung, RecoveryRung::Refactor);
        assert_eq!(recs[0].epoch, 3);
        assert!(recs[0].error.contains("scripted"));
        assert!(ladder.drain_recovery().is_empty(), "drain empties");
    }

    #[test]
    fn rebuild_rung_rescues_when_refactors_do_not() {
        let inst = instance();
        let mut ladder = RecoveryLadder::new(Scripted {
            refactors_needed: 100,
            rebuild_clears: true,
            cleared: false,
            decides: 0,
        });
        assert!(ladder.decide(&ctx(&inst, None)).unwrap().is_none());
        let recs = ladder.drain_recovery();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].rung, RecoveryRung::Rebuild);
        // The refactor budget was consumed first.
        assert!(recs[0].attempts > 2, "{recs:?}");
    }

    #[test]
    fn stale_scale_rung_needs_an_installed_allocation() {
        let inst = instance();
        let stuck = || Scripted {
            refactors_needed: 100,
            rebuild_clears: false,
            cleared: false,
            decides: 0,
        };
        // No installed allocation: the original error surfaces.
        let mut ladder = RecoveryLadder::new(stuck());
        assert!(matches!(
            ladder.decide(&ctx(&inst, None)),
            Err(SolveError::Lp(LpError::NumericalBreakdown(_)))
        ));
        assert!(ladder.drain_recovery().is_empty());
        // With one: degraded mode installs a scaled copy.
        use dls_core::heuristics::Heuristic as _;
        let current = dls_core::heuristics::Greedy::default()
            .solve(&inst)
            .unwrap();
        let mut ladder = RecoveryLadder::new(stuck());
        let out = ladder
            .decide(&ctx(&inst, Some(&current)))
            .unwrap()
            .expect("degraded-mode allocation");
        assert!(out.validate(&inst).is_ok());
        let recs = ladder.drain_recovery();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].rung, RecoveryRung::StaleScale);
    }

    #[test]
    fn non_recoverable_errors_pass_through() {
        struct Broken;
        impl ReschedulePolicy for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn decide(&mut self, _ctx: &PolicyCtx<'_>) -> Result<Option<Allocation>, SolveError> {
                Err(SolveError::Lp(LpError::WarmColdMismatch {
                    warm: 1.0,
                    cold: 2.0,
                }))
            }
        }
        let inst = instance();
        let mut ladder = RecoveryLadder::new(Broken);
        assert!(matches!(
            ladder.decide(&ctx(&inst, None)),
            Err(SolveError::Lp(LpError::WarmColdMismatch { .. }))
        ));
        assert!(!recoverable(&SolveError::Lp(LpError::WarmColdMismatch {
            warm: 1.0,
            cold: 2.0
        })));
        assert!(recoverable(&SolveError::UnexpectedStatus("x")));
    }
}
