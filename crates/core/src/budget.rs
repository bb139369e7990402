//! Cooperative cancellation budgets for the checked pipeline.
//!
//! A long-running service cannot afford a unit that hogs a worker forever:
//! `lcmopt serve` answers each request under a *budget* — a wall-clock
//! deadline, a solver-fuel ceiling, an external cancel flag, or any
//! combination — and a unit that exceeds it is answered with a distinct
//! [`PipelineError::Cancelled`](crate::PipelineError::Cancelled) error
//! instead of blocking the connection.
//!
//! Cancellation is *cooperative*: the pipeline's loops are all bounded
//! (every fixpoint solve carries a lattice-derived sweep bound, every
//! interpreter run carries fuel), so the budget is checked at stage
//! boundaries — before solving, between solving and validation, and after
//! validation — rather than per instruction. A deadline therefore cancels
//! with the granularity of one pipeline stage, and the fuel ceiling is
//! enforced against the fused pipeline's actual node-visit count as soon
//! as the solves finish.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted pipeline run was cancelled.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CancelReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The fused pipeline's solves exceeded the fuel ceiling.
    Fuel {
        /// Solver node visits the unit actually performed.
        used: u64,
        /// The ceiling it was admitted under.
        limit: u64,
    },
    /// The external cancel flag was raised (e.g. the requester hung up).
    Flag,
}

/// A cancelled pipeline stage: which boundary noticed, and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cancelled {
    /// The stage boundary at which the budget check fired.
    pub stage: &'static str,
    /// The exhausted resource.
    pub reason: CancelReason,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            CancelReason::Deadline => {
                write!(f, "cancelled at `{}`: deadline exceeded", self.stage)
            }
            CancelReason::Fuel { used, limit } => write!(
                f,
                "cancelled at `{}`: fuel exhausted ({used} node visits > limit {limit})",
                self.stage
            ),
            CancelReason::Flag => write!(f, "cancelled at `{}`: request abandoned", self.stage),
        }
    }
}

impl std::error::Error for Cancelled {}

/// A budget for one checked pipeline run. The default ([`unlimited`]
/// (OptimizeBudget::unlimited)) never cancels; constraints compose.
#[derive(Clone, Debug, Default)]
pub struct OptimizeBudget {
    deadline: Option<Instant>,
    fuel: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
}

impl OptimizeBudget {
    /// A budget that never cancels.
    pub fn unlimited() -> Self {
        OptimizeBudget::default()
    }

    /// Caps wall-clock time at `deadline` (absolute).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps wall-clock time at `d` from now.
    pub fn with_deadline_in(self, d: Duration) -> Self {
        self.with_deadline(Instant::now() + d)
    }

    /// Caps the fused pipeline's total solver node visits at `fuel`.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Attaches an external cancel flag; raising it cancels the run at the
    /// next stage boundary.
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Whether a deadline or a fuel cap is attached (a cancel flag alone
    /// does not count).
    pub fn is_capped(&self) -> bool {
        self.deadline.is_some() || self.fuel.is_some()
    }

    /// Checks the deadline and the cancel flag at a stage boundary.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] naming `stage` when the deadline has passed or the
    /// flag is raised.
    pub fn check(&self, stage: &'static str) -> Result<(), Cancelled> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(Cancelled {
                    stage,
                    reason: CancelReason::Flag,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Cancelled {
                    stage,
                    reason: CancelReason::Deadline,
                });
            }
        }
        Ok(())
    }

    /// Checks the fuel ceiling against `used` solver node visits (in
    /// addition to the [`check`](Self::check) constraints).
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when `used` exceeds the ceiling, the deadline has
    /// passed, or the flag is raised.
    pub fn check_fuel(&self, stage: &'static str, used: u64) -> Result<(), Cancelled> {
        self.check(stage)?;
        if let Some(limit) = self.fuel {
            if used > limit {
                return Err(Cancelled {
                    stage,
                    reason: CancelReason::Fuel { used, limit },
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_cancels() {
        let b = OptimizeBudget::unlimited();
        assert!(!b.is_capped());
        b.check("any").unwrap();
        b.check_fuel("any", u64::MAX).unwrap();
    }

    #[test]
    fn expired_deadline_cancels_deterministically() {
        let b = OptimizeBudget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        let err = b.check("solve").unwrap_err();
        assert_eq!(err.stage, "solve");
        assert_eq!(err.reason, CancelReason::Deadline);
        assert!(err.to_string().contains("deadline exceeded"));
    }

    #[test]
    fn fuel_ceiling_is_exact() {
        let b = OptimizeBudget::unlimited().with_fuel(10);
        assert!(b.is_capped());
        b.check_fuel("solve", 10).unwrap();
        let err = b.check_fuel("solve", 11).unwrap_err();
        assert_eq!(
            err.reason,
            CancelReason::Fuel {
                used: 11,
                limit: 10
            }
        );
        assert!(err.to_string().contains("fuel exhausted"));
    }

    #[test]
    fn cancel_flag_fires_at_the_next_check() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = OptimizeBudget::unlimited().with_cancel_flag(flag.clone());
        assert!(!b.is_capped());
        b.check("a").unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(b.check("b").unwrap_err().reason, CancelReason::Flag);
    }
}
