//! # lcm-core — Lazy Code Motion
//!
//! A complete implementation of **Lazy Code Motion** (Knoop, Rüthing &
//! Steffen, PLDI 1992): partial redundancy elimination that is
//!
//! 1. **admissible** — it only inserts computations at safe (down-safe or
//!    up-safe) program points, so no path ever evaluates an expression it
//!    did not evaluate before;
//! 2. **computationally optimal** — no admissible transformation achieves
//!    fewer evaluations on any path; and
//! 3. **lifetime optimal** — among the computationally optimal
//!    transformations, the live ranges of the introduced temporaries are
//!    minimal.
//!
//! The crate provides the paper's algorithm in both published forms
//! ([`lazy_edge_plan`] — edge insertions; [`lazy_node_plan`] — the original
//! node-insertion cascade DELAY/LATEST/ISOLATED after critical-edge
//! splitting), the busy-code-motion strawman ([`busy_plan`]), the
//! bidirectional Morel–Renvoise baseline ([`morel_renvoise_plan`]), a
//! shared rewriting engine ([`transform`]), safety oracles ([`safety`]),
//! optimality metrics ([`metrics`]) and the supporting scalar passes
//! ([`passes`]).
//!
//! # Quickstart
//!
//! ```
//! use lcm_core::{optimize, PreAlgorithm};
//! use lcm_ir::parse_function;
//!
//! let f = parse_function(
//!     "fn demo {
//!      entry:
//!        br c, left, right
//!      left:
//!        x = a + b
//!        jmp join
//!      right:
//!        jmp join
//!      join:
//!        y = a + b
//!        obs y
//!        ret
//!      }",
//! )?;
//! let lazy = optimize(&f, PreAlgorithm::LazyEdge)?;
//! // One insertion (on the right arm), one deletion (at the join).
//! assert_eq!(lazy.transform.stats.insertions, 1);
//! assert_eq!(lazy.transform.stats.deletions, 1);
//! lcm_ir::verify(&lazy.function)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! For a pass boundary with the paper invariants re-checked, use
//! [`optimize_checked`], which validates the result at the requested
//! [`validate::ValidationLevel`] before returning it.

mod analyses;
mod bcm;
mod budget;
mod lcm_edge;
mod lcm_node;
mod morel_renvoise;
mod pipeline;
mod predicates;
mod universe;

pub mod mincut;
pub mod speculate;

pub mod figures;
pub mod metrics;
pub mod passes;
pub mod report;
pub mod safety;
pub mod strength;
pub mod transform;
pub mod validate;

pub use analyses::{
    anticipability, anticipability_problem, availability, availability_problem,
    partial_anticipability, partial_availability, GlobalAnalyses,
};
pub use bcm::busy_plan;
pub use budget::{CancelReason, Cancelled, OptimizeBudget};
pub use lcm_edge::{
    later_problem, lazy_edge_plan, lazy_edge_plan_in, lazy_edge_plan_with, LazyEdgeResult,
};
pub use lcm_node::{lazy_node_plan, LazyNodeResult};
pub use morel_renvoise::{morel_renvoise_plan, MorelRenvoiseResult};
pub use pipeline::{lcm, lcm_in, lcm_with, LcmPipeline, PipelineStats};
pub use predicates::LocalPredicates;
pub use speculate::{speculative_plan, weights_or_unit, EdgeWeights, SpecResult, SpecStats};
pub use transform::{apply_plan, PlacementPlan, TransformResult};
pub use universe::ExprUniverse;
pub use validate::{check_memory_kills, ValidationError, ValidationLevel, ValidationReport};

use std::error::Error;
use std::fmt;

use lcm_dataflow::{SolveStrategy, SolverDiverged, SolverScratch};
use lcm_ir::Function;

/// Why a PRE pass could not produce (or could not stand behind) a result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PipelineError {
    /// An analysis exceeded its derived sweep bound — the symptom of
    /// corrupted transfer functions or a non-monotone lattice.
    Solver(SolverDiverged),
    /// The pass produced a result, but it violates a paper invariant.
    Validation(ValidationError),
    /// A budgeted run exceeded its [`OptimizeBudget`] (deadline, fuel, or
    /// external cancel flag) and was abandoned at a stage boundary.
    Cancelled(Cancelled),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Solver(e) => e.fmt(f),
            PipelineError::Validation(e) => e.fmt(f),
            PipelineError::Cancelled(e) => e.fmt(f),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Solver(e) => Some(e),
            PipelineError::Validation(e) => Some(e),
            PipelineError::Cancelled(e) => Some(e),
        }
    }
}

impl From<Cancelled> for PipelineError {
    fn from(e: Cancelled) -> Self {
        PipelineError::Cancelled(e)
    }
}

impl From<SolverDiverged> for PipelineError {
    fn from(e: SolverDiverged) -> Self {
        PipelineError::Solver(e)
    }
}

impl From<ValidationError> for PipelineError {
    fn from(e: ValidationError) -> Self {
        PipelineError::Validation(e)
    }
}

/// The PRE algorithms this crate implements.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PreAlgorithm {
    /// Busy code motion: earliest (safe) placement. Computationally
    /// optimal; maximal temporary lifetimes.
    Busy,
    /// Lazy code motion, edge-insertion formulation (the production form).
    LazyEdge,
    /// Lazy code motion, node-insertion formulation (the paper's original
    /// DELAY/LATEST/ISOLATED cascade after critical-edge splitting).
    LazyNode,
    /// Lazy code motion without the isolation pruning — the paper's "ALCM"
    /// ablation. Computationally optimal but introduces useless temps
    /// (which the rewriter's liveness pruning then refuses to materialise;
    /// the placement difference is still observable in the plan).
    AlmostLazyNode,
    /// Morel–Renvoise (1979): the bidirectional baseline.
    MorelRenvoise,
    /// Classic global common-subexpression elimination: deletes only
    /// **fully** redundant occurrences (available on every path), inserts
    /// nothing. The weakest baseline — everything PRE adds over GCSE is
    /// partial redundancy.
    Gcse,
    /// Profile-guided speculative PRE ([`speculate`]): lazy code motion's
    /// placement, improved per side-effect-free expression by a minimum
    /// cut over the profile-weighted unavailability network. Not part of
    /// [`PreAlgorithm::ALL`] because it is not admissible in the paper's
    /// sense (it may add evaluations to cold paths) and needs a profile to
    /// be meaningful — [`optimize`] runs it with unit weights; pass real
    /// weights via [`optimize_speculative`].
    Speculative,
}

impl PreAlgorithm {
    /// All algorithms, for sweep-style experiments.
    pub const ALL: [PreAlgorithm; 6] = [
        PreAlgorithm::Busy,
        PreAlgorithm::LazyEdge,
        PreAlgorithm::LazyNode,
        PreAlgorithm::AlmostLazyNode,
        PreAlgorithm::MorelRenvoise,
        PreAlgorithm::Gcse,
    ];

    /// A short stable name (used in reports and benchmark ids).
    pub fn name(self) -> &'static str {
        match self {
            PreAlgorithm::Busy => "bcm",
            PreAlgorithm::LazyEdge => "lcm-edge",
            PreAlgorithm::LazyNode => "lcm-node",
            PreAlgorithm::AlmostLazyNode => "alcm-node",
            PreAlgorithm::MorelRenvoise => "morel-renvoise",
            PreAlgorithm::Gcse => "gcse",
            PreAlgorithm::Speculative => "spec",
        }
    }
}

/// Everything `optimize` produces.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The transformed function.
    pub function: Function,
    /// The rewriting outcome (insertion/deletion counters, temps).
    pub transform: TransformResult,
    /// The placement plan the rewriting realised, for post-hoc auditing
    /// ([`validate::validate_optimized`] checks it against the paper's
    /// admissibility criterion).
    pub plan: PlacementPlan,
    /// The input the plan was computed for — the original function, except
    /// for the node algorithms where it is the critical-edge-split copy.
    pub input: Function,
    /// Which algorithm ran.
    pub algorithm: PreAlgorithm,
    /// Per-analysis solver statistics, when the algorithm ran the fused
    /// edge pipeline ([`PreAlgorithm::LazyEdge`] and
    /// [`PreAlgorithm::Speculative`]); `None` for the other algorithms,
    /// whose solves are not fused into one pipeline.
    pub pipeline_stats: Option<PipelineStats>,
    /// The speculative planner's decisions ([`PreAlgorithm::Speculative`]
    /// only; `None` for every other algorithm).
    pub spec: Option<SpecStats>,
}

/// Runs one PRE algorithm end to end: analyses → placement plan →
/// rewriting. No clean-up passes are run; compose with
/// [`passes::copy_propagation`] and [`passes::dce`] for a full pipeline
/// (or use [`optimize_pipeline`]).
///
/// # Errors
///
/// Returns [`PipelineError::Solver`] if any analysis exceeds its derived
/// sweep bound (possible only with corrupted transfer functions).
pub fn optimize(f: &Function, algorithm: PreAlgorithm) -> Result<Optimized, PipelineError> {
    optimize_with(
        f,
        algorithm,
        SolveStrategy::default(),
        &mut SolverScratch::new(),
    )
}

/// [`optimize`] with an explicit [`SolveStrategy`] and a caller-owned
/// [`SolverScratch`]. Only [`PreAlgorithm::LazyEdge`] runs the fused
/// pipeline that consults them; the other algorithms solve their analyses
/// standalone and ignore both (every strategy reaches the same fixpoints,
/// so the choice never changes a plan — see `tests/solver_equivalence.rs`).
///
/// # Errors
///
/// Returns [`PipelineError::Solver`] if any analysis exceeds its derived
/// sweep bound.
pub fn optimize_with(
    f: &Function,
    algorithm: PreAlgorithm,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<Optimized, PipelineError> {
    match algorithm {
        PreAlgorithm::LazyNode | PreAlgorithm::AlmostLazyNode => {
            let res = lazy_node_plan(f, algorithm == PreAlgorithm::LazyNode)?;
            let transform = apply_plan(&res.function, &res.universe, &res.local, &res.plan);
            Ok(Optimized {
                function: transform.function.clone(),
                transform,
                plan: res.plan,
                input: res.function,
                algorithm,
                pipeline_stats: None,
                spec: None,
            })
        }
        // Without a caller-supplied profile the speculative planner runs
        // on unit weights; see `optimize_speculative_with`.
        PreAlgorithm::Speculative => {
            optimize_speculative_with(f, &EdgeWeights::unit(f), strategy, scratch)
        }
        _ => {
            let uni = ExprUniverse::of(f);
            let local = LocalPredicates::compute(f, &uni);
            let mut pipeline_stats = None;
            let plan = match algorithm {
                PreAlgorithm::Busy => {
                    let ga = GlobalAnalyses::compute(f, &uni, &local)?;
                    busy_plan(f, &uni, &local, &ga)
                }
                PreAlgorithm::LazyEdge => {
                    // The fused pipeline (shared CfgView, reused scratch)
                    // reaches the same fixpoints as the per-analysis path;
                    // see tests/solver_equivalence.rs.
                    let view = lcm_dataflow::CfgView::new(f);
                    let ga =
                        GlobalAnalyses::compute_with(f, &uni, &local, &view, strategy, scratch)?;
                    let lazy = lazy_edge_plan_with(f, &uni, &local, &ga, &view, strategy, scratch)?;
                    pipeline_stats = Some(PipelineStats {
                        avail: ga.avail.stats,
                        antic: ga.antic.stats,
                        later: lazy.stats,
                    });
                    lazy.plan
                }
                PreAlgorithm::MorelRenvoise => morel_renvoise_plan(f, &uni, &local)?.plan,
                // GCSE's "plan" is the empty plan: the shared transform
                // machinery then deletes exactly the occurrences whose value
                // is available from existing computations on all paths.
                PreAlgorithm::Gcse => PlacementPlan::empty("gcse", f, &uni),
                PreAlgorithm::LazyNode
                | PreAlgorithm::AlmostLazyNode
                | PreAlgorithm::Speculative => unreachable!(),
            };
            let transform = apply_plan(f, &uni, &local, &plan);
            Ok(Optimized {
                function: transform.function.clone(),
                transform,
                plan,
                input: f.clone(),
                algorithm,
                pipeline_stats,
                spec: None,
            })
        }
    }
}

/// Profile-guided speculative PRE: the lazy-code-motion pipeline followed
/// by the per-expression min-cut improvement of [`speculative_plan`] under
/// the edge weights `w` (see [`speculate`] for the construction). The
/// resulting plan is admissible *except* where an expression is provably
/// side-effect-free, and under an exact profile its weighted evaluation
/// count never exceeds lazy code motion's.
///
/// # Errors
///
/// Returns [`PipelineError::Solver`] if any analysis exceeds its derived
/// sweep bound.
pub fn optimize_speculative(f: &Function, w: &EdgeWeights) -> Result<Optimized, PipelineError> {
    optimize_speculative_with(f, w, SolveStrategy::default(), &mut SolverScratch::new())
}

/// [`optimize_speculative`] with an explicit [`SolveStrategy`] and a
/// caller-owned [`SolverScratch`] — the batch driver's per-worker path.
///
/// # Errors
///
/// Returns [`PipelineError::Solver`] if any analysis exceeds its derived
/// sweep bound.
pub fn optimize_speculative_with(
    f: &Function,
    w: &EdgeWeights,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<Optimized, PipelineError> {
    let uni = ExprUniverse::of(f);
    let local = LocalPredicates::compute(f, &uni);
    let view = lcm_dataflow::CfgView::new(f);
    let ga = GlobalAnalyses::compute_with(f, &uni, &local, &view, strategy, scratch)?;
    let lazy = lazy_edge_plan_with(f, &uni, &local, &ga, &view, strategy, scratch)?;
    let pipeline_stats = Some(PipelineStats {
        avail: ga.avail.stats,
        antic: ga.antic.stats,
        later: lazy.stats,
    });
    let spec = speculative_plan(f, &uni, &local, &ga, &lazy, w);
    let transform = apply_plan(f, &uni, &local, &spec.plan);
    Ok(Optimized {
        function: transform.function.clone(),
        transform,
        plan: spec.plan,
        input: f.clone(),
        algorithm: PreAlgorithm::Speculative,
        pipeline_stats,
        spec: Some(spec.stats),
    })
}

/// [`optimize_speculative`] followed by
/// [`validate::validate_optimized`] at `level` — the checked pass
/// boundary for the speculative placement. The validator applies its
/// speculation-aware admissibility rule (unsafe points must carry
/// side-effect-free expressions) and skips the per-input eval-count
/// non-regression, which speculation legitimately trades away on cold
/// paths.
///
/// # Errors
///
/// [`PipelineError::Solver`] if an analysis diverges,
/// [`PipelineError::Validation`] if the result violates an invariant.
pub fn optimize_speculative_checked(
    f: &Function,
    w: &EdgeWeights,
    level: ValidationLevel,
    seed: u64,
) -> Result<(Optimized, ValidationReport), PipelineError> {
    optimize_speculative_checked_with(
        f,
        w,
        level,
        seed,
        SolveStrategy::default(),
        &mut SolverScratch::new(),
    )
}

/// [`optimize_speculative_checked`] with an explicit [`SolveStrategy`] and
/// caller-owned [`SolverScratch`].
///
/// # Errors
///
/// [`PipelineError::Solver`] if an analysis diverges,
/// [`PipelineError::Validation`] if the result violates an invariant.
pub fn optimize_speculative_checked_with(
    f: &Function,
    w: &EdgeWeights,
    level: ValidationLevel,
    seed: u64,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<(Optimized, ValidationReport), PipelineError> {
    let opt = optimize_speculative_with(f, w, strategy, scratch)?;
    let report = validate::validate_optimized(f, &opt, level, seed)?;
    Ok((opt, report))
}

/// [`optimize`] followed by [`validate::validate_optimized`] at `level`:
/// the checked pass boundary. The returned report carries the validator's
/// timings for `--emit stats`-style reporting.
///
/// # Errors
///
/// [`PipelineError::Solver`] if an analysis diverges,
/// [`PipelineError::Validation`] if the result violates a paper invariant.
pub fn optimize_checked(
    f: &Function,
    algorithm: PreAlgorithm,
    level: ValidationLevel,
    seed: u64,
) -> Result<(Optimized, ValidationReport), PipelineError> {
    optimize_checked_with(
        f,
        algorithm,
        level,
        seed,
        SolveStrategy::default(),
        &mut SolverScratch::new(),
    )
}

/// [`optimize_checked`] with an explicit [`SolveStrategy`] and caller-owned
/// [`SolverScratch`] — the batch driver's per-worker path.
///
/// # Errors
///
/// [`PipelineError::Solver`] if an analysis diverges,
/// [`PipelineError::Validation`] if the result violates a paper invariant.
pub fn optimize_checked_with(
    f: &Function,
    algorithm: PreAlgorithm,
    level: ValidationLevel,
    seed: u64,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<(Optimized, ValidationReport), PipelineError> {
    let opt = optimize_with(f, algorithm, strategy, scratch)?;
    let report = validate::validate_optimized(f, &opt, level, seed)?;
    Ok((opt, report))
}

/// [`optimize_checked_with`] under an [`OptimizeBudget`]: the deadline and
/// cancel flag are checked before solving, after solving, and after
/// validation; the fuel ceiling is checked against the fused pipeline's
/// actual node-visit count the moment the solves finish. Fuel is only
/// observable for the algorithms that run the fused pipeline
/// ([`PreAlgorithm::LazyEdge`] and [`PreAlgorithm::Speculative`]); the
/// standalone-solve algorithms report no [`PipelineStats`] and are governed
/// by the deadline alone.
///
/// # Errors
///
/// [`PipelineError::Cancelled`] when the budget is exceeded, plus
/// everything [`optimize_checked_with`] can return.
pub fn optimize_checked_budgeted(
    f: &Function,
    algorithm: PreAlgorithm,
    level: ValidationLevel,
    seed: u64,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
    budget: &OptimizeBudget,
) -> Result<(Optimized, ValidationReport), PipelineError> {
    budget.check("solve")?;
    let opt = optimize_with(f, algorithm, strategy, scratch)?;
    let visits = opt
        .pipeline_stats
        .as_ref()
        .map_or(0, |s| s.total().node_visits as u64);
    budget.check_fuel("validate", visits)?;
    let report = validate::validate_optimized(f, &opt, level, seed)?;
    budget.check("finish")?;
    Ok((opt, report))
}

/// [`optimize_speculative_checked_with`] under an [`OptimizeBudget`] —
/// same stage boundaries as [`optimize_checked_budgeted`].
///
/// # Errors
///
/// [`PipelineError::Cancelled`] when the budget is exceeded, plus
/// everything [`optimize_speculative_checked_with`] can return.
pub fn optimize_speculative_checked_budgeted(
    f: &Function,
    w: &EdgeWeights,
    level: ValidationLevel,
    seed: u64,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
    budget: &OptimizeBudget,
) -> Result<(Optimized, ValidationReport), PipelineError> {
    budget.check("solve")?;
    let opt = optimize_speculative_with(f, w, strategy, scratch)?;
    let visits = opt
        .pipeline_stats
        .as_ref()
        .map_or(0, |s| s.total().node_visits as u64);
    budget.check_fuel("validate", visits)?;
    let report = validate::validate_optimized(f, &opt, level, seed)?;
    budget.check("finish")?;
    Ok((opt, report))
}

/// The full pipeline a compiler would run: LCSE, the chosen PRE algorithm,
/// copy propagation, dead-code elimination, CFG simplification. Returns
/// the final function.
///
/// # Errors
///
/// Propagates [`optimize`]'s solver errors.
pub fn optimize_pipeline(f: &Function, algorithm: PreAlgorithm) -> Result<Function, PipelineError> {
    let mut pre = f.clone();
    passes::lcse(&mut pre);
    let mut optimized = optimize(&pre, algorithm)?.function;
    passes::copy_propagation(&mut optimized);
    passes::dce(&mut optimized);
    lcm_ir::simplify_cfg(&mut optimized);
    Ok(optimized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_ir::parse_function;

    const DIAMOND: &str = "fn d {
        entry:
          br c, l, r
        l:
          x = a + b
          jmp join
        r:
          jmp join
        join:
          y = a + b
          obs y
          ret
        }";

    #[test]
    fn every_algorithm_produces_a_valid_function() {
        let f = parse_function(DIAMOND).unwrap();
        for alg in PreAlgorithm::ALL {
            let o = optimize(&f, alg).unwrap();
            lcm_ir::verify(&o.function).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert_eq!(o.algorithm, alg);
        }
    }

    #[test]
    fn pipeline_output_is_clean_and_equivalent() {
        let f = parse_function(DIAMOND).unwrap();
        let g = optimize_pipeline(&f, PreAlgorithm::LazyEdge).unwrap();
        lcm_ir::verify(&g).unwrap();
        for c in [0, 1] {
            let inputs = lcm_interp::Inputs::new()
                .set("a", 3)
                .set("b", 4)
                .set("c", c);
            assert!(lcm_interp::observationally_equivalent(
                &f, &g, &inputs, 10_000
            ));
        }
        // The join no longer computes a + b.
        let join = g.block_by_name("join").unwrap();
        assert!(g.block(join).exprs().next().is_none());
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(PreAlgorithm::Busy.name(), "bcm");
        assert_eq!(PreAlgorithm::ALL.len(), 6);
    }
}
