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
//! [`Pipeline::run`], which validates the result at the requested
//! [`validate::ValidationLevel`] (under an [`OptimizeBudget`]) before
//! returning it.

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
pub use lcm_edge::{later_problem, lazy_edge_plan, lazy_edge_plan_with, LazyEdgeResult};
pub use lcm_node::{lazy_node_plan, LazyNodeResult};
pub use morel_renvoise::{morel_renvoise_plan, MorelRenvoiseResult};
pub use pipeline::{lcm, LcmPipeline, PipelineStats};
pub use predicates::LocalPredicates;
pub use speculate::{speculative_plan, weights_or_unit, EdgeWeights, SpecResult, SpecStats};
pub use transform::{apply_plan, PlacementPlan, TransformResult};
pub use universe::ExprUniverse;
pub use validate::{check_memory_kills, ValidationError, ValidationLevel, ValidationReport};

use std::error::Error;
use std::fmt;

use lcm_dataflow::{SolverDiverged, SolverScratch};
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
    /// weights via [`Pipeline::weights`].
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
/// (or use [`optimize_pipeline`]). [`PreAlgorithm::Speculative`] runs on
/// unit weights here; pass a profile's weights through [`Pipeline`].
///
/// # Errors
///
/// Returns [`PipelineError::Solver`] if any analysis exceeds its derived
/// sweep bound (possible only with corrupted transfer functions).
pub fn optimize(f: &Function, algorithm: PreAlgorithm) -> Result<Optimized, PipelineError> {
    place(f, algorithm, None, &mut SolverScratch::new())
}

/// The checked pass boundary: one PRE placement, validated by
/// [`validate::validate_optimized`], under an [`OptimizeBudget`]. This is
/// the single entry point the CLI, the batch driver and the daemon run.
#[derive(Clone, Copy, Debug)]
pub struct Pipeline<'a> {
    /// The PRE algorithm to run.
    pub placement: PreAlgorithm,
    /// Edge weights for [`PreAlgorithm::Speculative`] (ignored by every
    /// other algorithm); `None` means unit weights, as in [`optimize`].
    pub weights: Option<&'a EdgeWeights>,
    /// The validation tier the result is checked at.
    pub validation: ValidationLevel,
    /// Seed for the validator's differential execution.
    pub seed: u64,
    /// The deadline, fuel and cancel-flag limits of the run.
    pub budget: &'a OptimizeBudget,
}

impl Pipeline<'_> {
    /// Runs the placement on `f` with a caller-owned [`SolverScratch`]
    /// (the batch driver holds one per worker), then validates it. The
    /// deadline and cancel flag are checked before solving, after solving,
    /// and after validation; the fuel ceiling is checked against the fused
    /// pipeline's node-visit count the moment the solves finish. Fuel is
    /// only observable for the algorithms that run the fused pipeline
    /// ([`PreAlgorithm::LazyEdge`] and [`PreAlgorithm::Speculative`]); the
    /// others report no [`PipelineStats`] and are governed by the deadline
    /// alone.
    ///
    /// Speculative plans get the validator's speculation-aware
    /// admissibility rule (unsafe points must carry side-effect-free
    /// expressions) and skip the per-input eval-count non-regression, which
    /// speculation legitimately trades away on cold paths.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Cancelled`] when the budget is exceeded,
    /// [`PipelineError::Solver`] if an analysis diverges, and
    /// [`PipelineError::Validation`] if the result violates a paper
    /// invariant.
    pub fn run(
        &self,
        f: &Function,
        scratch: &mut SolverScratch,
    ) -> Result<(Optimized, ValidationReport), PipelineError> {
        self.budget.check("solve")?;
        let opt = place(f, self.placement, self.weights, scratch)?;
        let visits = opt
            .pipeline_stats
            .as_ref()
            .map_or(0, |s| s.total().node_visits as u64);
        self.budget.check_fuel("validate", visits)?;
        let report = validate::validate_optimized(f, &opt, self.validation, self.seed)?;
        self.budget.check("finish")?;
        Ok((opt, report))
    }
}

/// Analyses, placement and rewriting for one algorithm — the unchecked
/// core of [`optimize`] and [`Pipeline::run`]. Only the fused-pipeline
/// algorithms consult `scratch`; the others solve their analyses
/// standalone.
fn place(
    f: &Function,
    algorithm: PreAlgorithm,
    weights: Option<&EdgeWeights>,
    scratch: &mut SolverScratch,
) -> Result<Optimized, PipelineError> {
    if let PreAlgorithm::LazyNode | PreAlgorithm::AlmostLazyNode = algorithm {
        let res = lazy_node_plan(f, algorithm == PreAlgorithm::LazyNode)?;
        let transform = apply_plan(&res.function, &res.universe, &res.local, &res.plan);
        return Ok(Optimized {
            function: transform.function.clone(),
            transform,
            plan: res.plan,
            input: res.function,
            algorithm,
            pipeline_stats: None,
            spec: None,
        });
    }
    let (uni, local, plan, pipeline_stats, spec) = match algorithm {
        PreAlgorithm::LazyEdge | PreAlgorithm::Speculative => {
            let p = lcm(f, scratch)?;
            let (plan, spec) = if algorithm == PreAlgorithm::Speculative {
                let unit;
                let w = match weights {
                    Some(w) => w,
                    None => {
                        unit = EdgeWeights::unit(f);
                        &unit
                    }
                };
                let s = speculative_plan(f, &p.universe, &p.local, &p.analyses, &p.lazy, w);
                (s.plan, Some(s.stats))
            } else {
                (p.lazy.plan, None)
            };
            (p.universe, p.local, plan, Some(p.stats), spec)
        }
        _ => {
            let uni = ExprUniverse::of(f);
            let local = LocalPredicates::compute(f, &uni);
            let plan = match algorithm {
                PreAlgorithm::Busy => {
                    let ga = GlobalAnalyses::compute(f, &uni, &local)?;
                    busy_plan(f, &uni, &local, &ga)
                }
                PreAlgorithm::MorelRenvoise => morel_renvoise_plan(f, &uni, &local)?.plan,
                // GCSE's "plan" is the empty plan: the shared transform
                // machinery then deletes exactly the occurrences whose value
                // is available from existing computations on all paths.
                PreAlgorithm::Gcse => PlacementPlan::empty("gcse", f, &uni),
                other => unreachable!("{} is planned above", other.name()),
            };
            (uni, local, plan, None, None)
        }
    };
    let transform = apply_plan(f, &uni, &local, &plan);
    Ok(Optimized {
        function: transform.function.clone(),
        transform,
        plan,
        input: f.clone(),
        algorithm,
        pipeline_stats,
        spec,
    })
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
