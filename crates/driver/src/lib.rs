//! # lcm-driver — the parallel batch-optimization engine
//!
//! Every other entry point in the workspace handles one function at a time.
//! This crate drives a whole [`Module`] (or a directory of `.lcm` files)
//! through the checked LCM pipeline:
//!
//! * **Sharding** — functions are fanned out over a work-stealing pool of
//!   scoped `std::thread` workers ([`pool::run_indexed`]); results are
//!   collected by function index, never by completion order.
//! * **Isolation** — each function runs inside `catch_unwind` with its
//!   input verified first, so a malformed or pipeline-crashing function
//!   fails *its unit* and the rest of the batch completes.
//! * **Caching** — a content-addressed [`PlanCache`] keyed by the
//!   canonically-printed function body means duplicate functions across a
//!   corpus are optimized once; cached plans are **re-validated** on hit,
//!   so a corrupted cache degrades to a unit failure, not to wrong code.
//! * **Determinism** — cache lookups, cache insertions and report assembly
//!   are sequential in function order; only the pipeline runs themselves
//!   are parallel. The rendered output and aggregated statistics are
//!   byte-identical for every thread count (asserted in
//!   `tests/determinism.rs` and by `ci.sh`'s batch smoke stage).
//!
//! # Example
//!
//! ```
//! use lcm_driver::{BatchEngine, BatchOptions};
//!
//! let m = lcm_ir::parse_module(
//!     "fn a {\nentry:\n  x = p + q\n  obs x\n  ret\n}\n\n\
//!      fn b {\nentry:\n  x = p + q\n  obs x\n  ret\n}",
//! )?;
//! let mut engine = BatchEngine::new(BatchOptions::default());
//! let result = engine.run_module(&m);
//! assert_eq!(result.totals.ok, 2);
//! // `b` is `a` with different names — optimized once, served from cache.
//! assert_eq!(result.totals.cache.hits, 1);
//! # Ok::<(), lcm_ir::ParseError>(())
//! ```

pub mod pool;
pub mod report;

pub mod protocol;
pub mod serve;

mod cache;
mod load;
mod persist;

pub use cache::{
    canonical_text, fingerprint, fingerprint_with_context, CacheEntry, CacheStats, ComputedOrigin,
    PlanCache, CANONICAL_NAME,
};
pub use load::{load_units, text_from_bytes, LoadError};
pub use persist::{
    corrupt_sidecar, load_cache, load_or_quarantine, save_cache, tmp_path, CacheFileError,
    LifetimeCounters, LoadStatus, CACHE_FORMAT_VERSION, CACHE_MAGIC, STATS_MAGIC,
};

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use lcm_core::transform::TransformStats;
use lcm_core::validate::{sample_inputs, validate_optimized, ValidationLevel};
use lcm_core::{
    passes, EdgeWeights, OptimizeBudget, Pipeline, PipelineError, PipelineStats, PreAlgorithm,
    SpecStats,
};
use lcm_dataflow::SolverScratch;
use lcm_ir::{parse_function, simplify_cfg, verify, Function, Module, Profile};

/// How a batch run is configured.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// The PRE placement each unit runs.
    /// [`PreAlgorithm::Speculative`] consumes the unit's edge profile;
    /// units without a (resolvable) profile fall back to
    /// [`PreAlgorithm::LazyEdge`] — there is no frequency information to
    /// speculate on — and share cache entries with plain LCM runs.
    pub placement: PreAlgorithm,
    /// Validation tier for computed units; cache hits are re-validated at
    /// the fast tier whenever this is not [`ValidationLevel::Off`].
    pub validate: ValidationLevel,
    /// Seed for the validator's differential execution.
    pub seed: u64,
    /// Whether the plan cache is consulted and filled.
    pub use_cache: bool,
    /// Plan-cache capacity in entries; `0` means unbounded.
    pub cache_capacity: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 0,
            placement: PreAlgorithm::LazyEdge,
            validate: ValidationLevel::Fast,
            seed: 0x1c3a_57ed,
            use_cache: true,
            cache_capacity: 4096,
        }
    }
}

/// One function to optimize, with its provenance for reporting.
#[derive(Clone, Debug)]
pub struct BatchUnit {
    /// The file the function came from, if any.
    pub file: Option<String>,
    /// The function itself.
    pub function: Function,
    /// The function's edge profile, if its module carried one. Consulted
    /// only under [`PreAlgorithm::Speculative`].
    pub profile: Option<Profile>,
}

/// Why a unit failed. The batch itself never fails; these are per-unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The input function failed structural verification.
    InvalidInput,
    /// The checked pipeline returned a typed [`lcm_core::PipelineError`].
    Pipeline,
    /// The cleanup passes produced IR that fails verification.
    InvalidOutput,
    /// The pipeline panicked; the panic was caught and contained.
    Panic,
    /// A cached plan failed re-validation on hit (cache corruption).
    PoisonedCache,
    /// The unit exceeded its [`OptimizeBudget`] (deadline/fuel/cancel flag)
    /// and was abandoned at a pipeline stage boundary.
    Cancelled,
}

impl FailureKind {
    /// A short stable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::InvalidInput => "invalid-input",
            FailureKind::Pipeline => "pipeline",
            FailureKind::InvalidOutput => "invalid-output",
            FailureKind::Panic => "panic",
            FailureKind::PoisonedCache => "poisoned-cache",
            FailureKind::Cancelled => "cancelled",
        }
    }
}

/// A unit failure: what kind, and the underlying message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnitError {
    /// The failure class.
    pub kind: FailureKind,
    /// The underlying error or panic message.
    pub message: String,
}

/// A successfully optimized unit.
#[derive(Clone, Debug)]
pub struct UnitSuccess {
    /// The optimized function, printed under the unit's own name.
    pub output: String,
    /// Solver statistics of the fused pipeline run (cached runs report the
    /// statistics recorded when the entry was built).
    pub pipeline: PipelineStats,
    /// Rewrite counters.
    pub transform: TransformStats,
    /// Validator checks run **for this unit in this batch** — zero for a
    /// duplicate replayed from a leader computed moments earlier.
    pub validation_checks: usize,
    /// Differential inputs sampled for this unit in this batch.
    pub inputs_sampled: usize,
}

/// The outcome of one unit.
#[derive(Clone, Debug)]
pub enum UnitOutcome {
    /// Optimized (possibly from cache) and validated.
    Ok(UnitSuccess),
    /// Failed; the rest of the batch is unaffected.
    Failed(UnitError),
}

/// How the cache participated in a unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheDisposition {
    /// The cache was off.
    Uncached,
    /// A pipeline run produced (and cached) the result.
    Computed,
    /// Served from the cache — a prior batch's entry or an intra-batch
    /// duplicate's leader.
    Hit,
}

impl CacheDisposition {
    /// A short stable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Uncached => "uncached",
            CacheDisposition::Computed => "computed",
            CacheDisposition::Hit => "hit",
        }
    }
}

/// Everything the driver has to say about one unit.
#[derive(Clone, Debug)]
pub struct UnitReport {
    /// The function's name.
    pub name: String,
    /// The file it came from, if any.
    pub file: Option<String>,
    /// How the cache participated.
    pub cache: CacheDisposition,
    /// What happened.
    pub outcome: UnitOutcome,
}

/// Deterministic aggregates over a batch.
///
/// Wall-clock numbers are deliberately absent: everything here is a pure
/// function of the input module and the cache state, so it is identical
/// for every `--jobs` value. Timing belongs on stderr.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct BatchTotals {
    /// Units in the batch.
    pub functions: usize,
    /// Units that optimized successfully.
    pub ok: usize,
    /// Units that failed.
    pub failed: usize,
    /// Units that ran the pipeline (as opposed to hitting the cache).
    pub computed: usize,
    /// Merged solver statistics over computed units.
    pub pipeline: PipelineStats,
    /// Merged rewrite counters over computed units.
    pub transform: TransformStats,
    /// Merged speculative-planner counters over computed units (all zero
    /// unless the batch ran [`PreAlgorithm::Speculative`]).
    pub spec: SpecStats,
    /// Validator checks run in this batch (computed units plus cache-hit
    /// re-validations).
    pub validation_checks: usize,
    /// Differential inputs sampled in this batch.
    pub inputs_sampled: usize,
    /// Cache counters — cumulative for the engine, so a second batch on
    /// the same engine sees the first batch's entries.
    pub cache: CacheStats,
    /// Live cache entries after the batch.
    pub cache_entries: usize,
    /// Lifetime cache counters (persisted footer + this process), present
    /// only when the engine is backed by a cache file.
    pub lifetime: Option<LifetimeCounters>,
}

/// The result of one batch run.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-unit reports, in input order.
    pub units: Vec<UnitReport>,
    /// Deterministic aggregates.
    pub totals: BatchTotals,
}

/// How phase 1 decided to handle a unit. Planning is sequential and in
/// input order, so the decisions — and every cache counter — are
/// independent of the thread count.
enum UnitPlan {
    /// Input verification failed.
    Invalid(UnitError),
    /// Run the pipeline; cache under `key` if the cache is on.
    Compute { key: Option<u128> },
    /// Intra-batch duplicate of the unit at `leader` (which computes).
    Replay { leader: usize },
    /// Already cached. The reporting fields are snapshotted at planning
    /// time so later insertions (and their evictions) cannot disturb them.
    Hit {
        key: u128,
        output_text: String,
        pipeline: PipelineStats,
        transform: TransformStats,
    },
}

/// One parallel job: run a unit's pipeline, or re-validate a cached entry.
enum Job {
    Compute(usize),
    Revalidate(u128),
}

/// What a parallel job produced. The computed entry is boxed: it is two
/// orders of magnitude bigger than the revalidation counters.
enum JobOut {
    Computed(usize, Result<Box<CacheEntry>, UnitError>),
    Revalidated(u128, Result<(usize, usize), UnitError>),
}

/// The durable-cache half of an engine: where the cache file lives, the
/// counters it carried when loaded, and how the load went.
#[derive(Debug)]
struct PersistState {
    path: std::path::PathBuf,
    base: LifetimeCounters,
    status: LoadStatus,
}

/// The zero-dirty output memo for one function name: the canonical output
/// of the last revision the engine computed for that name, keyed by the
/// revision's fingerprint and the options it ran under. An identical
/// revision replays the text verbatim — no plan, rewrite, validation, or
/// printing — and anything else recomputes through [`optimize_unit`].
#[derive(Debug)]
pub struct OutputMemo {
    /// Fingerprint (with placement context) of the pre-LCSE input the
    /// output was computed from.
    pub key: u128,
    /// The canonical printed output of that input.
    pub output_text: String,
    /// Fingerprint of every output-affecting engine option
    /// ([`options_tag`]) at the time the memo was recorded. Any placement,
    /// validation or seed change invalidates the memo — the next revision
    /// recomputes even on identical input.
    pub opts_tag: String,
}

/// The output-affecting option fingerprint an [`OutputMemo`] is keyed
/// under. Deliberately includes the validation tier and seed even though
/// they cannot change the output text: a flag change must force a real
/// run, never a memo replay recorded under different settings.
pub fn options_tag(opts: &BatchOptions) -> String {
    format!(
        "{}|{:?}|{:#x}",
        opts.placement.name(),
        opts.validate,
        opts.seed
    )
}

/// What the output memo did for a `watch` or daemon session.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MemoStats {
    /// Identical revisions replayed from the memo.
    pub hits: u64,
    /// Changed revisions of a memoized function, recomputed from scratch.
    pub recomputes: u64,
}

/// Which path answered one unit of
/// [`BatchEngine::run_module_incremental`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IncrementalMode {
    /// No memo for this function name yet: computed, and memoized.
    Fresh,
    /// The function changed since its memo was recorded: recomputed from
    /// scratch, and the memo replaced.
    Recomputed,
    /// The revision is byte-identical (same fingerprint, same options) to
    /// the memoized one: the output was replayed with no solve, rewrite,
    /// validation, or printing work at all.
    ZeroDirty,
}

impl IncrementalMode {
    /// Short lowercase label for stats lines (`fresh`, `recomputed`,
    /// `zero-dirty`).
    pub fn name(self) -> &'static str {
        match self {
            IncrementalMode::Fresh => "fresh",
            IncrementalMode::Recomputed => "recomputed",
            IncrementalMode::ZeroDirty => "zero-dirty",
        }
    }
}

/// One function's outcome from [`BatchEngine::run_module_incremental`],
/// in module order.
#[derive(Debug)]
pub struct IncrementalUnit {
    /// The function's name.
    pub name: String,
    /// The optimized function text (name restored, byte-identical to the
    /// batch pipeline's output), or the typed unit failure.
    pub outcome: Result<String, UnitError>,
    /// Which path answered it.
    pub mode: IncrementalMode,
}

/// The batch engine: a [`BatchOptions`] plus a [`PlanCache`] that persists
/// across [`BatchEngine::run`] calls — and, when opened with
/// [`BatchEngine::with_cache_file`], across processes.
#[derive(Debug)]
pub struct BatchEngine {
    opts: BatchOptions,
    cache: PlanCache,
    persisted: Option<PersistState>,
    /// Per-function-name output memos. An entry is replaced on every
    /// recompute of its function and lives until the process exits; the
    /// map is bounded by the number of distinct function names served.
    memos: HashMap<String, OutputMemo>,
    memo_stats: MemoStats,
}

impl BatchEngine {
    /// Creates an engine with an empty cache.
    pub fn new(opts: BatchOptions) -> Self {
        BatchEngine {
            cache: PlanCache::new(opts.cache_capacity),
            opts,
            persisted: None,
            memos: HashMap::new(),
            memo_stats: MemoStats::default(),
        }
    }

    /// Creates an engine backed by the `lcm-cache-v1` file at `path`: a
    /// valid file starts the cache warm (with thin, re-validated-on-hit
    /// entries), a missing file starts it cold, and a corrupt file is
    /// quarantined to a `.corrupt` sidecar and the cache starts cold.
    /// Inspect [`BatchEngine::load_status`] for which happened. Nothing is
    /// written back until [`BatchEngine::flush_cache_file`].
    pub fn with_cache_file(opts: BatchOptions, path: &std::path::Path) -> Self {
        let (cache, base, status) = persist::load_or_quarantine(path, opts.cache_capacity);
        BatchEngine {
            cache,
            opts,
            persisted: Some(PersistState {
                path: path.to_path_buf(),
                base,
                status,
            }),
            memos: HashMap::new(),
            memo_stats: MemoStats::default(),
        }
    }

    /// How the backing cache file loaded; `None` for an in-memory engine.
    pub fn load_status(&self) -> Option<&LoadStatus> {
        self.persisted.as_ref().map(|p| &p.status)
    }

    /// Lifetime cache counters — the persisted footer's totals plus this
    /// process's session; `None` for an in-memory engine.
    pub fn lifetime(&self) -> Option<LifetimeCounters> {
        self.persisted.as_ref().map(|p| self.session_totals(p.base))
    }

    /// `base` plus everything this process has counted so far.
    fn session_totals(&self, base: LifetimeCounters) -> LifetimeCounters {
        base.plus_session(self.cache.stats())
    }

    /// Mutable access to `name`'s output memo — for fault injection and
    /// tests; the normal driver path never needs it.
    pub fn memo_mut(&mut self, name: &str) -> Option<&mut OutputMemo> {
        self.memos.get_mut(name)
    }

    /// Output memos currently held.
    pub fn memos_len(&self) -> usize {
        self.memos.len()
    }

    /// This process's memo counters so far.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo_stats
    }

    /// Replays `name`'s memoized output (canonical name) if it was
    /// recorded for fingerprint `key` under this engine's options, and
    /// counts the hit. A dirty function can never match — the fingerprint
    /// covers the whole canonical body — and an option change invalidates
    /// via the tag.
    fn replay_memo(&mut self, name: &str, key: u128) -> Option<String> {
        let memo = self.memos.get(name)?;
        if memo.key != key || memo.opts_tag != options_tag(&self.opts) {
            return None;
        }
        self.memo_stats.hits += 1;
        Some(memo.output_text.clone())
    }

    /// Records `output_text` (canonical name) as `name`'s memo for `key`.
    /// Replacing an earlier memo counts as a recompute.
    fn record_memo(&mut self, name: &str, key: u128, output_text: String) {
        let memo = OutputMemo {
            key,
            output_text,
            opts_tag: options_tag(&self.opts),
        };
        if self.memos.insert(name.to_string(), memo).is_some() {
            self.memo_stats.recomputes += 1;
        }
    }

    /// Counts a quarantined *entry*: a persisted entry that failed
    /// hit-revalidation and was removed (the daemon's recovery path).
    /// No-op for an in-memory engine.
    pub fn note_entry_quarantine(&mut self) {
        if let Some(p) = &mut self.persisted {
            p.base.quarantines += 1;
        }
    }

    /// Durably writes the cache (and lifetime counters) back to the
    /// backing file — atomic temp-then-rename, see [`save_cache`]. No-op
    /// without a backing file.
    ///
    /// # Errors
    ///
    /// Any I/O error from [`save_cache`].
    pub fn flush_cache_file(&self) -> std::io::Result<()> {
        let Some(p) = &self.persisted else {
            return Ok(());
        };
        persist::save_cache(&p.path, &self.cache, self.session_totals(p.base))
    }

    /// The configuration.
    pub fn options(&self) -> &BatchOptions {
        &self.opts
    }

    /// The plan cache (counters, size).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Mutable access to the cache — for fault injection and tests; the
    /// normal driver path never needs it.
    pub fn cache_mut(&mut self) -> &mut PlanCache {
        &mut self.cache
    }

    /// Optimizes every function of `m` as one batch.
    pub fn run_module(&mut self, m: &Module) -> BatchResult {
        self.run(
            m.iter()
                .map(|f| BatchUnit {
                    file: None,
                    profile: m.profile(&f.name).cloned(),
                    function: f.clone(),
                })
                .collect(),
        )
    }

    /// Optimizes every function of `m` sequentially and in module order,
    /// reusing work only through the output memo: a function whose
    /// fingerprint and options match its memo replays the memoized text;
    /// every other function runs the same [`optimize_unit`] pipeline as
    /// [`BatchEngine::run`] and leaves its output behind as the new memo.
    ///
    /// Per-unit output text is byte-identical to [`BatchEngine::run_module`]
    /// for the same input and options (pinned by `tests/incremental.rs`
    /// and `tests/watch.rs`). This is the `lcmopt watch` engine; the serve
    /// daemon consults the same memo before its plan cache.
    pub fn run_module_incremental(&mut self, m: &Module) -> Vec<IncrementalUnit> {
        let mut scratch = SolverScratch::new();
        m.iter()
            .map(|f| {
                let (outcome, mode) = self.incremental_unit(f, m.profile(&f.name), &mut scratch);
                IncrementalUnit {
                    name: f.name.clone(),
                    outcome,
                    mode,
                }
            })
            .collect()
    }

    fn incremental_unit(
        &mut self,
        f: &Function,
        profile: Option<&Profile>,
        scratch: &mut SolverScratch,
    ) -> (Result<String, UnitError>, IncrementalMode) {
        if let Err(e) = verify(f) {
            let err = UnitError {
                kind: FailureKind::InvalidInput,
                message: e.to_string(),
            };
            return (Err(err), IncrementalMode::Fresh);
        }
        let weights = if self.opts.placement == PreAlgorithm::Speculative {
            profile.and_then(|p| EdgeWeights::from_profile(f, p).ok())
        } else {
            None
        };
        let context = unit_context(self.opts.placement, weights.as_ref());
        let key = fingerprint_with_context(f, &context).0;
        if let Some(text) = self.replay_memo(&f.name, key) {
            return (
                Ok(cache::with_name(&text, &f.name)),
                IncrementalMode::ZeroDirty,
            );
        }
        let mode = if self.memos.contains_key(&f.name) {
            IncrementalMode::Recomputed
        } else {
            IncrementalMode::Fresh
        };
        let computed = isolate(AssertUnwindSafe(|| {
            optimize_unit(
                f,
                &self.opts,
                weights.as_ref(),
                &context,
                scratch,
                &OptimizeBudget::unlimited(),
            )
        }));
        let outcome = computed.map(|entry| {
            let output = cache::with_name(&entry.output_text, &f.name);
            self.record_memo(&f.name, key, entry.output_text);
            output
        });
        (outcome, mode)
    }

    /// Optimizes `units` as one batch. See the crate docs for the phase
    /// structure; the short version is *plan sequentially, compute in
    /// parallel, assemble sequentially*.
    pub fn run(&mut self, units: Vec<BatchUnit>) -> BatchResult {
        let threads = resolve_jobs(self.opts.jobs);

        // Resolve profiles to edge weights up front (sequentially, so a
        // malformed profile degrades identically for every thread count).
        // `None` means "run plain LCM": either the batch isn't speculative,
        // or this unit has no resolvable profile to speculate on.
        let weights: Vec<Option<EdgeWeights>> = units
            .iter()
            .map(|u| {
                if self.opts.placement == PreAlgorithm::Speculative {
                    u.profile
                        .as_ref()
                        .and_then(|p| EdgeWeights::from_profile(&u.function, p).ok())
                } else {
                    None
                }
            })
            .collect();
        let contexts: Vec<String> = weights
            .iter()
            .map(|w| unit_context(self.opts.placement, w.as_ref()))
            .collect();

        // Phase 1 — sequential planning in input order: verify inputs,
        // consult the cache, pick one leader per distinct new fingerprint.
        let mut plans: Vec<UnitPlan> = Vec::with_capacity(units.len());
        let mut leader_of: HashMap<u128, usize> = HashMap::new();
        for (i, unit) in units.iter().enumerate() {
            if let Err(e) = verify(&unit.function) {
                plans.push(UnitPlan::Invalid(UnitError {
                    kind: FailureKind::InvalidInput,
                    message: e.to_string(),
                }));
                continue;
            }
            if !self.opts.use_cache {
                plans.push(UnitPlan::Compute { key: None });
                continue;
            }
            let (key, text) = fingerprint_with_context(&unit.function, &contexts[i]);
            if let Some(entry) = self.cache.get(key, &text) {
                let plan = UnitPlan::Hit {
                    key,
                    output_text: entry.output_text.clone(),
                    pipeline: entry.pipeline,
                    transform: entry.transform,
                };
                self.cache.note_hit();
                plans.push(plan);
            } else if let Some(&leader) = leader_of.get(&key) {
                self.cache.note_hit();
                plans.push(UnitPlan::Replay { leader });
            } else {
                self.cache.note_miss();
                leader_of.insert(key, i);
                plans.push(UnitPlan::Compute { key: Some(key) });
            }
        }

        // Phase 2 — the parallel part: pipeline runs for every planned
        // compute, plus one fast-tier re-validation per distinct cache hit.
        let mut jobs: Vec<Job> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            if matches!(plan, UnitPlan::Compute { .. }) {
                jobs.push(Job::Compute(i));
            }
        }
        if self.opts.validate != ValidationLevel::Off {
            let mut seen: Vec<u128> = Vec::new();
            for plan in &plans {
                if let UnitPlan::Hit { key, .. } = plan {
                    if !seen.contains(key) {
                        seen.push(*key);
                        jobs.push(Job::Revalidate(*key));
                    }
                }
            }
        }

        let cache = &self.cache;
        let opts = self.opts;
        // One SolverScratch per worker, reused across every function that
        // worker computes: O(threads) solver arenas per batch instead of
        // O(functions × analyses × blocks) transient allocations.
        let outs: Vec<JobOut> = pool::run_indexed_with(
            threads,
            jobs.len(),
            SolverScratch::new,
            |scratch, j| match jobs[j] {
                Job::Compute(i) => JobOut::Computed(
                    i,
                    isolate(AssertUnwindSafe(|| {
                        optimize_unit(
                            &units[i].function,
                            &opts,
                            weights[i].as_ref(),
                            &contexts[i],
                            scratch,
                            &OptimizeBudget::unlimited(),
                        )
                        .map(Box::new)
                    })),
                ),
                Job::Revalidate(key) => {
                    let entry = cache
                        .entry_ref(key)
                        .expect("planned hit entries outlive phase 2");
                    JobOut::Revalidated(
                        key,
                        isolate(AssertUnwindSafe(|| revalidate_entry(entry, opts.seed))),
                    )
                }
            },
        );

        let mut computed: HashMap<usize, Result<Box<CacheEntry>, UnitError>> = HashMap::new();
        let mut revalidated: HashMap<u128, Result<(usize, usize), UnitError>> = HashMap::new();
        for out in outs {
            match out {
                JobOut::Computed(i, r) => {
                    computed.insert(i, r);
                }
                JobOut::Revalidated(key, r) => {
                    revalidated.insert(key, r);
                }
            }
        }

        // Phase 3 — sequential assembly in input order. Cache insertions
        // happen here, in input order, so the eviction sequence is
        // deterministic too.
        let mut reports: Vec<UnitReport> = Vec::with_capacity(units.len());
        let mut totals = BatchTotals {
            functions: units.len(),
            ..BatchTotals::default()
        };
        for (i, (unit, plan)) in units.iter().zip(&plans).enumerate() {
            let name = unit.function.name.clone();
            let (disposition, outcome) = match plan {
                UnitPlan::Invalid(e) => {
                    (CacheDisposition::Uncached, UnitOutcome::Failed(e.clone()))
                }
                UnitPlan::Compute { key } => {
                    let disposition = if key.is_some() {
                        CacheDisposition::Computed
                    } else {
                        CacheDisposition::Uncached
                    };
                    match &computed[&i] {
                        Ok(entry) => {
                            totals.computed += 1;
                            totals.pipeline += entry.pipeline;
                            totals.transform += entry.transform;
                            totals.spec += entry
                                .origin
                                .as_ref()
                                .and_then(|o| o.opt.spec)
                                .unwrap_or_default();
                            totals.validation_checks += entry.validation_checks;
                            totals.inputs_sampled += entry.inputs_sampled;
                            let success = UnitSuccess {
                                output: cache::with_name(&entry.output_text, &name),
                                pipeline: entry.pipeline,
                                transform: entry.transform,
                                validation_checks: entry.validation_checks,
                                inputs_sampled: entry.inputs_sampled,
                            };
                            if let Some(key) = key {
                                self.cache.insert(*key, (**entry).clone());
                            }
                            (disposition, UnitOutcome::Ok(success))
                        }
                        Err(e) => (disposition, UnitOutcome::Failed(e.clone())),
                    }
                }
                UnitPlan::Replay { leader } => match &computed[leader] {
                    Ok(entry) => (
                        CacheDisposition::Hit,
                        UnitOutcome::Ok(UnitSuccess {
                            output: cache::with_name(&entry.output_text, &name),
                            pipeline: entry.pipeline,
                            transform: entry.transform,
                            validation_checks: 0,
                            inputs_sampled: 0,
                        }),
                    ),
                    Err(e) => (CacheDisposition::Hit, UnitOutcome::Failed(e.clone())),
                },
                UnitPlan::Hit {
                    key,
                    output_text,
                    pipeline,
                    transform,
                } => {
                    let checks = if self.opts.validate == ValidationLevel::Off {
                        Ok((0, 0))
                    } else {
                        revalidated[key].clone()
                    };
                    match checks {
                        Ok((validation_checks, inputs_sampled)) => {
                            totals.validation_checks += validation_checks;
                            totals.inputs_sampled += inputs_sampled;
                            (
                                CacheDisposition::Hit,
                                UnitOutcome::Ok(UnitSuccess {
                                    output: cache::with_name(output_text, &name),
                                    pipeline: *pipeline,
                                    transform: *transform,
                                    validation_checks,
                                    inputs_sampled,
                                }),
                            )
                        }
                        Err(e) => (CacheDisposition::Hit, UnitOutcome::Failed(e)),
                    }
                }
            };
            match &outcome {
                UnitOutcome::Ok(_) => totals.ok += 1,
                UnitOutcome::Failed(_) => totals.failed += 1,
            }
            reports.push(UnitReport {
                name,
                file: unit.file.clone(),
                cache: disposition,
                outcome,
            });
        }
        totals.cache = self.cache.stats();
        totals.cache_entries = self.cache.len();
        totals.lifetime = self.lifetime();

        BatchResult {
            units: reports,
            totals,
        }
    }
}

/// Resolves `jobs == 0` to the machine's available parallelism.
fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Runs `work` with panics contained: a panic becomes a
/// [`FailureKind::Panic`] unit error instead of crossing the pool's thread
/// scope (which would abort the whole batch).
fn isolate<T>(
    work: AssertUnwindSafe<impl FnOnce() -> Result<T, UnitError>>,
) -> Result<T, UnitError> {
    match catch_unwind(work) {
        Ok(r) => r,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(UnitError {
                kind: FailureKind::Panic,
                message,
            })
        }
    }
}

/// The placement context a unit is fingerprinted (and cached) under.
/// Empty for plain LCM **and** for profile-less speculative units — the
/// latter run exactly the LCM pipeline, so sharing entries is both sound
/// and desirable. Speculative units with resolved weights spell the full
/// weight vector out: same body + same weights ⇒ same plan.
fn unit_context(placement: PreAlgorithm, weights: Option<&EdgeWeights>) -> String {
    match (placement, weights) {
        (PreAlgorithm::Speculative, Some(w)) => {
            let mut s = format!("spec entry={}", w.entry);
            for e in &w.edges {
                s.push(',');
                s.push_str(&e.to_string());
            }
            s
        }
        (PreAlgorithm::Speculative, None) | (PreAlgorithm::LazyEdge, _) => String::new(),
        (other, _) => other.name().to_string(),
    }
}

/// The per-function pipeline, mirroring `lcmopt`'s default pass order:
/// LCSE → checked PRE (the configured placement) → copy propagation → DCE
/// → CFG simplification → output verification.
///
/// `weights` and `context` must be the ones `run` resolved for this unit:
/// the recorded `canonical_input` embeds the context so the cache's
/// collision guard keeps differently-weighted plans apart. LCSE never
/// touches the CFG, so edge weights resolved against the pre-LCSE
/// function remain valid for `g`.
fn optimize_unit(
    f: &Function,
    opts: &BatchOptions,
    weights: Option<&EdgeWeights>,
    context: &str,
    scratch: &mut SolverScratch,
    budget: &OptimizeBudget,
) -> Result<CacheEntry, UnitError> {
    let mut g = f.clone();
    g.name = CANONICAL_NAME.to_string();
    let canonical_input = cache::contextual_text(&g.to_string(), context);
    passes::lcse(&mut g);
    // A speculative unit without resolved weights has no frequency
    // information to speculate on: it runs plain LCM.
    let placement = match (opts.placement, weights) {
        (PreAlgorithm::Speculative, None) => PreAlgorithm::LazyEdge,
        (alg, _) => alg,
    };
    let (opt, report) = Pipeline {
        placement,
        weights,
        validation: opts.validate,
        seed: opts.seed,
        budget,
    }
    .run(&g, scratch)
    .map_err(|e| UnitError {
        kind: match e {
            PipelineError::Cancelled(_) => FailureKind::Cancelled,
            _ => FailureKind::Pipeline,
        },
        message: e.to_string(),
    })?;
    let mut out = opt.function.clone();
    passes::copy_propagation(&mut out);
    passes::dce(&mut out);
    simplify_cfg(&mut out);
    verify(&out).map_err(|e| UnitError {
        kind: FailureKind::InvalidOutput,
        message: e.to_string(),
    })?;
    // Allocation counts measure scratch temperature — which worker's arena
    // the function happened to land on — not the function itself, so they
    // are scrubbed from the recorded stats to keep batch reports identical
    // for every thread count. `experiments bench` measures them directly.
    let mut pipeline = opt.pipeline_stats.unwrap_or_default();
    pipeline.avail.allocations = 0;
    pipeline.antic.allocations = 0;
    pipeline.later.allocations = 0;
    Ok(CacheEntry {
        canonical_input,
        pipeline,
        transform: opt.transform.stats,
        output_text: out.to_string(),
        origin: Some(Box::new(ComputedOrigin { pre_input: g, opt })),
        validation_checks: report.checks_run,
        inputs_sampled: report.inputs_sampled,
    })
}

/// Differential inputs a thin-entry re-validation samples.
const THIN_REVALIDATE_INPUTS: usize = 3;

/// Interpreter fuel per differential run during thin-entry re-validation.
const THIN_REVALIDATE_FUEL: u64 = 100_000;

/// Re-validates a cached entry on a hit — cheap enough to run every time.
///
/// An entry computed in this process carries its [`ComputedOrigin`], and
/// the plan validator's fast tier re-checks the stored plan against the
/// paper's invariants. A **thin** entry (loaded from a persisted cache
/// file) has no plan to audit, so it is re-validated from first
/// principles: both stored texts must re-parse and re-verify, and the
/// output must be observationally equivalent to the input on seeded
/// differential runs. Either way, a corrupted entry degrades to a
/// [`FailureKind::PoisonedCache`] unit failure, never to wrong code.
///
/// Returns the (checks, inputs) counters on success.
fn revalidate_entry(entry: &CacheEntry, seed: u64) -> Result<(usize, usize), UnitError> {
    if let Some(origin) = &entry.origin {
        return match validate_optimized(&origin.pre_input, &origin.opt, ValidationLevel::Fast, seed)
        {
            Ok(report) => Ok((report.checks_run, report.inputs_sampled)),
            Err(e) => Err(UnitError {
                kind: FailureKind::PoisonedCache,
                message: e.to_string(),
            }),
        };
    }
    let poisoned = |message: String| UnitError {
        kind: FailureKind::PoisonedCache,
        message,
    };
    // The stored input embeds the placement context as a `;; ...` suffix,
    // which is not IR; strip it before re-parsing.
    let (input_text, _context) = cache::split_context(&entry.canonical_input);
    let f = parse_function(input_text)
        .map_err(|e| poisoned(format!("persisted entry input does not parse: {e}")))?;
    let g = parse_function(&entry.output_text)
        .map_err(|e| poisoned(format!("persisted entry output does not parse: {e}")))?;
    verify(&f).map_err(|e| poisoned(format!("persisted entry input does not verify: {e}")))?;
    verify(&g).map_err(|e| poisoned(format!("persisted entry output does not verify: {e}")))?;
    let mut state = seed;
    for i in 0..THIN_REVALIDATE_INPUTS {
        let inputs = sample_inputs(&f, &mut state);
        if !lcm_interp::observationally_equivalent(&f, &g, &inputs, THIN_REVALIDATE_FUEL) {
            return Err(poisoned(format!(
                "persisted entry output diverges from its input on sampled run {i}"
            )));
        }
    }
    // Two structural re-verifications plus the differential runs.
    Ok((2 + THIN_REVALIDATE_INPUTS, THIN_REVALIDATE_INPUTS))
}
