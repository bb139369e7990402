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
//!   corpus are optimized once; every hit is **checked** before it is
//!   served (an in-process entry's output text against the hash taken when
//!   it was computed, a disk-loaded one from first principles), so a
//!   corrupted cache degrades to a unit failure, not to wrong code. The
//!   cache is the only place optimized output lives.
//! * **Edit streams** — `lcmopt watch` and the serve daemon answer each
//!   unit through one reuse ladder: the zero-dirty memo index (function
//!   name → fingerprint of its last computed revision, or in `watch` of
//!   its last checked hit, replayed from the cache without a check), then
//!   a checked cache hit, then a compute that fills both
//!   ([`BatchEngine::run_module_incremental`]).
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
    canonical_text, fingerprint, fingerprint_with_context, CacheEntry, CacheStats, PlanCache,
    CANONICAL_NAME,
};
pub use load::{load_units, text_from_bytes, LoadError};
pub use persist::{
    corrupt_sidecar, load_cache, load_or_quarantine, save_cache, tmp_path, CacheFileError,
    LifetimeCounters, LoadStatus, CACHE_FORMAT_VERSION, CACHE_MAGIC, STATS_MAGIC,
};

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use lcm_core::transform::TransformStats;
use lcm_core::validate::{sample_inputs, ValidationLevel};
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
    /// Validation tier for computed units. Cache hits are checked at every
    /// tier, [`ValidationLevel::Off`] included: an in-process entry by its
    /// output hash, a disk-loaded one from first principles.
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
    /// A cache hit failed its check (cache corruption).
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
    /// Replayed through the zero-dirty memo index: the revision is the one
    /// this function name last computed (or, in `watch`, last hit) in this
    /// process, so its cache entry was served without a check. Only `watch`
    /// and the daemon consult the index.
    ZeroDirty,
}

impl CacheDisposition {
    /// A short stable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Uncached => "uncached",
            CacheDisposition::Computed => "computed",
            CacheDisposition::Hit => "hit",
            CacheDisposition::ZeroDirty => "zero-dirty",
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
    /// checks).
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
    /// Already cached under `key`. Phase 2 serves it ([`serve_hit`])
    /// before phase 3 inserts anything, so no later eviction can disturb it.
    Hit { key: u128 },
}

/// A computed entry and the speculative-planner counters of its run.
type Computed = Result<(CacheEntry, SpecStats), UnitError>;

/// What a parallel job produced for its unit: a pipeline run, or a served
/// hit.
enum JobOut {
    Computed(Computed),
    Served(Result<UnitSuccess, UnitError>),
}

/// The durable-cache half of an engine: where the cache file lives, the
/// counters it carried when loaded, and how the load went.
#[derive(Debug)]
struct PersistState {
    path: std::path::PathBuf,
    base: LifetimeCounters,
    status: LoadStatus,
}

/// What the zero-dirty memo index did for a `watch` or daemon session.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MemoStats {
    /// Identical revisions replayed through the index.
    pub hits: u64,
    /// Computes of a function name the index already held.
    pub recomputes: u64,
}

/// What the memo index and the plan cache hold for one unit of
/// [`answer_unit`]: a replayed answer, a hit still to be checked, or
/// nothing.
enum Lookup {
    Memo(UnitSuccess),
    Hit(CacheEntry),
    Miss,
}

/// The batch engine: a [`BatchOptions`] plus a [`PlanCache`] that persists
/// across [`BatchEngine::run`] calls — and, when opened with
/// [`BatchEngine::with_cache_file`], across processes.
#[derive(Debug)]
pub struct BatchEngine {
    opts: BatchOptions,
    cache: PlanCache,
    persisted: Option<PersistState>,
    /// The zero-dirty memo index: each function name's fingerprint at its
    /// last computed revision (in `watch`, also at its last validated hit).
    /// The output itself lives only in the plan cache, so a memo lasts as
    /// long as its cache entry does.
    memos: HashMap<String, u128>,
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

    /// Mutable access to `name`'s memo index key — for fault injection
    /// and tests; the normal driver path never needs it.
    pub fn memo_mut(&mut self, name: &str) -> Option<&mut u128> {
        self.memos.get_mut(name)
    }

    /// Memo index entries currently held.
    pub fn memos_len(&self) -> usize {
        self.memos.len()
    }

    /// This process's memo counters so far.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo_stats
    }

    /// The reuse ladder's lookup: the memo index (when `memo`), then the
    /// plan cache, counting the hit or miss. A replay needs the indexed
    /// entry live, computed (so validated) in this process and renamable;
    /// anything else falls through to the normal lookup.
    fn lookup(&mut self, name: &str, key: u128, text: &str, memo: bool) -> Lookup {
        let entry = self.cache.get(key, text);
        if memo && self.memos.get(name) == Some(&key) {
            let replay = entry.filter(|e| e.output_hash.is_some());
            if let Some(Ok(s)) = replay.map(|e| success(e, name, 0, 0)) {
                self.memo_stats.hits += 1;
                return Lookup::Memo(s);
            }
        }
        match entry {
            Some(entry) => {
                let entry = entry.clone();
                self.cache.note_hit();
                Lookup::Hit(entry)
            }
            None => {
                self.cache.note_miss();
                Lookup::Miss
            }
        }
    }

    /// The reuse ladder's fill: caches a computed entry and, when `memo`,
    /// points `name`'s index at it (a recompute if it had one).
    fn fill(&mut self, name: &str, key: u128, entry: CacheEntry, memo: bool) {
        self.cache.insert(key, entry);
        if memo && self.memos.insert(name.to_string(), key).is_some() {
            self.memo_stats.recomputes += 1;
        }
    }

    /// Removes a persisted entry that failed its hit check and counts the
    /// quarantine in the lifetime counters.
    fn quarantine(&mut self, key: u128) {
        self.cache.remove(key);
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

    /// Optimizes every function of `m` sequentially and in module order
    /// through the reuse ladder `lcmopt watch` and the serve daemon share
    /// (`answer_unit`): a function whose fingerprint matches the revision
    /// its name last answered replays from the cache
    /// ([`CacheDisposition::ZeroDirty`]); any other cached revision is a
    /// checked [`CacheDisposition::Hit`], which here (unlike in the
    /// daemon) also moves the index, so an undo replays from the next
    /// revision on; the rest run the same [`optimize_unit`] pipeline as
    /// [`BatchEngine::run`] and fill both.
    ///
    /// A bounded cache grows to hold two entries per function of `m`, and
    /// the revision's own entries are moved to the young end of its
    /// eviction order: FIFO eviction takes superseded revisions first, so
    /// no function of `m` loses its replay while `m` is being watched.
    ///
    /// Per-unit output text is byte-identical to [`BatchEngine::run_module`]
    /// for the same input and options (pinned by `tests/incremental.rs`
    /// and `tests/watch.rs`); render it with [`report::render_text`].
    pub fn run_module_incremental(&mut self, m: &Module) -> Vec<UnitReport> {
        // The index lives only as long as its cache entries: room for the
        // current revision and as many superseded ones, current kept young.
        self.cache.grow_capacity(2 * m.len());
        let budget = OptimizeBudget::unlimited();
        let mut scratch = SolverScratch::new();
        let mut current = Vec::with_capacity(m.len());
        let units = m
            .iter()
            .map(|f| {
                let profile = m.profile(&f.name);
                let (key, cache, outcome) = answer_unit(self, f, profile, &mut scratch, &budget);
                if let Some(key) = key {
                    if cache == CacheDisposition::Hit && matches!(outcome, UnitOutcome::Ok(_)) {
                        self.memos.insert(f.name.clone(), key);
                    }
                    current.push(key);
                }
                UnitReport {
                    name: f.name.clone(),
                    file: None,
                    cache,
                    outcome,
                }
            })
            .collect();
        self.cache.refresh(&current);
        units
    }

    /// Optimizes `units` as one batch. See the crate docs for the phase
    /// structure; the short version is *plan sequentially, compute in
    /// parallel, assemble sequentially*.
    pub fn run(&mut self, units: Vec<BatchUnit>) -> BatchResult {
        let threads = resolve_jobs(self.opts.jobs);

        // Resolve profiles up front (sequentially, so a malformed profile
        // degrades identically for every thread count).
        let (weights, contexts): (Vec<Option<EdgeWeights>>, Vec<String>) = units
            .iter()
            .map(|u| resolve_placement(self.opts.placement, &u.function, u.profile.as_ref()))
            .unzip();

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
            if self.cache.get(key, &text).is_some() {
                self.cache.note_hit();
                plans.push(UnitPlan::Hit { key });
            } else if let Some(&leader) = leader_of.get(&key) {
                self.cache.note_hit();
                plans.push(UnitPlan::Replay { leader });
            } else {
                self.cache.note_miss();
                leader_of.insert(key, i);
                plans.push(UnitPlan::Compute { key: Some(key) });
            }
        }

        // Phase 2 — the parallel part: a pipeline run for every planned
        // compute, a check and rename for every planned hit.
        let jobs: Vec<usize> = (0..plans.len())
            .filter(|&i| matches!(plans[i], UnitPlan::Compute { .. } | UnitPlan::Hit { .. }))
            .collect();
        let cache = &self.cache;
        let opts = self.opts;
        // One SolverScratch per worker, reused across every function that
        // worker computes: O(threads) solver arenas per batch instead of
        // O(functions × analyses × blocks) transient allocations.
        let outs: Vec<JobOut> =
            pool::run_indexed_with(threads, jobs.len(), SolverScratch::new, |scratch, j| {
                let (i, f) = (jobs[j], &units[jobs[j]].function);
                if let UnitPlan::Hit { key } = plans[i] {
                    let entry = cache
                        .entry_ref(key)
                        .expect("planned hit entries outlive phase 2");
                    return JobOut::Served(isolate(AssertUnwindSafe(|| {
                        serve_hit(entry, &f.name, opts.seed)
                    })));
                }
                JobOut::Computed(isolate(AssertUnwindSafe(|| {
                    optimize_unit(
                        f,
                        &opts,
                        weights[i].as_ref(),
                        &contexts[i],
                        scratch,
                        &OptimizeBudget::unlimited(),
                    )
                })))
            });

        let mut computed: HashMap<usize, Computed> = HashMap::new();
        let mut served: HashMap<usize, Result<UnitSuccess, UnitError>> = HashMap::new();
        for (i, out) in jobs.into_iter().zip(outs) {
            match out {
                JobOut::Computed(r) => {
                    computed.insert(i, r);
                }
                JobOut::Served(r) => {
                    served.insert(i, r);
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
                    let disposition =
                        key.map_or(CacheDisposition::Uncached, |_| CacheDisposition::Computed);
                    match &computed[&i] {
                        Ok((entry, spec)) => {
                            totals.computed += 1;
                            totals.pipeline += entry.pipeline;
                            totals.transform += entry.transform;
                            totals.spec += *spec;
                            let (checks, inputs) = (entry.validation_checks, entry.inputs_sampled);
                            totals.validation_checks += checks;
                            totals.inputs_sampled += inputs;
                            let answer = success(entry, &name, checks, inputs);
                            if let Some(key) = key {
                                self.cache.insert(*key, entry.clone());
                            }
                            (
                                disposition,
                                answer.map_or_else(UnitOutcome::Failed, UnitOutcome::Ok),
                            )
                        }
                        Err(e) => (disposition, UnitOutcome::Failed(e.clone())),
                    }
                }
                UnitPlan::Replay { leader } => (
                    CacheDisposition::Hit,
                    computed[leader]
                        .as_ref()
                        .map_err(Clone::clone)
                        .and_then(|(entry, _)| success(entry, &name, 0, 0))
                        .map_or_else(UnitOutcome::Failed, UnitOutcome::Ok),
                ),
                UnitPlan::Hit { .. } => {
                    let answer = served.remove(&i).expect("every planned hit is served");
                    if let Ok(s) = &answer {
                        totals.validation_checks += s.validation_checks;
                        totals.inputs_sampled += s.inputs_sampled;
                    }
                    let outcome = answer.map_or_else(UnitOutcome::Failed, UnitOutcome::Ok);
                    (CacheDisposition::Hit, outcome)
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

/// How [`answer_unit`] reaches the engine: borrowed outright (`watch`), or
/// through the daemon's lock, held only to read the options and around
/// the lookup, quarantine and fill.
pub(crate) trait EngineAccess {
    fn with<R>(&mut self, f: impl FnOnce(&mut BatchEngine) -> R) -> R;
}

impl EngineAccess for BatchEngine {
    fn with<R>(&mut self, f: impl FnOnce(&mut BatchEngine) -> R) -> R {
        f(self)
    }
}

impl EngineAccess for &Mutex<BatchEngine> {
    fn with<R>(&mut self, f: impl FnOnce(&mut BatchEngine) -> R) -> R {
        f(&mut self.lock().expect("engine lock"))
    }
}

/// The reuse ladder for one unit of `lcmopt watch` or the serve daemon:
/// verify; consult the memo index unless `budget` carries a deadline or
/// fuel cap; look up the cache, counting the hit or miss; check and serve
/// a hit ([`serve_hit`]); compute with [`optimize_unit`]; fill the cache
/// and the index. A hit failing its check or its rename is a
/// [`FailureKind::PoisonedCache`] unit failure if this process computed
/// it; a thin (disk-loaded) one is quarantined and the unit recomputes —
/// disk corruption costs warmth, not availability. Only a compute moves
/// the index here (the daemon's contract); `watch` also moves it on a
/// checked hit. With the cache off nothing is reused. Returns the unit's
/// cache key beside its answer.
pub(crate) fn answer_unit(
    engine: &mut impl EngineAccess,
    f: &Function,
    profile: Option<&Profile>,
    scratch: &mut SolverScratch,
    budget: &OptimizeBudget,
) -> (Option<u128>, CacheDisposition, UnitOutcome) {
    if let Err(e) = verify(f) {
        let err = UnitError {
            kind: FailureKind::InvalidInput,
            message: e.to_string(),
        };
        return (None, CacheDisposition::Uncached, UnitOutcome::Failed(err));
    }
    let opts = engine.with(|e| e.opts);
    let memo = !budget.is_capped();
    let (weights, context) = resolve_placement(opts.placement, f, profile);
    let key = opts
        .use_cache
        .then(|| fingerprint_with_context(f, &context));
    if let Some((k, text)) = &key {
        match engine.with(|e| e.lookup(&f.name, *k, text, memo)) {
            Lookup::Memo(s) => return (Some(*k), CacheDisposition::ZeroDirty, UnitOutcome::Ok(s)),
            Lookup::Hit(entry) => {
                match isolate(AssertUnwindSafe(|| serve_hit(&entry, &f.name, opts.seed))) {
                    Ok(s) => return (Some(*k), CacheDisposition::Hit, UnitOutcome::Ok(s)),
                    Err(_) if entry.output_hash.is_none() => engine.with(|e| e.quarantine(*k)),
                    Err(e) => return (Some(*k), CacheDisposition::Hit, UnitOutcome::Failed(e)),
                }
            }
            Lookup::Miss => {}
        }
    }
    let disposition = key
        .as_ref()
        .map_or(CacheDisposition::Uncached, |_| CacheDisposition::Computed);
    let computed = isolate(AssertUnwindSafe(|| {
        let (entry, _) = optimize_unit(f, &opts, weights.as_ref(), &context, scratch, budget)?;
        let (checks, inputs) = (entry.validation_checks, entry.inputs_sampled);
        Ok((success(&entry, &f.name, checks, inputs)?, entry))
    }));
    let key = key.map(|(k, _)| k);
    match computed {
        Ok((s, entry)) => {
            if let Some(k) = key {
                engine.with(|e| e.fill(&f.name, k, entry, memo));
            }
            (key, disposition, UnitOutcome::Ok(s))
        }
        Err(e) => (key, disposition, UnitOutcome::Failed(e)),
    }
}

/// A unit answered from `entry` under its own `name`, with the validator
/// counters this answer cost. An output text without the canonical header
/// cannot be renamed and is a [`FailureKind::PoisonedCache`] error.
fn success(
    entry: &CacheEntry,
    name: &str,
    validation_checks: usize,
    inputs_sampled: usize,
) -> Result<UnitSuccess, UnitError> {
    let output = cache::with_name(&entry.output_text, name).ok_or_else(|| UnitError {
        kind: FailureKind::PoisonedCache,
        message: format!("cached output does not start with `fn {CANONICAL_NAME} {{`"),
    })?;
    Ok(UnitSuccess {
        output,
        pipeline: entry.pipeline,
        transform: entry.transform,
        validation_checks,
        inputs_sampled,
    })
}

/// Resolves a unit's edge weights and the placement context it is
/// fingerprinted (and cached) under — the one place every surface does
/// this, so a daemon or watch answer is the batch answer. The weights are
/// `None` ("run plain LCM") unless the placement is speculative and the
/// profile resolves against `f`.
fn resolve_placement(
    placement: PreAlgorithm,
    f: &Function,
    profile: Option<&Profile>,
) -> (Option<EdgeWeights>, String) {
    let weights = match placement {
        PreAlgorithm::Speculative => profile.and_then(|p| EdgeWeights::from_profile(f, p).ok()),
        _ => None,
    };
    let context = unit_context(placement, weights.as_ref());
    (weights, context)
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
/// function remain valid for `g`. Returns the entry, its output hashed
/// once the output verified, beside the run's speculative-planner counters.
fn optimize_unit(
    f: &Function,
    opts: &BatchOptions,
    weights: Option<&EdgeWeights>,
    context: &str,
    scratch: &mut SolverScratch,
    budget: &OptimizeBudget,
) -> Result<(CacheEntry, SpecStats), UnitError> {
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
    let mut out = opt.function;
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
    let output_text = out.to_string();
    let entry = CacheEntry {
        canonical_input,
        output_hash: Some(cache::fnv1a_128(output_text.as_bytes())),
        output_text,
        pipeline,
        transform: opt.transform.stats,
        validation_checks: report.checks_run,
        inputs_sampled: report.inputs_sampled,
    };
    Ok((entry, opt.spec.unwrap_or_default()))
}

/// Differential inputs a thin-entry check samples.
const THIN_REVALIDATE_INPUTS: usize = 3;

/// Interpreter fuel per differential run during a thin-entry check.
const THIN_REVALIDATE_FUEL: u64 = 100_000;

/// Serves a cache hit under `name` once its entry passes one check — the
/// way every hit is served, in batch, watch and the daemon, at every
/// validation tier.
///
/// An entry computed in this process was validated when it was computed,
/// and its output text hashed once it verified: the hit re-hashes the text
/// it is about to serve and compares. A **thin** entry (loaded from a
/// persisted cache file) carries no such hash, so it is re-validated from
/// first principles: both stored texts must re-parse and re-verify, and
/// the output must be observationally equivalent to the input on seeded
/// differential runs. Either way, a corrupted entry degrades to a
/// [`FailureKind::PoisonedCache`] unit failure, never to wrong code.
fn serve_hit(entry: &CacheEntry, name: &str, seed: u64) -> Result<UnitSuccess, UnitError> {
    let poisoned = |message: String| UnitError {
        kind: FailureKind::PoisonedCache,
        message,
    };
    if let Some(hash) = entry.output_hash {
        if cache::fnv1a_128(entry.output_text.as_bytes()) != hash {
            let message = "cached output text differs from the text computed in this process";
            return Err(poisoned(message.into()));
        }
        return success(entry, name, 1, 0);
    }
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
    success(
        entry,
        name,
        2 + THIN_REVALIDATE_INPUTS,
        THIN_REVALIDATE_INPUTS,
    )
}
