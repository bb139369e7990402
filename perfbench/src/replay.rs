//! The traced in-process replay: the workload's generated inputs run
//! through each layer's public functions in the order `lcmopt` runs them,
//! with a span around every layer call. Nothing inside the program is
//! instrumented; the spans live here, around the calls.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use lcm_core::validate::{validate_optimized, ValidationLevel};
use lcm_core::{
    apply_plan, lazy_edge_plan_with, passes, speculative_plan, EdgeWeights, ExprUniverse,
    GlobalAnalyses, LocalPredicates, Optimized, PipelineStats, PreAlgorithm,
};
use lcm_dataflow::{CfgView, SolveStrategy, SolverScratch};
use lcm_driver::{fingerprint_with_context, CANONICAL_NAME};
use lcm_ir::{parse_module, simplify_cfg, verify, Function};

/// The validator seed `lcmopt` runs with, so the replay validates exactly
/// as the binary does.
pub const VALIDATION_SEED: u64 = 0x1c3a_57ed;

/// The layer spans, in pipeline order. Their self times are the per-layer
/// metrics; `request` and `unit` are the enclosing spans whose own self
/// time is bookkeeping between layers.
pub const LAYERS: [&str; 12] = [
    "parse",
    "fingerprint",
    "lcse",
    "universe",
    "solve",
    "spec",
    "rewrite",
    "validate",
    "copyprop",
    "dce",
    "simplify_verify",
    "print",
];

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub request: u32,
}

/// Records spans in memory when enabled; otherwise just runs the work.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            request: self.request,
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Self time per span name, in nanoseconds: each span's duration less
    /// the part its children cover.
    pub fn self_times(&self) -> HashMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Summed duration of the root spans: the traced total.
    pub fn root_total(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes every span as a tab-separated line:
    /// `id name start_ns end_ns parent request`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.request
            )?;
        }
        w.flush()
    }
}

/// Deterministic counters of one replay pass.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counts {
    /// Units (functions answered) and the layer calls they made.
    pub units: u64,
    pub computed: u64,
    pub memo_hits: u64,
    pub cache_hits: u64,
    pub validate_calls: u64,
    pub blocks_in: u64,
    pub instrs_in: u64,
    pub universe_exprs: u64,
    pub universe_words_max: u64,
    pub node_visits: u64,
    pub word_ops: u64,
    pub insertions: u64,
    pub deletions: u64,
    pub instrs_after_rewrite: u64,
    pub instrs_after_copyprop: u64,
    pub instrs_after_dce: u64,
    pub spec_candidates: u64,
    pub spec_speculated: u64,
}

/// A computed unit as the plan cache holds it: the post-LCSE input, the
/// optimized result (for re-validation) and the canonical output text.
struct Entry {
    pre_input: Function,
    opt: Optimized,
    output: String,
}

/// One pass over a workload's inputs, mirroring the driver's decisions:
/// the per-name output memo and the content-addressed plan cache.
pub struct Replay {
    pub counts: Counts,
    scratch: SolverScratch,
    /// Function name → fingerprint of the last computed version.
    memo: HashMap<String, u128>,
    cache: HashMap<u128, Entry>,
}

impl Replay {
    pub fn new() -> Self {
        Replay {
            counts: Counts::default(),
            scratch: SolverScratch::new(),
            memo: HashMap::new(),
            cache: HashMap::new(),
        }
    }

    /// Replays one request: parses `text` and answers every function,
    /// returning the answer texts in module order. `spec` resolves edge
    /// profiles for the speculative placement; `memo` enables the daemon's
    /// per-name memo (batch runs have none).
    pub fn request(
        &mut self,
        t: &mut Tracer,
        id: u32,
        text: &str,
        spec: bool,
        memo: bool,
    ) -> Result<Vec<String>, String> {
        t.request = id;
        t.span("request", |t| {
            let m = t
                .span("parse", |_| parse_module(text))
                .map_err(|e| format!("request {id} does not parse: {e}"))?;
            let mut outs = Vec::with_capacity(m.len());
            for f in m.iter() {
                let weights = if spec {
                    m.profile(&f.name)
                        .and_then(|p| EdgeWeights::from_profile(f, p).ok())
                } else {
                    None
                };
                outs.push(t.span("unit", |t| self.unit(t, f, weights.as_ref(), memo))?);
            }
            Ok(outs)
        })
    }

    fn unit(
        &mut self,
        t: &mut Tracer,
        f: &Function,
        weights: Option<&EdgeWeights>,
        memo: bool,
    ) -> Result<String, String> {
        let c = &mut self.counts;
        c.units += 1;
        c.blocks_in += f.num_blocks() as u64;
        c.instrs_in += f.num_instrs() as u64;
        let context = weights.map_or_else(String::new, spec_context);
        let key = t.span("fingerprint", |_| fingerprint_with_context(f, &context).0);
        if memo && self.memo.get(&f.name) == Some(&key) {
            self.counts.memo_hits += 1;
            let e = &self.cache[&key];
            return Ok(with_name(&e.output, &f.name));
        }
        if let Some(e) = self.cache.get(&key) {
            self.counts.cache_hits += 1;
            self.counts.validate_calls += 1;
            t.span("validate", |_| {
                validate_optimized(&e.pre_input, &e.opt, ValidationLevel::Fast, VALIDATION_SEED)
            })
            .map_err(|e| format!("fn {}: cached plan fails validation: {e}", f.name))?;
            return Ok(with_name(&e.output, &f.name));
        }
        self.counts.computed += 1;
        let entry = self.compute(t, f, weights)?;
        let out = with_name(&entry.output, &f.name);
        if memo {
            self.memo.insert(f.name.clone(), key);
        }
        self.cache.insert(key, entry);
        Ok(out)
    }

    /// The one-shot per-function pipeline of `lcmopt batch`.
    fn compute(
        &mut self,
        t: &mut Tracer,
        f: &Function,
        weights: Option<&EdgeWeights>,
    ) -> Result<Entry, String> {
        let c = &mut self.counts;
        let scratch = &mut self.scratch;
        let strategy = SolveStrategy::default();
        let err = |stage: &str, e: &dyn std::fmt::Display| format!("fn {}: {stage}: {e}", f.name);
        let g = t.span("lcse", |_| {
            let mut g = f.clone();
            g.name = CANONICAL_NAME.to_string();
            passes::lcse(&mut g);
            g
        });
        let (uni, local) = t.span("universe", |_| {
            let uni = ExprUniverse::of(&g);
            let local = LocalPredicates::compute(&g, &uni);
            (uni, local)
        });
        c.universe_exprs += uni.len() as u64;
        c.universe_words_max = c.universe_words_max.max(uni.len().div_ceil(64) as u64);
        let (ga, lazy) = t
            .span("solve", |_| {
                let view = CfgView::new(&g);
                let ga = GlobalAnalyses::compute_with(&g, &uni, &local, &view, strategy, scratch)?;
                let lazy = lazy_edge_plan_with(&g, &uni, &local, &ga, &view, strategy, scratch)?;
                Ok::<_, lcm_dataflow::SolverDiverged>((ga, lazy))
            })
            .map_err(|e| err("solve", &e))?;
        let pipeline_stats = PipelineStats {
            avail: ga.avail.stats,
            antic: ga.antic.stats,
            later: lazy.stats,
        };
        let total = pipeline_stats.total();
        c.node_visits += total.node_visits as u64;
        c.word_ops += total.word_ops;
        // Without resolved weights the placement is the LCM plan itself;
        // the span then only covers that choice.
        let (plan, spec, algorithm) = t.span("spec", |_| match weights {
            Some(w) => {
                let s = speculative_plan(&g, &uni, &local, &ga, &lazy, w);
                (s.plan, Some(s.stats), PreAlgorithm::Speculative)
            }
            None => (lazy.plan, None, PreAlgorithm::LazyEdge),
        });
        if let Some(s) = spec {
            c.spec_candidates += s.candidates as u64;
            c.spec_speculated += s.speculated as u64;
        }
        let opt = t.span("rewrite", |_| {
            let transform = apply_plan(&g, &uni, &local, &plan);
            Optimized {
                function: transform.function.clone(),
                transform,
                plan,
                input: g.clone(),
                algorithm,
                pipeline_stats: Some(pipeline_stats),
                spec,
            }
        });
        c.insertions += opt.transform.stats.insertions as u64;
        c.deletions += opt.transform.stats.deletions as u64;
        c.instrs_after_rewrite += opt.function.num_instrs() as u64;
        c.validate_calls += 1;
        t.span("validate", |_| {
            validate_optimized(&g, &opt, ValidationLevel::Fast, VALIDATION_SEED)
        })
        .map_err(|e| err("validate", &e))?;
        let mut out = t.span("copyprop", |_| {
            let mut out = opt.function.clone();
            passes::copy_propagation(&mut out);
            out
        });
        c.instrs_after_copyprop += out.num_instrs() as u64;
        t.span("dce", |_| passes::dce(&mut out));
        c.instrs_after_dce += out.num_instrs() as u64;
        t.span("simplify_verify", |_| {
            simplify_cfg(&mut out);
            verify(&out)
        })
        .map_err(|e| err("verify", &e))?;
        let output = t.span("print", |_| out.to_string());
        Ok(Entry {
            pre_input: g,
            opt,
            output,
        })
    }
}

/// The placement context the driver fingerprints a weighted unit under.
fn spec_context(w: &EdgeWeights) -> String {
    let mut s = format!("spec entry={}", w.entry);
    for e in &w.edges {
        s.push(',');
        s.push_str(&e.to_string());
    }
    s
}

/// The canonical output text under the unit's own name, as `lcmopt`
/// prints it.
fn with_name(canonical: &str, name: &str) -> String {
    let header = format!("fn {CANONICAL_NAME} {{");
    let rest = canonical
        .strip_prefix(header.as_str())
        .expect("printed output starts with the canonical header");
    format!("fn {name} {{{rest}")
}
