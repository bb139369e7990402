//! Seeded workload inputs. Everything here is a pure function of the
//! workload seed; `lcmopt` only ever sees the module text built from it.

use std::collections::HashSet;

use lcm_cfggen::{mutate_function, structured, synthetic_profile, GenOptions, MutationKind, Rng};
use lcm_ir::{Function, Module};

/// Functions in one `batch_cold` module.
pub const COLD_FUNCTIONS: usize = 256;
/// Every this many functions of `batch_cold` and `edit_stream`, one is
/// generated with memory operations: an exact share, so every seed's
/// module has the same mix.
pub const MEMORY_EVERY: usize = 4;
/// Instruction counts a `batch_cold` function may have: a band around the
/// generator's median at the default ~30 statements. The generator
/// occasionally spends its whole budget in one loop and returns a
/// function of a dozen instructions; the band keeps those out, so every
/// seed's module is about the same amount of work.
pub const COLD_INSTRS: std::ops::RangeInclusive<usize> = 34..=50;
/// `mem_prob` of the functions that carry memory operations.
pub const COLD_MEM_PROB: f64 = 0.15;
/// Functions in one `spec_large` module.
pub const SPEC_FUNCTIONS: usize = 20;
/// Statements per `spec_large` function.
pub const SPEC_SIZE: usize = 1500;
/// Instruction counts a `spec_large` function may have: a band around the
/// generator's median at [`SPEC_SIZE`], for the same reason as
/// [`COLD_INSTRS`].
pub const SPEC_INSTRS: std::ops::RangeInclusive<usize> = 1900..=2030;
/// Functions in one `edit_stream` request module: the K of the
/// watch-shaped incremental row of `experiments bench`, a module of 24
/// functions with one function edited per revision.
pub const EDIT_FUNCTIONS: usize = 24;
/// Share of `edit_stream` edits that change the CFG shape: the repository's
/// edit mix (`tests/incremental.rs` and the edit-class ledger of
/// `experiments bench` both pass 0.2 to `mutate_function`).
pub const EDIT_SHAPE_PROB: f64 = 0.2;
/// Share of `edit_stream` revisions that undo the function's last edit.
/// An assumption: no corpus in the repository undoes edits; 0.15 makes
/// undo a minority path that still runs on every few requests.
pub const EDIT_UNDO_PROB: f64 = 0.15;
/// Edits a function may stack up on its base version: `tests/incremental.rs`
/// chains 24 edits per function. The next edit of a function at this depth
/// starts again from its base version, which keeps the stream's function
/// sizes stationary over a long run.
pub const EDIT_MAX_DEPTH: usize = 24;
/// Editor sessions the throughput blocks of `edit_stream` run at most,
/// one connection each; the run uses `min(nproc, this)`.
pub const MAX_SESSIONS: usize = 4;

/// Distinct salts so the workloads draw unrelated streams from one seed.
const SALT_COLD: u64 = 0xC01D_0000_0000_0001;
const SALT_SPEC: u64 = 0x5BEC_0000_0000_0002;
const SALT_EDIT: u64 = 0xED17_0000_0000_0003;

/// Structured functions of the default ~30 statements, distinct up to
/// renaming (so every unit is computed exactly once), a seeded share with
/// memory operations.
pub fn batch_cold(seed: u64) -> Module {
    let keep = |f: &Function| COLD_INSTRS.contains(&f.num_instrs());
    distinct_module(seed ^ SALT_COLD, COLD_FUNCTIONS, "c", keep, cold_options)
}

/// Generator options of the `i`-th function of a `batch_cold` or
/// `edit_stream` module: the default ~30 statements, every
/// [`MEMORY_EVERY`]th with memory operations.
fn cold_options(i: usize) -> GenOptions {
    if i.is_multiple_of(MEMORY_EVERY) {
        GenOptions::with_memory(COLD_MEM_PROB)
    } else {
        GenOptions::default()
    }
}

/// Large structured functions, each carrying a flow-conserving synthetic
/// edge profile so `--placement spec` runs the min-cut planner.
pub fn spec_large(seed: u64) -> Module {
    let keep = |f: &Function| SPEC_INSTRS.contains(&f.num_instrs());
    let mut m = distinct_module(seed ^ SALT_SPEC, SPEC_FUNCTIONS, "s", keep, |_| {
        GenOptions::sized(SPEC_SIZE)
    });
    let mut rng = Rng::seed_from_u64(seed ^ SALT_SPEC ^ 0x9E37_79B9);
    let profiles: Vec<_> = m
        .iter()
        .map(|f| synthetic_profile(f, rng.next_u64()))
        .collect();
    for p in profiles {
        m.push_profile(p)
            .expect("one profile per generated function");
    }
    m
}

/// `count` functions named `{prefix}NNNN`, generated from per-function
/// seeds drawn from `seed`, skipping any that `keep` rejects or whose body
/// a previous one already has. `opts` gives the generator options for the
/// function at each position.
fn distinct_module(
    seed: u64,
    count: usize,
    prefix: &str,
    keep: impl Fn(&Function) -> bool,
    opts: impl Fn(usize) -> GenOptions,
) -> Module {
    let mut rng = Rng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut m = Module::default();
    while m.len() < count {
        let mut f = structured(rng.next_u64(), &opts(m.len()));
        if !keep(&f) || !seen.insert(lcm_driver::canonical_text(&f)) {
            continue;
        }
        f.name = format!("{prefix}{:04}", m.len());
        m.push(f).expect("generated names are unique");
    }
    m
}

/// What one `edit_stream` revision did to its function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EditKind {
    /// A `mutate_function` edit that kept the CFG shape.
    Content,
    /// A `mutate_function` edit that added a block or an edge.
    Shape,
    /// The function went back to its version before its last edit.
    Undo,
    /// The function had [`EDIT_MAX_DEPTH`] edits; it went back to its base
    /// version and took one new edit there.
    Restart,
    /// No edit: the stream's starting module.
    Base,
}

impl EditKind {
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Content => "content",
            EditKind::Shape => "shape",
            EditKind::Undo => "undo",
            EditKind::Restart => "restart",
            EditKind::Base => "base",
        }
    }
}

/// One request of the edit stream: the whole module after one revision.
pub struct Revision {
    /// The module text sent to the daemon.
    pub text: String,
    /// Per function, in module order, the id of the version it holds (an
    /// index into [`EditStream::versions`]).
    pub versions: Vec<usize>,
    /// What the revision did to the function it touched.
    pub kind: EditKind,
}

/// The seeded revision stream of `edit_stream`: a module of
/// [`EDIT_FUNCTIONS`] functions in which every revision edits or undoes
/// one function and leaves the others as they were.
pub struct EditStream {
    rng: Rng,
    /// Per function, the ids of its versions from the base to the current
    /// one.
    history: Vec<Vec<usize>>,
    /// Every function version the stream has produced, by id.
    pub versions: Vec<Function>,
}

impl EditStream {
    /// The stream of editor session `session` (below [`MAX_SESSIONS`]):
    /// every session edits its own module, with its own function names,
    /// so the daemon's per-name memo keeps the sessions apart.
    pub fn new(seed: u64, session: usize) -> Self {
        assert!(session < MAX_SESSIONS, "session {session} out of range");
        let salt = SALT_EDIT ^ ((session as u64) << 32);
        let prefix = ["e", "f", "g", "h"][session];
        let base = distinct_module(
            seed ^ salt,
            EDIT_FUNCTIONS,
            prefix,
            |f| COLD_INSTRS.contains(&f.num_instrs()),
            cold_options,
        );
        EditStream {
            rng: Rng::seed_from_u64(seed ^ salt ^ 0x5EED),
            history: (0..base.len()).map(|i| vec![i]).collect(),
            versions: base.iter().cloned().collect(),
        }
    }

    fn current(&self) -> Vec<usize> {
        self.history
            .iter()
            .map(|h| *h.last().expect("history is never empty"))
            .collect()
    }

    /// The module as it stands, before any further revision.
    pub fn current_revision(&self, kind: EditKind) -> Revision {
        let versions = self.current();
        let m = Module::new(versions.iter().map(|&v| self.versions[v].clone()).collect());
        Revision {
            text: m.to_string(),
            versions,
            kind,
        }
    }

    /// The versions `ids` in one module, renamed apart as `NAME__vID`.
    pub fn versions_module(&self, ids: &[usize]) -> Module {
        let mut m = Module::default();
        for &v in ids {
            let mut f = self.versions[v].clone();
            f.name = format!("{}__v{v}", f.name);
            m.push(f).expect("version ids are distinct");
        }
        m
    }

    /// Applies the next seeded revision and returns the resulting module.
    pub fn next_revision(&mut self) -> Revision {
        let i = self.rng.gen_range(0..self.history.len());
        let depth = self.history[i].len() - 1;
        let kind = if depth > 0 && self.rng.gen_bool(EDIT_UNDO_PROB) {
            self.history[i].pop();
            EditKind::Undo
        } else {
            let restart = depth == EDIT_MAX_DEPTH;
            if restart {
                self.history[i].truncate(1);
            }
            let last = *self.history[i].last().expect("history is never empty");
            let mut f = self.versions[last].clone();
            let kind = match mutate_function(&mut f, &mut self.rng, EDIT_SHAPE_PROB) {
                _ if restart => EditKind::Restart,
                MutationKind::Content => EditKind::Content,
                MutationKind::Shape => EditKind::Shape,
            };
            self.history[i].push(self.versions.len());
            self.versions.push(f);
            kind
        };
        self.current_revision(kind)
    }
}

/// A one-function module for readiness probes and set-up timing.
pub fn warmup_module() -> Module {
    let mut f = structured(7, &GenOptions::default());
    f.name = "warm".to_string();
    Module::new(vec![f])
}
