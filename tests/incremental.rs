//! The output-memo proof: across a seeded edit corpus (content edits and
//! shape edits, hundreds of revisions), [`BatchEngine::run_module_incremental`]
//! answers every revision byte-identically to a one-shot batch of the same
//! revision, replays every function the revision left unchanged from the
//! zero-dirty memo, and recomputes exactly the edited one.
//!
//! The memo is sound by keying alone: a function replays only when its
//! content fingerprint and the engine's options tag both match the
//! revision the memo was recorded for, so no edit — whatever it does to
//! the CFG or the expression universe — can meet a stale answer.

use lcm::cfggen::{mutate_function, seeded, structured, GenOptions, MutationKind};
use lcm::driver::{
    canonical_text, report, BatchEngine, BatchOptions, IncrementalMode, IncrementalUnit, MemoStats,
};
use lcm::ir::{parse_module, Function, Module};

/// The reference answer: a cold, cache-less one-shot batch.
fn one_shot(m: &Module) -> String {
    let mut engine = BatchEngine::new(BatchOptions {
        use_cache: false,
        ..BatchOptions::default()
    });
    report::render_text(&engine.run_module(m))
}

fn module_of(fns: &[Function]) -> Module {
    let mut m = Module::default();
    for f in fns {
        m.push(f.clone()).expect("unique names");
    }
    m
}

/// Modules of four evolving functions, 24 revisions each over 10 seeds:
/// every revision edits one function with a seeded `mutate_function` step
/// (20% shape edits). Every revision's output is byte-identical to a
/// one-shot batch, every untouched function replays its memo, and the
/// edited function recomputes unless the edit left its fingerprint
/// unchanged.
#[test]
fn edit_corpus_is_bit_identical_to_fresh_solves() {
    const FNS: usize = 4;
    let mut revisions = 0usize;
    let mut content_steps = 0usize;
    let mut shape_steps = 0usize;

    for seed in 0..10u64 {
        let mut fns: Vec<Function> = (0..FNS)
            .map(|i| {
                let mut f = structured(seed * FNS as u64 + i as u64, &GenOptions::default());
                f.name = format!("f{i}");
                f
            })
            .collect();
        let mut watch = BatchEngine::new(BatchOptions::default());
        let first = watch.run_module_incremental(&module_of(&fns));
        assert!(first.iter().all(|u| u.mode == IncrementalMode::Fresh));
        let mut expect = MemoStats::default();
        let mut rng = seeded(seed ^ 0xED17_C0DE);
        for step in 0..24 {
            let edited = step % FNS;
            let before = canonical_text(&fns[edited]);
            let kind = mutate_function(&mut fns[edited], &mut rng, 0.2);
            let changed = canonical_text(&fns[edited]) != before;
            let tag = format!("seed {seed} step {step} ({kind:?})");
            match kind {
                MutationKind::Content => content_steps += 1,
                MutationKind::Shape => shape_steps += 1,
            }

            let m = module_of(&fns);
            let units = watch.run_module_incremental(&m);
            assert_eq!(
                report::render_incremental_text(&units),
                one_shot(&m),
                "output diverged from the one-shot batch: {tag}"
            );
            for (i, u) in units.iter().enumerate() {
                let want = if i == edited && changed {
                    expect.recomputes += 1;
                    IncrementalMode::Recomputed
                } else {
                    expect.hits += 1;
                    IncrementalMode::ZeroDirty
                };
                assert_eq!(u.mode, want, "fn {}: {tag}", u.name);
            }
            assert_eq!(watch.memo_stats(), expect, "{tag}");
            revisions += 1;
        }
    }

    assert!(revisions >= 200, "corpus shrank to {revisions} revisions");
    assert!(shape_steps >= 10, "only {shape_steps} shape edits");
    assert!(content_steps >= 100, "only {content_steps} content edits");
}

const BASE: &str = "fn g {
    entry:
      x = a + b
      br c, mid, side
    mid:
      t = c + d
      jmp join
    side:
      u = c + d
      jmp join
    join:
      y = a + b
      z = c + d
      obs y
      obs z
      ret
    }";

/// The untouched sibling every directed revision carries along.
const SIBLING: &str = "fn s {
    entry:
      x = p * q
      obs x
      ret
    }";

fn module(g: &str) -> Module {
    parse_module(&format!("{g}\n\n{SIBLING}")).expect("revision parses")
}

fn modes(units: &[IncrementalUnit]) -> Vec<IncrementalMode> {
    units.iter().map(|u| u.mode).collect()
}

/// One directed revision pair: the edited function recomputes
/// byte-identically to a one-shot batch, its sibling replays, and a
/// repeat of the revision replays both.
fn assert_memo_pair(before: &str, after: &str, tag: &str) {
    use IncrementalMode::{Recomputed, ZeroDirty};
    let mut watch = BatchEngine::new(BatchOptions::default());
    watch.run_module_incremental(&module(before));
    let m = module(after);
    let units = watch.run_module_incremental(&m);
    assert_eq!(modes(&units), [Recomputed, ZeroDirty], "{tag}");
    assert_eq!(
        report::render_incremental_text(&units),
        one_shot(&m),
        "{tag}: diverged from the one-shot batch"
    );
    let units = watch.run_module_incremental(&m);
    assert_eq!(modes(&units), [ZeroDirty, ZeroDirty], "{tag}: repeat");
}

// The directed edits below stress what a retained-state reuse scheme
// would have to get right. For the memo they are all the same case,
// checked by `assert_memo_pair`.

/// An edit that only changes a block's kill set (no occurrence added or
/// removed): appending `a = 1` to `mid` kills `a + b` through that arm.
#[test]
fn kill_set_only_edit_stays_on_the_delta_path() {
    let edited = BASE.replace("t = c + d", "t = c + d\n      a = 1");
    assert_memo_pair(BASE, &edited, "kill-set-only edit");
}

/// An edit that empties a block entirely.
#[test]
fn emptied_block_stays_on_the_delta_path() {
    let edited = BASE.replace("t = c + d\n      jmp join", "jmp join");
    assert_memo_pair(BASE, &edited, "emptied block");
}

/// An edit touching the entry block, the boundary row of the forward
/// problems.
#[test]
fn entry_block_edit_stays_on_the_delta_path() {
    let edited = BASE.replace("x = a + b\n      br", "x = a + b\n      a = 1\n      br");
    assert_memo_pair(BASE, &edited, "entry-block edit");
}

/// A content edit introducing a brand-new expression: the universe grows
/// by one column.
#[test]
fn universe_growing_edit_widens_in_place() {
    let edited = BASE.replace("obs y", "w = c + e\n      obs y");
    assert_memo_pair(BASE, &edited, "universe-growing edit");
}

/// The reverse edit: the only occurrence of an expression disappears and
/// the universe shrinks.
#[test]
fn universe_shrinking_edit_remaps_columns() {
    let grown = BASE.replace("obs y", "w = c + e\n      obs y");
    assert_memo_pair(&grown, BASE, "universe-shrinking edit");
}

/// A single block split: `mid`'s tail moves into a new block carrying
/// its old terminator.
#[test]
fn block_split_is_mapped_onto_the_delta_path() {
    let two_instr = BASE.replace("t = c + d", "t = c + d\n      v = a + b");
    let split = two_instr.replace(
        "v = a + b\n      jmp join",
        "jmp cont\n    cont:\n      v = a + b\n      jmp join",
    );
    assert_memo_pair(&two_instr, &split, "block split");
}

/// A straight-line block inserted on one edge.
#[test]
fn inserted_block_is_mapped_and_still_matches() {
    let edited = BASE.replace(
        "side:\n      u = c + d",
        "side:\n      u = c + d\n      jmp hop\n    hop:",
    );
    assert_memo_pair(BASE, &edited, "inserted block");
}

/// An edge retarget: same block count, different successor.
#[test]
fn edge_retarget_takes_the_fallback_and_still_matches() {
    let edited = BASE.replace("u = c + d\n      jmp join", "u = c + d\n      jmp mid");
    assert_memo_pair(BASE, &edited, "edge retarget");
}
