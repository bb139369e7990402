//! The `lcmopt watch` engine: [`BatchEngine::run_module_incremental`]
//! answers every revision of a module byte-identically to a one-shot
//! batch on the same revision, while its mode accounting tracks what
//! actually changed — fresh on first sight, recomputed after an edit
//! (content or CFG shape alike), and a zero-dirty memo replay for
//! functions the revision didn't touch at all.

use lcm::driver::{report, BatchEngine, BatchOptions, IncrementalMode, MemoStats};
use lcm::ir::parse_module;

/// Revision 0: the classic diamond, plus a straight-line function that
/// never changes (its memo replays should be free).
const REV0: &str = "fn d {
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
}

fn straight {
entry:
  x = p * q
  obs x
  ret
}
";

/// A content edit in `join`: `a = 1` kills `a + b` downstream without
/// changing the CFG shape or the expression universe.
fn rev1() -> String {
    REV0.replace("y = a + b", "y = a + b\n  a = 1")
}

/// A shape edit: `r` now reaches `join` through a fresh straight-line
/// block.
fn rev2() -> String {
    rev1().replace("r:\n  jmp join", "r:\n  jmp detour\ndetour:\n  jmp join")
}

#[test]
fn watched_revisions_match_one_shot_batches_byte_for_byte() {
    let mut watch = BatchEngine::new(BatchOptions::default());
    for (i, text) in [REV0.to_string(), rev1(), rev2()].iter().enumerate() {
        let m = parse_module(text).expect("revision parses");
        let units = watch.run_module_incremental(&m);
        // The reference engine is cold and cache-less every revision: the
        // purest one-shot answer there is.
        let mut fresh = BatchEngine::new(BatchOptions {
            use_cache: false,
            ..BatchOptions::default()
        });
        let want = report::render_text(&fresh.run_module(&m));
        assert_eq!(
            report::render_incremental_text(&units),
            want,
            "revision {i} diverged from the one-shot answer"
        );
    }
}

#[test]
fn modes_and_memo_accounting_track_what_changed() {
    let mut watch = BatchEngine::new(BatchOptions::default());
    let modes = |units: &[lcm::driver::IncrementalUnit]| -> Vec<IncrementalMode> {
        units.iter().map(|u| u.mode).collect()
    };
    use IncrementalMode::{Fresh, Recomputed, ZeroDirty};

    let m0 = parse_module(REV0).unwrap();
    let units = watch.run_module_incremental(&m0);
    assert_eq!(modes(&units), [Fresh, Fresh], "first sight must compute");
    assert_eq!(watch.memo_stats(), MemoStats::default());

    // Content edit: `d` recomputes; byte-identical `straight` never
    // reaches the pipeline at all — its memoized output is replayed.
    let m1 = parse_module(&rev1()).unwrap();
    let units = watch.run_module_incremental(&m1);
    assert_eq!(modes(&units), [Recomputed, ZeroDirty]);
    assert_eq!(
        watch.memo_stats(),
        MemoStats {
            hits: 1,
            recomputes: 1
        }
    );

    // Shape edit: the same two paths — the memo does not care what kind
    // of edit changed the fingerprint.
    let m2 = parse_module(&rev2()).unwrap();
    let units = watch.run_module_incremental(&m2);
    assert_eq!(modes(&units), [Recomputed, ZeroDirty]);

    // The same revision again: everything replays.
    let units = watch.run_module_incremental(&m2);
    assert_eq!(modes(&units), [ZeroDirty, ZeroDirty]);
    assert_eq!(
        watch.memo_stats(),
        MemoStats {
            hits: 4,
            recomputes: 2
        }
    );
    assert_eq!(watch.memos_len(), 2);
}
