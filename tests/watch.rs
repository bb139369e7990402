//! The `lcmopt watch` engine: [`BatchEngine::run_module_incremental`]
//! answers every revision of a module byte-identically to a one-shot
//! batch on the same revision, while its per-unit cache disposition
//! tracks what actually changed — computed on first sight and after an
//! edit (content or CFG shape alike), a zero-dirty memo replay for
//! functions the revision didn't touch at all, and a re-validated cache
//! hit for a revision computed earlier (an undo).

use lcm::driver::{report, BatchEngine, BatchOptions, CacheDisposition, MemoStats, UnitReport};
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
    // The last revision undoes the first two: a cache hit, not a compute.
    for (i, text) in [REV0.to_string(), rev1(), rev2(), REV0.into()]
        .iter()
        .enumerate()
    {
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
            report::render_text(&units),
            want,
            "revision {i} diverged from the one-shot answer"
        );
    }
}

#[test]
fn modes_and_memo_accounting_track_what_changed() {
    let mut watch = BatchEngine::new(BatchOptions::default());
    let modes =
        |units: &[UnitReport]| -> Vec<CacheDisposition> { units.iter().map(|u| u.cache).collect() };
    use CacheDisposition::{Computed, Hit, ZeroDirty};

    let m0 = parse_module(REV0).unwrap();
    let units = watch.run_module_incremental(&m0);
    assert_eq!(
        modes(&units),
        [Computed, Computed],
        "first sight must compute"
    );
    assert_eq!(watch.memo_stats(), MemoStats::default());

    // Content edit: `d` recomputes; byte-identical `straight` never
    // reaches the pipeline at all — its cached output is replayed.
    let m1 = parse_module(&rev1()).unwrap();
    let units = watch.run_module_incremental(&m1);
    assert_eq!(modes(&units), [Computed, ZeroDirty]);
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
    assert_eq!(modes(&units), [Computed, ZeroDirty]);

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

    // Undo to revision 0: `d`'s first revision is still cached, so it is
    // a re-validated hit rather than a recompute, and the hit moves the
    // index back to revision 0.
    let units = watch.run_module_incremental(&m0);
    assert_eq!(modes(&units), [Hit, ZeroDirty]);
    assert_eq!(
        watch.memo_stats(),
        MemoStats {
            hits: 5,
            recomputes: 2
        }
    );

    // Revision 0 once more: the undone function replays too.
    let units = watch.run_module_incremental(&m0);
    assert_eq!(modes(&units), [ZeroDirty, ZeroDirty]);
    assert_eq!(
        watch.memo_stats(),
        MemoStats {
            hits: 7,
            recomputes: 2
        }
    );
}

/// The index lives only as long as its cache entries, so watch grows a
/// bounded cache to two entries per function and keeps the current
/// revision's entries youngest: a module wider than the configured
/// capacity, edited more times than the grown capacity, still replays
/// every untouched function on every revision.
#[test]
fn a_module_wider_than_the_cache_still_replays_untouched_functions() {
    use CacheDisposition::{Computed, ZeroDirty};
    let mut watch = BatchEngine::new(BatchOptions {
        cache_capacity: 1,
        ..BatchOptions::default()
    });
    let siblings: String = (0..4)
        .map(|s| format!("\nfn s{s} {{\nentry:\n  x = p * q{s}\n  obs x\n  ret\n}}\n"))
        .collect();
    // Seventeen revisions of `d`: more computes than the grown capacity.
    for i in 0..17 {
        let d = REV0.replace("obs y", &format!("obs y\n  t = y + {i}\n  obs t"));
        let m = parse_module(&(d + &siblings)).expect("revision parses");
        let units = watch.run_module_incremental(&m);
        let replays = units.iter().filter(|u| u.cache == ZeroDirty).count();
        let want = if i == 0 { 0 } else { 5 };
        assert_eq!((units[0].cache, replays), (Computed, want), "revision {i}");
        let mut fresh = BatchEngine::new(BatchOptions {
            use_cache: false,
            ..BatchOptions::default()
        });
        let want = report::render_text(&fresh.run_module(&m));
        assert_eq!(report::render_text(&units), want, "revision {i}");
    }
    assert_eq!(watch.cache().len(), 12);
}
