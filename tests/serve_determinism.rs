//! Determinism and robustness-pillar tests for the `lcmopt serve` daemon:
//! daemon answers are byte-identical to `lcmopt batch` answers — cold,
//! warm from a persisted cache, and after a whole-file or a per-entry
//! quarantine — and the watchdog and admission-control pillars produce
//! their typed responses without costing the connection.

use std::path::PathBuf;

use lcm::driver::protocol::{read_response, write_request, Request, Response};
use lcm::driver::serve::{ConnectionEnd, Daemon, ServeOptions};
use lcm::driver::{
    fingerprint, load_cache, report, save_cache, BatchEngine, BatchOptions, CacheDisposition,
    FailureKind, LifetimeCounters, LoadStatus, UnitOutcome,
};
use lcm::ir::parse_module;

const MODULE: &str = "fn d {
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
  x = a * b
  y = a * b
  obs y
  ret
}

fn third {
entry:
  z = p + q
  obs z
  ret
}
";

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("lcm-serve-det-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn roundtrip(daemon: &Daemon, input: &[u8]) -> (Vec<Response>, ConnectionEnd) {
    let mut reader = input;
    let mut out: Vec<u8> = Vec::new();
    let end = daemon.handle_connection(&mut reader, &mut out);
    let mut slice = &out[..];
    let mut responses = Vec::new();
    while let Ok(Some(r)) = read_response(&mut slice) {
        responses.push(r);
    }
    (responses, end)
}

fn optimize_request(module: &str, deadline_ms: u32, fuel: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(
        &mut buf,
        &Request::Optimize {
            deadline_ms,
            fuel,
            module: module.to_string(),
        },
    )
    .expect("encode request");
    buf
}

/// Reassembles streamed unit frames into the printed module, exactly as
/// `lcmopt request` does: sort by unit index, join with blank lines.
fn assemble(responses: &[Response]) -> String {
    let mut units: Vec<(u32, String)> = responses
        .iter()
        .filter_map(|r| match r {
            Response::UnitOk { index, output } => Some((*index, output.clone())),
            _ => None,
        })
        .collect();
    units.sort_by_key(|(i, _)| *i);
    let mut out = units
        .iter()
        .map(|(_, text)| text.as_str())
        .collect::<Vec<_>>()
        .join("\n\n");
    out.push('\n');
    out
}

/// The batch reference answer for [`MODULE`] under the same options.
fn batch_answer() -> String {
    let m = parse_module(MODULE).expect("module parses");
    let mut engine = BatchEngine::new(BatchOptions::default());
    report::render_text(&engine.run_module(&m))
}

#[test]
fn daemon_answers_match_batch_at_any_worker_count() {
    let want = batch_answer();
    for workers in [1, 4] {
        let d = Daemon::start(ServeOptions {
            workers,
            ..ServeOptions::default()
        });
        let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
        assert_eq!(
            responses.last(),
            Some(&Response::Done { ok: 3, failed: 0 }),
            "workers={workers}: {responses:?}"
        );
        assert_eq!(assemble(&responses), want, "workers={workers}");
        // Same connection, second request: the cache now answers, and the
        // bytes must not change.
        let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
        assert_eq!(assemble(&responses), want, "workers={workers} (cached)");
        assert_eq!(d.panics_contained(), 0);
        d.shutdown().unwrap();
    }
}

#[test]
fn warm_persisted_cache_preserves_answers_across_restart() {
    let dir = TempDir::new("warm");
    let cache_file = dir.0.join("plans.cache");
    let want = batch_answer();

    // First daemon lifetime: cold cache, compute, drain (flushes).
    let d = Daemon::start(ServeOptions {
        workers: 2,
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    assert!(matches!(d.load_status(), Some(LoadStatus::Fresh)));
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(assemble(&responses), want);
    d.shutdown().unwrap();
    assert!(cache_file.exists(), "drain must leave the cache file");

    // Second lifetime: the persisted entries are revalidated and served,
    // and the answer is still byte-identical to the batch answer.
    let d = Daemon::start(ServeOptions {
        workers: 2,
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    assert!(
        matches!(d.load_status(), Some(LoadStatus::Loaded { entries: 3 })),
        "{:?}",
        d.load_status()
    );
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(assemble(&responses), want);

    // The stats surface carries the lifetime totals: the first lifetime's
    // misses survived the restart, this lifetime added hits.
    let mut stats_req = Vec::new();
    write_request(&mut stats_req, &Request::Stats).unwrap();
    let (responses, _) = roundtrip(&d, &stats_req);
    let Some(Response::Stats { text }) = responses.first() else {
        panic!("{responses:?}");
    };
    let lifetime = text
        .lines()
        .find(|l| l.starts_with("lifetime: "))
        .unwrap_or_else(|| panic!("no lifetime line in:\n{text}"));
    assert!(lifetime.contains("3 hits"), "{lifetime}");
    assert!(lifetime.contains("3 misses"), "{lifetime}");
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn corrupt_cache_file_is_quarantined_and_answers_are_unchanged() {
    let dir = TempDir::new("quarantine");
    let cache_file = dir.0.join("plans.cache");
    std::fs::write(&cache_file, b"definitely not an lcm-cache-v1 file").unwrap();
    let d = Daemon::start(ServeOptions {
        workers: 2,
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    assert!(
        matches!(d.load_status(), Some(LoadStatus::Quarantined { .. })),
        "{:?}",
        d.load_status()
    );
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(assemble(&responses), batch_answer());
    d.shutdown().unwrap();
    // The recomputed cache replaced the quarantined file.
    assert!(cache_file.exists());
}

/// A checksum-valid cache file whose one entry is parseable but diverges
/// from its input: the daemon quarantines that entry alone, recomputes
/// the unit, answers exactly like a cold batch, counts the quarantine in
/// its lifetime totals, and flushes the honest entry back to the file.
#[test]
fn diverging_persisted_entry_is_quarantined_and_recomputed() {
    const THIRD: &str = "fn third {\nentry:\n  z = p + q\n  obs z\n  ret\n}\n";
    let dir = TempDir::new("entry-quarantine");
    let cache_file = dir.0.join("plans.cache");
    let m = parse_module(THIRD).expect("module parses");
    let key = fingerprint(m.iter().next().expect("one function")).0;

    let mut engine = BatchEngine::new(BatchOptions::default());
    let want = report::render_text(&engine.run_module(&m));
    let entry = engine.cache_mut().entry_mut(key).expect("computed entry");
    let honest = entry.output_text.clone();
    entry.output_text = honest.replace("p + q", "p - q");
    assert_ne!(entry.output_text, honest, "the corruption must land");
    save_cache(&cache_file, engine.cache(), LifetimeCounters::default()).unwrap();

    let d = Daemon::start(ServeOptions {
        workers: 1,
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    assert!(matches!(
        d.load_status(),
        Some(LoadStatus::Loaded { entries: 1 })
    ));
    let mut input = optimize_request(THIRD, 0, 0);
    write_request(&mut input, &Request::Stats).unwrap();
    let (responses, _) = roundtrip(&d, &input);
    assert_eq!(assemble(&responses), want);
    let Some(Response::Stats { text }) = responses.last() else {
        panic!("expected trailing STATS, got {responses:?}");
    };
    let lifetime = |l: &str| l.starts_with("lifetime: ") && l.ends_with(" 1 quarantines");
    assert!(text.lines().any(lifetime), "{text}");
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();

    let (cache, counters) = load_cache(&cache_file, 0).expect("flushed file loads");
    assert_eq!(counters.quarantines, 1);
    assert_eq!(
        cache.entry_ref(key).map(|e| e.output_text.as_str()),
        Some(honest.as_str()),
        "the flushed file must hold the recomputed entry"
    );
}

#[test]
fn renamed_header_entry_never_panics() {
    // A checksum-valid file whose one entry passes the first-principles
    // check (the body is honest) but cannot be renamed: its output header
    // is `fn g {`, not the canonical one. Neither surface may panic: batch
    // fails the unit, the daemon quarantines the entry and recomputes.
    const THIRD: &str = "fn third {\nentry:\n  z = p + q\n  obs z\n  ret\n}\n";
    let dir = TempDir::new("renamed-header");
    let cache_file = dir.0.join("plans.cache");
    let m = parse_module(THIRD).expect("module parses");
    let key = fingerprint(m.iter().next().expect("one function")).0;
    let mut engine = BatchEngine::new(BatchOptions::default());
    let want = report::render_text(&engine.run_module(&m));
    let entry = engine.cache_mut().entry_mut(key).expect("computed entry");
    entry.output_text = entry.output_text.replacen("fn __fn {", "fn g {", 1);
    let write_file = || {
        save_cache(&cache_file, engine.cache(), LifetimeCounters::default()).unwrap();
    };

    write_file();
    let mut batch = BatchEngine::with_cache_file(BatchOptions::default(), &cache_file);
    let result = batch.run_module(&m);
    assert_eq!(result.units[0].cache, CacheDisposition::Hit);
    let UnitOutcome::Failed(e) = &result.units[0].outcome else {
        panic!("an unrenamable entry was served");
    };
    assert_eq!(e.kind, FailureKind::PoisonedCache);

    write_file();
    let d = Daemon::start(ServeOptions {
        workers: 1,
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    let mut input = optimize_request(THIRD, 0, 0);
    write_request(&mut input, &Request::Stats).unwrap();
    let (responses, _) = roundtrip(&d, &input);
    assert_eq!(assemble(&responses), want);
    let Some(Response::Stats { text }) = responses.last() else {
        panic!("expected trailing STATS, got {responses:?}");
    };
    assert!(text.lines().any(|l| l == "panics-contained: 0"), "{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("lifetime: ") && l.ends_with(" 1 quarantines")),
        "{text}"
    );
    d.shutdown().unwrap();
}

#[test]
fn fuel_watchdog_cancels_units_but_the_connection_lives() {
    let d = Daemon::start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    // fuel=1: every unit's solve exceeds one node visit, so each is
    // cancelled deterministically with the distinct `cancelled` code.
    let (responses, end) = roundtrip(&d, &optimize_request(MODULE, 0, 1));
    assert_eq!(end, ConnectionEnd::Closed);
    assert_eq!(responses.last(), Some(&Response::Done { ok: 0, failed: 3 }));
    for r in &responses[..responses.len() - 1] {
        match r {
            Response::UnitErr { code, message, .. } => {
                assert_eq!(*code, 6, "want the cancelled code: {r:?}");
                assert!(message.contains("fuel exhausted"), "{message}");
            }
            other => panic!("expected only cancelled units, got {other:?}"),
        }
    }
    // The watchdog must not have cost the daemon anything: the same
    // module with an unlimited budget now succeeds.
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(assemble(&responses), batch_answer());
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn cancelled_units_never_poison_the_cache() {
    // A fuel-cancelled unit must not leave a half-baked plan behind: the
    // follow-up unlimited request recomputes and the answer matches batch.
    let d = Daemon::start(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let (_, _) = roundtrip(&d, &optimize_request(MODULE, 0, 1));
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(responses.last(), Some(&Response::Done { ok: 3, failed: 0 }));
    assert_eq!(assemble(&responses), batch_answer());
    d.shutdown().unwrap();
}

#[test]
fn overload_is_shed_whole_and_recovers() {
    let d = Daemon::start(ServeOptions {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 25,
        ..ServeOptions::default()
    });
    // Three units against a one-unit bound: shed all-or-nothing, with the
    // configured retry hint.
    let (responses, end) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(end, ConnectionEnd::Closed);
    assert_eq!(responses, vec![Response::Overloaded { retry_after_ms: 25 }]);
    // A request that fits is admitted on the next connection.
    let one = "fn tiny {\nentry:\n  x = a + b\n  obs x\n  ret\n}\n";
    let (responses, _) = roundtrip(&d, &optimize_request(one, 0, 0));
    assert_eq!(responses.last(), Some(&Response::Done { ok: 1, failed: 0 }));
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}
