//! Cache-poisoning mutation tests for the plan cache.
//!
//! A hit serves an entry's output text, so that text is what a hit must
//! check: poison it through [`lcm_faults::poison_cached_output`], request
//! the same body again, and the hit must fail with
//! [`FailureKind::PoisonedCache`] instead of serving the poisoned text — on
//! a batch hit, on a `watch` undo hit and on a daemon hit, at every
//! validation tier.

use lcm_core::validate::ValidationLevel;
use lcm_driver::protocol::{failure_code, read_response, write_request, Request, Response};
use lcm_driver::serve::{Daemon, ServeOptions};
use lcm_driver::{
    fingerprint, BatchEngine, BatchOptions, BatchUnit, CacheDisposition, FailureKind, PlanCache,
    UnitOutcome, UnitReport,
};
use lcm_faults::{poison_cached_output, OutputFault};
use lcm_ir::{parse_function, parse_module, Function};

/// The diamond with a partially redundant `a + b`: LCM inserts on the
/// empty arm and deletes at the join, so the cached output has an
/// assignment, a terminator and an `obs` for every output fault class.
fn diamond(name: &str) -> Function {
    parse_function(&format!(
        "fn {name} {{
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
         }}"
    ))
    .expect("valid fixture")
}

/// Revision 0 of a watched module: the diamond and a function never
/// edited.
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

/// Revision 1: an edit to `d`, so going back to [`REV0`] is an undo.
fn rev1() -> String {
    REV0.replace("y = a + b", "y = a + b\n  a = 1")
}

/// `REV0`'s `d`, the function the undo tests poison.
fn rev0_d() -> Function {
    parse_module(REV0)
        .expect("rev0 parses")
        .iter()
        .next()
        .unwrap()
        .clone()
}

fn unit(f: &Function) -> BatchUnit {
    BatchUnit {
        file: None,
        profile: None,
        function: f.clone(),
    }
}

fn assert_poisoned(report: &UnitReport, what: &str) {
    assert_eq!(report.cache, CacheDisposition::Hit, "{what}");
    let UnitOutcome::Failed(e) = &report.outcome else {
        panic!("{what}: poisoned hit was served");
    };
    assert_eq!(e.kind, FailureKind::PoisonedCache, "{what}");
}

#[test]
fn poisoned_output_is_rejected_on_a_batch_hit_at_every_tier() {
    for validate in [ValidationLevel::Off, ValidationLevel::Fast] {
        for fault in OutputFault::ALL {
            let what = format!("{fault:?} at {validate:?}");
            let mut engine = BatchEngine::new(BatchOptions {
                validate,
                ..BatchOptions::default()
            });
            let first_fn = diamond("first");
            let first = engine.run(vec![unit(&first_fn)]);
            assert_eq!(first.totals.ok, 1, "{what}: priming run failed");
            assert!(
                poison_cached_output(engine.cache_mut(), &first_fn, fault, 5),
                "{what}: fault did not land"
            );

            // Same body under another name: a hit, which its check rejects.
            let second = engine.run(vec![unit(&diamond("second"))]);
            assert_poisoned(&second.units[0], &what);
            assert_eq!(second.totals.failed, 1);
            assert_eq!(second.totals.ok, 0);
        }
    }
}

#[test]
fn poisoned_output_is_rejected_on_a_watch_undo_hit() {
    for fault in OutputFault::ALL {
        let mut engine = BatchEngine::new(BatchOptions::default());
        engine.run_module_incremental(&parse_module(REV0).unwrap());
        engine.run_module_incremental(&parse_module(&rev1()).unwrap());
        assert!(poison_cached_output(
            engine.cache_mut(),
            &rev0_d(),
            fault,
            5
        ));
        let units = engine.run_module_incremental(&parse_module(REV0).unwrap());
        assert_poisoned(&units[0], &format!("{fault:?}"));
        assert_eq!(units[1].cache, CacheDisposition::ZeroDirty);
        assert!(matches!(units[1].outcome, UnitOutcome::Ok(_)));
    }
}

#[test]
fn poisoned_output_is_rejected_on_a_daemon_hit() {
    let request = |module: &str| {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Optimize {
                deadline_ms: 0,
                fuel: 0,
                module: module.to_string(),
            },
        )
        .expect("encode request");
        buf
    };
    let roundtrip = |d: &Daemon, module: &str| {
        let input = request(module);
        let mut out = Vec::new();
        d.handle_connection(&mut &input[..], &mut out);
        let mut slice = &out[..];
        let mut responses = Vec::new();
        while let Ok(Some(r)) = read_response(&mut slice) {
            responses.push(r);
        }
        responses
    };
    for fault in OutputFault::ALL {
        let d = Daemon::start(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        roundtrip(&d, REV0);
        roundtrip(&d, &rev1());
        assert!(d.with_engine(|e| poison_cached_output(e.cache_mut(), &rev0_d(), fault, 5)));
        // The daemon moves `d`'s memo index only on a compute, so the undo
        // is a plain cache hit.
        let responses = roundtrip(&d, REV0);
        let failed: Vec<_> = responses
            .iter()
            .filter_map(|r| match r {
                Response::UnitErr { name, code, .. } => Some((name.as_str(), *code)),
                _ => None,
            })
            .collect();
        assert_eq!(
            failed,
            [("d", failure_code(FailureKind::PoisonedCache))],
            "{fault:?}"
        );
        assert_eq!(responses.last(), Some(&Response::Done { ok: 1, failed: 1 }));
        assert_eq!(d.panics_contained(), 0);
        d.shutdown().unwrap();
    }
}

#[test]
fn poisoned_output_fails_only_the_hit_unit() {
    let mut engine = BatchEngine::new(BatchOptions::default());
    let first_fn = diamond("first");
    engine.run(vec![unit(&first_fn)]);
    assert!(poison_cached_output(
        engine.cache_mut(),
        &first_fn,
        OutputFault::CorruptTerminator,
        7
    ));

    // A batch mixing the poisoned body with a fresh one: the fresh unit
    // must still complete.
    let fresh = parse_function("fn fresh {\nentry:\n  z = a * b\n  obs z\n  ret\n}").unwrap();
    let result = engine.run(vec![unit(&diamond("again")), unit(&fresh)]);
    assert_eq!(result.totals.failed, 1);
    assert_eq!(result.totals.ok, 1);
    assert!(matches!(result.units[1].outcome, UnitOutcome::Ok(_)));
}

#[test]
fn poisoning_is_deterministic_and_a_noop_without_a_matching_entry() {
    let mut cache = PlanCache::new(0);
    assert!(!poison_cached_output(
        &mut cache,
        &diamond("absent"),
        OutputFault::CorruptTerminator,
        1
    ));
    assert!(cache.is_empty());

    let f = diamond("f");
    let key = fingerprint(&f).0;
    for fault in OutputFault::ALL {
        let texts: Vec<String> = (0..2)
            .map(|_| {
                let mut engine = BatchEngine::new(BatchOptions::default());
                engine.run(vec![unit(&f)]);
                let honest = engine.cache().entry_ref(key).unwrap().output_text.clone();
                assert!(poison_cached_output(engine.cache_mut(), &f, fault, 9));
                let poisoned = engine.cache().entry_ref(key).unwrap().output_text.clone();
                assert_ne!(poisoned, honest, "{fault:?}");
                if fault == OutputFault::ExtraObs {
                    // Wrong but well-formed: only the hit check can tell.
                    let g = parse_function(&poisoned).expect("extra obs parses");
                    lcm_ir::verify(&g).expect("extra obs verifies");
                }
                poisoned
            })
            .collect();
        assert_eq!(texts[0], texts[1], "{fault:?} is not deterministic");
    }
}
