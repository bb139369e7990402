//! Strategy-equivalence property suite: the round-robin reference solver
//! and the SCC-priority production solver reach **bit-identical**
//! `Solution`s for every analysis — and the fused `lcm` pipeline therefore
//! reaches the round-robin path's insert/delete placements — across a
//! seeded corpus of 500+ random control-flow graphs: structured reducible
//! programs (loopy and loop-free), free-form possibly-irreducible CFGs,
//! and DAGs.
//!
//! The LCM dataflow framework is monotone over a finite lattice, so each
//! problem has one fixpoint; scheduling is a pure cost decision. This suite
//! is the empirical pin for that theorem across solver strategies, the way
//! `tests/solver_equivalence.rs` pins the fused pipeline against the seed
//! path.

use lcm::cfggen::{arbitrary, corpus, random_dag, GenOptions};
use lcm::core::{
    anticipability_problem, availability_problem, later_problem, lazy_edge_plan, lcm, ExprUniverse,
    GlobalAnalyses, LocalPredicates,
};
use lcm::dataflow::{CfgView, SolveStrategy, SolverScratch};
use lcm::ir::Function;

/// 500+ functions: reducible structured programs (small and mid-sized,
/// which the generator gives plenty of loops), irreducible-capable
/// arbitrary CFGs, and acyclic DAGs.
fn big_corpus() -> Vec<Function> {
    let mut fns = corpus(0x5717_A7E6, 260, &GenOptions::default());
    fns.extend(corpus(0x5717_A7E7, 40, &GenOptions::sized(80)));
    fns.extend((0..120).map(|s| arbitrary(s ^ 0xABCD, &GenOptions::sized(16))));
    fns.extend((0..80).map(|s| random_dag(s ^ 0xD146, &GenOptions::sized(12))));
    assert!(fns.len() >= 500, "corpus shrank to {}", fns.len());
    fns
}

#[test]
fn rr_and_scc_produce_bit_identical_solutions() {
    let mut scratch = SolverScratch::new();
    for f in big_corpus() {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let view = CfgView::new(&f);
        for (name, p) in [
            ("availability", availability_problem(&f, &uni, &local)),
            ("anticipability", anticipability_problem(&f, &uni, &local)),
            ("later", later_problem(&f, &uni, &local, &ga)),
        ] {
            let rr = p.solve_with(SolveStrategy::RoundRobin, &view, &mut scratch);
            let scc = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
            assert_eq!(rr.ins, scc.ins, "{name} ins: scc vs rr on {}", f.name);
            assert_eq!(rr.outs, scc.outs, "{name} outs: scc vs rr on {}", f.name);
        }
    }
}

#[test]
fn fused_lcm_matches_round_robin_placements() {
    let mut scratch = SolverScratch::new();
    for f in big_corpus().into_iter().step_by(3) {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let reference = lazy_edge_plan(&f, &uni, &local, &ga).unwrap();
        let fused = lcm(&f, &mut scratch).unwrap().lazy;
        assert_eq!(reference.laterin, fused.laterin, "laterin on {}", f.name);
        assert_eq!(
            reference.plan.edge_inserts, fused.plan.edge_inserts,
            "edge inserts on {}",
            f.name
        );
        assert_eq!(
            reference.plan.entry_insert, fused.plan.entry_insert,
            "entry insert on {}",
            f.name
        );
        assert_eq!(reference.delete, fused.delete, "delete on {}", f.name);
    }
}

#[test]
fn scc_priority_beats_round_robin_revisits_on_the_loopy_corpus() {
    // On the loopy part of the corpus round-robin re-sweeps every block
    // until a sweep changes nothing; the SCC drain revisits only inside
    // loops and must cut scheduling waste in aggregate.
    let mut scratch = SolverScratch::new();
    let mut rr_revisits = 0usize;
    let mut scc_revisits = 0usize;
    for f in big_corpus() {
        let view = CfgView::new(&f);
        if view.retreating_edges() == 0 {
            continue;
        }
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let p = availability_problem(&f, &uni, &local);
        rr_revisits += p
            .solve_with(SolveStrategy::RoundRobin, &view, &mut scratch)
            .stats
            .node_revisits;
        scc_revisits += p
            .solve_with(SolveStrategy::SccPriority, &view, &mut scratch)
            .stats
            .node_revisits;
    }
    assert!(
        scc_revisits < rr_revisits,
        "SCC-priority revisits {scc_revisits} not below round-robin {rr_revisits}"
    );
}
