//! Local (per-block) predicates: ANTLOC, COMP, TRANSP.
//!
//! These are the paper's three local properties of a block `n` with respect
//! to a candidate expression `e`:
//!
//! * **ANTLOC** (*locally anticipatable*) — `n` contains an occurrence of
//!   `e` that is *upward exposed*: no operand of `e` is assigned earlier in
//!   the block, so the occurrence computes the value `e` has on entry.
//! * **COMP** (*locally available*) — `n` contains an occurrence of `e`
//!   that is *downward exposed*: no operand of `e` is assigned later in the
//!   block, so on exit the block "has just computed" `e`.
//! * **TRANSP** (*transparent*) — `n` assigns to no operand of `e`, so the
//!   value of `e` is the same on entry and exit.
//!
//! A single instruction `a = a + b` is an occurrence (the right-hand side
//! is evaluated first) and then a kill: the block has ANTLOC but not COMP
//! and not TRANSP for `a + b`.
//!
//! For `load` expressions TRANSP is additionally *alias-aware*: under the
//! base- and field-insensitive model, every `store` and every non-pure
//! `call` may write any heap cell, so each such instruction kills **all**
//! `Mem` expressions ([`ExprUniverse::mem_mask`]). The kill applies at the
//! killer's program point exactly like a destination kill: a load occurring
//! before an in-block store keeps ANTLOC, one after it loses it.

use lcm_dataflow::BitSet;
use lcm_ir::{BlockId, Function, Instr, Rvalue};

use crate::universe::ExprUniverse;

/// The local predicate bit vectors of every block, indexed by
/// [`BlockId`] and universe position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LocalPredicates {
    /// `ANTLOC[b]`: expressions with an upward-exposed occurrence in `b`.
    pub antloc: Vec<BitSet>,
    /// `COMP[b]`: expressions with a downward-exposed occurrence in `b`.
    pub comp: Vec<BitSet>,
    /// `TRANSP[b]`: expressions not killed by `b`.
    pub transp: Vec<BitSet>,
    /// `¬TRANSP[b]`, precomputed: the *kill* sets fed to the dataflow
    /// framework.
    pub kill: Vec<BitSet>,
}

impl LocalPredicates {
    /// Computes the local predicates of every block of `f` over `universe`.
    pub fn compute(f: &Function, universe: &ExprUniverse) -> Self {
        let n = f.num_blocks();
        let mut antloc = vec![universe.empty_set(); n];
        let mut comp = vec![universe.empty_set(); n];
        let mut transp = vec![universe.full_set(); n];
        for b in f.block_ids() {
            scan_block(f, universe, b, &mut antloc, &mut comp, &mut transp);
        }
        let kill = transp
            .iter()
            .map(|t| {
                let mut k = t.clone();
                k.complement();
                k
            })
            .collect();
        LocalPredicates {
            antloc,
            comp,
            transp,
            kill,
        }
    }

    /// Renders one block's predicates, e.g. for figure tables.
    pub fn display_block(&self, f: &Function, universe: &ExprUniverse, b: BlockId) -> String {
        format!(
            "ANTLOC={} COMP={} TRANSP={}",
            universe.display_set(f, &self.antloc[b.index()]),
            universe.display_set(f, &self.comp[b.index()]),
            universe.display_set(f, &self.transp[b.index()]),
        )
    }
}

fn scan_block(
    f: &Function,
    universe: &ExprUniverse,
    b: BlockId,
    antloc: &mut [BitSet],
    comp: &mut [BitSet],
    transp: &mut [BitSet],
) {
    let i = b.index();
    // `killed_so_far[e]`: some operand of e was assigned earlier in the block.
    let mut killed_so_far = universe.empty_set();
    // `avail_now[e]`: e was computed in the block and not killed since.
    let mut avail_now = universe.empty_set();
    for instr in &f.block(b).instrs {
        if let Instr::Assign {
            rv: Rvalue::Expr(e),
            ..
        } = instr
        {
            if let Some(idx) = universe.index_of(*e) {
                if !killed_so_far.contains(idx) {
                    antloc[i].insert(idx);
                }
                avail_now.insert(idx);
            }
        }
        // The destination (if any) kills every expression mentioning it —
        // after the right-hand side has been evaluated. One packed mask per
        // variable turns the kill into three word sweeps over the whole
        // universe instead of a per-expression loop.
        if let Some(dst) = instr.def() {
            if let Some(mask) = universe.kill_mask(dst) {
                killed_so_far.union_with(mask);
                avail_now.difference_with(mask);
                transp[i].difference_with(mask);
            }
        }
        // Memory writers kill every load (may-alias, base/field-insensitive).
        if instr.kills_memory() {
            let mask = universe.mem_mask();
            killed_so_far.union_with(mask);
            avail_now.difference_with(mask);
            transp[i].difference_with(mask);
        }
    }
    comp[i] = avail_now;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_ir::parse_function;

    fn predicates_of(text: &str) -> (Function, ExprUniverse, LocalPredicates) {
        let f = parse_function(text).unwrap();
        let uni = ExprUniverse::of(&f);
        let preds = LocalPredicates::compute(&f, &uni);
        (f, uni, preds)
    }

    #[test]
    fn plain_occurrence_is_antloc_and_comp() {
        let (f, _, p) = predicates_of("fn a {\nentry:\n  x = a + b\n  ret\n}");
        let e = f.entry().index();
        assert!(p.antloc[e].contains(0));
        assert!(p.comp[e].contains(0));
        assert!(p.transp[e].contains(0));
        assert!(!p.kill[e].contains(0));
    }

    #[test]
    fn kill_before_occurrence_clears_antloc() {
        let (f, _, p) = predicates_of(
            "fn k {
             entry:
               a = 1
               x = a + b
               ret
             }",
        );
        let e = f.entry().index();
        assert!(!p.antloc[e].contains(0)); // killed before the occurrence
        assert!(p.comp[e].contains(0)); // but downward exposed
        assert!(!p.transp[e].contains(0));
    }

    #[test]
    fn kill_after_occurrence_clears_comp() {
        let (f, _, p) = predicates_of(
            "fn k {
             entry:
               x = a + b
               a = 1
               ret
             }",
        );
        let e = f.entry().index();
        assert!(p.antloc[e].contains(0));
        assert!(!p.comp[e].contains(0));
        assert!(!p.transp[e].contains(0));
    }

    #[test]
    fn self_killing_occurrence() {
        // a = a + b: upward exposed, then killed by its own destination.
        let (f, _, p) = predicates_of("fn s {\nentry:\n  a = a + b\n  ret\n}");
        let e = f.entry().index();
        assert!(p.antloc[e].contains(0));
        assert!(!p.comp[e].contains(0));
        assert!(!p.transp[e].contains(0));
    }

    #[test]
    fn antloc_and_comp_with_distinct_occurrences() {
        // The paper's "both ANTLOC and COMP with TRANSP false" case: an
        // upward-exposed occurrence, a kill, then another occurrence.
        let (f, _, p) = predicates_of(
            "fn b {
             entry:
               x = a + b
               a = 2
               y = a + b
               ret
             }",
        );
        let e = f.entry().index();
        assert!(p.antloc[e].contains(0));
        assert!(p.comp[e].contains(0));
        assert!(!p.transp[e].contains(0));
    }

    #[test]
    fn store_kills_loads_positionally() {
        // Load, store, load: the first load is upward exposed, the second
        // is downward exposed, the block is not transparent for the load.
        let (f, uni, p) = predicates_of(
            "fn m {
             entry:
               x = load p
               store q, 1
               y = load p
               ret
             }",
        );
        let e = f.entry().index();
        let load = uni
            .index_of(lcm_ir::Expr::Mem(lcm_ir::Operand::Var(
                f.symbols.get("p").unwrap(),
            )))
            .unwrap();
        assert!(p.antloc[e].contains(load));
        assert!(p.comp[e].contains(load));
        assert!(!p.transp[e].contains(load));
        assert!(p.kill[e].contains(load));
    }

    #[test]
    fn impure_call_kills_loads_but_pure_does_not() {
        let (f, uni, p) = predicates_of(
            "fn c {
             entry:
               x = load p
               m = call min(x, 1)
               jmp other
             other:
               call poke(q, 2)
               ret
             }",
        );
        let load = uni
            .index_of(lcm_ir::Expr::Mem(lcm_ir::Operand::Var(
                f.symbols.get("p").unwrap(),
            )))
            .unwrap();
        let e = f.entry().index();
        // The pure `min` call leaves the load transparent...
        assert!(p.transp[e].contains(load));
        assert!(p.comp[e].contains(load));
        // ...but the impure `poke` kills it.
        let other = f.block_by_name("other").unwrap().index();
        assert!(!p.transp[other].contains(load));
    }

    #[test]
    fn unrelated_blocks_are_transparent() {
        let (f, _, p) = predicates_of(
            "fn t {
             entry:
               x = a + b
               jmp other
             other:
               q = 5
               obs q
               ret
             }",
        );
        let other = f.block_by_name("other").unwrap().index();
        assert!(!p.antloc[other].contains(0));
        assert!(!p.comp[other].contains(0));
        assert!(p.transp[other].contains(0));
    }

    #[test]
    fn display_block_is_readable() {
        let (f, uni, p) = predicates_of("fn d {\nentry:\n  x = a + b\n  ret\n}");
        let s = p.display_block(&f, &uni, f.entry());
        assert!(s.contains("ANTLOC={a + b}"));
        assert!(s.contains("TRANSP={a + b}"));
    }
}
