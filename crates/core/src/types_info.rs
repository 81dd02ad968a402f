//! Per-problem type information used by the gap deciders: the quantified set
//! of gap types and their connection relations.

use crate::Result;
use lcl_problem::NormalizedLcl;
use lcl_semigroup::{OutRelation, TransferSystem, TypeId, TypeSemigroup};

/// Everything the feasibility search needs to know about the problem's types:
/// the semigroup, the minimum gap length `L_min` (the computed stand-in for
/// `ℓ_pump`), the set `T` of types realized by gaps of length `≥ L_min`, and
/// the connection relation `C(τ) = E · R(τ) · E` of each such type.
#[derive(Clone, Debug)]
pub struct GapTypes {
    problem: NormalizedLcl,
    system: TransferSystem,
    semigroup: TypeSemigroup,
    min_gap: usize,
    quantified: Vec<TypeId>,
    connections: Vec<OutRelation>,
}

impl GapTypes {
    /// Computes the type information of a problem. `type_budget` caps the
    /// number of semigroup elements.
    ///
    /// # Errors
    ///
    /// Returns an error if the semigroup exceeds the budget.
    pub fn compute(problem: &NormalizedLcl, type_budget: usize) -> Result<Self> {
        let system = TransferSystem::new(problem);
        let semigroup = TypeSemigroup::compute(&system, type_budget)?;
        let min_gap = semigroup.pump_threshold();
        let quantified: Vec<TypeId> = semigroup
            .length_profile()
            .types_of_length_at_least(min_gap)
            .into_iter()
            .collect();
        let mut connections = Vec::with_capacity(quantified.len());
        for &t in &quantified {
            connections.push(system.connection(semigroup.relation(t))?);
        }
        Ok(GapTypes {
            problem: problem.clone(),
            system,
            semigroup,
            min_gap,
            quantified,
            connections,
        })
    }

    /// The problem.
    pub fn problem(&self) -> &NormalizedLcl {
        &self.problem
    }

    /// The transfer system.
    pub fn system(&self) -> &TransferSystem {
        &self.system
    }

    /// The type semigroup.
    pub fn semigroup(&self) -> &TypeSemigroup {
        &self.semigroup
    }

    /// The minimum gap length the synthesized algorithms guarantee (and the
    /// minimum word length over which the feasibility conditions quantify).
    pub fn min_gap(&self) -> usize {
        self.min_gap
    }

    /// The quantified gap types, in a fixed order.
    pub fn quantified(&self) -> &[TypeId] {
        &self.quantified
    }

    /// The position of a type within [`Self::quantified`], if present.
    pub fn position(&self, t: TypeId) -> Option<usize> {
        self.quantified.iter().position(|&x| x == t)
    }

    /// The connection relation `C(τ)` of the `i`-th quantified type.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn connection(&self, i: usize) -> &OutRelation {
        &self.connections[i]
    }

    /// Whether every *sufficiently long* cycle admits a valid labeling: the
    /// boolean trace of `R(w)·E` must be non-zero for every type realized by
    /// words of length `≥ L_min` (complexity is an asymptotic notion, so very
    /// short degenerate cycles — a triangle cannot be 2-coloured, a single
    /// node has itself as neighbour — do not make a problem unsolvable).
    /// Returns a witness word of length `≥ L_min` if some long cycle has no
    /// valid labeling.
    ///
    /// # Errors
    ///
    /// Propagates relation-algebra errors (dimension mismatches cannot occur
    /// for well-formed problems).
    pub fn solvability_witness(&self) -> Result<Option<Vec<lcl_problem::InLabel>>> {
        for &t in &self.quantified {
            let rel = self.semigroup.relation(t);
            if !self.system.cycle_relation(rel)?.has_nonzero_diagonal() {
                return Ok(Some(self.long_witness(t)));
            }
        }
        Ok(None)
    }

    /// A word of length `≥ L_min` whose type is `t` (which must be a
    /// quantified type). Constructed by a forward walk over the type
    /// automaton, in `TypeId` order, so the witness is the same in every
    /// process: for each type the first word that reaches it is kept.
    fn long_witness(&self, t: TypeId) -> Vec<lcl_problem::InLabel> {
        let alpha = self.system.num_letters();
        let letters = || (0..alpha).map(lcl_problem::InLabel::from_index);
        // words[type] = some word of the current length with that type.
        let mut words: Vec<Option<Vec<lcl_problem::InLabel>>> = vec![None; self.semigroup.len()];
        for a in letters() {
            if let Ok(ty) = self.semigroup.type_of_word(&[a]) {
                words[ty.index()].get_or_insert_with(|| vec![a]);
            }
        }
        let profile = self.semigroup.length_profile();
        let horizon = self.min_gap + profile.preperiod + profile.period + 1;
        for len in 2..=horizon {
            let mut next = vec![None; words.len()];
            for (ty, word) in words.iter().enumerate() {
                let Some(word) = word else { continue };
                for a in letters() {
                    let stepped = self.semigroup.step(TypeId(ty), a);
                    next[stepped.index()].get_or_insert_with(|| {
                        let mut w = word.clone();
                        w.push(a);
                        w
                    });
                }
            }
            words = next;
            if len >= self.min_gap {
                if let Some(w) = &words[t.index()] {
                    return w.clone();
                }
            }
        }
        // Fall back to the stored (possibly short) witness; unreachable for
        // quantified types.
        self.semigroup.witness(t).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problem::NormalizedLcl;

    fn two_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("2-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2"]);
        b.allow_all_node_pairs();
        b.allow_edge_idx(0, 1);
        b.allow_edge_idx(1, 0);
        b.build().unwrap()
    }

    fn three_coloring() -> NormalizedLcl {
        let mut b = NormalizedLcl::builder("3-coloring");
        b.input_labels(&["x"]);
        b.output_labels(&["1", "2", "3"]);
        b.allow_all_node_pairs();
        for p in 0..3u16 {
            for q in 0..3u16 {
                if p != q {
                    b.allow_edge_idx(p, q);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn two_coloring_is_not_always_solvable() {
        let info = GapTypes::compute(&two_coloring(), 10_000).unwrap();
        let witness = info.solvability_witness().unwrap();
        assert!(witness.is_some(), "odd cycles are not 2-colorable");
        assert_eq!(info.problem().name(), "2-coloring");
    }

    #[test]
    fn three_coloring_is_always_solvable() {
        let info = GapTypes::compute(&three_coloring(), 10_000).unwrap();
        assert!(info.solvability_witness().unwrap().is_none());
        assert!(!info.quantified().is_empty());
        assert!(info.min_gap() >= 1);
        // For 3-coloring with a unary input alphabet the semigroup collapses
        // to very few types; all quantified types have a connection relation.
        for i in 0..info.quantified().len() {
            assert_eq!(info.connection(i).dim(), 3);
        }
        let t = info.quantified()[0];
        assert_eq!(info.position(t), Some(0));
        assert!(!info.semigroup().is_empty());
        assert_eq!(info.system().dim(), 3);
    }
}
