//! Differential test of the feasible function's dense class table.
//!
//! [`FeasibleStructure`] stores the block labeling of each anchor context
//! once per pair of facing-set classes. The oracle here is the type-pair map
//! the table replaced: one `(left type, S₀, S₁, right type)` entry per
//! context, filled from the per-type facing sets by the same `first`-then-
//! `last` label scan. Over the corpus and 216 `lcl-gen` problems (every
//! family, shapes from 1×2 up to 4×5) every lookup, including out-of-range
//! types and input labels, must equal the oracle's.
//!
//! `tests/data/feasible_golden.txt` pins the search outcome itself: one line
//! per problem with the `O(1)`-level and `log*`-level results of
//! `find_feasible` (`none`, `error`, or an FNV-1a digest of every block in
//! context order), recorded from the type-pair map implementation.

use std::collections::HashMap;

use lcl_paths::classifier::feasibility::find_feasible;
use lcl_paths::classifier::{ClassifierOptions, FeasibleStructure, GapTypes};
use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::{InLabel, NormalizedLcl, OutLabel};
use lcl_paths::semigroup::primitive_strings_up_to;

/// `(inputs, outputs)` shapes of the generated problems.
const SHAPES: [(usize, usize); 6] = [(1, 2), (2, 2), (2, 3), (3, 3), (3, 5), (4, 5)];

/// Generated problems per (shape, family) cell.
const PER_CELL: usize = 9;

const GOLDEN: &str = include_str!("data/feasible_golden.txt");

/// The corpus, then `PER_CELL` seeded problems per shape and family.
fn problems() -> Vec<NormalizedLcl> {
    let mut out: Vec<NormalizedLcl> = lcl_paths::problems::corpus()
        .into_iter()
        .map(|entry| entry.problem)
        .collect();
    for (s, &(inputs, outputs)) in SHAPES.iter().enumerate() {
        for family in Family::ALL {
            for i in 0..PER_CELL {
                let config = GenConfig::new((s * 1000 + i) as u64)
                    .family(family)
                    .input_labels(inputs)
                    .output_labels(outputs);
                out.push(generate(&config).expect("knobs are in range"));
            }
        }
    }
    out
}

/// The canonical (least-rotation) primitive input words up to `max_len`,
/// as the classifier passes them to the `O(1)`-level search.
fn canonical_patterns(alpha: usize, max_len: usize) -> Vec<Vec<InLabel>> {
    primitive_strings_up_to(alpha, max_len)
        .into_iter()
        .filter(|w| {
            (1..w.len()).all(|s| {
                let rot: Vec<InLabel> = (0..w.len()).map(|i| w[(i + s) % w.len()]).collect();
                rot >= *w
            })
        })
        .collect()
}

type OracleMap = HashMap<(usize, u16, u16, usize), (OutLabel, OutLabel)>;

/// The type-pair map, materialized from the per-type facing sets; `None`
/// when some context has no block labeling.
fn oracle_map(problem: &NormalizedLcl, structure: &FeasibleStructure) -> Option<OracleMap> {
    let (alpha, beta) = (problem.num_inputs(), problem.num_outputs());
    let types = structure.left_facing.len();
    let mut blocks = HashMap::new();
    for li in 0..types {
        for ri in 0..types {
            for s0 in 0..alpha {
                for s1 in 0..alpha {
                    let mut chosen = None;
                    'pairs: for first in 0..beta {
                        let first_l = OutLabel::from_index(first);
                        if structure.right_facing[li] >> first & 1 == 0
                            || !problem.node_ok(InLabel::from_index(s0), first_l)
                        {
                            continue;
                        }
                        for last in 0..beta {
                            let last_l = OutLabel::from_index(last);
                            if structure.left_facing[ri] >> last & 1 == 1
                                && problem.node_ok(InLabel::from_index(s1), last_l)
                                && problem.edge_ok(first_l, last_l)
                            {
                                chosen = Some((first_l, last_l));
                                break 'pairs;
                            }
                        }
                    }
                    blocks.insert((li, s0 as u16, s1 as u16, ri), chosen?);
                }
            }
        }
    }
    Some(blocks)
}

fn fnv(hash: &mut u64, v: u16) {
    for b in v.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Checks one structure against the oracle and returns its golden digest.
fn check_structure(
    name: &str,
    info: &GapTypes,
    problem: &NormalizedLcl,
    s: &FeasibleStructure,
) -> String {
    let types = info.quantified().len();
    let (alpha, beta) = (problem.num_inputs(), problem.num_outputs());
    assert_eq!(s.left_facing.len(), types, "{name}");
    assert_eq!(s.right_facing.len(), types, "{name}");
    // Each (A(τ), B(τ)) lies inside the connection relation C(τ).
    for t in 0..types {
        for p in (0..beta).filter(|&p| s.left_facing[t] >> p & 1 == 1) {
            for q in (0..beta).filter(|&q| s.right_facing[t] >> q & 1 == 1) {
                assert!(info.connection(t).get(p, q), "{name}: type {t} ({p},{q})");
            }
        }
    }
    let oracle = oracle_map(problem, s)
        .unwrap_or_else(|| panic!("{name}: a found structure labels every context"));
    // One step past every range: out-of-range types and labels miss.
    for l in 0..=types {
        for s0 in 0..=alpha as u16 {
            for s1 in 0..=alpha as u16 {
                for r in 0..=types {
                    assert_eq!(
                        s.block(l, InLabel(s0), InLabel(s1), r),
                        oracle.get(&(l, s0, s1, r)).copied(),
                        "{name}: block({l}, {s0}, {s1}, {r})"
                    );
                }
            }
        }
    }
    assert_eq!(s.block(usize::MAX, InLabel(0), InLabel(0), 0), None);
    assert_eq!(s.block(0, InLabel(u16::MAX), InLabel(0), 0), None);
    assert_eq!(s.block(0, InLabel(0), InLabel(u16::MAX), usize::MAX), None);

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for l in 0..types {
        for s0 in 0..alpha as u16 {
            for s1 in 0..alpha as u16 {
                for r in 0..types {
                    match s.block(l, InLabel(s0), InLabel(s1), r) {
                        Some((first, last)) => {
                            fnv(&mut hash, first.0);
                            fnv(&mut hash, last.0);
                        }
                        None => fnv(&mut hash, u16::MAX),
                    }
                }
            }
        }
    }
    format!("{hash:016x}")
}

#[test]
fn dense_block_table_matches_the_type_pair_map() {
    let options = ClassifierOptions::default();
    let problems = problems();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(golden.len(), problems.len(), "one golden line per problem");
    let mut found = 0;
    for (problem, line) in problems.iter().zip(golden) {
        let name = problem.name();
        let info = GapTypes::compute(problem, options.type_budget)
            .unwrap_or_else(|e| panic!("{name}: types: {e}"));
        let kappa = info
            .semigroup()
            .pump_threshold()
            .min(options.pattern_length_cap)
            .max(1);
        let constant_patterns = canonical_patterns(problem.num_inputs(), kappa);
        let mut outcome = vec![name.to_string()];
        for patterns in [constant_patterns, Vec::new()] {
            outcome.push(
                match find_feasible(&info, &patterns, options.search_budget) {
                    Err(_) => "error".to_string(),
                    Ok(None) => "none".to_string(),
                    Ok(Some(structure)) => {
                        found += 1;
                        check_structure(name, &info, problem, &structure)
                    }
                },
            );
        }
        assert_eq!(outcome.join(" "), line, "{name}: search outcome changed");
    }
    assert!(found >= 100, "only {found} structures exercised the table");
}
