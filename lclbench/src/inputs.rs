//! Seeded workload inputs. Every input is a pure function of the run seed,
//! and the shape (counts, families, alphabet sizes, lengths) never depends
//! on it, so two seeds give the same workload shape with different problems.

use lcl_paths::classifier::Complexity;
use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::{
    InLabel, NormalizedLcl, OutLabel, StreamInputs, StreamInstanceSpec, Topology,
};
use lcl_paths::problems::{self, KnownComplexity};
use std::collections::HashSet;

/// splitmix64 over `seed ^ salt`: independent sub-seeds per input.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n`.
fn permutation(seed: u64, n: usize) -> Vec<u16> {
    let mut keyed: Vec<(u64, u16)> = (0..n as u16)
        .map(|i| (mix(seed, u64::from(i)), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// An isomorphic copy of `problem` with its input and output labels
/// permuted by `seed`. The verdict is unchanged (complexity does not depend
/// on label names), but the structural key differs and the search visits
/// labels in another order.
pub fn relabel(problem: &NormalizedLcl, seed: u64, name: String) -> NormalizedLcl {
    let (alpha, beta) = (problem.num_inputs(), problem.num_outputs());
    let pin = permutation(mix(seed, 1), alpha);
    let pout = permutation(mix(seed, 2), beta);
    let mut b = NormalizedLcl::builder(name);
    b.input_labels(&(0..alpha).map(|i| format!("i{i}")).collect::<Vec<_>>());
    b.output_labels(&(0..beta).map(|o| format!("o{o}")).collect::<Vec<_>>());
    for i in 0..alpha as u16 {
        for o in 0..beta as u16 {
            if problem.node_ok(InLabel(i), OutLabel(o)) {
                b.allow_node_idx(pin[usize::from(i)], pout[usize::from(o)]);
            }
        }
    }
    for p in 0..beta as u16 {
        for q in 0..beta as u16 {
            if problem.edge_ok(OutLabel(p), OutLabel(q)) {
                b.allow_edge_idx(pout[usize::from(p)], pout[usize::from(q)]);
            }
        }
    }
    b.build().expect("a relabeled problem is well-formed")
}

/// What is known about a problem's verdict without asking the classifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Known {
    /// The exact class (corpus ground truth or true by construction).
    Exactly(Complexity),
    /// `near-threshold` problems are never `O(1)`.
    NotConstant,
    /// Nothing beyond what the brute-force checks establish.
    Unknown,
}

impl Known {
    pub fn admits(&self, verdict: &Complexity) -> bool {
        match self {
            Known::Exactly(expected) => expected == verdict,
            Known::NotConstant => *verdict != Complexity::Constant,
            Known::Unknown => true,
        }
    }
}

pub struct Problem {
    /// Which slice of the workload the problem belongs to, for failure
    /// reports and per-slice counts.
    pub group: String,
    pub problem: NormalizedLcl,
    pub known: Known,
}

/// The fixed seed of the `lcl-gen` grid whose problems every run relabels.
const GRID_SEED: u64 = 0x1c1_9a75;

/// Problems per generated grid cell of `cold-classify`.
const PER_CELL: u64 = 30;

/// The `cold-classify` problem list: a seeded `lcl-gen` grid over every
/// family and the shapes 2x3, 3x5, 4x5 (inputs x outputs), a near-threshold
/// 3x12 cell, the 10-problem corpus, and `unconstrained(beta)` for
/// beta in {8, 12, 16, 64}: 13 cells of 30, so 404 problems (20 beyond
/// p95), the same shape for every seed.
///
/// beta = 63 is left out on purpose: its candidate-biclique loop runs
/// 2^63 iterations with no budget and would pin a server worker forever.
/// beta = 64 is kept: it overflows the same loop into an empty range and
/// gets the wrong verdict `linear`, a known defect the oracle counts.
pub fn cold_problems(seed: u64) -> Vec<Problem> {
    let mut cells: Vec<(Family, usize, usize)> = Vec::new();
    for family in Family::ALL {
        for (inputs, outputs) in [(2, 3), (3, 5), (4, 5)] {
            cells.push((family, inputs, outputs));
        }
    }
    cells.push((Family::NearThreshold, 3, 12));
    let mut out = Vec::new();
    for (c, &(family, inputs, outputs)) in cells.iter().enumerate() {
        for i in 0..PER_CELL {
            let config = GenConfig::new(mix(GRID_SEED, (c as u64) << 32 | i))
                .family(family)
                .input_labels(inputs)
                .output_labels(outputs);
            let base = generate(&config).expect("grid knobs are in range");
            let name = format!("{}-r{seed}", base.name());
            let problem = relabel(&base, mix(seed, (c as u64) << 32 | i), name);
            let known = match family {
                Family::Solvable => Known::Exactly(Complexity::Constant),
                Family::Unsolvable => Known::Exactly(Complexity::Unsolvable),
                Family::NearThreshold => Known::NotConstant,
                Family::Uniform => Known::Unknown,
            };
            out.push(Problem {
                group: format!("gen-{family}-{inputs}x{outputs}"),
                problem,
                known,
            });
        }
    }
    for entry in problems::corpus() {
        let expected = match entry.expected {
            KnownComplexity::Unsolvable => Complexity::Unsolvable,
            KnownComplexity::Constant => Complexity::Constant,
            KnownComplexity::LogStar => Complexity::LogStar,
            KnownComplexity::Linear => Complexity::Linear,
        };
        out.push(Problem {
            group: format!("corpus-{}", entry.problem.name()),
            problem: entry.problem,
            known: Known::Exactly(expected),
        });
    }
    for beta in [8, 12, 16, 64] {
        out.push(Problem {
            group: format!("unconstrained-{beta}"),
            problem: problems::unconstrained(beta),
            known: Known::Exactly(Complexity::Constant),
        });
    }
    // Largest alphabets first, in a seeded order within each size: the
    // heavy problems (up to ~0.7 s each) start early on both connections,
    // so a pass does not end on one connection working through a late
    // heavy problem while the other idles.
    let mut keyed: Vec<((std::cmp::Reverse<usize>, u64), Problem)> = out
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let size = p.problem.num_inputs() * p.problem.num_outputs();
            ((std::cmp::Reverse(size), mix(seed ^ 0x5eed, i as u64)), p)
        })
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    keyed.into_iter().map(|(_, p)| p).collect()
}

/// Distinct hot-set problems for `warm-serve`: more than the server's
/// 1,024-line raw-text memo, fewer than its 4,096 cache entries.
pub const HOT_SET: usize = 2_000;

/// Small `uniform` problems with pairwise distinct structure, drawn from a
/// seed stream that `salt` keeps disjoint between the hot set and the
/// first-seen (miss) pool. `exclude` holds structural keys already taken.
/// The shapes 1x3, 1x4 and 2x3 classify in about 0.01-0.5 ms (2x4 and 3x3
/// reach several ms), so a miss costs the pool little and the workload
/// stays on the serving layers.
pub fn small_distinct(
    seed: u64,
    salt: u64,
    count: usize,
    exclude: &mut HashSet<Vec<u8>>,
) -> Vec<NormalizedLcl> {
    let mut out = Vec::with_capacity(count);
    let mut i = 0u64;
    while out.len() < count {
        let shape = [(1, 3), (1, 4), (2, 3)][(i % 3) as usize];
        let config = GenConfig::new(mix(seed ^ salt, i))
            .input_labels(shape.0)
            .output_labels(shape.1);
        i += 1;
        let problem = generate(&config).expect("hot-set knobs are in range");
        if exclude.insert(problem.structural_key()) {
            out.push(problem);
        }
    }
    out
}

/// One `solve_stream` request of the stream phase.
pub struct Leg {
    /// `logstar`, `constant_irregular`, `constant_periodic` or
    /// `known_defect`; the first three name `stream_us_per_node.*` metrics.
    pub leg: &'static str,
    pub name: String,
    pub problem: NormalizedLcl,
    pub instance: StreamInstanceSpec,
}

/// Nodes of the seeded-input legs: a few thousand, so one `log*` leg takes
/// about a second at the measured ~0.5 ms/node.
const SEEDED_NODES: u64 = 2_000;
/// Nodes of the periodic-input path leg, ~10^5 at ~10 us/node.
const PERIODIC_NODES: u64 = 100_000;

/// The stream phase's legs:
/// (a) 3-coloring and MIS on seeded-input cycles;
/// (b) copy-input on a seeded-input cycle;
/// (c) copy-input on a `[0,1]`-periodic path;
/// (d) two known defects that must stay visible: 3-coloring on a seeded
///     path (the log* algorithm breaks the edge constraint on paths of
///     600+ nodes) and input-boundary-detection on a seeded cycle of more
///     than 936 nodes (its O(1) algorithm fails there).
pub fn stream_legs(seed: u64) -> Vec<Leg> {
    let seeded = |topology, salt| StreamInstanceSpec {
        topology,
        length: SEEDED_NODES,
        // The wire carries the seed as a non-negative JSON integer.
        inputs: StreamInputs::Seeded {
            seed: mix(seed, salt) >> 1,
        },
    };
    vec![
        Leg {
            leg: "logstar",
            name: "3-coloring/seeded-cycle".into(),
            problem: problems::coloring(3),
            instance: seeded(Topology::Cycle, 1),
        },
        Leg {
            leg: "logstar",
            name: "mis/seeded-cycle".into(),
            problem: problems::maximal_independent_set(),
            instance: seeded(Topology::Cycle, 2),
        },
        Leg {
            leg: "constant_irregular",
            name: "copy-input/seeded-cycle".into(),
            problem: problems::copy_input(),
            instance: seeded(Topology::Cycle, 3),
        },
        Leg {
            leg: "constant_periodic",
            name: "copy-input/periodic-path".into(),
            problem: problems::copy_input(),
            instance: StreamInstanceSpec {
                topology: Topology::Path,
                length: PERIODIC_NODES,
                inputs: StreamInputs::Pattern {
                    pattern: vec![0, 1],
                },
            },
        },
        Leg {
            leg: "known_defect",
            name: "3-coloring/seeded-path".into(),
            problem: problems::coloring(3),
            instance: seeded(Topology::Path, 4),
        },
        Leg {
            leg: "known_defect",
            name: "input-boundary-detection/seeded-cycle".into(),
            problem: problems::input_boundary_detection(),
            instance: StreamInstanceSpec {
                length: 1_500,
                ..seeded(Topology::Cycle, 5)
            },
        },
    ]
}
