//! Unsolvability witnesses are deterministic: the witness word depends only
//! on the problem, never on the process or the engine that computed it, so
//! verdict bytes reproduce across restarts that recompute them.

use lcl_paths::gen::{generate, Family, GenConfig};
use lcl_paths::problem::NormalizedLcl;
use lcl_paths::problems::{self, corpus, KnownComplexity};
use lcl_paths::Engine;

/// Generated problems sampled: every family, 1–3 input and output labels.
const GEN_SAMPLE: usize = 240;

fn gen_config(i: usize) -> GenConfig {
    GenConfig::new(1_000 + i as u64)
        .family(Family::ALL[i % Family::ALL.len()])
        .input_labels(1 + (i / 4) % 3)
        .output_labels(1 + (i / 12) % 3)
        .node_density_pct([35, 60, 85][(i / 36) % 3])
        .out_degree(1 + (i as u32 / 2) % 2)
}

/// The witness's input labels as indices, `None` for solvable problems.
fn witness(engine: &Engine, problem: &NormalizedLcl) -> Option<Vec<usize>> {
    let classification = engine.classify(problem).expect("classifies");
    let instance = classification.unsolvability_witness()?;
    Some(instance.inputs().iter().map(|l| l.index()).collect())
}

#[test]
fn fresh_engines_agree_on_every_witness() {
    let problems: Vec<NormalizedLcl> = corpus()
        .into_iter()
        .filter(|entry| entry.expected == KnownComplexity::Unsolvable)
        .map(|entry| entry.problem)
        .chain((0..GEN_SAMPLE).map(|i| generate(&gen_config(i)).expect("generates")))
        .collect();
    let mut unsolvable = 0;
    let mut multi_letter = 0;
    for problem in &problems {
        // Two fresh engines: separate caches, separately seeded hash maps.
        let first = witness(&Engine::new(), problem);
        let second = witness(&Engine::new(), problem);
        assert_eq!(first, second, "{}: witnesses differ", problem.name());
        if first.is_some() {
            unsolvable += 1;
            multi_letter += usize::from(problem.num_inputs() > 1);
        }
    }
    // The sample must actually exercise witnesses over several input
    // letters, where the walk order decides which word is found first.
    assert!(unsolvable >= 40, "only {unsolvable} unsolvable problems");
    assert!(
        multi_letter >= 20,
        "only {multi_letter} multi-letter witnesses"
    );
}

#[test]
fn witnesses_are_pinned() {
    let engine = Engine::new();
    // The corpus: a cycle of four nodes is no multiple of three.
    assert_eq!(
        witness(&engine, &problems::mod3_counter()),
        Some(vec![0, 0, 0, 0])
    );
    // Odd cycles are the obstruction to 2-colouring.
    let two = witness(&engine, &problems::coloring(2)).expect("unsolvable");
    assert_eq!(two.len() % 2, 1, "{two:?}");
    // Over three input letters, where the walk order picks the word.
    let problem = generate(&gen_config(20)).expect("generates");
    assert_eq!(problem.name(), "gen-uniform-s1020-a3x2-n35-e60-d1");
    assert_eq!(
        witness(&engine, &problem),
        Some(vec![0, 1, 0, 1, 0, 1, 0, 1, 0])
    );
}
