//! Checks served verdicts and labelings without trusting the classifier:
//! known answers where they exist, brute force for unsolvability witnesses,
//! and `is_valid` on labelings the server returns.

use crate::inputs::{mix, Known};
use lcl_paths::classifier::{Complexity, Verdict};
use lcl_paths::problem::{
    Instance, Labeling, NormalizedLcl, StreamInputs, StreamInstanceSpec, Topology,
};
use lcl_paths::semigroup::TransferSystem;
use lcl_server::{Client, ClientError};

/// Failures caused by defects that were reproduced before this benchmark
/// existed. They are counted in `failed` like any other failure; they only
/// keep `correct` true, because `correct` reports whether anything *else*
/// went wrong. Each entry is (slice of the workload, part of the message).
const KNOWN_DEFECTS: [(&str, &str); 4] = [
    // candidate_bicliques shifts 1 << 64, which wraps to an empty range.
    ("unconstrained-64", "wrong verdict linear"),
    // The log* algorithm breaks the edge constraint on paths of 600+ nodes.
    ("3-coloring/seeded-path", "violated the edge constraint"),
    // The O(1) algorithm fails on seeded cycles of more than 936 nodes.
    ("input-boundary-detection/seeded-cycle", "violated the"),
    // The same defect on generated problems: the deep check (a seeded cycle
    // longer than the round count) finds O(1) algorithms of some solvable
    // problems labeling invalidly, e.g. on 1,039- and 2,079-node cycles.
    (
        DEEP_CHECK_SLICE,
        "O(1) algorithm produced an invalid labeling",
    ),
];

/// The slice that every deep check's outcome is counted in.
pub const DEEP_CHECK_SLICE: &str = "deep-check";

/// Whether a failure message from workload slice `group` is a known defect.
pub fn is_known_defect(group: &str, message: &str) -> bool {
    KNOWN_DEFECTS
        .iter()
        .any(|(g, m)| group == *g && message.contains(m))
}

/// A seeded-input cycle of `n` nodes over `alphabet` input labels.
pub fn seeded_cycle(seed: u64, n: u64, alphabet: usize) -> Instance {
    StreamInstanceSpec {
        topology: Topology::Cycle,
        length: n,
        inputs: StreamInputs::Seeded { seed: seed >> 1 },
    }
    .materialize(alphabet)
}

/// The longest cycle a deep check solves on. Simulation costs
/// O(nodes x rounds): a few seconds on a 2-core host, for round counts up
/// to ~2,000.
const DEEP_MAX_NODES: u64 = 4_200;

/// Checks one served verdict: its class against what is known, an
/// unsolvability witness by brute force, and a solvable verdict by a
/// `solve` labeling of a seeded 64-node cycle.
pub fn check_verdict(
    client: &mut Client,
    problem: &NormalizedLcl,
    known: &Known,
    verdict: &Verdict,
    seed: u64,
) -> Result<(), String> {
    let complexity = &verdict.complexity;
    if !known.admits(complexity) {
        return Err(format!(
            "wrong verdict {} ({known:?})",
            complexity.wire_name()
        ));
    }
    if *complexity == Complexity::Unsolvable {
        return check_witness(problem, verdict);
    }
    let instance = seeded_cycle(mix(seed, 64), 64, problem.num_inputs());
    check_solve(client, problem, &TransferSystem::new(problem), &instance).map(|_| ())
}

/// Checks a solvable, sublinear verdict on a seeded cycle longer than the
/// synthesized algorithm's round count, where the algorithm itself (not
/// its gather-all fallback for short instances) has to produce the
/// labeling.
pub fn deep_check(client: &mut Client, problem: &NormalizedLcl, seed: u64) -> Result<(), String> {
    let system = TransferSystem::new(problem);
    let mut n = 64;
    loop {
        let instance = seeded_cycle(mix(seed, n), n, problem.num_inputs());
        let rounds = check_solve(client, problem, &system, &instance)? as u64;
        if rounds < n {
            return Ok(());
        }
        // Short cycles are solved by gathering everything (rounds = n);
        // grow until the synthesized algorithm itself runs.
        n = 2 * rounds.max(n) + 1;
        if n > DEEP_MAX_NODES {
            // Checked up to the largest cycle a run can afford.
            return Ok(());
        }
    }
}

/// Checks an unsolvable verdict's witness by brute force.
pub fn check_witness(problem: &NormalizedLcl, verdict: &Verdict) -> Result<(), String> {
    let witness = verdict
        .witness
        .as_ref()
        .ok_or("unsolvable verdict without a witness")?;
    match TransferSystem::new(problem).instance_solvable(witness) {
        Ok(false) => Ok(()),
        Ok(true) => Err("unsolvability witness is solvable by brute force".into()),
        Err(e) => Err(format!("brute force failed on the witness: {e}")),
    }
}

/// Whether `served` (a verdict's JSON) is as good as `reference`, the
/// checked verdict of the same problem: the same complexity and algorithm,
/// and, when the two differ in their unsolvability witness (the witness
/// search is not deterministic across processes), a witness brute force
/// confirms.
pub fn same_verdict(problem: &NormalizedLcl, served: &str, reference: &str) -> Result<(), String> {
    if served == reference {
        return Ok(());
    }
    let parse =
        |text: &str| Verdict::from_json_str(text).map_err(|e| format!("malformed verdict: {e}"));
    let (served, reference) = (parse(served)?, parse(reference)?);
    if served.complexity != reference.complexity || served.algorithm != reference.algorithm {
        return Err(format!(
            "verdict {} differs from the checked {}",
            served.complexity.wire_name(),
            reference.complexity.wire_name()
        ));
    }
    check_witness(problem, &served)
}

/// Solves `instance` over the wire and validates the labeling; an error
/// reply is accepted only when brute force agrees the instance has no
/// labeling. Returns the round count.
fn check_solve(
    client: &mut Client,
    problem: &NormalizedLcl,
    system: &TransferSystem,
    instance: &Instance,
) -> Result<usize, String> {
    match client.solve(&problem.to_spec(), instance) {
        Ok(reply) => {
            if problem.is_valid(instance, &reply.labeling) {
                Ok(reply.rounds)
            } else {
                Err(format!(
                    "invalid solve labeling on a {}-node cycle",
                    instance.len()
                ))
            }
        }
        Err(ClientError::Remote(error)) => match system.instance_solvable(instance) {
            Ok(false) => Ok(0),
            _ => Err(format!(
                "solve failed on a solvable {}-node cycle: {}",
                instance.len(),
                error.message
            )),
        },
        Err(e) => Err(format!("solve: {e}")),
    }
}

/// Validates a streamed labeling against the materialized instance.
pub fn check_stream(
    problem: &NormalizedLcl,
    instance: &StreamInstanceSpec,
    outputs: &[u16],
) -> Result<(), String> {
    let materialized = instance.materialize(problem.num_inputs());
    if outputs.len() != materialized.len() {
        return Err(format!(
            "streamed {} labels for {} nodes",
            outputs.len(),
            materialized.len()
        ));
    }
    if problem.is_valid(&materialized, &Labeling::from_indices(outputs)) {
        Ok(())
    } else {
        Err("invalid streamed labeling".into())
    }
}
