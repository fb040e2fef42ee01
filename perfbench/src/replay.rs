//! The traced replay: one request's pipeline, re-run through the public
//! function of each layer with a span around every call.
//!
//! [`plan`] and [`execute`] reproduce `SuperSim::run` stage by stage —
//! `cutkit::cut_circuit`, `FragmentEvalPlan::new`,
//! `evaluate_fragment_tensors_planned`, `correct_tensor`, and the
//! `Reconstructor` marginal and joint sweeps — deriving per-fragment seeds
//! exactly as the executor does, so [`same_bits`] can demand bit-identical
//! marginals (replay fidelity check (a)). [`replay_variants`] then replays
//! every fragment variant through the sub-layer calls inside evaluation
//! (`variant_circuit`, `TableauSim::run`, `TableauSim::support`,
//! `AffineSupport::sample_counts_scratch`, `FrameSim::sample`,
//! `StateVec::run`/`run_noisy`, `sample_index_counts`) and checks each
//! variant's outcome data against `cutkit::evaluate_variant` under the
//! same RNG seed (check (b)).

use crate::trace::Recorder;
use cutkit::{
    correct_tensor, cut_circuit, enumerate_variants, evaluate_fragment_tensors_planned,
    evaluate_variant, variant_circuit, CutCircuit, EvalMode, EvalOptions, Fragment,
    FragmentEvalPlan, MlftOptions, Reconstructor, TableauEngine, TensorOptions, Variant,
};
use metrics::{Distribution, OutcomeCounts};
use qcir::{Bits, Circuit, IndexPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stabsim::{FrameSim, TableauSim};
use std::collections::BTreeMap;
use supersim::{CutStrategy, RunResult, SuperSimConfig};
use svsim::StateVec;

/// Per-request counters and layer times, keyed by metric name.
pub type Ledger = BTreeMap<&'static str, f64>;

/// Adds `v` to the ledger entry `key`.
pub fn tally(ledger: &mut Ledger, key: &'static str, v: f64) {
    *ledger.entry(key).or_insert(0.0) += v;
}

/// A replayed cut plan: the cut, one evaluation plan per fragment, and the
/// recombination scatter plans.
pub struct Planned {
    cut: CutCircuit,
    plans: Vec<FragmentEvalPlan>,
    outputs: Vec<IndexPlan>,
}

impl Planned {
    /// The fragments of the cut.
    pub fn fragments(&self) -> &[Fragment] {
        &self.cut.fragments
    }
}

/// The outputs of one replayed execution.
pub struct Replayed {
    /// Single-qubit marginals.
    pub marginals: Vec<[f64; 2]>,
    /// The clipped, normalized joint, when it was built.
    pub joint: Option<Distribution>,
    /// Total MLFT movement.
    pub mlft_moved: f64,
}

/// Cut placement and plan building, as `CutPlan::build` does them, under
/// spans `cut` and `plan`.
pub fn plan(
    rec: &mut Recorder,
    circuit: &Circuit,
    strategy: &CutStrategy,
    ledger: &mut Ledger,
) -> Result<Planned, String> {
    let cut = rec
        .leaf("cut", || cut_circuit(circuit, strategy.clone()))
        .map_err(|e| format!("cut: {e}"))?;
    let (plans, outputs) = rec.leaf("plan", || {
        let plans: Vec<FragmentEvalPlan> =
            cut.fragments.iter().map(FragmentEvalPlan::new).collect();
        let outputs: Vec<IndexPlan> = cut
            .fragments
            .iter()
            .map(|f| {
                let globals: Vec<usize> = f.circuit_outputs.iter().map(|&(_, g)| g).collect();
                IndexPlan::new(&globals, cut.original_qubits)
            })
            .collect();
        (plans, outputs)
    });
    tally(ledger, "cut.cuts", cut.num_cuts as f64);
    tally(ledger, "cut.fragments", cut.fragments.len() as f64);
    let variants: usize = plans.iter().map(FragmentEvalPlan::num_variants).sum();
    tally(ledger, "plan.variants", variants as f64);
    Ok(Planned {
        cut,
        plans,
        outputs,
    })
}

/// Evaluate → MLFT → recombine → joint against `planned` with run seed
/// `seed`, under spans `eval`, `mlft`, `recombine`, and `joint`.
pub fn execute(
    rec: &mut Recorder,
    config: &SuperSimConfig,
    planned: &Planned,
    seed: u64,
    ledger: &mut Ledger,
) -> Result<Replayed, String> {
    let fragments = planned.fragments();
    let seeds = base_seeds(seed, fragments.len());
    let eval = eval_options(config);
    let topts = TensorOptions {
        clifford_snap: config.clifford_snap,
    };
    let mut tensors = rec
        .leaf("eval", || {
            evaluate_fragment_tensors_planned(fragments, &planned.plans, &eval, &topts, &seeds, 1)
        })
        .map_err(|e| format!("eval: {e}"))?;
    let variants: usize = planned
        .plans
        .iter()
        .map(FragmentEvalPlan::num_variants)
        .sum();
    tally(ledger, "eval.variants", variants as f64);
    if let EvalMode::Sampled { shots } = eval.mode {
        tally(ledger, "eval.shots", (variants * shots) as f64);
    }
    let mlft_moved = if config.mlft && !config.exact {
        let entries: usize = tensors
            .iter()
            .map(|t| t.support_len() * t.pauli_dim())
            .sum();
        tally(ledger, "mlft.entries", entries as f64);
        rec.leaf("mlft", || {
            tensors.iter_mut().try_fold(0.0, |moved, t| {
                Ok::<f64, String>(
                    moved
                        + correct_tensor(t, &MlftOptions::default())
                            .map_err(|e| format!("mlft: {e}"))?,
                )
            })
        })?
    } else {
        0.0
    };
    let cut = &planned.cut;
    let reconstructor = Reconstructor::new(&tensors, cut.num_cuts, cut.original_qubits)
        .with_sparse(config.sparse_contraction)
        .with_threads(1)
        .with_output_plans(&planned.outputs)
        .with_error_budget(config.error_budget);
    let (marginals, stats) = rec
        .leaf("recombine", || reconstructor.try_marginals_with_stats())
        .map_err(|e| format!("recombine: {e}"))?;
    tally(ledger, "recombine.visited", stats.visited as f64);
    tally(
        ledger,
        "recombine.assignments",
        4f64.powi(cut.num_cuts as i32),
    );
    let support = tensors
        .iter()
        .map(|t| t.support_len().max(1))
        .fold(1usize, usize::saturating_mul);
    let joint = if support <= config.joint_support_limit {
        let joint = rec
            .leaf("joint", || {
                reconstructor
                    .try_joint_with_stats(config.joint_support_limit)
                    .map(|(mut d, _)| {
                        d.clip_and_normalize();
                        d
                    })
            })
            .map_err(|e| format!("joint: {e}"))?;
        tally(ledger, "joint.support", joint.support_len() as f64);
        Some(joint)
    } else {
        None
    };
    Ok(Replayed {
        marginals,
        joint,
        mlft_moved,
    })
}

/// Whether a replay reproduces a pipeline result bit for bit: marginal
/// bits, MLFT movement, and the joint's support, emission order, and
/// probability bits — the determinism contract of
/// `RunResult::bit_identical_to`.
pub fn same_bits(run: &RunResult, replay: &Replayed) -> bool {
    let bits = |m: &[[f64; 2]]| -> Vec<u64> {
        m.iter()
            .flat_map(|p| [p[0].to_bits(), p[1].to_bits()])
            .collect()
    };
    run.report.mlft_moved.to_bits() == replay.mlft_moved.to_bits()
        && bits(&run.marginals) == bits(&replay.marginals)
        && match (&run.distribution, &replay.joint) {
            (Some(a), Some(b)) => {
                a.support_len() == b.support_len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((x, p), (y, q))| x == y && p.to_bits() == q.to_bits())
            }
            (None, None) => true,
            _ => false,
        }
}

/// Replays every variant of every fragment through the evaluation
/// sub-layers under spans `eval.variant_build`, `eval.tableau`,
/// `eval.support`, `eval.sample`, `eval.frame`, `eval.statevec`, and
/// `eval.statevec_sample`, and checks each variant's outcome data against
/// `cutkit::evaluate_variant` under the same RNG seed.
pub fn replay_variants(
    rec: &mut Recorder,
    config: &SuperSimConfig,
    planned: &Planned,
    seed: u64,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let eval = eval_options(config);
    let seeds = base_seeds(seed, planned.fragments().len());
    for (fi, fragment) in planned.fragments().iter().enumerate() {
        for (vi, variant) in enumerate_variants(fragment).iter().enumerate() {
            let data = replay_variant(
                rec,
                fragment,
                variant,
                &eval,
                &mut variant_rng(seeds[fi], vi),
            )?;
            tally(ledger, "eval.outcomes", data.len() as f64);
            let want = evaluate_variant(fragment, variant, &eval, &mut variant_rng(seeds[fi], vi))
                .map_err(|e| format!("evaluate_variant: {e}"))?;
            let same = data.len() == want.len()
                && data
                    .iter()
                    .zip(&want)
                    .all(|((a, p), (b, q))| a == b && p.to_bits() == q.to_bits());
            if !same {
                return Err(format!(
                    "sub-layer replay of fragment {fi} variant {vi} differs from evaluate_variant"
                ));
            }
        }
    }
    Ok(())
}

/// One variant through the sub-layer calls, mirroring
/// `cutkit::evaluate_variant` in sampled mode.
fn replay_variant(
    rec: &mut Recorder,
    fragment: &Fragment,
    variant: &Variant,
    eval: &EvalOptions,
    rng: &mut StdRng,
) -> Result<Vec<(Bits, f64)>, String> {
    let EvalMode::Sampled { shots } = eval.mode else {
        return Err("the sub-layer replay covers sampled evaluation only".into());
    };
    if eval.exact_clifford || eval.tableau_engine != TableauEngine::Packed {
        return Err("the sub-layer replay covers the packed tableau engine only".into());
    }
    let circuit = rec.leaf("eval.variant_build", || variant_circuit(fragment, variant));
    let noisy = circuit.has_noise();
    let mut counts = OutcomeCounts::new();
    if fragment.is_clifford {
        if noisy {
            let samples = rec
                .leaf("eval.frame", || FrameSim::sample(&circuit, shots, rng))
                .map_err(|e| format!("frame: {e}"))?;
            for s in &samples {
                counts.record(s);
            }
        } else {
            let tableau = rec
                .leaf("eval.tableau", || TableauSim::run(&circuit, rng))
                .map_err(|e| format!("tableau: {e}"))?;
            let support = rec.leaf("eval.support", || tableau.support());
            let mut row = Bits::zeros(0);
            rec.leaf("eval.sample", || {
                support.sample_counts_scratch(shots, rng, &mut counts, &mut row)
            });
        }
    } else {
        let nq = circuit.num_qubits();
        let sv = rec
            .leaf("eval.statevec", || {
                if noisy {
                    StateVec::run_noisy(&circuit, rng)
                } else {
                    StateVec::run(&circuit)
                }
            })
            .map_err(|e| format!("statevector: {e}"))?;
        if (1..=20).contains(&nq) {
            let tallies = rec.leaf("eval.statevec_sample", || {
                sv.sample_index_counts(shots, rng)
            });
            let mut row = Bits::zeros(nq);
            for (idx, count) in tallies {
                row.copy_from_words(&[idx]);
                counts.record_n(&row, count);
            }
        } else {
            let samples = rec.leaf("eval.statevec_sample", || sv.sample(shots, rng));
            for s in &samples {
                counts.record(s);
            }
        }
    }
    let total = shots.max(1) as f64;
    Ok(counts
        .iter_sorted()
        .map(|(b, c)| (b.clone(), c as f64 / total))
        .collect())
}

/// The evaluation options a run under `config` uses.
fn eval_options(config: &SuperSimConfig) -> EvalOptions {
    EvalOptions {
        mode: if config.exact {
            EvalMode::Exact
        } else {
            EvalMode::Sampled {
                shots: config.shots,
            }
        },
        exact_clifford: config.exact_clifford,
        exact_support_limit: config.exact_support_limit,
        tableau_engine: config.tableau_engine,
        ..EvalOptions::default()
    }
}

/// One base seed per fragment, derived from the run seed as the
/// executor derives them (`supersim`'s `execute::base_seeds`).
fn base_seeds(seed: u64, fragments: usize) -> Vec<u64> {
    (0..fragments)
        .map(|i| StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15)).random())
        .collect()
}

/// The RNG of variant `vi` of a fragment with base seed `base`, derived as
/// fragment evaluation derives it (`cutkit`'s `tensor::variant_rng`).
fn variant_rng(base: u64, vi: usize) -> StdRng {
    StdRng::seed_from_u64(base ^ (vi as u64 + 1).wrapping_mul(0xD1B54A32D192ED03))
}
