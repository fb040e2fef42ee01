//! Bit-identity of the production tableau engine, the word-parallel
//! row-major `TableauSim`, against the frozen bit-at-a-time
//! `ReferenceTableauSim` baseline.
//!
//! The two engines must be indistinguishable for any seed: identical
//! measurement outcomes, identical stabilizer/destabilizer generators,
//! identical affine-support extraction (same base, same direction order),
//! identical expectation values, and — the property everything downstream
//! leans on — identical seeded-RNG consumption, so every later draw in a
//! shared stream stays aligned. The last tests push the guarantee
//! end-to-end: pipeline runs and fragment tensors evaluated through either
//! engine are bit-identical, the tensors at 1, 2, and 8 worker threads.

use cutkit::{cut_circuit, CutStrategy, EvalMode, EvalOptions, TableauEngine, TensorOptions};
use proptest::prelude::*;
use qcir::{Circuit, Pauli, PauliString};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use stabsim::{ReferenceTableauSim, TableauSim};

/// RNG wrapper that counts every `next_u64` draw, for asserting the two
/// engines consume a shared stream at exactly the same rate.
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl CountingRng {
    fn seed(seed: u64) -> Self {
        CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }
}

impl RngCore for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

fn strings(v: Vec<PauliString>) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// A random near-arbitrary Clifford circuit with optional noise channels.
/// Two-qubit picks degrade to `H` on single-qubit circuits.
fn clifford_circuit(n: usize, ops: &[(u8, usize, usize)], noise: bool) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, a, boff) in ops {
        let a = a % n;
        // A qubit distinct from `a` (only meaningful when n ≥ 2).
        let b = if n >= 2 {
            (a + 1 + boff % (n - 1)) % n
        } else {
            a
        };
        let kind = kind % 10;
        if n < 2 && (6..=8).contains(&kind) {
            c.h(a);
            continue;
        }
        match kind {
            0 => c.h(a),
            1 => c.s(a),
            2 => c.sdg(a),
            3 => c.x(a),
            4 => c.y(a),
            5 => c.z(a),
            6 => c.cx(a, b),
            7 => c.cz(a, b),
            8 => c.swap(a, b),
            _ => {
                if noise {
                    c.add_noise(qcir::NoiseChannel::Depolarize1(0.4), &[a]);
                }
                c.h(a)
            }
        };
    }
    c
}

/// Drives the same circuit + measurement schedule through both engines on
/// independent counting streams of one seed and asserts everything is
/// bit-identical, including the number of RNG draws.
fn assert_engines_bit_identical(c: &Circuit, measure: &[usize], seed: u64) {
    let n = c.num_qubits();
    let mut ref_rng = CountingRng::seed(seed);
    let mut rng = CountingRng::seed(seed);
    let mut reference = ReferenceTableauSim::run(c, &mut ref_rng).unwrap();
    let mut packed = TableauSim::run(c, &mut rng).unwrap();

    // Pre-collapse state: generators and support extraction must agree.
    assert_eq!(
        strings(packed.stabilizers()),
        strings(reference.stabilizers()),
        "stabilizers diverged"
    );
    assert_eq!(
        strings(packed.destabilizers()),
        strings(reference.destabilizers()),
        "destabilizers diverged"
    );
    let ref_support = reference.support();
    let support = packed.support();
    assert_eq!(support.base(), ref_support.base(), "support base diverged");
    assert_eq!(
        support.directions(),
        ref_support.directions(),
        "support directions diverged"
    );

    // Bulk sampling consumes the shared stream identically.
    assert_eq!(
        support.sample_many(40, &mut rng),
        ref_support.sample_many(40, &mut ref_rng),
        "samples diverged"
    );

    // Collapse-style measurement: same outcomes, same draw counts.
    for &q in measure {
        let q = q % n;
        let a = reference.measure(q, &mut ref_rng);
        let b = packed.measure(q, &mut rng);
        assert_eq!(a, b, "measurement outcome diverged at qubit {q}");
        assert_eq!(
            rng.draws, ref_rng.draws,
            "RNG draw counts diverged at qubit {q}"
        );
    }

    // Post-collapse generators still agree.
    assert_eq!(
        strings(packed.stabilizers()),
        strings(reference.stabilizers()),
        "post-measurement stabilizers diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random Clifford circuits + measurement schedules: the packed engine
    /// is bit-identical to the frozen reference, RNG draws included.
    #[test]
    fn engines_match_reference(
        n in 1usize..9,
        ops in proptest::collection::vec((0u8..10, 0usize..16, 0usize..16), 1..60),
        measure in proptest::collection::vec(0usize..16, 1..12),
        seed in 0u64..1_000,
    ) {
        let c = clifford_circuit(n, &ops, false);
        assert_engines_bit_identical(&c, &measure, seed);
    }

    /// Same with Pauli noise trajectories in the stream: both engines must
    /// draw the trajectory identically.
    #[test]
    fn engines_match_reference_with_noise(
        n in 2usize..7,
        ops in proptest::collection::vec((0u8..10, 0usize..16, 0usize..16), 1..40),
        measure in proptest::collection::vec(0usize..16, 1..8),
        seed in 0u64..1_000,
    ) {
        let c = clifford_circuit(n, &ops, true);
        assert_engines_bit_identical(&c, &measure, seed);
    }

    /// Exact Pauli expectations agree between the engines.
    #[test]
    fn expectations_match_reference(
        ops in proptest::collection::vec((0u8..10, 0usize..16, 0usize..16), 1..40),
        paulis in proptest::collection::vec(0u8..4, 5),
        seed in 0u64..1_000,
    ) {
        let n = 5;
        let c = clifford_circuit(n, &ops, false);
        let p = PauliString::from_paulis(
            paulis
                .iter()
                .map(|&k| match k {
                    0 => Pauli::I,
                    1 => Pauli::X,
                    2 => Pauli::Y,
                    _ => Pauli::Z,
                })
                .collect::<Vec<_>>(),
        );
        let reference = ReferenceTableauSim::run(&c, &mut StdRng::seed_from_u64(seed))
            .unwrap()
            .expectation(&p);
        let packed = TableauSim::run(&c, &mut StdRng::seed_from_u64(seed))
            .unwrap()
            .expectation(&p);
        prop_assert_eq!(packed, reference, "expectation diverged");
    }
}

/// The engine knob is selectable through the top-level pipeline
/// (`SuperSimConfig::tableau_engine`), and the whole run — marginals,
/// joint distribution, MLFT diagnostic — is bit-identical between the
/// engines for the same seed.
#[test]
fn supersim_pipeline_bit_identical_across_engines() {
    use supersim::{SuperSim, SuperSimConfig};
    let w = workloads::hwea(6, 3, 2, 23);
    let mk = |engine| SuperSimConfig {
        shots: 800,
        seed: 2024,
        mlft: true,
        tableau_engine: engine,
        ..SuperSimConfig::default()
    };
    let reference = SuperSim::new(mk(TableauEngine::Reference))
        .run(&w.circuit)
        .unwrap();
    let rd = reference.distribution.unwrap();
    let run = SuperSim::new(mk(TableauEngine::Packed))
        .run(&w.circuit)
        .unwrap();
    assert!(
        run.report.mlft_moved.to_bits() == reference.report.mlft_moved.to_bits(),
        "MLFT diagnostic diverged"
    );
    for (q, (p, r)) in run.marginals.iter().zip(&reference.marginals).enumerate() {
        assert!(
            p[0].to_bits() == r[0].to_bits() && p[1].to_bits() == r[1].to_bits(),
            "marginal bits differ at qubit {q}"
        );
    }
    let pd = run.distribution.unwrap();
    assert_eq!(pd.support_len(), rd.support_len());
    for ((pb, pp), (rb, rp)) in pd.iter().zip(rd.iter()) {
        assert_eq!(pb, rb, "joint emission order diverged");
        assert!(pp.to_bits() == rp.to_bits(), "probability bits at {pb}");
    }
}

/// Multi-word tableaus (n > 64, stride ≥ 2) exercise the general
/// slice-based collapse/scratch paths rather than the single-word
/// register fast paths — they must match the reference identically too.
#[test]
fn engines_match_reference_multiword() {
    for &(n, seed) in &[(65usize, 11u64), (96, 12), (130, 13)] {
        let mut gen = StdRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        for _ in 0..6 * n {
            ops.push((
                (gen.next_u64() % 10) as u8,
                gen.next_u64() as usize % n,
                gen.next_u64() as usize % n,
            ));
        }
        let c = clifford_circuit(n, &ops, false);
        let measure: Vec<usize> = (0..2 * n).map(|i| (i * 7 + 3) % n).collect();
        assert_engines_bit_identical(&c, &measure, seed + 1000);
    }
}

/// End-to-end: fragment tensors built through the packed engine are
/// bit-identical to the reference build — same support, same emission
/// order, same coefficient float bits — at 1, 2, and 8 worker threads.
#[test]
fn fragment_tensors_bit_identical_across_engines_and_threads() {
    let mut c = Circuit::new(6);
    c.h(0);
    for q in 1..6 {
        c.cx(q - 1, q);
    }
    for q in [1usize, 3, 5] {
        c.t(q);
    }
    for q in 0..6 {
        c.h(q);
    }
    let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
    let seeds: Vec<u64> = (0..cut.fragments.len() as u64).map(|i| 501 + i).collect();
    let opts = TensorOptions::default();
    for mode in [EvalMode::Sampled { shots: 800 }, EvalMode::Exact] {
        let reference_eval = EvalOptions {
            mode,
            tableau_engine: TableauEngine::Reference,
            ..Default::default()
        };
        let baseline =
            cutkit::evaluate_fragment_tensors(&cut.fragments, &reference_eval, &opts, &seeds, 1)
                .unwrap();
        let eval = EvalOptions {
            mode,
            tableau_engine: TableauEngine::Packed,
            ..Default::default()
        };
        for threads in [1usize, 2, 8] {
            let tensors =
                cutkit::evaluate_fragment_tensors(&cut.fragments, &eval, &opts, &seeds, threads)
                    .unwrap();
            assert_eq!(tensors.len(), baseline.len());
            for (fi, (p, r)) in tensors.iter().zip(&baseline).enumerate() {
                assert_eq!(
                    p.support_len(),
                    r.support_len(),
                    "support diverged: fragment {fi}, {threads} threads, {mode:?}"
                );
                for ((pb, pv), (rb, rv)) in p.iter().zip(r.iter()) {
                    assert_eq!(pb, rb, "outcome order diverged at fragment {fi}");
                    for (x, y) in pv.iter().zip(rv) {
                        assert!(
                            x.to_bits() == y.to_bits(),
                            "coefficient bits diverged: fragment {fi}, \
                             outcome {pb}, {threads} threads, {mode:?}"
                        );
                    }
                }
            }
        }
    }
}
