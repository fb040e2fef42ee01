//! Exact references the benchmark scores reconstructions against.

use metrics::Distribution;
use qcir::{Bits, Circuit, Gate, Pauli, PauliString};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stabsim::TableauSim;
use supersim::{CutStrategy, SuperSim, SuperSimConfig};
use svsim::StateVec;

/// Exact-mode reconstructions must match the statevector this closely.
pub const EXACT_TOL: f64 = 1e-9;

/// The exact measurement distribution of `circuit`, from the statevector.
pub fn statevector_joint(circuit: &Circuit) -> Result<Distribution, String> {
    let sv = StateVec::run(circuit).map_err(|e| format!("statevector: {e}"))?;
    Ok(Distribution::from_pairs(
        circuit.num_qubits(),
        sv.distribution(0.0),
    ))
}

/// Exact single-qubit marginals of a noiseless circuit that is Clifford
/// except for exactly one `T` or `T†` gate, at any width.
///
/// Writing the non-Clifford gate on qubit `t` as `c₀·I + c₁·Z_t` (with
/// `c₀ = cos π/8`, `c₁ = ∓i·sin π/8` up to global phase), the output state
/// is `c₀·|A⟩ + c₁·W|A⟩`, where `|A⟩` is the circuit's Clifford part
/// applied to `|0…0⟩` and `W` is `Z_t` conjugated through the gates after
/// the `T`. Then `⟨Z_q⟩ = ⟨Z_q⟩_A` when `W` commutes with `Z_q`, and
/// otherwise `cos(π/4)·⟨Z_q⟩_A ± sin(π/4)·⟨R⟩_A` with the Hermitian Pauli
/// `R = −i·Z_q·W` — every term a stabilizer expectation the tableau
/// computes exactly.
pub fn one_t_marginals(circuit: &Circuit) -> Result<Vec<[f64; 2]>, String> {
    let n = circuit.num_qubits();
    let non_clifford = circuit.non_clifford_indices();
    if non_clifford.len() != 1 || circuit.has_noise() {
        return Err("the one-T oracle needs a noiseless circuit with one T gate".into());
    }
    let at = non_clifford[0];
    let ops = circuit.ops();
    let sign = match ops[at].as_gate() {
        Some(Gate::T) => 1.0,
        Some(Gate::Tdg) => -1.0,
        other => return Err(format!("the one-T oracle cannot expand {other:?}")),
    };
    let mut clifford = Circuit::new(n);
    for (i, op) in ops.iter().enumerate() {
        if i != at {
            clifford.push(op.clone());
        }
    }
    // The Clifford part is noiseless and measurement-free, so the RNG is
    // never drawn from; any seed gives the same tableau.
    let tableau = TableauSim::run(&clifford, &mut StdRng::seed_from_u64(0))
        .map_err(|e| format!("one-T oracle: {e}"))?;
    let mut w = PauliString::single(n, ops[at].qubits[0].index(), Pauli::Z);
    for op in &ops[at + 1..] {
        let gate = op
            .as_gate()
            .and_then(Gate::to_clifford)
            .ok_or("one-T oracle: non-Clifford gate after the T")?;
        w.conjugate_by(gate, &op.qubits);
    }
    let (c, s) = (
        std::f64::consts::FRAC_PI_4.cos(),
        std::f64::consts::FRAC_PI_4.sin(),
    );
    Ok((0..n)
        .map(|q| {
            let zq = PauliString::single(n, q, Pauli::Z);
            let ez = f64::from(tableau.expectation(&zq));
            let z = if zq.commutes_with(&w) {
                ez
            } else {
                let mut r = zq.mul(&w);
                r.set_phase((r.phase() + 3) % 4);
                c * ez + sign * s * f64::from(tableau.expectation(&r))
            };
            [(1.0 + z) / 2.0, (1.0 - z) / 2.0]
        })
        .collect())
}

/// Runs `circuit` through the pipeline in exact mode under `strategy` and
/// checks every outcome probability against the statevector to
/// [`EXACT_TOL`].
pub fn exact_mode_check(circuit: &Circuit, strategy: CutStrategy) -> Result<(), String> {
    let config = SuperSimConfig::builder()
        .exact(true)
        .cut_strategy(strategy)
        .build()
        .map_err(|e| e.to_string())?;
    let result = SuperSim::new(config)
        .run(circuit)
        .map_err(|e| format!("exact-mode run: {e}"))?;
    let joint = result
        .distribution
        .ok_or("exact-mode run withheld the joint distribution")?;
    let sv = StateVec::run(circuit).map_err(|e| format!("statevector: {e}"))?;
    let n = circuit.num_qubits();
    let worst = (0..1usize << n)
        .map(|x| (joint.prob(&Bits::from_u64(x as u64, n)) - sv.probability_of_index(x)).abs())
        .fold(0.0, f64::max);
    if worst <= EXACT_TOL {
        Ok(())
    } else {
        Err(format!(
            "exact-mode reconstruction is {worst:.3e} away from the statevector"
        ))
    }
}

/// Checks [`one_t_marginals`] against the statevector marginals of
/// `circuit` to [`EXACT_TOL`].
pub fn one_t_oracle_check(circuit: &Circuit) -> Result<(), String> {
    let got = one_t_marginals(circuit)?;
    let want = statevector_joint(circuit)?.marginals();
    let worst = got
        .iter()
        .zip(&want)
        .map(|(a, b)| (a[0] - b[0]).abs().max((a[1] - b[1]).abs()))
        .fold(0.0, f64::max);
    if worst <= EXACT_TOL {
        Ok(())
    } else {
        Err(format!(
            "one-T marginal oracle is {worst:.3e} away from the statevector"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_t_oracle_matches_statevector() {
        for seed in 0..6 {
            let w = workloads::hwea(10, 3, 1, seed);
            one_t_oracle_check(&w.circuit).unwrap();
        }
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).tdg(1).h(1).cx(1, 2).s(2).h(2);
        one_t_oracle_check(&c).unwrap();
    }

    #[test]
    fn one_t_oracle_rejects_other_circuits() {
        let two_t = workloads::hwea(6, 2, 2, 1).circuit;
        assert!(one_t_marginals(&two_t).is_err());
    }

    #[test]
    fn exact_mode_matches_statevector() {
        exact_mode_check(&workloads::hwea(8, 2, 1, 3).circuit, CutStrategy::default()).unwrap();
    }
}
