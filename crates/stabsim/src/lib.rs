//! A fast stabilizer-circuit simulator — the Stim substitute in SuperSim-RS.
//!
//! One production tableau engine, its frozen oracle, and a frame
//! simulator:
//!
//! | Engine | Layout | Gate cost | Measure cost | Use it for |
//! |---|---|---|---|---|
//! | [`TableauSim`] | row-major bit-planes | `O(n)` bit probes | `O(n·n/64)` word rowsums | all noiseless Clifford fragment evaluation |
//! | [`ReferenceTableauSim`] | per-qubit `Vec<u64>` columns | `O(n/64)` words, scalar | row extraction per step | differential-testing oracle (`#[doc(hidden)]`) |
//! | [`FrameSim`] | Pauli frames, batch-major | — | — | noisy multi-shot sampling (Pauli channels only) |
//!
//! The two tableau engines produce **bit-identical outcome streams and
//! seeded-RNG consumption**, enforced by the `tableau_engine_parity`
//! suite; `cutkit::TableauEngine::Reference` routes whole pipeline runs
//! through the oracle so the guarantee stays testable end-to-end.
//! [`AffineSupport`] — the extracted computational-basis support of a
//! stabilizer state — makes 300-qubit sampling cheap and is shared
//! verbatim by both engines.
//!
//! ```
//! use qcir::Circuit;
//! use stabsim::TableauSim;
//! use rand::SeedableRng;
//!
//! let mut ghz = Circuit::new(3);
//! ghz.h(0).cx(0, 1).cx(1, 2);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let sim = TableauSim::run(&ghz, &mut rng).unwrap();
//! assert_eq!(sim.support().dim(), 1); // uniform over {000, 111}
//! ```

mod frame;
mod packed;
mod reference_tableau;
mod tableau;

pub use frame::FrameSim;
pub use packed::PackedPauli;
#[doc(hidden)]
pub use reference_tableau::ReferenceTableauSim;
pub use tableau::{AffineSupport, TableauSim};

/// Error returned when a stabilizer engine encounters a non-Clifford gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonCliffordError {
    /// Index of the offending operation in the circuit.
    pub op_index: usize,
    /// Human-readable gate name.
    pub name: String,
}

impl std::fmt::Display for NonCliffordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "non-Clifford gate {} at operation index {}",
            self.name, self.op_index
        )
    }
}

impl std::error::Error for NonCliffordError {}
