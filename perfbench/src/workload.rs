//! The benchmark's workloads: instance generation, setup, one request,
//! and the correctness checks every timed request passes.

use crate::oracle;
use crate::replay::{self, Ledger, Planned};
use crate::trace::Recorder;
use cutkit::cut_circuit;
use metrics::{mean_marginal_fidelity, Distribution};
use qcir::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use supersim::{CutPlan, CutStrategy, ExecParams, Executor, RunResult, SuperSim, SuperSimConfig};
use workloads::RepetitionConfig;

/// Candidate draws allowed per family before instance generation gives up.
const MAX_DRAWS: usize = 2000;

/// Joint distributions must carry unit mass to this tolerance.
pub const MASS_TOL: f64 = 1e-9;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 5: HWEA at n = 200, one sequential `SuperSim::run` per request.
    HweaWide,
    /// Figs. 6–7: QAOA-SK and repetition-code circuits, one
    /// `SuperSim::run_batch` per request.
    MixedBatch,
    /// The `4^k` wall: a T ladder cut ten times, planned once.
    LadderDeep,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::HweaWide, Kind::MixedBatch, Kind::LadderDeep];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HweaWide => "hwea_wide",
            Kind::MixedBatch => "mixed_batch",
            Kind::LadderDeep => "ladder_deep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A circuit family instances are drawn from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    /// `workloads::hwea(n, rounds, t_gates, seed)`.
    Hwea {
        n: usize,
        rounds: usize,
        t_gates: usize,
    },
    /// `workloads::qaoa_sk(n, rounds, t_gates, seed)`.
    QaoaSk {
        n: usize,
        rounds: usize,
        t_gates: usize,
    },
    /// `workloads::phase_repetition` with `d` data qubits.
    Repetition {
        d: usize,
        t_gates: usize,
        phase_noise: Option<f64>,
    },
    /// `workloads::t_ladder(n, layers)`; takes no seed.
    Ladder { n: usize, layers: usize },
}

impl Family {
    /// The instance of this family with generator seed `seed`.
    pub fn generate(self, seed: u64) -> Circuit {
        match self {
            Family::Hwea { n, rounds, t_gates } => {
                workloads::hwea(n, rounds, t_gates, seed).circuit
            }
            Family::QaoaSk { n, rounds, t_gates } => {
                workloads::qaoa_sk(n, rounds, t_gates, seed).circuit
            }
            Family::Repetition {
                d,
                t_gates,
                phase_noise,
            } => {
                workloads::phase_repetition(RepetitionConfig {
                    data_qubits: d,
                    phase_noise,
                    t_gates,
                    seed,
                })
                .circuit
            }
            Family::Ladder { n, layers } => workloads::t_ladder(n, layers).circuit,
        }
    }

    /// A small noiseless member of the family for the exact-mode check.
    fn small(self) -> Family {
        match self {
            Family::Hwea { rounds, .. } => Family::Hwea {
                n: 12,
                rounds,
                t_gates: 1,
            },
            Family::QaoaSk {
                rounds, t_gates, ..
            } => Family::QaoaSk {
                n: 8,
                rounds,
                t_gates,
            },
            Family::Repetition { t_gates, .. } => Family::Repetition {
                d: 4,
                t_gates,
                phase_noise: None,
            },
            Family::Ladder { .. } => Family::Ladder { n: 4, layers: 6 },
        }
    }
}

/// How many instances of one cost class of a family the set holds. The
/// class of an instance is its total variant count under the workload's
/// cut strategy (`None` accepts any); fixing the count per class keeps the
/// cost mix of the set identical for every workload seed.
#[derive(Clone, Copy, Debug)]
pub struct Quota {
    pub family: Family,
    pub variants: Option<usize>,
    pub count: usize,
}

/// Everything that defines one workload run.
#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub quotas: Vec<Quota>,
    pub strategy: CutStrategy,
    /// Shots per fragment variant.
    pub shots: usize,
    /// `run_batch` worker threads (mixed batch; 1 elsewhere).
    pub threads: usize,
    /// Requests below this Hellinger fidelity count as failed.
    pub fidelity_floor: f64,
    /// The seed the instance set is drawn from when it is not the
    /// workload seed (see [`setup`]).
    pub set_seed: Option<u64>,
}

impl Spec {
    /// The paper-scale workload.
    pub fn paper(kind: Kind) -> Spec {
        let hwea = Family::Hwea {
            n: 200,
            rounds: 5,
            t_gates: 1,
        };
        let qaoa = Family::QaoaSk {
            n: 14,
            rounds: 1,
            t_gates: 1,
        };
        let repetition = Family::Repetition {
            d: 16,
            t_gates: 3,
            phase_noise: Some(0.05),
        };
        let quota = |family, variants, count| Quota {
            family,
            variants,
            count,
        };
        match kind {
            // Three two-fragment instances (24 variants) and one
            // three-fragment instance (19 variants), the natural ~3:1 mix.
            Kind::HweaWide => Spec {
                kind,
                quotas: vec![quota(hwea, Some(24), 3), quota(hwea, Some(19), 1)],
                strategy: CutStrategy::default(),
                shots: 5000,
                threads: 1,
                fidelity_floor: 0.99,
                set_seed: None,
            },
            Kind::MixedBatch => Spec {
                kind,
                quotas: vec![
                    quota(qaoa, Some(24), 4),
                    quota(qaoa, Some(19), 4),
                    quota(repetition, Some(70), 2),
                    quota(repetition, Some(82), 2),
                ],
                strategy: CutStrategy::default(),
                shots: 5000,
                threads: std::thread::available_parallelism()
                    .map_or(1, usize::from)
                    .min(2),
                fidelity_floor: 0.3,
                // One fixed batch: drawn per seed, its 5000-shot QAOA
                // fidelity moves by several percent from seed to seed.
                set_seed: Some(1),
            },
            Kind::LadderDeep => Spec {
                kind,
                quotas: vec![quota(Family::Ladder { n: 5, layers: 30 }, None, 1)],
                strategy: CutStrategy::IsolateNonClifford { max_cuts: 10 },
                shots: 5000,
                threads: 1,
                fidelity_floor: 0.9,
                set_seed: None,
            },
        }
    }

    /// The pipeline configuration of a request with run seed `seed`:
    /// the paper protocol (sampled evaluation, MLFT, Clifford snap, sparse
    /// contraction) with the default tableau engine; plans are never
    /// served from a cache.
    pub fn config(&self, seed: u64) -> SuperSimConfig {
        SuperSimConfig {
            shots: self.shots,
            cut_strategy: self.strategy.clone(),
            parallel: self.kind == Kind::MixedBatch,
            threads: self.threads,
            seed,
            plan_cache_capacity: 0,
            ..SuperSimConfig::default()
        }
    }
}

/// What an instance's reconstruction is scored against.
pub enum Reference {
    /// The statevector's joint distribution (circuits of ≤ 20 qubits).
    Joint(Distribution),
    /// Exact single-qubit marginals (wide one-T circuits).
    Marginals(Vec<[f64; 2]>),
    /// Not scored (wide or noisy circuits).
    None,
}

/// One circuit of a workload's instance set.
pub struct Instance {
    pub circuit: Circuit,
    pub reference: Reference,
}

/// The result of one circuit of a request.
pub struct Member {
    pub instance: usize,
    pub result: Result<RunResult, String>,
}

/// A workload after setup: instances, references, and — where the
/// workload plans once — the plan.
pub struct Prepared {
    pub spec: Spec,
    pub instances: Vec<Instance>,
    plan: Option<CutPlan>,
    /// The replay's copy of that plan, and the ledger of building it.
    replay_plan: Option<(Planned, Ledger)>,
}

/// Draws the instance set of `spec` from the workload seed: per family, a
/// seeded stream of generator seeds, each candidate kept when its class
/// still has room. The set is ordered so that every class is spread
/// evenly along it.
pub fn instances(spec: &Spec, seed: u64) -> Result<Vec<Circuit>, String> {
    let mut keyed: Vec<(f64, usize, Circuit)> = Vec::new();
    let mut families: Vec<Family> = Vec::new();
    for q in &spec.quotas {
        if !families.contains(&q.family) {
            families.push(q.family);
        }
    }
    for (fi, &family) in families.iter().enumerate() {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (fi as u64 + 1).wrapping_mul(0xA24BAED4963EE407));
        let quotas: Vec<(usize, &Quota)> = spec
            .quotas
            .iter()
            .enumerate()
            .filter(|(_, q)| q.family == family)
            .collect();
        let mut filled = vec![0usize; quotas.len()];
        let mut draws = 0;
        while filled.iter().zip(&quotas).any(|(f, (_, q))| *f < q.count) {
            draws += 1;
            if draws > MAX_DRAWS {
                return Err(format!("{family:?}: no instances of the requested classes"));
            }
            let circuit = family.generate(rng.random());
            let variants: usize = cut_circuit(&circuit, spec.strategy.clone())
                .map_err(|e| format!("{family:?}: {e}"))?
                .fragments
                .iter()
                .map(|f| f.num_variants())
                .sum();
            let slot = quotas.iter().enumerate().position(|(i, (_, q))| {
                filled[i] < q.count && q.variants.is_none_or(|v| v == variants)
            });
            if let Some(i) = slot {
                let (qi, q) = quotas[i];
                keyed.push(((filled[i] as f64 + 0.5) / q.count as f64, qi, circuit));
                filled[i] += 1;
            }
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Ok(keyed.into_iter().map(|(_, _, c)| c).collect())
}

fn reference(circuit: &Circuit) -> Result<Reference, String> {
    Ok(if circuit.has_noise() {
        Reference::None
    } else if circuit.num_qubits() <= 20 {
        Reference::Joint(oracle::statevector_joint(circuit)?)
    } else if circuit.non_clifford_count() == 1 {
        Reference::Marginals(oracle::one_t_marginals(circuit)?)
    } else {
        Reference::None
    })
}

/// Derives the `index`-th seed of a stream from `seed`.
pub fn derive_seed(seed: u64, salt: u64, index: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ salt ^ (index + 1).wrapping_mul(0x9FB21C651E98DF25)).random()
}

const REQUEST_SALT: u64 = 0x5EED_0000_0000_0001;
const WARMUP_SALT: u64 = 0x5EED_0000_0000_0002;
const CHECK_SALT: u64 = 0x5EED_0000_0000_0003;

/// The run seed of request `r`.
pub fn request_seed(seed: u64, r: usize) -> u64 {
    derive_seed(seed, REQUEST_SALT, r as u64)
}

/// Setup: exact-mode self-checks of every family (the benchmark refuses
/// to time when one fails), instance generation — from `spec.set_seed`
/// where the workload fixes its set, else from `seed` — references, the
/// plan-once step, and one warm-up request.
pub fn setup(spec: &Spec, seed: u64) -> Result<Prepared, String> {
    for (i, q) in spec.quotas.iter().enumerate() {
        let small = q.family.small();
        let circuit = small.generate(derive_seed(seed, CHECK_SALT, i as u64));
        oracle::exact_mode_check(&circuit, spec.strategy.clone())
            .map_err(|e| format!("self-check on {small:?}: {e}"))?;
        if let Family::Hwea { .. } = small {
            oracle::one_t_oracle_check(&circuit)
                .map_err(|e| format!("self-check on {small:?}: {e}"))?;
        }
    }
    let instances = instances(spec, spec.set_seed.unwrap_or(seed))?
        .into_iter()
        .map(|circuit| {
            Ok(Instance {
                reference: reference(&circuit)?,
                circuit,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (plan, replay_plan) = if spec.kind == Kind::LadderDeep {
        let circuit = &instances[0].circuit;
        let plan = CutPlan::build(circuit, spec.strategy.clone()).map_err(|e| e.to_string())?;
        let mut ledger = Ledger::new();
        let mut rec = Recorder::new();
        let planned = replay::plan(&mut rec, circuit, &spec.strategy, &mut ledger)?;
        for name in ["cut", "plan"] {
            ledger.insert(
                if name == "cut" { "cut.ms" } else { "plan.ms" },
                rec.total(0, name).as_secs_f64() * 1e3,
            );
        }
        (Some(plan), Some((planned, ledger)))
    } else {
        (None, None)
    };
    let prepared = Prepared {
        spec: spec.clone(),
        instances,
        plan,
        replay_plan,
    };
    for member in prepared.run_request(0, derive_seed(seed, WARMUP_SALT, 0)) {
        prepared
            .check(&member)
            .map_err(|e| format!("warm-up request: {e}"))?;
    }
    Ok(prepared)
}

impl Prepared {
    /// Requests in one pass over the instance set: one per instance on
    /// `hwea_wide`, the one batch or the one plan elsewhere. Request `r`
    /// sits at position `r % pass_len()` of its pass.
    pub fn pass_len(&self) -> usize {
        match self.spec.kind {
            Kind::HweaWide => self.instances.len(),
            Kind::MixedBatch | Kind::LadderDeep => 1,
        }
    }

    /// Runs request `r` with run seed `seed`; one member per circuit.
    pub fn run_request(&self, r: usize, seed: u64) -> Vec<Member> {
        let config = self.spec.config(seed);
        match self.spec.kind {
            Kind::HweaWide => {
                let instance = r % self.instances.len();
                let result = SuperSim::new(config).run(&self.instances[instance].circuit);
                vec![Member {
                    instance,
                    result: result.map_err(|e| e.to_string()),
                }]
            }
            Kind::MixedBatch => {
                let circuits: Vec<Circuit> =
                    self.instances.iter().map(|i| i.circuit.clone()).collect();
                SuperSim::new(config)
                    .run_batch(&circuits)
                    .into_iter()
                    .enumerate()
                    .map(|(instance, result)| Member {
                        instance,
                        result: result.map_err(|e| e.to_string()),
                    })
                    .collect()
            }
            Kind::LadderDeep => {
                let plan = self.plan.as_ref().expect("the ladder plans in setup");
                let result =
                    Executor::new(&config).run_with(plan, ExecParams::from_config(&config));
                vec![Member {
                    instance: 0,
                    result: result.map_err(|e| e.to_string()),
                }]
            }
        }
    }

    /// The correctness checks of one member: it ran, its marginals are
    /// finite probabilities, any joint has unit mass, and a scored
    /// instance meets the fidelity floor. Returns the fidelity, if scored.
    pub fn check(&self, member: &Member) -> Result<Option<f64>, String> {
        let result = member.result.as_ref().map_err(String::clone)?;
        if let Some(bad) = result
            .marginals
            .iter()
            .flatten()
            .find(|p| !p.is_finite() || !(0.0..=1.0).contains(*p))
        {
            return Err(format!("marginal {bad} outside [0, 1]"));
        }
        if let Some(joint) = &result.distribution {
            let mass = joint.total_mass();
            if (mass - 1.0).abs() > MASS_TOL {
                return Err(format!("joint mass {mass}"));
            }
        }
        let fidelity = match &self.instances[member.instance].reference {
            Reference::Joint(exact) => Some(
                result
                    .distribution
                    .as_ref()
                    .ok_or("no joint to score")?
                    .hellinger_fidelity(exact),
            ),
            Reference::Marginals(exact) => Some(mean_marginal_fidelity(&result.marginals, exact)),
            Reference::None => None,
        };
        match fidelity {
            Some(f) if f.is_nan() || f < self.spec.fidelity_floor => Err(format!(
                "fidelity {f:.4} below the floor {}",
                self.spec.fidelity_floor
            )),
            _ => Ok(fidelity),
        }
    }

    /// Replays request `r` (run seed `seed`) under a `request` span: the
    /// plan (unless built once in setup) and execution of every member.
    /// Returns the replayed plans and outputs, member by member.
    pub fn replay_request(
        &self,
        rec: &mut Recorder,
        members: &[Member],
        seed: u64,
        ledger: &mut Ledger,
    ) -> Result<Vec<(Option<Planned>, replay::Replayed)>, String> {
        let config = self.spec.config(seed);
        if let Some((_, setup_ledger)) = &self.replay_plan {
            ledger.extend(setup_ledger.iter().map(|(k, v)| (*k, *v)));
        }
        rec.span("request", |rec| {
            members
                .iter()
                .map(|m| {
                    let owned = match &self.replay_plan {
                        Some(_) => None,
                        None => Some(replay::plan(
                            rec,
                            &self.instances[m.instance].circuit,
                            &self.spec.strategy,
                            ledger,
                        )?),
                    };
                    let planned = self.planned(&owned);
                    let out = replay::execute(rec, &config, planned, seed, ledger)?;
                    Ok((owned, out))
                })
                .collect()
        })
    }

    /// The replay plan of a member: its own, or the one built in setup.
    pub fn planned<'a>(&'a self, owned: &'a Option<Planned>) -> &'a Planned {
        owned
            .as_ref()
            .or(self.replay_plan.as_ref().map(|(p, _)| p))
            .expect("a replay plan per member")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Small instances of every workload for the self-tests.
    pub(crate) fn small(kind: Kind) -> Spec {
        let mut spec = Spec::paper(kind);
        spec.shots = 400;
        spec.fidelity_floor = 0.0;
        spec.quotas = match kind {
            Kind::HweaWide => vec![Quota {
                family: Family::Hwea {
                    n: 16,
                    rounds: 2,
                    t_gates: 1,
                },
                variants: None,
                count: 2,
            }],
            Kind::MixedBatch => vec![
                Quota {
                    family: Family::QaoaSk {
                        n: 6,
                        rounds: 1,
                        t_gates: 1,
                    },
                    variants: None,
                    count: 2,
                },
                Quota {
                    family: Family::Repetition {
                        d: 4,
                        t_gates: 2,
                        phase_noise: Some(0.05),
                    },
                    variants: None,
                    count: 2,
                },
            ],
            Kind::LadderDeep => {
                spec.strategy = CutStrategy::IsolateNonClifford { max_cuts: 4 };
                vec![Quota {
                    family: Family::Ladder { n: 3, layers: 4 },
                    variants: None,
                    count: 1,
                }]
            }
        };
        spec
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for kind in Kind::ALL {
            let spec = small(kind);
            let a = instances(&spec, 11).unwrap();
            let b = instances(&spec, 11).unwrap();
            assert_eq!(a, b, "{kind:?}");
            if kind != Kind::LadderDeep {
                assert_ne!(a, instances(&spec, 12).unwrap(), "{kind:?}");
            }
        }
        assert_eq!(request_seed(5, 3), request_seed(5, 3));
        assert_ne!(request_seed(5, 3), request_seed(5, 4));
    }

    #[test]
    fn paper_sets_keep_their_class_mix() {
        let spec = Spec::paper(Kind::MixedBatch);
        for seed in [1, 2] {
            let set = instances(&spec, seed).unwrap();
            assert_eq!(set.len(), 12);
            let variants: Vec<usize> = set
                .iter()
                .map(|c| {
                    cut_circuit(c, spec.strategy.clone())
                        .unwrap()
                        .fragments
                        .iter()
                        .map(|f| f.num_variants())
                        .sum()
                })
                .collect();
            let mut sorted = variants.clone();
            sorted.sort();
            assert_eq!(sorted, [19, 19, 19, 19, 24, 24, 24, 24, 70, 70, 82, 82]);
        }
    }
}
