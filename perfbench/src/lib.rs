//! Paper-scale end-to-end benchmark of SuperSim-RS with a per-layer
//! ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hwea_wide|mixed_batch|ladder_deep> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` (each
//! `{"value", "unit"}`) — the end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1`. The same object, plus the recorded
//! facts (workload seed, threads, resolved tableau engine,
//! `available_parallelism`, CPU model, git commit, the median and tail
//! request wall time with the tail's percentile and sample count, failure
//! reasons), goes to
//! `<out>/<workload>-seed<n>-trace<t>.json`; a traced run also writes its
//! spans to `<out>/<workload>-seed<n>-trace1.trace.json` as Chrome
//! trace-event JSON, which Perfetto opens. `--out` defaults to
//! `perfbench-out` under the working directory.
//!
//! The benchmark refuses to run (exit code 1, no result line) when
//! `SUPERSIM_TABLEAU_ENGINE` or `SUPERSIM_TEST_THREADS` is set — both
//! silently change the engine or the pool size behind the default
//! configuration — and when an exact-mode self-check fails.
//!
//! # Workloads
//!
//! Each workload is a closed loop with one caller: the next request is
//! sent when the previous one returns. Its instances are a fixed set —
//! drawn from the workload seed (`--seed`) on `hwea_wide`, the same for
//! every seed on the other two — and each request gets a fresh run seed
//! derived from `--seed`; a run cycles through the set in whole passes, so
//! every run sees the same mix. Instances are drawn per *cost class* — the
//! total variant count of the instance's cut — with a fixed count per
//! class, because HWEA, QAOA-SK, and repetition instances are multimodal
//! in cost and an unstratified draw would change the cost mix from seed
//! to seed.
//!
//! * **`hwea_wide`** (paper Fig. 5): HWEA with n = 200, 5 rounds, one
//!   injected T, under the paper protocol — 5000 shots per variant, MLFT,
//!   Clifford snapping, sparse contraction. Each request is one sequential
//!   `SuperSim::run` that plans from scratch (plan cache off). The set
//!   holds three two-fragment instances (24 variants) and one
//!   three-fragment instance (19 variants, about 6× cheaper), the natural
//!   mix; a pass is four requests, one per instance. *Why:* the paper's
//!   headline width, where only the stabilizer path works; evaluation — tableau, sampling, and above all
//!   accumulating tens of thousands of distinct 200-bit outcomes — and
//!   MLFT dominate, while the recombination sweep visits a handful of
//!   assignments.
//! * **`mixed_batch`** (Figs. 6–7): each request is one
//!   `SuperSim::run_batch` at `min(2, available_parallelism)` threads over
//!   one batch of eight QAOA-SK instances (n = 14, 1 round, 1 T; four of
//!   24 and four of 19 variants) and four phase-repetition instances
//!   (d = 16, 3 T, phase-flip p = 0.05; two of 70 and two of 82 variants),
//!   with a fresh run seed and a fresh plan cache. The batch is drawn from
//!   seed 1 whatever `--seed` is: the 5000-shot fidelity of QAOA instances
//!   varies from instance to instance, and a batch drawn per seed moved
//!   `hellinger_fidelity` by 4–8% (quartile spread) over ten seeds, near
//!   its bound. *Why:* the only workload
//!   through the batch scheduler and the `runtime` pool; noisy Clifford
//!   fragments run on `FrameSim` and noisy non-Clifford fragments on
//!   `StateVec::run_noisy`; its outcomes are narrow and dense where
//!   `hwea_wide`'s are wide and sparse. Per-job `RunReport::eval_time`
//!   overlaps other jobs' work on the pool, which is why batch layer
//!   numbers come from the replay.
//! * **`ladder_deep`** (the `4^k` wall): `workloads::t_ladder(5, 30)`
//!   under `IsolateNonClifford { max_cuts: 10 }` (k = 10), 5000 shots. The
//!   plan is built once in setup; each request is one sequential
//!   `Executor::run_with(plan, params)`. *Why:* the only workload where the
//!   recombination sweep (about 2.5·10⁵ of the 4¹⁰ ≈ 1.05·10⁶
//!   assignments) and the joint build dominate; MLFT is negligible, and
//!   inside evaluation statevector simulation and sampling lead. All five
//!   qubits are checked against the statevector, and it exercises the
//!   cut-once, execute-many shape.
//!
//! A run of `--seconds` starts a new pass only while the pass, at the run's
//! mean pass time so far, would end within `--seconds`; it makes at least
//! three passes.
//!
//! # Why the timings are fastest repetitions
//!
//! Every request is memory-bound — hash-map accumulation, MLFT, the
//! `4^k` sweep — and on a shared host other tenants' memory traffic slows
//! it for seconds at a time. On a 2-vCPU Xeon VM, the median `ladder_deep`
//! request of successive 10 s windows of one run moved between 113 and
//! 189 ms, while a cache-resident integer loop timed between the requests
//! moved by under 10% and the fastest request of each window stayed
//! within 97–111 ms (131 ms in one window of fifteen). A run's median and
//! tail therefore measure the neighbours; the fastest repetition of each
//! request measures the program. The timed metrics below are built from
//! it, and the median and tail are recorded in the result file, not
//! reported as metrics. Contention that lasts a whole run still shows:
//! two sets of ten `hwea_wide` runs half an hour apart had median
//! `run_ms.best` 504 and 638 ms (`results/`).
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | name | meaning |
//! |---|---|
//! | `setup_s` | median of seven setups: exact-mode self-checks, instance generation, references, the plan-once step, and one warm-up request |
//! | `circuits_per_s` | circuits of one pass ÷ the sum of each pass position's fastest passing request wall time |
//! | `run_ms.best` | mean over pass positions of each one's fastest passing request wall time (`ladder_deep`, `mixed_batch`: the fastest request) |
//! | `hellinger_fidelity` | mean Hellinger fidelity against exact references: the joint against `svsim::StateVec` for circuits of ≤ 20 qubits (`mixed_batch`'s QAOA members, `ladder_deep`); on `hwea_wide`, the paper's wide-circuit metric — mean single-qubit-marginal Hellinger fidelity — against exact marginals from [`oracle::one_t_marginals`] |
//! | `peak_rss_mb` | the process's `VmHWM` at the end of the run |
//!
//! Every request is checked: marginals finite and in `[0, 1]`, any joint
//! of mass `1 ± 1e-9`, scored circuits at or above the workload's fidelity
//! floor. A request that errors or fails a check counts in `failed`, and
//! its time in no metric; the failure fraction is `failed / attempted`
//! (the result file records it as `failed_frac`, next to `run_ms.p50` and
//! `run_ms.tail` — the highest nearest-rank percentile of all request wall
//! times with ten samples beyond it — and its percentile and sample
//! count).
//!
//! # Per-layer ledger (`--trace 1`)
//!
//! The traced run runs each request untraced, then replays it through the
//! public function of each layer with a span around every call
//! ([`replay`]), then replays every fragment variant through the
//! evaluation sub-layers. The replay must reproduce the run's marginals bit
//! for bit (check (a)), and each variant must equal
//! `cutkit::evaluate_variant` under the same seed (check (b)); a mismatch
//! fails the request. Values are medians per request; counts are exact.
//! "Moves" names the end-to-end metric a gain in the layer should move and
//! where; "≈ 0 on" names where the layer does little, so a gain there
//! should not show.
//!
//! | metric(s) | layer: public call timed | moves | ≈ 0 on |
//! |---|---|---|---|
//! | `cut.ms`, `cut.cuts`, `cut.fragments` | `cutkit::cut_circuit` | `setup_s` on `ladder_deep` | `hwea_wide` |
//! | `plan.ms`, `plan.variants` | `cutkit::FragmentEvalPlan::new` | `setup_s` on `ladder_deep` | all |
//! | `eval.ms`, `eval.variants`, `eval.shots`, `eval.outcomes` | `cutkit::evaluate_fragment_tensors_planned` | `run_ms.best` on `hwea_wide`; `circuits_per_s` on `mixed_batch` | none |
//! | `eval.variant_build.ms` | `cutkit::variant_circuit` | (small everywhere) | none |
//! | `eval.tableau.ms` | `stabsim::TableauSim::run` | `run_ms.best` on `hwea_wide` | `ladder_deep` |
//! | `eval.support.ms` | `stabsim::TableauSim::support` | `run_ms.best` on `hwea_wide` | `ladder_deep` |
//! | `eval.sample.ms` | `stabsim::AffineSupport::sample_counts_scratch` | `run_ms.best` on `hwea_wide`; `circuits_per_s` on `mixed_batch` | none |
//! | `eval.frame.ms` | `stabsim::FrameSim::sample` | `circuits_per_s` on `mixed_batch` | `hwea_wide`, `ladder_deep` |
//! | `eval.statevec.ms`, `eval.statevec_sample.ms` | `svsim::StateVec::run`/`run_noisy`, `sample_index_counts` | `run_ms.best` on `ladder_deep`; `circuits_per_s` on `mixed_batch` | `hwea_wide` |
//! | `eval.accumulate.ms` | tensor accumulation: `eval.ms` minus the `eval.*` sub-layers | `run_ms.best` on `hwea_wide` | `ladder_deep` |
//! | `mlft.ms`, `mlft.entries` | `cutkit::correct_tensor` per fragment | `run_ms.best` on `hwea_wide`; `circuits_per_s` on `mixed_batch` | `ladder_deep` |
//! | `recombine.ms`, `recombine.visited`, `recombine.visited_frac` | `Reconstructor::try_marginals_with_stats` (`visited / 4^k`) | `run_ms.best` on `ladder_deep` | `hwea_wide` |
//! | `joint.ms`, `joint.support` | `Reconstructor::try_joint_with_stats` | `run_ms.best` on `ladder_deep`, `hwea_wide` | none |
//! | `sched.busy_frac`, `sched.idle_ms` | batch scheduler + `runtime` pool: replayed member layer time against threads × `run_batch` wall time | `circuits_per_s` on `mixed_batch` | sequential workloads (the pool is not entered; reported as 0) |
//! | `pool.spawned` | `runtime::Pool::global().stats().spawned_total` delta over the traced run | `run_ms.best` on `mixed_batch` | sequential workloads |
//! | `ledger.unaccounted_frac` | request replay wall time not covered by layer spans | — | — |
//! | `trace.overhead_frac` | median traced replay wall ÷ median untraced request wall − 1 | — | — |
//!
//! On `ladder_deep`, `cut.*` and `plan.*` are the setup's one plan build.
//! On `mixed_batch` the replay runs the members one after another, so
//! `trace.overhead_frac` there also carries the batch's parallel speed-up.

pub mod bench;
pub mod host;
pub mod oracle;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;

#[cfg(test)]
mod tests {
    use crate::replay::{self, Ledger};
    use crate::trace::Recorder;
    use crate::workload::tests::small;
    use crate::workload::{request_seed, setup, Kind, Spec};

    /// Replays request `r` of a prepared workload and runs both checks.
    fn replay_checks(spec: &Spec, r: usize) -> Ledger {
        let prepared = setup(spec, 9).unwrap();
        let seed = request_seed(9, r);
        let members = prepared.run_request(r, seed);
        let mut rec = Recorder::new();
        let mut ledger = Ledger::new();
        let list = prepared
            .replay_request(&mut rec, &members, seed, &mut ledger)
            .unwrap();
        assert_eq!(list.len(), members.len());
        for (m, (owned, out)) in members.iter().zip(&list) {
            let result = m.result.as_ref().unwrap();
            assert!(
                replay::same_bits(result, out),
                "{:?}: replay differs",
                spec.kind
            );
            replay::replay_variants(
                &mut rec,
                &spec.config(seed),
                prepared.planned(owned),
                seed,
                &mut ledger,
            )
            .unwrap();
        }
        ledger
    }

    #[test]
    fn replay_is_bit_identical_to_the_pipeline() {
        for kind in Kind::ALL {
            let spec = small(kind);
            for r in 0..2 {
                replay_checks(&spec, r);
            }
        }
    }

    #[test]
    fn doubling_shots_doubles_eval_shots_only() {
        let spec = small(Kind::HweaWide);
        let mut doubled = spec.clone();
        doubled.shots *= 2;
        let a = replay_checks(&spec, 0);
        let b = replay_checks(&doubled, 0);
        assert_eq!(b["eval.shots"], 2.0 * a["eval.shots"]);
        for key in [
            "cut.cuts",
            "cut.fragments",
            "plan.variants",
            "eval.variants",
        ] {
            assert_eq!(a[key], b[key], "{key}");
        }
    }
}
