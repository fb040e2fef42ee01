//! Inputs that recombination cannot run are rejected up front.
//!
//! The contract under test: an invalid per-run error budget, a manual cut
//! point off its wire, and a plan with more cuts than the `4^k`
//! contraction supports each come back as a typed error before any
//! fragment variant is evaluated — never as a panic — and the resilient
//! drivers never retry them.

use qcir::Circuit;
use std::sync::Arc;
use supersim::{
    is_transient, ConfigError, CutPlan, CutPoint, CutStrategy, ExecParams, FaultKind, FaultPlan,
    PlanLoadError, ResiliencePolicy, RetryPolicy, Stage, SuperSim, SuperSimConfig, SuperSimError,
};

const BAD_BUDGETS: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];

/// Three attempts, no sleeping: a permanent error must still use one.
fn retrying_policy() -> ResiliencePolicy {
    ResiliencePolicy::new().with_retry(
        RetryPolicy::default()
            .with_max_attempts(3)
            .without_backoff(),
    )
}

/// A config whose first evaluation chunk of job 0 panics: a run that
/// reports anything but a typed plan/config error has evaluated work.
fn eval_tripwire() -> SuperSimConfig {
    SuperSimConfig {
        shots: 100,
        faults: Some(Arc::new(FaultPlan::new().inject(
            0,
            Stage::Eval,
            0,
            FaultKind::Panic,
        ))),
        ..SuperSimConfig::default()
    }
}

fn assert_invalid_budget(err: &SuperSimError, label: &str) {
    assert!(
        matches!(
            err.root(),
            SuperSimError::Config(ConfigError::InvalidErrorBudget(_))
        ),
        "{label}: expected InvalidErrorBudget, got {err}"
    );
    assert!(!is_transient(err), "{label}: must be permanent");
}

#[test]
fn invalid_run_budgets_are_rejected_before_any_work() {
    let c = workloads::hwea(5, 2, 1, 41).circuit;
    // The tripwire fires on a run that evaluates.
    let err = SuperSim::new(eval_tripwire()).run(&c).unwrap_err();
    assert!(
        matches!(err.root(), SuperSimError::Panicked { .. }),
        "{err}"
    );
    for bad in BAD_BUDGETS {
        // Per-run override through `ExecParams`.
        let sim = SuperSim::new(eval_tripwire());
        let plan = sim.plan(&c).unwrap();
        let params = ExecParams::from_config(sim.config()).with_error_budget(bad);
        let err = sim.executor().run_with(&plan, params).unwrap_err();
        assert_invalid_budget(&err, &format!("run_with({bad})"));
        let outcome = sim
            .executor()
            .run_sweep_resilient(&plan, &[params], retrying_policy());
        assert_eq!(outcome.attempts(0), 1, "sweep with budget {bad}");
        assert_invalid_budget(outcome.result(0).as_ref().unwrap_err(), "sweep");

        // A struct-literal config that never went through the builder.
        let sim = SuperSim::new(SuperSimConfig {
            error_budget: bad,
            ..eval_tripwire()
        });
        assert_invalid_budget(&sim.run(&c).unwrap_err(), &format!("run({bad})"));
        let batch = sim.run_batch(std::slice::from_ref(&c));
        assert_invalid_budget(batch[0].as_ref().unwrap_err(), "run_batch");
        let outcome = sim.run_batch_resilient(std::slice::from_ref(&c), retrying_policy());
        assert_eq!(outcome.attempts(0), 1, "batch with budget {bad}");
        assert_invalid_budget(outcome.result(0).as_ref().unwrap_err(), "resilient batch");
    }
}

fn manual(points: &[(usize, usize)]) -> CutStrategy {
    CutStrategy::Manual(
        points
            .iter()
            .map(|&(qubit, after_op)| CutPoint { qubit, after_op })
            .collect(),
    )
}

/// Cut plans recombination cannot run, each with the expected message.
fn unrunnable_plans() -> Vec<(Circuit, CutStrategy, &'static str)> {
    let mut bell = Circuit::new(2);
    bell.h(0).cx(0, 1).t(1);
    // Sixteen gates on one wire, cut after each of the first fourteen.
    let mut chain = Circuit::new(1);
    for _ in 0..16 {
        chain.h(0);
    }
    let fourteen: Vec<(usize, usize)> = (0..14).map(|op| (0, op)).collect();
    vec![
        (bell.clone(), manual(&[(0, 99)]), "does not lie on the wire"),
        (bell, manual(&[(7, 0)]), "does not lie on the wire"),
        (chain, manual(&fourteen), "14 cuts exceed the 13"),
    ]
}

#[test]
fn unrunnable_cut_plans_are_plan_time_errors() {
    for (circuit, strategy, message) in unrunnable_plans() {
        let label = format!("{strategy:?}");
        let err = CutPlan::build(&circuit, strategy.clone()).unwrap_err();
        assert!(err.to_string().contains(message), "{label}: {err}");

        // The same plan through a snapshot: a typed load error.
        let snapshot = CutPlan::build(&circuit, CutStrategy::None)
            .unwrap()
            .to_text();
        let line = match &strategy {
            CutStrategy::Manual(points) => points
                .iter()
                .map(|p| format!(" {}:{}", p.qubit, p.after_op))
                .collect::<String>(),
            _ => unreachable!("manual strategies only"),
        };
        let edited = snapshot.replacen("strategy none", &format!("strategy manual{line}"), 1);
        assert!(
            matches!(CutPlan::from_text(&edited), Err(PlanLoadError::Cut(_))),
            "{label}: snapshot must fail to load"
        );

        // Through the pipeline: a permanent `Cut` error, no evaluation.
        let sim = SuperSim::new(SuperSimConfig {
            cut_strategy: strategy,
            ..eval_tripwire()
        });
        let err = sim.run(&circuit).unwrap_err();
        assert!(
            matches!(err.root(), SuperSimError::Cut(_)),
            "{label}: {err}"
        );
        assert!(!is_transient(&err), "{label}: must be permanent");
        let batch = sim.run_batch(std::slice::from_ref(&circuit));
        let err = batch[0].as_ref().unwrap_err();
        assert!(
            matches!(err.root(), SuperSimError::Cut(_)),
            "{label}: {err}"
        );
        // A planning failure never reaches an execution attempt.
        let outcome = sim.run_batch_resilient(std::slice::from_ref(&circuit), retrying_policy());
        assert_eq!(outcome.attempts(0), 0, "{label}");
        let err = outcome.result(0).as_ref().unwrap_err();
        assert!(
            matches!(err.root(), SuperSimError::Cut(_)),
            "{label}: {err}"
        );
    }
}
