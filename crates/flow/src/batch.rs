//! The batch driver: many circuits through the pipeline on the `pd-par`
//! thread pool.
//!
//! Circuits are independent, so the batch fans out one flow per pool
//! worker (`PD_THREADS` controls the width). Inside a worker the
//! decomposer's own parallel stages degrade to serial loops — `pd-par`'s
//! nested-call guard — so the pool is never oversubscribed. Results come
//! back in input order regardless of scheduling, and one circuit's
//! failure — a red oracle, a BDD overflow, even an outright panic (each
//! flow runs behind [`std::panic::catch_unwind`]) — is reported in its
//! slot without aborting, reordering, or corrupting the rest of the
//! batch.

use crate::json::Json;
use crate::{Flow, FlowConfig, FlowError, FlowInput, FlowSummary};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One circuit's outcome within a batch.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Circuit name (kept even when the flow failed).
    pub name: String,
    /// The summary, or why the flow stopped.
    pub result: Result<FlowSummary, FlowError>,
}

impl BatchOutcome {
    /// Serialises the outcome: the summary object, or `{name, error}`.
    pub fn to_json(&self) -> Json {
        match &self.result {
            Ok(summary) => summary.to_json(),
            Err(e) => Json::obj(vec![
                ("name", Json::from(self.name.as_str())),
                ("error", Json::from(e.to_string().as_str())),
            ]),
        }
    }
}

/// Runs one circuit end to end behind a panic fence. Recovery lives in
/// the stage ladders; a flow that still fails — every rung of a stage
/// dead, a counterexample at a single-rung stage, or an unwind escaping
/// the flow itself — is reported as a typed [`FlowError`].
///
/// This is the unit both drivers share: [`run_batch`] fans it out over
/// the `pd-par` pool, the job server ([`crate::serve`]) routes it
/// through its sharded worker pool.
pub fn run_one(input: FlowInput, cfg: &FlowConfig) -> BatchOutcome {
    let name = input.name.clone();
    // A panicking flow must not unwind into the pool worker (which
    // would poison the whole batch); each flow's state is discarded
    // on panic, so the unwind-safety assertion is sound.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut flow = Flow::new(input, cfg.clone());
        flow.run_to_completion()
    }))
    .unwrap_or_else(|payload| Err(FlowError::Panicked(crate::panic_message(payload))));
    BatchOutcome { name, result }
}

/// Runs every circuit through a fresh [`Flow`] under a shared
/// configuration, in parallel, preserving input order. Each circuit gets
/// [`run_one`]'s fencing; a failure stays in its own slot.
pub fn run_batch(inputs: Vec<FlowInput>, cfg: &FlowConfig) -> Vec<BatchOutcome> {
    pd_par::par_map_vec(inputs, |input| run_one(input, cfg))
}

/// Serialises a whole batch as the `pd flow` stats document.
pub fn batch_to_json(outcomes: &[BatchOutcome], cfg: &FlowConfig) -> Json {
    Json::obj(vec![
        ("schema", Json::from("pd-flow-stats/v1")),
        ("verify", Json::from(cfg.verify)),
        ("threads", Json::from(pd_par::max_threads())),
        (
            "circuits",
            Json::Arr(outcomes.iter().map(BatchOutcome::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::circuit_by_name;

    #[test]
    fn batch_preserves_order_and_isolates_failures() {
        let inputs = vec![
            circuit_by_name("parity8").unwrap(),
            circuit_by_name("gray6").unwrap(),
            circuit_by_name("maj5").unwrap(),
        ];
        let cfg = FlowConfig::default();
        let outcomes = run_batch(inputs, &cfg);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].name, "parity8");
        assert_eq!(outcomes[1].name, "gray6");
        assert_eq!(outcomes[2].name, "maj5");
        for o in &outcomes {
            let summary = o.result.as_ref().expect("small circuits flow clean");
            assert_eq!(summary.stages.len(), 5);
        }
        let doc = batch_to_json(&outcomes, &cfg);
        let circuits = doc.get("circuits").and_then(Json::as_arr).unwrap();
        assert_eq!(circuits.len(), 3);
    }

    #[test]
    fn panicking_circuit_does_not_disturb_siblings() {
        use crate::FlowInput;
        use pd_anf::{Anf, VarPool};

        // A specification that mentions a selector variable makes the
        // decomposer panic in its input validation — a stand-in for any
        // mid-flow panic.
        let mut pool = VarPool::new();
        let k = pool.fresh_selector();
        let poison = FlowInput::new("poison", pool, vec![("y".into(), Anf::var(k))]);

        let inputs = vec![
            circuit_by_name("parity8").unwrap(),
            poison,
            circuit_by_name("maj5").unwrap(),
        ];
        let cfg = FlowConfig::default();
        let outcomes = run_batch(inputs, &cfg);
        assert_eq!(outcomes.len(), 3, "every slot reports");
        assert_eq!(outcomes[0].name, "parity8");
        assert_eq!(outcomes[1].name, "poison");
        assert_eq!(outcomes[2].name, "maj5");
        let err = outcomes[1]
            .result
            .as_ref()
            .expect_err("poisoned circuit must fail");
        assert!(
            matches!(err, crate::FlowError::Panicked(msg)
                if msg.contains("selector")),
            "unexpected error: {err}"
        );
        for i in [0, 2] {
            let summary = outcomes[i]
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("sibling {i} disturbed: {e}"));
            assert_eq!(summary.stages.len(), 5);
            assert!(summary.stages.iter().all(|s| s.verified != Some(false)));
        }
        // The failing slot still serialises into the stats document.
        let doc = batch_to_json(&outcomes, &cfg);
        let circuits = doc.get("circuits").and_then(Json::as_arr).unwrap();
        assert!(circuits[1]
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("panicked")));
    }

    #[test]
    fn mismatch_kill_is_a_typed_error_in_its_slot() {
        use crate::{FaultPlan, StageKind};

        // Decompose has a single rung, so an injected counterexample at
        // its boundary leaves nothing to fall through to: the slot ends
        // in a typed FlowError::Mismatch, and no retry masks it.
        let poisoned = FlowConfig {
            fault: Some(FaultPlan::parse("decompose:mismatch:1").unwrap()),
            ..FlowConfig::default()
        };
        let clean = FlowConfig::default();
        let jobs = vec![
            (circuit_by_name("parity8").unwrap(), &clean),
            (circuit_by_name("maj5").unwrap(), &poisoned),
            (circuit_by_name("gray6").unwrap(), &clean),
        ];
        let outcomes = pd_par::par_map_vec(jobs, |(input, cfg)| run_one(input, cfg));
        assert_eq!(outcomes[1].name, "maj5");
        let err = outcomes[1]
            .result
            .as_ref()
            .expect_err("no retry rescues a single-rung counterexample");
        assert!(
            matches!(
                err,
                FlowError::Mismatch {
                    stage: StageKind::Decompose,
                    ..
                }
            ),
            "unexpected error: {err}"
        );
        for i in [0, 2] {
            let summary = outcomes[i]
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("sibling {i} disturbed: {e}"));
            assert_eq!(summary.stages.len(), 5);
            assert!(summary.stages[..4].iter().all(|s| s.verified == Some(true)));
        }
    }
}
