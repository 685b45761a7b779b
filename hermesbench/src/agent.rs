//! A Hermes agent behind the baselines' [`ControlPlane`] interface that,
//! unlike [`hermes_baselines::HermesPlane`], keeps every call's result so
//! the benchmark can count errors and read routes.

use crate::trace;
use hermes_baselines::{BatchOutcome, ControlPlane, OpOutcome};
use hermes_core::prelude::*;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime};

/// Channel time charged for a call that returned an error (the same
/// charge `HermesPlane` applies).
const ERROR_EXEC: SimDuration = SimDuration::from_nanos(50_000);

/// How inserts reach the agent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// One `insert` call per rule (the per-op path).
    PerOp,
    /// Every run of consecutive inserts goes through one `admit_batch`.
    Batched,
}

/// The checked agent. `log` holds one result per executed action, in
/// execution order, until the benchmark drains it.
#[derive(Debug)]
pub struct Agent {
    /// The Hermes switch agent.
    pub switch: HermesSwitch,
    /// Results of the actions executed since the last drain.
    pub log: Vec<Result<ActionReport, HermesError>>,
    admission: Admission,
}

impl Agent {
    /// Wraps a configured switch.
    pub fn new(switch: HermesSwitch, admission: Admission) -> Agent {
        Agent {
            switch,
            log: Vec::new(),
            admission,
        }
    }

    fn per_op(
        &mut self,
        action: &ControlAction,
        now: SimTime,
    ) -> Result<ActionReport, HermesError> {
        let _span = trace::enter(match action {
            ControlAction::Insert(_) => "core.insert",
            ControlAction::Delete(_) => "core.delete",
            ControlAction::Modify { .. } => "core.modify",
        });
        self.switch.submit(action, now)
    }
}

fn exec_of(res: &Result<ActionReport, HermesError>) -> (SimDuration, bool) {
    match res {
        Ok(rep) => (rep.latency, rep.violated()),
        Err(_) => (ERROR_EXEC, false),
    }
}

impl ControlPlane for Agent {
    fn name(&self) -> String {
        "Hermes (checked)".into()
    }

    fn apply_batch(&mut self, actions: &[ControlAction], now: SimTime) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        let mut i = 0;
        while i < actions.len() {
            let run = actions[i..]
                .iter()
                .take_while(|a| matches!(a, ControlAction::Insert(_)))
                .count();
            let results = if self.admission == Admission::Batched && run > 0 {
                let rules: Vec<Rule> = actions[i..i + run]
                    .iter()
                    .filter_map(|a| match a {
                        ControlAction::Insert(r) => Some(*r),
                        _ => None,
                    })
                    .collect();
                let _span = trace::enter("core.admit_batch");
                self.switch.admit_batch(&rules, now + out.total)
            } else {
                vec![self.per_op(&actions[i], now + out.total)]
            };
            for (action, res) in actions[i..].iter().zip(results) {
                let (exec, violated) = exec_of(&res);
                out.total += exec;
                out.ops.push(OpOutcome {
                    id: action.rule_id(),
                    exec,
                    completed_at: out.total,
                    violated,
                });
                self.log.push(res);
                i += 1;
            }
        }
        out
    }

    fn occupancy(&self) -> usize {
        self.switch.shadow_len() + self.switch.main_len()
    }

    fn tick(&mut self, now: SimTime) {
        let _span = trace::enter("core.tick");
        self.switch.tick(now);
    }
}
