//! The scheduling envelope of an admitted program, and the one meter
//! that enforces it.
//!
//! A [`Budget`] carries what admission proved or granted: per-loop
//! bounds, a whole-program iteration cap, fuel and a work cap. The
//! [`Meter`] is the [`Hooks`] value that enforces it. The server's
//! scheduled tree runs, the VM's scheduled runs and the conformance
//! ledger's counted runs all go through it, so preemption, per-loop
//! bounds, the total cap and the work cap behave identically on every
//! path:
//!
//! * at a round head: the preemption flag, then the loop's proved
//!   per-entry bound, then the whole-program cap;
//! * after an assignment: the work meter against the predicted work.
//!
//! Exceeding a proved bound, the proved total or the predicted work is
//! an **admission soundness violation** (the static proof was wrong):
//! the server counts it and answers 500, never silently absorbs it.

use crate::ast::NodePath;
use crate::backend::Hooks;
use crate::value::RunError;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

/// The scheduling envelope an admitted program runs under.
#[derive(Clone, Debug)]
pub struct Budget<'a> {
    /// Proved per-entry bounds by loop path (empty in fuel mode).
    pub bounds: &'a BTreeMap<NodePath, u64>,
    /// Whole-program iteration cap. In exact mode this is the proved
    /// `Terminates {iterations}` figure; in fuel mode `u64::MAX` (fuel
    /// is the limiter).
    pub total_cap: u64,
    /// The fuel budget for term evaluation and statement ticks.
    pub fuel: u64,
    /// Statically predicted total work (materialized tuples across
    /// all assignments), when the cost pass derived one at this
    /// database's instantiation. Exceeding it is a cost-soundness
    /// violation.
    pub work_cap: Option<u64>,
}

impl<'a> Budget<'a> {
    /// A fresh meter for one run under this budget, watching
    /// `preempt` at every round head. The run's fuel is
    /// `Fuel::new(self.fuel)`.
    pub fn meter<'p, V>(&self, preempt: &'p AtomicBool) -> Meter<'p, V>
    where
        'a: 'p,
    {
        Meter {
            bounds: self.bounds,
            total_cap: self.total_cap,
            work_cap: self.work_cap,
            preempt,
            total: 0,
            work: 0,
            value: PhantomData,
        }
    }
}

/// How an execution ended.
#[derive(Debug, PartialEq)]
pub enum ExecEnd<V> {
    /// Completed; the payload is `Y1`.
    Done(V),
    /// The interpreter returned a runtime error (fuel exhaustion is
    /// reported separately).
    Errored(RunError),
    /// Fuel ran out — the fuel-mode analogue of preemption.
    OutOfFuel,
    /// The cooperative-preemption flag was raised at a loop head.
    Preempted,
    /// A proved per-loop bound was exceeded — admission soundness
    /// violation.
    BoundExceeded {
        /// The loop's tree path.
        path: NodePath,
        /// The bound it was proved to respect.
        bound: u64,
    },
    /// The proved whole-program budget was exceeded — admission
    /// soundness violation.
    TotalExceeded {
        /// The proved whole-program budget.
        cap: u64,
    },
    /// The statically predicted work bound was exceeded — a
    /// cost-soundness violation (counted as `serve.cost.overrun`).
    WorkExceeded {
        /// The predicted work bound.
        cap: u64,
    },
}

impl<V> ExecEnd<V> {
    /// Is this end an admission-soundness violation (a static proof
    /// contradicted at runtime)?
    pub fn is_soundness_violation(&self) -> bool {
        matches!(
            self,
            ExecEnd::BoundExceeded { .. }
                | ExecEnd::TotalExceeded { .. }
                | ExecEnd::WorkExceeded { .. }
        )
    }
}

impl<V> From<RunError> for ExecEnd<V> {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Fuel(_) => ExecEnd::OutOfFuel,
            other => ExecEnd::Errored(other),
        }
    }
}

/// An execution outcome plus its iteration accounting.
#[derive(Debug, PartialEq)]
pub struct ExecResult<V> {
    /// How the run ended.
    pub end: ExecEnd<V>,
    /// Total loop iterations executed.
    pub iterations: u64,
    /// Total tuples materialized by assignments (the observed work).
    pub work: u64,
}

/// The [`Hooks`] that enforce a [`Budget`]. Its stops are the
/// non-`Done` [`ExecEnd`]s of the run's value type `V`.
#[derive(Clone, Debug)]
pub struct Meter<'a, V> {
    bounds: &'a BTreeMap<NodePath, u64>,
    total_cap: u64,
    work_cap: Option<u64>,
    preempt: &'a AtomicBool,
    total: u64,
    work: u64,
    value: PhantomData<fn() -> V>,
}

impl<V> Meter<'_, V> {
    /// The run's accounting, with `r` (the executor's result) as its
    /// end.
    pub fn finish(&self, r: Result<V, ExecEnd<V>>) -> ExecResult<V> {
        ExecResult {
            end: r.map_or_else(|end| end, ExecEnd::Done),
            iterations: self.total,
            work: self.work,
        }
    }
}

impl<V: Clone> Hooks for Meter<'_, V> {
    type Stop = ExecEnd<V>;

    fn round(&mut self, path: &[u32], here: u64) -> Result<(), ExecEnd<V>> {
        if self.preempt.load(Ordering::Relaxed) {
            return Err(ExecEnd::Preempted);
        }
        self.total += 1;
        if let Some(&bound) = self.bounds.get(path) {
            if here > bound {
                return Err(ExecEnd::BoundExceeded {
                    path: path.to_vec(),
                    bound,
                });
            }
        }
        if self.total > self.total_cap {
            return Err(ExecEnd::TotalExceeded {
                cap: self.total_cap,
            });
        }
        Ok(())
    }

    fn work(&mut self, _: &[u32], size: u64) -> Result<(), ExecEnd<V>> {
        self.work = self.work.saturating_add(size);
        match self.work_cap {
            Some(cap) if self.work > cap => Err(ExecEnd::WorkExceeded { cap }),
            _ => Ok(()),
        }
    }
}
