//! The one statement executor of the QL family.
//!
//! QL, QLhs and QLf+ share one statement language — assignment,
//! sequencing and `while` — read over three value domains, each with
//! one extra test. This module holds that semantics once:
//!
//! * [`Backend`] is a value domain: its value type, the eight term
//!   primitives, its [`Dialect`] and its semi-naive flag. `FinInterp`,
//!   `HsInterp` and `FcfInterp` each implement it once.
//! * [`eval_term`] walks a term over any backend.
//! * [`run`] and [`exec`] walk a program, tracking each node's [`NodePath`], and
//!   reports round heads and assignments to a [`Hooks`] value. Every
//!   `while` is first offered to the semi-naive engine
//!   ([`crate::seminaive::try_loop`]) with the same hooks.
//!
//! The interpreters' `run` passes [`NoHooks`]; the server's scheduled
//! runs pass the budget [`Meter`](crate::budget::Meter); the
//! conformance ledger's counted runs wrap that meter to record
//! per-loop and per-statement counts. The bytecode VM drives the same
//! primitives and hooks from its own instruction loop.

use crate::ast::{LoopKind, NodePath, Prog, Term, VarId};
use crate::dialect::Dialect;
use crate::seminaive::{try_loop, LoopEnd};
use crate::value::{DeltaValue, RunError};
use recdb_core::Fuel;

/// One value domain of the QL family. The `op_*` primitives carry the
/// data-dependent fuel ticks; the per-node entry tick is
/// [`eval_term`]'s (the VM pre-sums it into each instruction).
pub trait Backend {
    /// The value type.
    type V: DeltaValue;
    /// The dialect whose `while` tests this backend admits.
    const DIALECT: Dialect;
    /// Do `while` loops try the semi-naive engine first?
    fn seminaive(&self) -> bool;
    /// Sets that flag (on by default). Off forces every loop through
    /// the from-scratch path, the differential oracle the
    /// `SEMI-NAIVE-DIFF` conformance check compares against.
    fn set_seminaive(&mut self, on: bool);
    /// The diagonal `E`.
    fn op_e(&mut self) -> Self::V;
    /// Stored relation `Rᵢ` (0-based), bounds-checked.
    fn op_rel(&mut self, i: usize) -> Result<Self::V, RunError>;
    /// The constant `Cₐ`.
    fn op_const(&mut self, c: u64) -> Self::V;
    /// Intersection `x ∩ y`; ranks must agree.
    fn op_and(&mut self, x: &Self::V, y: &Self::V) -> Result<Self::V, RunError>;
    /// Complement `¬x` within the rank.
    fn op_not(&mut self, x: &Self::V, fuel: &mut Fuel) -> Result<Self::V, RunError>;
    /// Cylindrification `x↑`.
    fn op_up(&mut self, x: &Self::V, fuel: &mut Fuel) -> Result<Self::V, RunError>;
    /// Projection `x↓`; below rank 1 it is the empty rank-0 relation
    /// (what makes "test `e↓` for emptiness" a counter zero-test).
    fn op_down(&mut self, x: &Self::V, fuel: &mut Fuel) -> Result<Self::V, RunError>;
    /// `x~` exchanges the two rightmost coordinates (identity below
    /// rank 2).
    fn op_swap(&mut self, x: &Self::V, fuel: &mut Fuel) -> Result<Self::V, RunError>;
}

/// Evaluates a term: one fuel tick per node at entry, then the
/// backend's primitive. An unbound variable reads as the empty rank-0
/// relation.
pub fn eval_term<B: Backend>(
    b: &mut B,
    t: &Term,
    env: &[B::V],
    fuel: &mut Fuel,
) -> Result<B::V, RunError> {
    fuel.tick()?;
    Ok(match t {
        Term::E => b.op_e(),
        Term::Rel(i) => b.op_rel(*i)?,
        Term::Var(v) => env.get(*v).cloned().unwrap_or_else(B::V::empty0),
        Term::Const(c) => b.op_const(*c),
        Term::And(x, y) => {
            let x = eval_term(b, x, env, fuel)?;
            let y = eval_term(b, y, env, fuel)?;
            b.op_and(&x, &y)?
        }
        Term::Not(e) => {
            let x = eval_term(b, e, env, fuel)?;
            b.op_not(&x, fuel)?
        }
        Term::Up(e) => {
            let x = eval_term(b, e, env, fuel)?;
            b.op_up(&x, fuel)?
        }
        Term::Down(e) => {
            let x = eval_term(b, e, env, fuel)?;
            b.op_down(&x, fuel)?
        }
        Term::Swap(e) => {
            let x = eval_term(b, e, env, fuel)?;
            b.op_swap(&x, fuel)?
        }
    })
}

/// What a caller observes of a run, and where it may stop it. The tree
/// executor, the semi-naive engine and the VM make both calls at the
/// same events, so a stop fires at the same round and statement
/// whichever engine runs. `Clone` lets the semi-naive engine restore
/// the loop-entry state when it falls back.
pub trait Hooks: Clone {
    /// Why the hooks stopped the run; runtime errors convert into it.
    type Stop: From<RunError>;
    /// A round head of the loop at `path`: the guard holds, this is
    /// round `here` of the current entry, and the round's fuel tick
    /// comes next.
    fn round(&mut self, path: &[u32], here: u64) -> Result<(), Self::Stop>;
    /// An assignment stored a value of [stored size](DeltaValue::size)
    /// `size`; `path` is the assignment's tree path (empty from the
    /// VM, which compiles statements away). The semi-naive engine
    /// reports every body statement of every round, skipped ones
    /// included, with its target's size.
    fn work(&mut self, path: &[u32], size: u64) -> Result<(), Self::Stop>;
}

/// Hooks that never stop a run: the interpreters' plain `run`.
#[derive(Clone, Copy, Debug)]
pub struct NoHooks;

impl Hooks for NoHooks {
    type Stop = RunError;
    fn round(&mut self, _: &[u32], _: u64) -> Result<(), RunError> {
        Ok(())
    }
    fn work(&mut self, _: &[u32], _: u64) -> Result<(), RunError> {
        Ok(())
    }
}

/// Does the `while` test `kind` on `Y_v` hold in `env`? An unbound
/// variable is the empty rank-0 relation.
pub(crate) fn guard_holds<V: DeltaValue>(env: &[V], v: VarId, kind: LoopKind) -> bool {
    env.get(v).map_or(kind.holds(0, true), |x| x.holds(kind))
}

/// Runs `p` from a fresh environment; the result is the final `Y₁`
/// (variable 0), as in §3.3. The backend's dialect check runs first,
/// so an illegal test anywhere in the program — reachable or not — is
/// rejected up-front.
pub fn run<B: Backend, H: Hooks>(
    b: &mut B,
    p: &Prog,
    fuel: &mut Fuel,
    hooks: &mut H,
) -> Result<B::V, H::Stop> {
    B::DIALECT.check(p).map_err(RunError::from)?;
    let nvars = p.max_var().map_or(1, |m| m + 1);
    let mut env = vec![B::V::empty0(); nvars];
    step(b, p, &mut env, fuel, &mut NodePath::new(), hooks)?;
    Ok(env.swap_remove(0))
}

/// Runs `p` in a caller-supplied environment (for staged computations
/// that pre-load inputs into variables). There is no up-front dialect
/// check: a `while` test the backend's dialect does not admit fails
/// when it is reached, with the same [`RunError::DialectViolation`]
/// message.
pub fn exec<B: Backend>(
    b: &mut B,
    p: &Prog,
    env: &mut Vec<B::V>,
    fuel: &mut Fuel,
) -> Result<(), RunError> {
    step(b, p, env, fuel, &mut NodePath::new(), &mut NoHooks)
}

fn step<B: Backend, H: Hooks>(
    b: &mut B,
    p: &Prog,
    env: &mut Vec<B::V>,
    fuel: &mut Fuel,
    path: &mut NodePath,
    hooks: &mut H,
) -> Result<(), H::Stop> {
    fuel.tick().map_err(RunError::from)?;
    match (p, p.as_loop()) {
        (Prog::Assign(v, t), _) => {
            let val = eval_term(b, t, env, fuel)?;
            hooks.work(path, val.size() as u64)?;
            if *v >= env.len() {
                env.resize(*v + 1, B::V::empty0());
            }
            env[*v] = val;
        }
        (Prog::Seq(ps), _) => {
            for (i, q) in ps.iter().enumerate() {
                path.push(i as u32);
                let r = step(b, q, env, fuel, path, hooks);
                path.pop();
                r?;
            }
        }
        (_, Some(lp @ (kind, v, body))) => {
            if let Some(violation) = B::DIALECT.violation(kind, path) {
                return Err(RunError::from(violation).into());
            }
            if b.seminaive() {
                match try_loop(b, lp, path, env, fuel, hooks) {
                    LoopEnd::Done => return Ok(()),
                    LoopEnd::Stopped(stop) => return Err(stop),
                    LoopEnd::Fallback(_) => {}
                }
            }
            let mut here = 0;
            while guard_holds(env, v, kind) {
                here += 1;
                hooks.round(path, here)?;
                fuel.tick().map_err(RunError::from)?;
                path.push(0);
                let r = step(b, body, env, fuel, path, hooks);
                path.pop();
                r?;
            }
        }
        // Every other node is a loop.
        (_, None) => {}
    }
    Ok(())
}
