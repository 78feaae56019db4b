//! The register VM: one instruction loop over a verifier-accepted
//! [`VmProg`], generic over the statement executor's [`Hooks`].
//!
//! Value semantics are the interpreters' own: the VM calls the same
//! [`Backend`] primitives that [`recdb_qlhs::eval_term`] dispatches to,
//! so the VM and the tree executor share semantics by construction.
//! What the VM removes from the hot loop is everything *around* the
//! ops: per-node recursion, per-node fuel ticks (pre-summed into each
//! instruction's `ticks` field), per-request dialect re-checks, and
//! env option-handling — all discharged statically by the compiler and
//! re-proved by the verifier.
//!
//! [`exec_hooked`] reports the tree executor's events to its hooks: a
//! passing guard is a round head ([`Hooks::round`], before the
//! iteration tick the next instruction carries), and a `Commit` is a
//! finished assignment ([`Hooks::work`]). [`exec_plain`] passes
//! [`NoHooks`]; [`exec_scheduled`] passes the budget
//! [`Meter`](recdb_qlhs::Meter) the tree executor's scheduled runs use.

use crate::bytecode::{Inst, VmProg};
use recdb_core::Fuel;
use recdb_qlhs::{Backend, Budget, DeltaValue, ExecEnd, ExecResult, Hooks, NoHooks, RunError};
use std::sync::atomic::AtomicBool;

/// The value domain a VM run computes in. Every [`Backend`] is one;
/// the trait only names the value type for callers written against it.
pub trait VmBackend {
    /// The value type.
    type V;
}

impl<T: Backend> VmBackend for T {
    type V = T::V;
}

/// The scheduling envelope of a VM run: the statement executor's
/// [`Budget`].
pub type VmBudget<'a> = Budget<'a>;

/// How a scheduled VM run ended: the statement executor's [`ExecEnd`].
pub type VmEnd<V> = ExecEnd<V>;

const TRAP_MSG: &str = "vm: loop ran past its statically proved bound";
const PC_MSG: &str = "vm: fell off the instruction stream";

fn burn(fuel: &mut Fuel, ticks: u32) -> Result<(), RunError> {
    Ok(fuel.consume(u64::from(ticks))?)
}

/// Runs a verifier-accepted program, reporting round heads and
/// assignments to `hooks` exactly where the tree executor does, with
/// identical observable fuel. The caller is responsible for having
/// dialect-checked the program (compilation obstructs on dialect
/// violations, so a verifier-accepted program is dialect-legal by
/// construction).
pub fn exec_hooked<B: Backend, H: Hooks>(
    b: &mut B,
    prog: &VmProg,
    fuel: &mut Fuel,
    hooks: &mut H,
) -> Result<B::V, H::Stop> {
    let mut frame: Vec<B::V> = vec![B::V::empty0(); prog.frame.max(1)];
    let mut here: Vec<u64> = vec![0; prog.loops.len()];
    let mut pc = 0usize;
    loop {
        let inst = prog.code.get(pc).ok_or(RunError::Internal(PC_MSG))?;
        match inst {
            Inst::E { dst, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.op_e();
            }
            Inst::Rel { dst, rel, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.op_rel(*rel)?;
            }
            Inst::Const { dst, val, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.op_const(*val);
            }
            Inst::Copy { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = frame[*src].clone();
            }
            Inst::And {
                dst,
                a,
                b: rb,
                ticks,
            } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.op_and(&frame[*a], &frame[*rb])?;
            }
            Inst::Not { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.op_not(&frame[*src], fuel)?;
            }
            Inst::Up { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.op_up(&frame[*src], fuel)?;
            }
            Inst::Down { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.op_down(&frame[*src], fuel)?;
            }
            Inst::Swap { dst, src, ticks } => {
                burn(fuel, *ticks)?;
                frame[*dst] = b.op_swap(&frame[*src], fuel)?;
            }
            Inst::Commit { src } => hooks.work(&[], frame[*src].size() as u64)?,
            Inst::Nop { ticks } => burn(fuel, *ticks)?,
            Inst::Enter { loop_id, ticks } => {
                burn(fuel, *ticks)?;
                here[*loop_id] = 0;
            }
            Inst::Guard {
                loop_id,
                var,
                kind,
                exit,
            } => {
                if !frame[*var].holds(*kind) {
                    pc = *exit;
                    continue;
                }
                here[*loop_id] += 1;
                hooks.round(&prog.loops[*loop_id].path, here[*loop_id])?;
            }
            Inst::Back { to, ticks } => {
                burn(fuel, *ticks)?;
                pc = *to;
                continue;
            }
            Inst::Trap { .. } => return Err(RunError::Internal(TRAP_MSG).into()),
            Inst::Halt { ticks } => {
                burn(fuel, *ticks)?;
                return Ok(frame.swap_remove(0));
            }
        }
        pc += 1;
    }
}

/// Runs a verifier-accepted program under a plain fuel budget — the
/// VM analogue of the interpreters' from-scratch `run` (semi-naive
/// evaluation off), with identical observable fuel.
pub fn exec_plain<B: Backend>(b: &mut B, prog: &VmProg, fuel: &mut Fuel) -> Result<B::V, RunError> {
    exec_hooked(b, prog, fuel, &mut NoHooks)
}

/// Runs a verifier-accepted program under the serve scheduling
/// envelope, metered by the same [`Meter`](recdb_qlhs::Meter) as the
/// tree executor's scheduled runs.
pub fn exec_scheduled<B: Backend>(
    b: &mut B,
    prog: &VmProg,
    budget: &Budget<'_>,
    preempt: &AtomicBool,
) -> ExecResult<B::V> {
    let mut meter = budget.meter(preempt);
    let r = exec_hooked(b, prog, &mut Fuel::new(budget.fuel), &mut meter);
    meter.finish(r)
}
