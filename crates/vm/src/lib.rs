//! recdb-vm: a statically-verified bytecode compiler and register VM
//! for the QL dialect family.
//!
//! The tree-walking interpreters in `recdb-qlhs` are the semantic
//! ground truth; this crate makes the hot path faster without widening
//! the trusted base:
//!
//! 1. [`lower::compile`] flattens a validated AST into register
//!    bytecode ([`bytecode::VmProg`]), driven by `recdb-analyze`'s
//!    liveness/last-use pass, a rank-typed register allocator, loop
//!    unrolling for small proved bounds, and dead-store elimination.
//!    The compiler is **not trusted** — it may be arbitrarily clever.
//! 2. [`verify::verify`] is an independent abstract interpreter over
//!    the instruction stream that re-proves rank/arity agreement,
//!    dialect legality, register init-before-use, fuel-tick placement,
//!    loop certificates, and the §11 cost obligation. Programs execute
//!    only if the verifier accepts.
//! 3. [`exec::exec_hooked`] runs accepted programs over any
//!    [`recdb_qlhs::Backend`] (the three interpreters' value domains)
//!    under the statement executor's [`recdb_qlhs::Hooks`],
//!    reproducing the tree executor's results, fuel accounting, and
//!    scheduling events exactly; [`exec::exec_plain`] and
//!    [`exec::exec_scheduled`] are its plain and budgeted forms. On any
//!    obstruction or rejection the caller falls back to the tree
//!    executor and the difference is unobservable.

#![warn(missing_docs)]

pub mod bytecode;
pub mod exec;
pub mod lower;
pub mod verify;

pub use bytecode::{Inst, LoopMeta, VmProg};
pub use exec::{exec_hooked, exec_plain, exec_scheduled, VmBackend, VmBudget, VmEnd};
pub use lower::{compile, LowerOpts, Obstruction, ObstructionKind};
pub use verify::{verify, Rejection, VerifyReport};
