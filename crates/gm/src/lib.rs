//! # recdb-gm — generic machines over hs-r-dbs (§5, after \[AV\])
//!
//! Abiteboul–Vianu generic machines adapted to highly symmetric
//! recursive databases: unit machines with dual-alphabet tapes, two
//! heads, relational stores, spawn-on-load and collapse-on-identical
//! semantics, extended with the `T_B` offspring load, the `≅_B`
//! equivalence test, and representative storing (Theorem 5.1).

#![warn(missing_docs)]

pub mod machine;
pub mod programs;

pub use machine::{GmAction, GmBuilder, GmCell, GmError, GmOutcome, GmProgram, Head, State, SEP};
pub use programs::{copy_machine, fanout_probe, intersect_machine, up_machine};
