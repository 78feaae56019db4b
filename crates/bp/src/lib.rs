//! # recdb-bp — BP-completeness over recursive data bases (§6)
//!
//! BP-completeness (\[B\], \[P\]) asks a language to express *relations*
//! that preserve the automorphisms of a fixed database, rather than
//! queries. The paper's three results, all executable here:
//!
//! * **Theorem 6.1** ([`gadget`]): no effective BP-r-complete language
//!   exists — the graph-isomorphism gadget `b ≅_B c ⟺ G₁ ≅ G₂`;
//! * **Prop 6.1 / Theorem 6.2** ([`unary`]): for unary r-dbs, `≅_B`
//!   collapses to `≅ₗ` and `L⁻` is BP-complete;
//! * **Theorem 6.3** ([`fo_bp`]): for hs-r-dbs, full first-order logic
//!   is BP-complete — tree-bounded quantifier evaluation one way,
//!   Hintikka-style isolating formulas the other.

#![warn(missing_docs)]

pub mod fo_bp;
pub mod gadget;
pub mod unary;

pub use fo_bp::{express_hs_relation, fo_member, isolating_formula, quantifier_pool};
pub use gadget::{
    find_preservation_violation, fragment_as_db, graphs_ef_equivalent, BoundedOutputGadget, Gadget,
    A, B, C,
};
pub use unary::{
    express_unary_relation, find_disagreement, possible_class_count, realized_class_count,
    unary_equivalent,
};
