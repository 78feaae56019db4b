//! Local isomorphism — the decidable fragment of isomorphism (§2).
//!
//! Def 2.2(3): `(B₁,u) ≅ₗ (B₂,v)` iff the restriction of `B₁` to the
//! elements of `u` and the restriction of `B₂` to the elements of `v`
//! are isomorphic *by the specific map taking u to v*. Full isomorphism
//! of r-dbs is Σ¹₁-complete (Prop 2.1, [Morozov]); local isomorphism is
//! recursive (Prop 2.2), and this module is that decision procedure.

use crate::{Database, Tuple};

/// Decides `(b1, u) ≅ₗ (b2, v)` — Prop 2.2.
///
/// Implements the paper's three checks verbatim:
/// (i) `|u| = |v|`;
/// (ii) for all `i,j`: `uᵢ = uⱼ` iff `vᵢ = vⱼ`;
/// (iii) for every relation `Rᵢ` of arity `aᵢ` and every choice of
/// indices `j₁,…,j_{aᵢ}` from `1..n`: `(u_{j₁},…) ∈ Rᵢ` iff
/// `(v_{j₁},…) ∈ R'ᵢ`.
///
/// The number of oracle questions is `Σᵢ 2·n^{aᵢ}` in the worst case —
/// finite, which is the whole point.
///
/// # Panics
/// Panics if the two databases have different schemas (local
/// isomorphism is only defined between databases of the same type).
pub fn locally_isomorphic(b1: &Database, u: &Tuple, b2: &Database, v: &Tuple) -> bool {
    assert_eq!(
        b1.schema(),
        b2.schema(),
        "local isomorphism requires databases of the same type"
    );
    recdb_obs::count("core.lociso_checks", 1);
    // (i) equal rank
    if u.rank() != v.rank() {
        return false;
    }
    let n = u.rank();
    // (ii) identical equality pattern
    if u.equality_pattern() != v.equality_pattern() {
        return false;
    }
    // (iii) identical atomic facts under the positional map uᵢ ↦ vᵢ
    for i in 0..b1.relation_count() {
        let a = b1.schema().arity(i);
        if a == 0 {
            if b1.query(i, &[]) != b2.query(i, &[]) {
                return false;
            }
            continue;
        }
        if n == 0 {
            // No index tuples exist for positive arity over an empty
            // tuple: nothing to check for this relation.
            continue;
        }
        let mut idx = vec![0usize; a];
        loop {
            let ut = u.project(&idx);
            let vt = v.project(&idx);
            if b1.query(i, ut.elems()) != b2.query(i, vt.elems()) {
                return false;
            }
            // Advance the index vector (odometer over n^a).
            let mut pos = 0;
            loop {
                if pos == a {
                    return_if_done(&mut idx);
                    break;
                }
                idx[pos] += 1;
                if idx[pos] < n {
                    break;
                }
                idx[pos] = 0;
                pos += 1;
            }
            if pos == a {
                break;
            }
        }
    }
    true
}

// Helper so the odometer's terminal state is explicit.
fn return_if_done(_idx: &mut [usize]) {}

/// Decides `(b, u) ≅ₗ (b, v)` within a single database — the common
/// case written `u ≅ₗ v` in §3.2.
pub fn locally_equivalent(b: &Database, u: &Tuple, v: &Tuple) -> bool {
    locally_isomorphic(b, u, b, v)
}

/// Iterates over all index vectors `(j₁,…,j_a) ∈ {0..n}^a` — the
/// projection patterns condition (iii) quantifies over. Exposed for the
/// atomic-type machinery in the `types` module.
pub fn index_vectors(n: usize, a: usize) -> Vec<Vec<usize>> {
    if a == 0 {
        return vec![Vec::new()];
    }
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n.pow(a as u32));
    let mut idx = vec![0usize; a];
    loop {
        out.push(idx.clone());
        let mut pos = 0;
        while pos < a {
            idx[pos] += 1;
            if idx[pos] < n {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
        if pos == a {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, DatabaseBuilder, FiniteRelation, FnRelation};

    /// The paper's running example after Def 2.2:
    /// `R₁ = {(a,a),(a,b)}`, `R₂ = {(c,c)}` with a=1,b=2,c=3.
    /// `(R₁,(a)) ≅ₗ (R₂,(c))` but they are not isomorphic.
    fn paper_r1() -> crate::Database {
        DatabaseBuilder::new("R1")
            .relation("R", FiniteRelation::edges([(1, 1), (1, 2)]))
            .build()
    }
    fn paper_r2() -> crate::Database {
        DatabaseBuilder::new("R2")
            .relation("R", FiniteRelation::edges([(3, 3)]))
            .build()
    }

    #[test]
    fn paper_example_locally_isomorphic() {
        assert!(locally_isomorphic(
            &paper_r1(),
            &tuple![1],
            &paper_r2(),
            &tuple![3]
        ));
    }

    #[test]
    fn paper_example_distinguished_at_rank_two() {
        // (a,b) has R(a,b) but no pair (c,x) with x≠c can match in R₂.
        assert!(!locally_isomorphic(
            &paper_r1(),
            &tuple![1, 2],
            &paper_r2(),
            &tuple![3, 4]
        ));
    }

    #[test]
    fn rank_mismatch_fails_check_i() {
        assert!(!locally_isomorphic(
            &paper_r1(),
            &tuple![1, 1],
            &paper_r2(),
            &tuple![3]
        ));
    }

    #[test]
    fn equality_pattern_mismatch_fails_check_ii() {
        let db = paper_r1();
        assert!(!locally_equivalent(&db, &tuple![1, 1], &tuple![1, 2]));
    }

    #[test]
    fn empty_tuples_always_locally_isomorphic_for_positive_arity() {
        // Prop 2.3 part 1: for all B₁,B₂, (B₁,()) ≅ₗ (B₂,()).
        assert!(locally_isomorphic(
            &paper_r1(),
            &Tuple::empty(),
            &paper_r2(),
            &Tuple::empty()
        ));
    }

    #[test]
    fn rank_zero_relations_are_checked_on_empty_tuples() {
        let yes = DatabaseBuilder::new("yes")
            .relation("P", FiniteRelation::new(0, [Tuple::empty()]))
            .build();
        let no = DatabaseBuilder::new("no")
            .relation("P", FiniteRelation::empty(0))
            .build();
        assert!(!locally_isomorphic(
            &yes,
            &Tuple::empty(),
            &no,
            &Tuple::empty()
        ));
        assert!(locally_isomorphic(
            &yes,
            &Tuple::empty(),
            &yes,
            &Tuple::empty()
        ));
    }

    #[test]
    fn clique_tuples_locally_equivalent_iff_same_pattern() {
        let db = DatabaseBuilder::new("K")
            .relation("E", FnRelation::infinite_clique())
            .build();
        assert!(locally_equivalent(&db, &tuple![1, 2], &tuple![7, 9]));
        assert!(locally_equivalent(&db, &tuple![1, 1], &tuple![4, 4]));
        assert!(!locally_equivalent(&db, &tuple![1, 2], &tuple![4, 4]));
    }

    #[test]
    fn line_distinguishes_distance() {
        let db = DatabaseBuilder::new("line")
            .relation("E", FnRelation::infinite_line())
            .build();
        // 0–2 adjacent (positions 0,1); 2–6 not (positions 1,3).
        assert!(!locally_equivalent(&db, &tuple![0, 2], &tuple![2, 6]));
        // Two adjacent pairs are locally equivalent.
        assert!(locally_equivalent(&db, &tuple![0, 2], &tuple![2, 4]));
    }

    #[test]
    fn local_equivalence_is_an_equivalence_relation_on_samples() {
        let db = DatabaseBuilder::new("div")
            .relation("D", FnRelation::divides())
            .build();
        let ts: Vec<Tuple> = vec![
            tuple![1, 2],
            tuple![2, 4],
            tuple![3, 5],
            tuple![2, 2],
            tuple![6, 6],
        ];
        for a in &ts {
            assert!(locally_equivalent(&db, a, a), "reflexive at {a:?}");
            for b in &ts {
                assert_eq!(
                    locally_equivalent(&db, a, b),
                    locally_equivalent(&db, b, a),
                    "symmetric at {a:?},{b:?}"
                );
                for c in &ts {
                    if locally_equivalent(&db, a, b) && locally_equivalent(&db, b, c) {
                        assert!(locally_equivalent(&db, a, c), "transitive");
                    }
                }
            }
        }
    }

    #[test]
    fn index_vectors_enumerates_n_pow_a() {
        assert_eq!(index_vectors(3, 2).len(), 9);
        assert_eq!(index_vectors(2, 3).len(), 8);
        assert_eq!(index_vectors(0, 2), Vec::<Vec<usize>>::new());
        assert_eq!(index_vectors(5, 0), vec![Vec::<usize>::new()]);
        let vs = index_vectors(2, 2);
        assert!(vs.contains(&vec![0, 0]) && vs.contains(&vec![1, 0]));
    }

    #[test]
    #[should_panic(expected = "same type")]
    fn different_schemas_rejected() {
        let g = DatabaseBuilder::new("g")
            .relation("E", FiniteRelation::edges([]))
            .build();
        let u = DatabaseBuilder::new("u")
            .relation("P", FiniteRelation::unary([]))
            .build();
        locally_isomorphic(&g, &Tuple::empty(), &u, &Tuple::empty());
    }
}
