//! Formula evaluation.
//!
//! Three evaluation modes, matching the paper's three uses of logic:
//!
//! * [`eval_qf`] — quantifier-free evaluation on an r-db: finitely many
//!   oracle questions, always terminates (the engine of `L⁻`, §2).
//! * [`eval_with_pool`] — full FO evaluation with quantifiers ranging
//!   over an explicit finite pool of elements. Theorem 6.3 shows that
//!   for highly symmetric databases a pool of tree representatives
//!   (`T^{n+k}`) is *sufficient*: every element is `≅_B`-equivalent to
//!   a representative, so quantifying over D and over the pool agree.
//! * [`eval_finite`] — evaluation on a materialized
//!   [`FiniteStructure`], quantifiers over its universe (the finite
//!   baseline of \[CH\]).

use crate::{Formula, Var};
use recdb_core::{Database, Elem, FiniteStructure, Tuple};

/// A partial assignment of elements to variables.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    vals: Vec<Option<Elem>>,
}

impl Assignment {
    /// The empty assignment.
    pub fn new() -> Self {
        Assignment::default()
    }

    /// An assignment binding `x₀,…,x_{n−1}` to the tuple's components.
    pub fn from_tuple(t: &Tuple) -> Self {
        Assignment {
            vals: t.elems().iter().map(|&e| Some(e)).collect(),
        }
    }

    /// The binding of `v`, if any.
    pub fn get(&self, v: Var) -> Option<Elem> {
        self.vals.get(v.0 as usize).copied().flatten()
    }

    /// Binds `v` to `e` (growing the table as needed), returning the
    /// previous binding.
    pub fn set(&mut self, v: Var, e: Elem) -> Option<Elem> {
        let i = v.0 as usize;
        if i >= self.vals.len() {
            self.vals.resize(i + 1, None);
        }
        self.vals[i].replace(e)
    }

    /// Restores a previous binding (possibly unbinding).
    pub fn restore(&mut self, v: Var, prev: Option<Elem>) {
        let i = v.0 as usize;
        if i < self.vals.len() {
            self.vals[i] = prev;
        }
    }
}

/// An error during evaluation: an unbound variable was consulted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnboundVar(pub Var);

impl std::fmt::Display for UnboundVar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unbound variable {}", self.0)
    }
}

impl std::error::Error for UnboundVar {}

/// Oracle interface shared by r-dbs and finite structures, so one
/// evaluator core serves both.
trait AtomOracle {
    fn holds(&self, rel: usize, args: &[Elem]) -> bool;
}

impl AtomOracle for Database {
    fn holds(&self, rel: usize, args: &[Elem]) -> bool {
        self.query(rel, args)
    }
}

impl AtomOracle for FiniteStructure {
    fn holds(&self, rel: usize, args: &[Elem]) -> bool {
        self.contains(rel, &Tuple::from(args))
    }
}

fn eval_inner<O: AtomOracle>(
    oracle: &O,
    f: &Formula,
    asg: &mut Assignment,
    pool: &[Elem],
) -> Result<bool, UnboundVar> {
    Ok(match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Eq(a, b) => {
            let x = asg.get(*a).ok_or(UnboundVar(*a))?;
            let y = asg.get(*b).ok_or(UnboundVar(*b))?;
            x == y
        }
        Formula::Rel(i, vs) => {
            let mut args = Vec::with_capacity(vs.len());
            for v in vs {
                args.push(asg.get(*v).ok_or(UnboundVar(*v))?);
            }
            oracle.holds(*i, &args)
        }
        Formula::Not(g) => !eval_inner(oracle, g, asg, pool)?,
        Formula::And(gs) => {
            for g in gs {
                if !eval_inner(oracle, g, asg, pool)? {
                    return Ok(false);
                }
            }
            true
        }
        Formula::Or(gs) => {
            for g in gs {
                if eval_inner(oracle, g, asg, pool)? {
                    return Ok(true);
                }
            }
            false
        }
        Formula::Implies(a, b) => {
            !eval_inner(oracle, a, asg, pool)? || eval_inner(oracle, b, asg, pool)?
        }
        Formula::Iff(a, b) => {
            eval_inner(oracle, a, asg, pool)? == eval_inner(oracle, b, asg, pool)?
        }
        Formula::Exists(v, g) => {
            let mut found = false;
            for &e in pool {
                let prev = asg.set(*v, e);
                let r = eval_inner(oracle, g, asg, pool);
                asg.restore(*v, prev);
                if r? {
                    found = true;
                    break;
                }
            }
            found
        }
        Formula::Forall(v, g) => {
            let mut all = true;
            for &e in pool {
                let prev = asg.set(*v, e);
                let r = eval_inner(oracle, g, asg, pool);
                asg.restore(*v, prev);
                if !r? {
                    all = false;
                    break;
                }
            }
            all
        }
    })
}

/// Evaluates a **quantifier-free** formula on an r-db with `x₀,…` bound
/// to the tuple. This is the total, always-terminating evaluation that
/// makes `L⁻` recursive (Theorem 2.1's easy direction).
///
/// # Panics
/// Panics if the formula contains a quantifier — use
/// [`eval_with_pool`] for those.
pub fn eval_qf(db: &Database, f: &Formula, u: &Tuple) -> Result<bool, UnboundVar> {
    assert!(
        f.is_quantifier_free(),
        "eval_qf requires a quantifier-free formula"
    );
    let mut asg = Assignment::from_tuple(u);
    eval_inner(db, f, &mut asg, &[])
}

/// [`eval_qf`] for a body that construction-time validation guarantees
/// has no unbound variables. A violated guarantee is loud in debug
/// builds; release builds answer `false` (never a plausible `true`) so
/// the differentials see a wrong-shaped output instead of a crash.
pub(crate) fn eval_qf_validated(db: &Database, f: &Formula, u: &Tuple) -> bool {
    match eval_qf(db, f, u) {
        Ok(b) => b,
        Err(e) => {
            debug_assert!(false, "validated body hit {e} on {u:?}");
            false
        }
    }
}

/// Evaluates an arbitrary FO formula on an r-db, with quantifiers
/// ranging over the finite `pool`. Soundness of a given pool is the
/// caller's obligation (Theorem 6.3 supplies it for hs-r-dbs via
/// characteristic-tree representatives).
pub fn eval_with_pool(
    db: &Database,
    f: &Formula,
    asg: &mut Assignment,
    pool: &[Elem],
) -> Result<bool, UnboundVar> {
    eval_inner(db, f, asg, pool)
}

/// Evaluates an arbitrary FO formula on a finite structure, with
/// quantifiers ranging over its universe.
pub fn eval_finite(
    st: &FiniteStructure,
    f: &Formula,
    asg: &mut Assignment,
) -> Result<bool, UnboundVar> {
    let pool: Vec<Elem> = st.universe().to_vec();
    eval_inner(st, f, asg, &pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_core::{tuple, DatabaseBuilder, FnRelation};

    fn clique() -> Database {
        DatabaseBuilder::new("K")
            .relation("E", FnRelation::infinite_clique())
            .build()
    }

    #[test]
    fn qf_eval_edge() {
        let f = Formula::and(vec![
            Formula::Eq(Var(0), Var(1)).not(),
            Formula::Rel(0, vec![Var(0), Var(1)]),
        ]);
        assert!(eval_qf(&clique(), &f, &tuple![1, 2]).unwrap());
        assert!(!eval_qf(&clique(), &f, &tuple![3, 3]).unwrap());
    }

    #[test]
    fn qf_eval_unbound_var_errors() {
        let f = Formula::Eq(Var(0), Var(5));
        assert_eq!(
            eval_qf(&clique(), &f, &tuple![1, 2]),
            Err(UnboundVar(Var(5)))
        );
    }

    #[test]
    #[should_panic(expected = "quantifier-free")]
    fn qf_eval_rejects_quantifiers() {
        let f = Formula::Exists(Var(1), Box::new(Formula::Eq(Var(0), Var(1))));
        let _ = eval_qf(&clique(), &f, &tuple![1]);
    }

    #[test]
    fn pooled_exists_finds_witness() {
        // ∃y. y ≠ x₀ ∧ E(x₀,y) on the clique, pool {0,1,2}.
        let f = Formula::Exists(
            Var(1),
            Box::new(Formula::and(vec![
                Formula::Eq(Var(1), Var(0)).not(),
                Formula::Rel(0, vec![Var(0), Var(1)]),
            ])),
        );
        let pool = [Elem(0), Elem(1), Elem(2)];
        let mut asg = Assignment::from_tuple(&tuple![0]);
        assert!(eval_with_pool(&clique(), &f, &mut asg, &pool).unwrap());
        // Empty pool: no witness.
        let mut asg = Assignment::from_tuple(&tuple![0]);
        assert!(!eval_with_pool(&clique(), &f, &mut asg, &[]).unwrap());
    }

    #[test]
    fn pooled_forall_over_pool() {
        // ∀y. E(x₀,y) fails on a clique because of y = x₀.
        let f = Formula::Forall(Var(1), Box::new(Formula::Rel(0, vec![Var(0), Var(1)])));
        let pool = [Elem(0), Elem(1)];
        let mut asg = Assignment::from_tuple(&tuple![0]);
        assert!(!eval_with_pool(&clique(), &f, &mut asg, &pool).unwrap());
        // ∀y. (y = x₀ ∨ E(x₀,y)) holds.
        let f2 = Formula::Forall(
            Var(1),
            Box::new(Formula::or(vec![
                Formula::Eq(Var(1), Var(0)),
                Formula::Rel(0, vec![Var(0), Var(1)]),
            ])),
        );
        let mut asg = Assignment::from_tuple(&tuple![0]);
        assert!(eval_with_pool(&clique(), &f2, &mut asg, &pool).unwrap());
    }

    #[test]
    fn finite_structure_eval() {
        // Path 0–1–2: node 1 has two neighbours, endpoints one.
        let p = FiniteStructure::undirected_graph([0, 1, 2], [(0, 1), (1, 2)]);
        // "x₀ has two distinct neighbours"
        let f = Formula::Exists(
            Var(1),
            Box::new(Formula::Exists(
                Var(2),
                Box::new(Formula::and(vec![
                    Formula::Eq(Var(1), Var(2)).not(),
                    Formula::Rel(0, vec![Var(0), Var(1)]),
                    Formula::Rel(0, vec![Var(0), Var(2)]),
                ])),
            )),
        );
        let mut asg = Assignment::from_tuple(&tuple![1]);
        assert!(eval_finite(&p, &f, &mut asg).unwrap());
        let mut asg = Assignment::from_tuple(&tuple![0]);
        assert!(!eval_finite(&p, &f, &mut asg).unwrap());
    }

    #[test]
    fn quantifier_shadowing_restores_bindings() {
        // ∃x₀. x₀ = x₀ then x₀ must revert to its outer binding.
        let f = Formula::and(vec![
            Formula::Exists(Var(0), Box::new(Formula::Eq(Var(0), Var(0)))),
            Formula::Eq(Var(0), Var(1)),
        ]);
        let pool = [Elem(9)];
        let mut asg = Assignment::from_tuple(&tuple![4, 4]);
        assert!(eval_with_pool(&clique(), &f, &mut asg, &pool).unwrap());
        assert_eq!(asg.get(Var(0)), Some(Elem(4)), "binding restored");
    }

    #[test]
    fn implies_and_iff() {
        let t = Formula::True;
        let fa = Formula::False;
        let db = clique();
        let empty = Tuple::empty();
        for (f, want) in [
            (
                Formula::Implies(Box::new(t.clone()), Box::new(fa.clone())),
                false,
            ),
            (
                Formula::Implies(Box::new(fa.clone()), Box::new(t.clone())),
                true,
            ),
            (Formula::Iff(Box::new(t.clone()), Box::new(t.clone())), true),
            (Formula::Iff(Box::new(t), Box::new(fa)), false),
        ] {
            assert_eq!(eval_qf(&db, &f, &empty).unwrap(), want);
        }
    }
}
