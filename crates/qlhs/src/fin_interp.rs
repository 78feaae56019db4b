//! The finitary QL interpreter — the Chandra–Harel baseline.
//!
//! QL is complete for computable queries over **finite** databases
//! [CH]. Values are plain finite relations over the structure's
//! universe `D`; `E = {(a,a) | a ∈ D}`, `¬e = Dⁿ ∖ e`, `e↑ = e × D`,
//! `e↓` projects out the first coordinate, `e~` swaps the two
//! rightmost coordinates. The only test is `while |Y| = 0` —
//! `|Y| = 1` is *definable* in finitary QL via `perm(D)` (footnote 8),
//! so admitting it as primitive here would blur the E13 ablation;
//! this interpreter rejects it.

use crate::ast::{Prog, Term};
use crate::value::{RunError, Val};
use recdb_core::{Elem, FiniteStructure, Fuel, Tuple};
use std::collections::BTreeSet;

/// A finitary QL interpreter over one finite structure.
pub struct FinInterp<'a> {
    st: &'a FiniteStructure,
    seminaive: bool,
}

impl crate::seminaive::DeltaBackend for &FinInterp<'_> {
    type V = Val;
    fn eval(&mut self, t: &Term, env: &[Val], fuel: &mut Fuel) -> Result<Val, RunError> {
        self.eval_term(t, env, fuel)
    }
}

impl<'a> FinInterp<'a> {
    /// Binds the interpreter to a finite structure.
    pub fn new(st: &'a FiniteStructure) -> Self {
        FinInterp {
            st,
            seminaive: true,
        }
    }

    /// Toggles the semi-naive loop engine (on by default). Turning it
    /// off forces every `while` through the from-scratch path — the
    /// differential oracle the `SEMI-NAIVE-DIFF` conformance check
    /// compares against.
    pub fn set_seminaive(&mut self, on: bool) {
        self.seminaive = on;
    }

    /// Is the semi-naive loop engine on?
    pub fn seminaive(&self) -> bool {
        self.seminaive
    }

    fn universe(&self) -> &[Elem] {
        self.st.universe()
    }

    /// The diagonal `E = {(a,a) | a ∈ D}`.
    pub fn op_e(&self) -> Val {
        Val {
            rank: 2,
            tuples: self
                .universe()
                .iter()
                .map(|&a| Tuple::from(vec![a, a]))
                .collect(),
        }
    }

    /// Stored relation `Rᵢ` (0-based), bounds-checked against the
    /// schema.
    pub fn op_rel(&self, i: usize) -> Result<Val, RunError> {
        if i >= self.st.schema().len() {
            return Err(RunError::NoSuchRelation(i));
        }
        Ok(Val {
            rank: self.st.schema().arity(i),
            tuples: self.st.relation(i).clone(),
        })
    }

    /// The constant singleton `Cₐ = {(a)}`.
    pub fn op_const(&self, c: u64) -> Val {
        Val {
            rank: 1,
            tuples: [Tuple::from_values([c])].into_iter().collect(),
        }
    }

    /// Intersection `x ∩ y`; ranks must agree.
    pub fn op_and(x: &Val, y: &Val) -> Result<Val, RunError> {
        if x.rank != y.rank {
            return Err(RunError::RankMismatch {
                left: x.rank,
                right: y.rank,
            });
        }
        Ok(Val {
            rank: x.rank,
            tuples: x.tuples.intersection(&y.tuples).cloned().collect(),
        })
    }

    /// Complement `¬x = Dⁿ ∖ x`; ticks once per enumerated tuple.
    pub fn op_not(&self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        let all = self.full(x.rank, fuel)?;
        Ok(Val {
            rank: x.rank,
            tuples: all.difference(&x.tuples).cloned().collect(),
        })
    }

    /// Cylindrification `x↑ = x × D`; ticks once per output tuple.
    pub fn op_up(&self, x: &Val, fuel: &mut Fuel) -> Result<Val, RunError> {
        let mut out = BTreeSet::new();
        for u in &x.tuples {
            for &a in self.universe() {
                fuel.tick()?;
                out.insert(u.extend(a));
            }
        }
        Ok(Val {
            rank: x.rank + 1,
            tuples: out,
        })
    }

    /// Projection `x↓` drops the first coordinate.
    pub fn op_down(x: &Val) -> Result<Val, RunError> {
        if x.rank == 0 {
            return Ok(Val::empty(0));
        }
        Ok(Val {
            rank: x.rank - 1,
            tuples: x
                .tuples
                .iter()
                .map(|u| {
                    u.drop_first()
                        .ok_or(RunError::Internal("↓ on a tuple shorter than its rank"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// `x~` swaps the two rightmost coordinates (identity below rank 2).
    pub fn op_swap(x: &Val) -> Result<Val, RunError> {
        if x.rank < 2 {
            return Ok(x.clone());
        }
        Ok(Val {
            rank: x.rank,
            tuples: x
                .tuples
                .iter()
                .map(|u| {
                    u.swap_last_two()
                        .ok_or(RunError::Internal("swap on a tuple shorter than its rank"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// All tuples of rank `n` over the universe — the complement base.
    fn full(&self, n: usize, fuel: &mut Fuel) -> Result<BTreeSet<Tuple>, RunError> {
        let mut out: BTreeSet<Tuple> = [Tuple::empty()].into_iter().collect();
        for _ in 0..n {
            let mut next = BTreeSet::new();
            for t in &out {
                for &a in self.universe() {
                    fuel.tick()?;
                    next.insert(t.extend(a));
                }
            }
            out = next;
        }
        Ok(out)
    }

    /// Evaluates a term. One fuel tick per term node at entry; the
    /// per-op primitives above carry the data-dependent ticks — the
    /// bytecode VM calls the same primitives, so the two executors
    /// share semantics by construction.
    pub fn eval_term(&self, t: &Term, env: &[Val], fuel: &mut Fuel) -> Result<Val, RunError> {
        fuel.tick()?;
        Ok(match t {
            Term::E => self.op_e(),
            Term::Rel(i) => self.op_rel(*i)?,
            Term::Var(v) => env.get(*v).cloned().unwrap_or_else(|| Val::empty(0)),
            // `Cₐ = {(a)}` whether or not `a` lies in this structure's
            // universe — constants name elements of the ambient domain,
            // and structures are finite windows onto it. (`¬Cₐ` still
            // complements within the universe.)
            Term::Const(c) => self.op_const(*c),
            Term::And(a, b) => {
                let x = self.eval_term(a, env, fuel)?;
                let y = self.eval_term(b, env, fuel)?;
                Self::op_and(&x, &y)?
            }
            Term::Not(e) => {
                let x = self.eval_term(e, env, fuel)?;
                self.op_not(&x, fuel)?
            }
            Term::Up(e) => {
                let x = self.eval_term(e, env, fuel)?;
                self.op_up(&x, fuel)?
            }
            Term::Down(e) => {
                let x = self.eval_term(e, env, fuel)?;
                Self::op_down(&x)?
            }
            Term::Swap(e) => {
                let x = self.eval_term(e, env, fuel)?;
                Self::op_swap(&x)?
            }
        })
    }

    /// Runs a program; result is `Y₁`.
    ///
    /// The QL dialect check runs first: a `while |Y|=1` or
    /// `while |Y|<∞` anywhere in the program — reachable or not — is
    /// rejected up-front.
    pub fn run(&self, p: &Prog, fuel: &mut Fuel) -> Result<Val, RunError> {
        crate::dialect::Dialect::Ql
            .check(p)
            .map_err(|v| RunError::DialectViolation(v.message()))?;
        let nvars = p.max_var().map_or(1, |m| m + 1);
        let mut env = vec![Val::empty(0); nvars.max(1)];
        self.exec(p, &mut env, fuel)?;
        Ok(env[0].clone())
    }

    /// Runs a program in a caller-supplied environment.
    pub fn exec(&self, p: &Prog, env: &mut Vec<Val>, fuel: &mut Fuel) -> Result<(), RunError> {
        fuel.tick()?;
        match p {
            Prog::Assign(v, e) => {
                let val = self.eval_term(e, env, fuel)?;
                if *v >= env.len() {
                    env.resize(*v + 1, Val::empty(0));
                }
                env[*v] = val;
            }
            Prog::Seq(ps) => {
                for q in ps {
                    self.exec(q, env, fuel)?;
                }
            }
            Prog::WhileEmpty(v, body) => {
                let done = self.seminaive
                    && crate::seminaive::try_loop(
                        &mut &*self,
                        crate::seminaive::LoopKind::Empty,
                        *v,
                        body,
                        env,
                        fuel,
                        &mut crate::seminaive::NoHooks,
                    )
                    .is_done();
                if !done {
                    while env.get(*v).is_none_or(Val::is_empty) {
                        fuel.tick()?;
                        self.exec(body, env, fuel)?;
                    }
                }
            }
            Prog::WhileSingleton(..) => {
                return Err(RunError::DialectViolation(
                    "while |Y|=1 is a QLhs primitive; in finitary QL it is only definable",
                ))
            }
            Prog::WhileFinite(..) => {
                return Err(RunError::DialectViolation(
                    "while |Y|<∞ is a QLf+ construct",
                ))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Prog, Term};
    use recdb_core::tuple;

    fn path3() -> FiniteStructure {
        FiniteStructure::undirected_graph([0, 1, 2], [(0, 1), (1, 2)])
    }

    fn run_on(st: &FiniteStructure, p: &Prog) -> Result<Val, RunError> {
        FinInterp::new(st).run(p, &mut Fuel::new(100_000))
    }

    #[test]
    fn e_is_full_diagonal() {
        let v = run_on(&path3(), &Prog::assign(0, Term::E)).unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.tuples.contains(&tuple![2, 2]));
    }

    #[test]
    fn up_is_cartesian_with_domain() {
        // R1↑: 4 edges × 3 universe elements = 12 triples.
        let v = run_on(&path3(), &Prog::assign(0, Term::Rel(0).up())).unwrap();
        assert_eq!(v.rank, 3);
        assert_eq!(v.len(), 12);
    }

    #[test]
    fn down_projects() {
        // R1↓: second endpoints of edges = {0,1,2} (1 is adjacent both
        // ways, endpoints appear via (1,0),(1,2)).
        let v = run_on(&path3(), &Prog::assign(0, Term::Rel(0).down())).unwrap();
        assert_eq!(v.rank, 1);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn complement_and_swap() {
        // Symmetric graph: R1~ = R1, so R1 ∖ R1~ = ∅.
        let v = run_on(
            &path3(),
            &Prog::assign(0, Term::Rel(0).minus(Term::Rel(0).swap())),
        )
        .unwrap();
        assert!(v.is_empty());
        // ¬R1 has 9 − 4 = 5 pairs.
        let v = run_on(&path3(), &Prog::assign(0, Term::Rel(0).not())).unwrap();
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn common_neighbour_triples() {
        // A composition-flavoured query built from ↑ and ~ alone:
        // up(R1) = {(x,y,z) | E(x,y)}, and swapping its last two
        // coordinates gives {(x,y,z) | E(x,z)} — so the intersection
        // is {(x,y,z) | E(x,y) ∧ E(x,z)}: the common-neighbour triples
        // (the building block of QL's relational composition).
        let st = path3();
        let common = Term::Rel(0).up().and(Term::Rel(0).up().swap());
        let v = run_on(&st, &Prog::assign(0, common)).unwrap();
        // Σ_x deg(x)² on the path 0–1–2: 1 + 4 + 1 = 6.
        assert_eq!(v.len(), 6);
        assert!(v.tuples.contains(&tuple![1, 0, 2]));
        assert!(v.tuples.contains(&tuple![0, 1, 1]));
    }

    #[test]
    fn while_empty_runs() {
        let p = Prog::seq([Prog::WhileEmpty(0, Box::new(Prog::assign(0, Term::E)))]);
        let v = run_on(&path3(), &p).unwrap();
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn singleton_test_rejected_in_ql() {
        let p = Prog::WhileSingleton(0, Box::new(Prog::Seq(vec![])));
        assert!(matches!(
            run_on(&path3(), &p),
            Err(RunError::DialectViolation(_))
        ));
    }

    #[test]
    fn genericity_of_ql_on_isomorphic_structures() {
        // The same program on isomorphic structures gives isomorphic
        // results (here: equal cardinalities and shapes).
        let a = path3();
        let b = FiniteStructure::undirected_graph([10, 20, 30], [(10, 20), (20, 30)]);
        let prog = Prog::assign(0, Term::Rel(0).up().and(Term::Rel(0).up().swap()));
        let va = run_on(&a, &prog).unwrap();
        let vb = run_on(&b, &prog).unwrap();
        assert_eq!(va.len(), vb.len());
        assert_eq!(va.rank, vb.rank);
    }
}
