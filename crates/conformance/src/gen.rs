//! Seeded generators for the metamorphic and differential engines.
//!
//! Everything here is a pure function of the [`SplitMix64`] stream it
//! is handed, so a ledger check's inputs are reproducible from the
//! `(master seed, check id)` pair alone.

use crate::rng::SplitMix64;
use recdb_core::{
    CoFiniteRelation, Database, DatabaseBuilder, Elem, FiniteRelation, FiniteStructure, Tuple,
};
use recdb_hsdb::{FcfDatabase, FcfRel};
use recdb_qlhs::{Prog, Term};
use recdb_ra::{rel, RaExpr, RaProgram, RaSchema};

/// Element window the random structures draw from (`0..WINDOW`).
pub const WINDOW: u64 = 8;

/// A random finite graph database (schema `E : 2`) over `0..WINDOW`,
/// with edge density ≈ 1/3.
pub fn random_graph_db(rng: &mut SplitMix64, name: &str) -> Database {
    let mut edges = Vec::new();
    for x in 0..WINDOW {
        for y in 0..WINDOW {
            if rng.gen_usize(3) == 0 {
                edges.push((x, y));
            }
        }
    }
    DatabaseBuilder::new(name)
        .relation("E", FiniteRelation::edges(edges))
        .build()
}

/// A random *weakly connected* finite graph, as a
/// [`FiniteStructure`], over a universe of `size` nodes.
///
/// Connectivity comes from a seeded spanning link for every node
/// (each `x ≥ 1` gets an edge to some earlier node, in a random
/// direction); [`recdb_hsdb::ComponentGraph`] requires it.
pub fn random_finite_graph(rng: &mut SplitMix64, size: u64) -> FiniteStructure {
    let mut edges = Vec::new();
    for x in 1..size {
        let anchor = rng.gen_range(0, x);
        if rng.gen_bool() {
            edges.push((anchor, x));
        } else {
            edges.push((x, anchor));
        }
    }
    for x in 0..size {
        for y in 0..size {
            if rng.gen_usize(3) == 0 {
                edges.push((x, y));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    FiniteStructure::graph(0..size, edges)
}

/// A random fcf-r-db (§4): one finite unary relation and one co-finite
/// binary relation with a few exceptional tuples, all over `0..WINDOW`.
pub fn random_fcf(rng: &mut SplitMix64, name: &str) -> FcfDatabase {
    let unary: Vec<u64> = (0..WINDOW).filter(|_| rng.gen_bool()).collect();
    let mut exceptions = Vec::new();
    for _ in 0..rng.gen_range(1, 5) {
        exceptions.push(Tuple::from_values([
            rng.gen_range(0, WINDOW),
            rng.gen_range(0, WINDOW),
        ]));
    }
    FcfDatabase::new(
        name,
        vec![
            FcfRel::Finite(FiniteRelation::unary(unary)),
            FcfRel::CoFinite(CoFiniteRelation::new(2, exceptions)),
        ],
    )
}

/// Shape knobs for [`random_term`] / [`random_prog`].
///
/// The generator is deliberately allowed to produce *ill-formed*
/// programs: `rels` may exceed the target schema's length (missing
/// relations) and the `allow_*` flags may admit tests the target
/// dialect rejects. The analyzer-differential checks rely on the mix.
#[derive(Clone, Copy, Debug)]
pub struct ProgShape {
    /// Relation indices are drawn from `0..rels`.
    pub rels: usize,
    /// Variable indices are drawn from `0..vars`.
    pub vars: usize,
    /// Generate `while single(Y)` statements.
    pub allow_singleton: bool,
    /// Generate `while finite(Y)` statements.
    pub allow_finite: bool,
    /// Constant symbols `C<a>` are drawn from `0..consts`; `0`
    /// disables them (the pre-genericity generator).
    pub consts: u64,
    /// Bias loop bodies toward inflationary unions in the provable
    /// semi-naive fragment (`Y := Y ∪ s`, `s` linear monotone), so
    /// differential runs exercise the delta engine and not just its
    /// fallback. Draws **no** RNG when off: existing check streams are
    /// unchanged.
    pub union_bias: bool,
}

/// A `W`-free leaf for monotone sources: mentions no variable at all.
fn wfree_leaf(rng: &mut SplitMix64, shape: &ProgShape) -> Term {
    match rng.gen_usize(2) {
        0 => Term::E,
        _ => Term::Rel(rng.gen_usize(shape.rels.max(1))),
    }
}

/// A random linear monotone source over the loop-written variables:
/// at most one occurrence of `Var(w)`, reached only through
/// `∩`/`↑`/`↓`/`swap`, with every `∩`-partner variable-free.
fn monotone_source(rng: &mut SplitMix64, depth: usize, shape: &ProgShape, w: usize) -> Term {
    let mut t = if rng.gen_bool() {
        Term::Var(w)
    } else {
        wfree_leaf(rng, shape)
    };
    for _ in 0..depth {
        t = match rng.gen_usize(4) {
            0 => t.up(),
            1 => t.down(),
            2 => t.swap(),
            _ => t.and(wfree_leaf(rng, shape)),
        };
    }
    t
}

/// A loop body inside the provable semi-naive fragment: a sequence of
/// `Y_w := Y_w ∪ s` with `s` linear monotone, usually ending with a
/// guard-flipping union on the loop variable so the loop terminates.
fn union_body(rng: &mut SplitMix64, shape: &ProgShape, guard: usize) -> Prog {
    let k = 1 + rng.gen_usize(2);
    let mut body = Vec::with_capacity(k + 1);
    for _ in 0..k {
        let w = rng.gen_usize(shape.vars.max(1));
        let depth = 1 + rng.gen_usize(2);
        let s = monotone_source(rng, depth, shape, w);
        body.push(Prog::assign(w, Term::Var(w).union(s)));
    }
    if rng.gen_usize(4) != 0 {
        body.push(Prog::assign(guard, Term::Var(guard).union(Term::E)));
    }
    Prog::Seq(body)
}

/// A random term of the given depth budget.
pub fn random_term(rng: &mut SplitMix64, depth: usize, shape: &ProgShape) -> Term {
    if depth == 0 {
        let arms = if shape.consts > 0 { 5 } else { 4 };
        return match rng.gen_usize(arms) {
            0 => Term::E,
            1 => Term::Rel(rng.gen_usize(shape.rels.max(1))),
            2 | 3 => Term::Var(rng.gen_usize(shape.vars.max(1))),
            _ => Term::Const(rng.gen_range(0, shape.consts)),
        };
    }
    match rng.gen_usize(7) {
        0 => {
            let left = random_term(rng, depth - 1, shape);
            left.and(random_term(rng, depth - 1, shape))
        }
        1 => random_term(rng, depth - 1, shape).not(),
        2 => random_term(rng, depth - 1, shape).up(),
        3 => random_term(rng, depth - 1, shape).down(),
        4 => random_term(rng, depth - 1, shape).swap(),
        _ => random_term(rng, 0, shape),
    }
}

/// A random program: a sequence of assignments and (shallow) `while`
/// loops. Loop bodies are biased toward flipping their own guard (a
/// trailing `Y := E`), so most generated loops terminate; the rest
/// exercise the fuel path.
pub fn random_prog(rng: &mut SplitMix64, depth: usize, stmts: usize, shape: &ProgShape) -> Prog {
    let mut seq = Vec::with_capacity(stmts + 1);
    for _ in 0..stmts {
        let v = rng.gen_usize(shape.vars.max(1));
        let looping = depth > 0 && rng.gen_usize(4) == 0;
        if looping {
            // Short-circuit keeps the stream identical when the bias
            // is off: no draw happens unless `union_bias` is set.
            let body = if shape.union_bias && rng.gen_usize(2) == 0 {
                Box::new(union_body(rng, shape, v))
            } else {
                let inner_stmts = 1 + rng.gen_usize(2);
                let inner = random_prog(rng, depth - 1, inner_stmts, shape);
                let mut body = vec![inner];
                if rng.gen_usize(4) != 0 {
                    body.push(Prog::assign(v, Term::E));
                }
                Box::new(Prog::Seq(body))
            };
            let mut forms: Vec<fn(usize, Box<Prog>) -> Prog> = vec![Prog::WhileEmpty];
            if shape.allow_singleton {
                forms.push(Prog::WhileSingleton);
            }
            if shape.allow_finite {
                forms.push(Prog::WhileFinite);
            }
            seq.push(forms[rng.gen_usize(forms.len())](v, body));
        } else {
            let depth = 1 + rng.gen_usize(3);
            seq.push(Prog::assign(v, random_term(rng, depth, shape)));
        }
    }
    // Y1 usually gets a final value, so programs compute something.
    if rng.gen_usize(4) != 0 {
        let depth = 1 + rng.gen_usize(2);
        seq.push(Prog::assign(0, random_term(rng, depth, shape)));
    }
    Prog::Seq(seq)
}

/// A random tuple of the given rank over `0..window`.
pub fn random_tuple(rng: &mut SplitMix64, rank: usize, window: u64) -> Tuple {
    (0..rank).map(|_| Elem(rng.gen_range(0, window))).collect()
}

/// A batch of `count` random tuples of rank `rank` over `0..window`.
pub fn random_tuples(rng: &mut SplitMix64, count: usize, rank: usize, window: u64) -> Vec<Tuple> {
    (0..count)
        .map(|_| random_tuple(rng, rank, window))
        .collect()
}

// ------------------------------------------------------------------
// Relational-algebra programs (`recdb-ra`, ROADMAP item 3).
// ------------------------------------------------------------------

/// Attribute pool for [`random_ra_schema`]; deliberately small so
/// independently generated operands actually share attribute names
/// (natural joins that join, unions that align).
const RA_ATTRS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Shape knobs for [`random_ra_program`].
#[derive(Clone, Copy, Debug)]
pub struct RaShape {
    /// Maximum expression depth per view/query body.
    pub depth: usize,
    /// Number of named views (`V0`, `V1`, …); each is visible as a
    /// leaf to every later body including the query.
    pub views: usize,
    /// Select-against-constant values are drawn from `0..consts`
    /// (keep ≥ 1, and ≤ the universe size so constants denote).
    pub consts: u64,
    /// Also wrap subexpressions in *bare* complements (outside a
    /// guarding `diff`), so the stream mixes validator-accepted and
    /// `RA05`-rejected programs. Draws **no** RNG when off:
    /// guarded-only streams are unchanged.
    pub free_complement: bool,
}

/// A random named-attribute schema: 2–3 relations of arity 1–3 over
/// `RA_ATTRS`, each declared in *random* column order so that
/// base-relation lowering has to permute leaves into the compiler's
/// sorted-attribute coordinate convention.
pub fn random_ra_schema(rng: &mut SplitMix64) -> RaSchema {
    let names = ["R", "S", "T"];
    let n = 2 + rng.gen_usize(2);
    let mut rels = Vec::new();
    for name in names.iter().take(n) {
        let arity = 1 + rng.gen_usize(3);
        let mut pool: Vec<&str> = RA_ATTRS.to_vec();
        rng.shuffle(&mut pool);
        rels.push((name.to_string(), pool[..arity].to_vec()));
    }
    // Names and per-relation attributes are distinct by construction,
    // so the sanitizing constructor changes nothing here.
    RaSchema::sanitized(rels)
}

/// Leaves visible at a point in the program (base relations plus the
/// views generated so far, each with its **sorted** attribute list)
/// and a counter for fresh attribute names.
struct RaCtx {
    leaves: Vec<(String, Vec<String>)>,
    fresh: usize,
}

impl RaCtx {
    /// A program-unique attribute name outside [`RA_ATTRS`].
    fn fresh_attr(&mut self) -> String {
        self.fresh += 1;
        format!("z{}", self.fresh)
    }
}

/// Renames/projects `e` (attributes `from`, sorted) so its attribute
/// set becomes exactly `to` (sorted, `|to| ≤ |from|`): positionally
/// rename onto `to`, spill the surplus onto fresh names, then project
/// the spill away. Used to align union/difference operands.
fn ra_adapt(e: RaExpr, from: &[String], to: &[String], ctx: &mut RaCtx) -> RaExpr {
    if from == to {
        return e;
    }
    let mut pairs = Vec::new();
    for (i, a) in from.iter().enumerate() {
        if i < to.len() {
            if a != &to[i] {
                pairs.push((a.clone(), to[i].clone()));
            }
        } else {
            pairs.push((a.clone(), ctx.fresh_attr()));
        }
    }
    let e = if pairs.is_empty() { e } else { e.rename(pairs) };
    if from.len() > to.len() {
        e.project(to.to_vec())
    } else {
        e
    }
}

/// A random well-typed expression, returned with its sorted attribute
/// list. Well-typedness is by construction: selects and projections
/// pick from the child's attributes, union/difference operands are
/// [`ra_adapt`]ed onto a common attribute set, and complements are
/// guarded (`e − ¬f`) unless [`RaShape::free_complement`] is on.
fn random_ra_expr(
    rng: &mut SplitMix64,
    depth: usize,
    shape: &RaShape,
    ctx: &mut RaCtx,
) -> (RaExpr, Vec<String>) {
    let (mut e, attrs) = if depth == 0 {
        let (name, attrs) = ctx.leaves[rng.gen_usize(ctx.leaves.len())].clone();
        (rel(name), attrs)
    } else {
        match rng.gen_usize(7) {
            // σ: equality between two attributes or against a constant.
            0 => {
                let (c, attrs) = random_ra_expr(rng, depth - 1, shape, ctx);
                if attrs.is_empty() {
                    (c, attrs)
                } else if rng.gen_bool() {
                    let x = attrs[rng.gen_usize(attrs.len())].clone();
                    let y = attrs[rng.gen_usize(attrs.len())].clone();
                    (c.select_eq(x, y), attrs)
                } else {
                    let x = attrs[rng.gen_usize(attrs.len())].clone();
                    let v = rng.gen_range(0, shape.consts.max(1));
                    (c.select_const(x, v), attrs)
                }
            }
            // π: keep a random (possibly empty — rank 0) subset.
            1 => {
                let (c, attrs) = random_ra_expr(rng, depth - 1, shape, ctx);
                let kept: Vec<String> = attrs.iter().filter(|_| rng.gen_bool()).cloned().collect();
                (c.project(kept.clone()), kept)
            }
            // ρ: rename ≈ a third of the attributes, preferring pool
            // names that can re-join downstream over fresh ones.
            2 => {
                let (c, attrs) = random_ra_expr(rng, depth - 1, shape, ctx);
                let mut occupied: Vec<String> = attrs.clone();
                let mut pairs = Vec::new();
                let mut result = Vec::new();
                for a in &attrs {
                    if rng.gen_usize(3) == 0 {
                        let free: Vec<&&str> = RA_ATTRS
                            .iter()
                            .filter(|p| !occupied.iter().any(|o| o == **p))
                            .collect();
                        let to = if !free.is_empty() && rng.gen_bool() {
                            free[rng.gen_usize(free.len())].to_string()
                        } else {
                            ctx.fresh_attr()
                        };
                        occupied.push(to.clone());
                        pairs.push((a.clone(), to.clone()));
                        result.push(to);
                    } else {
                        result.push(a.clone());
                    }
                }
                if pairs.is_empty() {
                    (c, attrs)
                } else {
                    result.sort();
                    (c.rename(pairs), result)
                }
            }
            // ⋈: natural join; attributes are the sorted union.
            3 => {
                let (l, la) = random_ra_expr(rng, depth - 1, shape, ctx);
                let (r, ra) = random_ra_expr(rng, depth - 1, shape, ctx);
                let mut attrs: Vec<String> = la.iter().chain(ra.iter()).cloned().collect();
                attrs.sort();
                attrs.dedup();
                (l.join(r), attrs)
            }
            // ∪ / −: adapt the wider operand onto the narrower one.
            op @ (4 | 5) => {
                let (l, la) = random_ra_expr(rng, depth - 1, shape, ctx);
                let (r, ra) = random_ra_expr(rng, depth - 1, shape, ctx);
                let (l, r, attrs) = if la.len() >= ra.len() {
                    (ra_adapt(l, &la, &ra, ctx), r, ra)
                } else {
                    let r = ra_adapt(r, &ra, &la, ctx);
                    (l, r, la)
                };
                if op == 4 {
                    (l.union(r), attrs)
                } else {
                    (l.diff(r), attrs)
                }
            }
            // e − ¬f: the guarded complement the validator admits.
            _ => {
                let (l, la) = random_ra_expr(rng, depth - 1, shape, ctx);
                let (r, ra) = random_ra_expr(rng, depth - 1, shape, ctx);
                let (l, r, attrs) = if la.len() >= ra.len() {
                    (ra_adapt(l, &la, &ra, ctx), r, ra)
                } else {
                    let r = ra_adapt(r, &ra, &la, ctx);
                    (l, r, la)
                };
                (l.diff(r.not()), attrs)
            }
        }
    };
    if shape.free_complement && rng.gen_usize(4) == 0 {
        e = e.not();
    }
    (e, attrs)
}

/// A random well-typed RA program over `schema`: [`RaShape::views`]
/// named views, then a query, each a `random_ra_expr`. With
/// `free_complement` off every generated program passes the safety
/// validator (all complements are difference-guarded); with it on the
/// stream mixes accepted and `RA05`-rejected programs.
pub fn random_ra_program(rng: &mut SplitMix64, schema: &RaSchema, shape: &RaShape) -> RaProgram {
    let mut ctx = RaCtx {
        leaves: schema
            .rels()
            .iter()
            .map(|(n, a)| {
                let mut sorted = a.clone();
                sorted.sort();
                (n.clone(), sorted)
            })
            .collect(),
        fresh: 0,
    };
    let mut views = Vec::new();
    for i in 0..shape.views {
        let (body, attrs) = random_ra_expr(rng, shape.depth, shape, &mut ctx);
        let name = format!("V{i}");
        ctx.leaves.push((name.clone(), attrs));
        views.push((name, body));
    }
    let (query, _) = random_ra_expr(rng, shape.depth, shape, &mut ctx);
    let mut p = RaProgram::new(query);
    for (name, body) in views {
        p = p.with_view(name, body);
    }
    p
}

pub use recdb_qlhs::Permutation;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_inverts() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let p = Permutation::random(&mut rng, 10);
        for v in 0..10 {
            assert_eq!(p.apply_inv(p.apply(Elem(v))), Elem(v));
        }
        // Identity outside the window.
        assert_eq!(p.apply(Elem(99)), Elem(99));
        assert_eq!(p.apply_inv(Elem(99)), Elem(99));
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = SplitMix64::seed_from_u64(5);
        let mut b = SplitMix64::seed_from_u64(5);
        let da = random_graph_db(&mut a, "a");
        let dbb = random_graph_db(&mut b, "b");
        for x in 0..WINDOW {
            for y in 0..WINDOW {
                let t = [Elem(x), Elem(y)];
                assert_eq!(da.query(0, &t), dbb.query(0, &t));
            }
        }
        assert_eq!(
            random_tuples(&mut a, 4, 2, WINDOW),
            random_tuples(&mut b, 4, 2, WINDOW)
        );
    }

    #[test]
    fn ra_generator_yields_well_typed_guarded_programs() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let shape = RaShape {
            depth: 3,
            views: 2,
            consts: 4,
            free_complement: false,
        };
        for _ in 0..50 {
            let schema = random_ra_schema(&mut rng);
            let p = random_ra_program(&mut rng, &schema, &shape);
            recdb_ra::typecheck(&p, &schema).expect("well-typed by construction");
            recdb_ra::validate(&p, &schema).expect("guarded streams are validator-accepted");
        }
    }

    #[test]
    fn ra_free_complement_mixes_accept_and_reject() {
        // Alternate guarded and free rounds, the way `RA-SAFETY`
        // consumes the generator: guarded rounds are accepted by
        // construction, free rounds are overwhelmingly rejected.
        let mut rng = SplitMix64::seed_from_u64(12);
        let (mut accepted, mut rejected) = (0, 0);
        for round in 0..60u32 {
            let shape = RaShape {
                depth: 3,
                views: 1,
                consts: 4,
                free_complement: round.is_multiple_of(2),
            };
            let schema = random_ra_schema(&mut rng);
            let p = random_ra_program(&mut rng, &schema, &shape);
            recdb_ra::typecheck(&p, &schema).expect("still well-typed");
            match recdb_ra::validate(&p, &schema) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    assert_eq!(e.code, "RA05");
                    rejected += 1;
                }
            }
        }
        assert!(accepted >= 20 && rejected >= 10, "{accepted}/{rejected}");
    }

    #[test]
    fn fcf_generator_shapes() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let fcf = random_fcf(&mut rng, "f");
        assert_eq!(fcf.relations().len(), 2);
        assert!(matches!(fcf.relations()[0], FcfRel::Finite(_)));
        assert!(matches!(fcf.relations()[1], FcfRel::CoFinite(_)));
    }
}
