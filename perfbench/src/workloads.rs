//! Request generators for the three serve workloads, and the
//! independent answers each response is checked against.
//!
//! Every stream is a pure function of `(seed, stream, client)`: the
//! same seed gives the same requests in the same order. Request mixes
//! are dealt from shuffled decks with exact class counts, so the share
//! of each class in a run does not drift with the seed.

use recdb_core::SplitMix64;
use recdb_qlhs::{classify_loop, parse_program, Prog, Term};
use std::collections::{HashMap, VecDeque};

/// A serve workload: hands each client thread its request stream.
pub trait Workload: Sync {
    /// The request stream of one client thread.
    fn client_stream(&self, seed: u64, stream: u64, client: usize) -> Box<dyn ReqStream + '_>;
}

/// An endless, deterministic request stream.
pub trait ReqStream {
    /// The next request.
    fn next_req(&mut self) -> Req;
}

/// One generated request and what its response must be.
pub struct Req {
    /// Endpoint path.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
    /// The expected response.
    pub expect: Expect,
    /// The program holds a semi-naive-eligible `while empty` loop.
    pub eligible: bool,
    /// Identity of the HS database, for HS-backed requests.
    pub hs_key: Option<String>,
}

/// The expected response of one request.
#[derive(Clone, Debug)]
pub enum Expect {
    /// This status, and the body contains this fragment.
    Status(u16, &'static str),
    /// Status 200 with exactly this `result` JSON (and, when given,
    /// this iteration count).
    Result(String, Option<u64>),
    /// Status 200 with the `result` a library `HsInterp` run on a
    /// freshly built database gives (checked after the timed phase).
    Reference(RefQuery),
}

/// A QLhs query against an HS database, for the library reference.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RefQuery {
    /// The database.
    pub db: RefDb,
    /// Program source.
    pub program: String,
}

/// An HS database the reference can rebuild from scratch.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RefDb {
    /// A unary-cells database; `None` is the infinite cell.
    Cells(Vec<Option<Vec<u64>>>),
    /// A catalog family by name.
    Family(&'static str),
}

/// The stream tag of the warm-up requests.
pub const WARM_STREAM: u64 = 1;

/// A per-client seed.
pub fn client_seed(seed: u64, stream: u64, client: usize) -> u64 {
    let mut r = SplitMix64::seed_from_u64(seed);
    let a = r.next_u64();
    a ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (client as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// Checks a response against its expectation. Returns the verdict
/// (`None` when the check is deferred to the library reference) and
/// the deferred work.
pub fn check(expect: &Expect, status: u16, body: &str) -> (Option<bool>, Option<(Expect, String)>) {
    match expect {
        Expect::Status(want, fragment) => (Some(status == *want && body.contains(fragment)), None),
        Expect::Result(result, iterations) => {
            let ok = status == 200
                && result_of(body) == Some(result.as_str())
                && iterations.is_none_or(|n| iterations_of(body) == Some(n));
            (Some(ok), None)
        }
        Expect::Reference(_) => match result_of(body) {
            Some(r) if status == 200 => (None, Some((expect.clone(), r.to_string()))),
            _ => (Some(false), None),
        },
    }
}

/// The `result` member of a 200 body (the server renders it last
/// before `"status":"ok"`).
pub fn result_of(body: &str) -> Option<&str> {
    let at = body.find("\"result\":")?;
    body[at + 9..].strip_suffix(",\"status\":\"ok\"}")
}

/// The `iterations` member of a body.
pub fn iterations_of(body: &str) -> Option<u64> {
    let at = body.find("\"iterations\":")?;
    let digits: String = body[at + 13..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Renders a relation as `{"rank":r,"tuples":[…]}`, tuples in
/// lexicographic order — the benchmark's own renderer.
pub fn render_rel(rank: usize, mut tuples: Vec<Vec<u64>>) -> String {
    tuples.sort();
    tuples.dedup();
    let items: Vec<String> = tuples
        .iter()
        .map(|t| {
            let parts: Vec<String> = t.iter().map(u64::to_string).collect();
            format!("[{}]", parts.join(","))
        })
        .collect();
    format!("{{\"rank\":{rank},\"tuples\":[{}]}}", items.join(","))
}

/// Does `p` hold a `while empty` loop the semi-naive engine accepts?
pub fn has_eligible_loop(p: &Prog) -> bool {
    match p {
        Prog::Assign(..) => false,
        Prog::Seq(ps) => ps.iter().any(has_eligible_loop),
        Prog::WhileEmpty(_, body) => classify_loop(body).is_ok() || has_eligible_loop(body),
        Prog::WhileSingleton(_, body) | Prog::WhileFinite(_, body) => has_eligible_loop(body),
    }
}

/// Memoized [`has_eligible_loop`] over program sources.
#[derive(Default)]
struct Eligibility(HashMap<String, bool>);

impl Eligibility {
    fn of(&mut self, src: &str) -> bool {
        if let Some(&e) = self.0.get(src) {
            return e;
        }
        let e = parse_program(src).is_ok_and(|p| has_eligible_loop(&p));
        self.0.insert(src.to_string(), e);
        e
    }
}

/// Deals items from shuffled decks holding each item `weight` times.
struct Deck<T: Copy> {
    cards: Vec<T>,
    hand: VecDeque<T>,
}

impl<T: Copy> Deck<T> {
    fn new(weights: &[(T, usize)]) -> Self {
        let cards = weights
            .iter()
            .flat_map(|&(t, w)| std::iter::repeat_n(t, w))
            .collect();
        Deck {
            cards,
            hand: VecDeque::new(),
        }
    }

    fn deal(&mut self, rng: &mut SplitMix64) -> T {
        if self.hand.is_empty() {
            let mut cards = self.cards.clone();
            rng.shuffle(&mut cards);
            self.hand.extend(cards);
        }
        self.hand.pop_front().expect("a deck is never empty")
    }
}

fn finite_body(
    program: &str,
    universe: &[u64],
    relations: &[(usize, &[Vec<u64>])],
    fuel: Option<u64>,
) -> String {
    let u: Vec<String> = universe.iter().map(u64::to_string).collect();
    let rels: Vec<String> = relations
        .iter()
        .map(|(arity, tuples)| {
            let ts: Vec<String> = tuples
                .iter()
                .map(|t| {
                    let parts: Vec<String> = t.iter().map(u64::to_string).collect();
                    format!("[{}]", parts.join(","))
                })
                .collect();
            format!("{{\"arity\":{arity},\"tuples\":[{}]}}", ts.join(","))
        })
        .collect();
    let fuel = fuel.map_or(String::new(), |f| format!(",\"fuel\":{f}"));
    format!(
        "{{\"program\":\"{program}\",\"db\":{{\"kind\":\"finite\",\"universe\":[{}],\"relations\":[{}]}}{fuel}}}",
        u.join(","),
        rels.join(",")
    )
}

fn shuffled(rng: &mut SplitMix64, n: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    rng.shuffle(&mut v);
    v
}

// ---------------------------------------------------------------- small_mix

/// The load generator's eleven request classes over 5-element slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    ExactOrbit,
    ExactFresh,
    FuelOk,
    RejectDiverge,
    RejectUnsafe,
    Family,
    Fcf,
    FuelExhaust,
    Heavy,
    RaExact,
    RaReject,
}

/// Class weights, as in `loadgen`.
const MIX: [(Class, usize); 11] = [
    (Class::ExactOrbit, 25),
    (Class::ExactFresh, 15),
    (Class::FuelOk, 15),
    (Class::RejectDiverge, 10),
    (Class::RejectUnsafe, 5),
    (Class::Family, 10),
    (Class::Fcf, 5),
    (Class::FuelExhaust, 10),
    (Class::Heavy, 5),
    (Class::RaExact, 7),
    (Class::RaReject, 3),
];

/// `small_mix`: cheap requests, so the front end, admission, VM
/// compile+verify and the cache dominate.
pub struct SmallMix;

struct SmallMixStream {
    rng: SplitMix64,
    deck: Deck<Class>,
    eligible: Eligibility,
}

impl Workload for SmallMix {
    fn client_stream(&self, seed: u64, stream: u64, client: usize) -> Box<dyn ReqStream + '_> {
        Box::new(SmallMixStream {
            rng: SplitMix64::seed_from_u64(client_seed(seed, stream, client)),
            deck: Deck::new(&MIX),
            eligible: Eligibility::default(),
        })
    }
}

const PATH5: [u64; 5] = [0, 1, 2, 3, 4];

impl ReqStream for SmallMixStream {
    fn next_req(&mut self) -> Req {
        let class = self.deck.deal(&mut self.rng);
        let rng = &mut self.rng;
        let (path, body, expect) = match class {
            Class::ExactOrbit => {
                // One fixed directed 5-path, randomly relabeled: every
                // request lies in one ≅-orbit, so all but the first
                // hit the cache, and a hit must come back transported
                // to this request's own labels.
                let p = shuffled(rng, 5);
                let edges: Vec<Vec<u64>> = (0..4).map(|i| vec![p[i], p[i + 1]]).collect();
                let body = finite_body("Y1 := R1;", &PATH5, &[(2, &edges)], None);
                (
                    "/v1/query",
                    body,
                    Expect::Result(render_rel(2, edges), Some(0)),
                )
            }
            Class::ExactFresh => {
                let mut edges = Vec::new();
                for a in 0..5u64 {
                    for b in 0..5u64 {
                        if a != b && rng.gen_bool() && rng.gen_bool() {
                            edges.push(vec![a, b]);
                        }
                    }
                }
                let body = finite_body("Y1 := R1;", &PATH5, &[(2, &edges)], None);
                (
                    "/v1/query",
                    body,
                    Expect::Result(render_rel(2, edges), Some(0)),
                )
            }
            Class::FuelOk => {
                // One loop round: Y3 takes R1's (non-empty) value; Y1
                // is never assigned, so the answer is the empty
                // rank-0 relation.
                let edges = [vec![0, 1], vec![1, 2], vec![2, 3]];
                let body = finite_body(
                    "Y2 := R1; while empty(Y3) { Y3 := Y2; }",
                    &PATH5,
                    &[(2, &edges)],
                    Some(10_000),
                );
                (
                    "/v1/query",
                    body,
                    Expect::Result(render_rel(0, vec![]), Some(1)),
                )
            }
            Class::FuelExhaust | Class::Heavy => {
                // `R2` is empty at run time, so the loop never exits
                // and the fuel budget stops it.
                let (edges, fuel): (&[Vec<u64>], u64) = if class == Class::Heavy {
                    (&[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]], 60_000)
                } else {
                    (&[vec![0, 1], vec![1, 2]], 300)
                };
                let body = finite_body(
                    "while empty(Y3) { Y3 := R2; }",
                    &PATH5,
                    &[(2, edges), (2, &[])],
                    Some(fuel),
                );
                (
                    "/v1/query",
                    body,
                    Expect::Status(408, "\"reason\":\"fuel-exhausted\""),
                )
            }
            Class::RejectDiverge => {
                let body = finite_body(
                    "while empty(Y2) { Y3 := E; }",
                    &PATH5,
                    &[(2, &[vec![0, 1]])],
                    None,
                );
                (
                    "/v1/query",
                    body,
                    Expect::Status(422, "\"reasons\":[\"diverges\"]"),
                )
            }
            Class::RejectUnsafe => {
                let body = finite_body(
                    "while single(Y1) { Y1 := E; }",
                    &PATH5,
                    &[(2, &[vec![0, 1]])],
                    None,
                );
                (
                    "/v1/query",
                    body,
                    Expect::Status(422, "\"status\":\"rejected\""),
                )
            }
            Class::Family => (
                "/v1/query",
                r#"{"program":"Y1 := R1;","db":{"kind":"family","name":"clique"}}"#.to_string(),
                Expect::Reference(RefQuery {
                    db: RefDb::Family("clique"),
                    program: "Y1 := R1;".to_string(),
                }),
            ),
            Class::Fcf => {
                let k = rng.gen_usize(5);
                let body = format!(
                    r#"{{"program":"Y1 := R1;","db":{{"kind":"fcf","relations":[{{"cofinite":{{"arity":1,"exceptions":[[{k}]]}}}}]}}}}"#
                );
                let result = format!("{{\"finite\":false,\"rank\":1,\"tuples\":[[{k}]]}}");
                ("/v1/query", body, Expect::Result(result, Some(0)))
            }
            Class::RaExact => {
                // A directed 4-path on 1..=4, relabeled; 0 is isolated,
                // so `select #x = 0` of the symmetric closure is empty.
                let p = shuffled(rng, 4);
                let edges: Vec<String> = (0..3)
                    .map(|i| format!("[{},{}]", p[i] + 1, p[i + 1] + 1))
                    .collect();
                let body = ra_body(
                    "select #x = 0 (E union rename #x -> #y, #y -> #x (E))",
                    &edges.join(","),
                );
                (
                    "/v1/ra",
                    body,
                    Expect::Result(render_rel(2, vec![]), Some(0)),
                )
            }
            Class::RaReject => (
                "/v1/ra",
                ra_body("E union not (E)", "[0,1]"),
                Expect::Status(422, "\"reasons\":[\"ra-unsafe\"]"),
            ),
        };
        let eligible = match class {
            Class::RaExact | Class::RaReject | Class::Family | Class::Fcf => false,
            _ => {
                let src = body
                    .split("\"program\":\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .unwrap_or("");
                self.eligible.of(src)
            }
        };
        Req {
            path,
            body,
            expect,
            eligible,
            hs_key: (class == Class::Family).then(|| "family:clique".to_string()),
        }
    }
}

fn ra_body(query: &str, edges: &str) -> String {
    format!(
        r#"{{"query":"{query}","schema":"E(x, y)","db":{{"kind":"finite","universe":[0,1,2,3,4],"relations":[{{"arity":2,"tuples":[{edges}]}}]}}}}"#
    )
}

// ---------------------------------------------------------- recursive_reach

/// The graph shapes of `recursive_reach`, in rotation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Path(u64),
    Grid(u64),
}

const SHAPES: [Shape; 7] = [
    Shape::Path(64),
    Shape::Grid(8),
    Shape::Grid(10),
    Shape::Grid(12),
    Shape::Grid(14),
    Shape::Grid(16),
    Shape::Path(128),
];

/// Fuel for reachability requests (the server's default maximum); the
/// deepest shape needs far less.
pub const REACH_FUEL: u64 = 10_000_000;

/// `recursive_reach`: single-source reachability whose loop runs to
/// the graph's full diameter.
pub struct RecursiveReach;

/// Each client walks the shapes in a fixed rotation, the two clients
/// half a rotation apart, so every seed runs the same mix with the same
/// pairs of concurrent shapes; the seed relabels the graphs. Warm-up
/// sends the smallest shape only.
struct ReachStream {
    rng: SplitMix64,
    next: usize,
    warm: bool,
}

impl Workload for RecursiveReach {
    fn client_stream(&self, seed: u64, stream: u64, client: usize) -> Box<dyn ReqStream + '_> {
        Box::new(ReachStream {
            rng: SplitMix64::seed_from_u64(client_seed(seed, stream, client)),
            next: client * SHAPES.len() / 2,
            warm: stream == WARM_STREAM,
        })
    }
}

/// A reachability instance: vertex count, undirected edges, source and
/// target (already relabeled).
pub struct ReachGraph {
    /// Vertices are `0..n`.
    pub n: u64,
    /// Undirected edges.
    pub edges: Vec<(u64, u64)>,
    /// Loop source.
    pub s: u64,
    /// Loop target.
    pub t: u64,
}

impl ReachGraph {
    fn draw(shape: Shape, rng: &mut SplitMix64) -> ReachGraph {
        let (n, edges, s, t) = match shape {
            Shape::Path(n) => (
                n,
                (0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
                0,
                n - 1,
            ),
            Shape::Grid(k) => {
                let mut e = Vec::new();
                for r in 0..k {
                    for c in 0..k {
                        let v = r * k + c;
                        if c + 1 < k {
                            e.push((v, v + 1));
                        }
                        if r + 1 < k {
                            e.push((v, v + k));
                        }
                    }
                }
                (k * k, e, 0, k * k - 1)
            }
        };
        let p = shuffled(rng, n);
        ReachGraph {
            n,
            edges: edges
                .iter()
                .map(|&(a, b)| (p[a as usize], p[b as usize]))
                .collect(),
            s: p[s as usize],
            t: p[t as usize],
        }
    }

    /// The E7 fixpoint program (`examples/bench_refine.rs`), plus
    /// `Y1 := Y2` so the reached set is the answer: `Y2` grows by one
    /// BFS layer per round until it holds `t`.
    pub fn prog(&self) -> Prog {
        let union = |v: usize, x: Term| Prog::assign(v, Term::Var(v).union(x));
        let succ = Term::Var(1).up().and(Term::Rel(0)).down();
        Prog::seq([
            Prog::assign(1, Term::Const(self.s)),
            Prog::assign(2, Term::Const(self.s).and(Term::Const(self.t))),
            Prog::WhileEmpty(
                2,
                Box::new(Prog::seq([
                    union(1, succ),
                    union(2, Term::Var(1).and(Term::Const(self.t))),
                ])),
            ),
            Prog::assign(0, Term::Var(1)),
        ])
    }

    /// BFS from `s`: the vertices within `dist(s, t)`, and that
    /// distance (the loop's round count).
    pub fn reference(&self) -> (Vec<u64>, u64) {
        let n = self.n as usize;
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b as usize);
            adj[b as usize].push(a as usize);
        }
        let mut dist = vec![u64::MAX; n];
        let mut queue = VecDeque::from([self.s as usize]);
        dist[self.s as usize] = 0;
        while let Some(v) = queue.pop_front() {
            for &w in &adj[v] {
                if dist[w] == u64::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        let d = dist[self.t as usize];
        let ball = (0..n).filter(|&v| dist[v] <= d).map(|v| v as u64).collect();
        (ball, d)
    }

    /// The `/v1/query` body for `prog` (edges stored in both
    /// directions).
    pub fn body(&self, prog: &Prog) -> String {
        let universe: Vec<u64> = (0..self.n).collect();
        let mut tuples: Vec<Vec<u64>> = Vec::with_capacity(self.edges.len() * 2);
        for &(a, b) in &self.edges {
            tuples.push(vec![a, b]);
            tuples.push(vec![b, a]);
        }
        let program = prog.to_string().replace('\n', " ");
        finite_body(program.trim(), &universe, &[(2, &tuples)], Some(REACH_FUEL))
    }
}

impl ReqStream for ReachStream {
    fn next_req(&mut self) -> Req {
        let shape = if self.warm {
            SHAPES[0]
        } else {
            SHAPES[self.next % SHAPES.len()]
        };
        self.next += 1;
        let g = ReachGraph::draw(shape, &mut self.rng);
        let (ball, d) = g.reference();
        let result = render_rel(1, ball.into_iter().map(|v| vec![v]).collect());
        let prog = g.prog();
        Req {
            path: "/v1/query",
            body: g.body(&prog),
            expect: Expect::Result(result, Some(d)),
            eligible: has_eligible_loop(&prog),
            hs_key: None,
        }
    }
}

// ----------------------------------------------------------------- hs_cells

/// QLhs queries of rank 1 to 3 over unary-cells databases.
pub const HS_QUERIES: [&str; 6] = [
    "Y1 := !R1;",
    "Y1 := (up(R1) & !E);",
    "Y1 := (up(R1) & swap(up(R2)));",
    "Y1 := (up((up(R1) & !E)) & !up(E));",
    "Y1 := (((up((up(R1) & swap(up(R2)))) & !up(E)) & !swap(up(E))));",
    "Y1 := !up(!up(R1));",
];

/// Zipf exponent of the database-shape draw.
const ZIPF_S: f64 = 1.0;

/// `hs_cells`: cold `HsInterp` tree building against shard and cache
/// reuse, over a shape pool larger than the server's HS registry.
pub struct HsCells {
    /// Each pool entry's finite cells (labels drawn from the seed); an
    /// infinite cell follows them.
    pool: Vec<Vec<Vec<u64>>>,
    /// Cumulative Zipf weights over the pool.
    cdf: Vec<f64>,
}

impl HsCells {
    /// The pool for `seed`: every multiset of 2–4 cell sizes from
    /// 1..=4, in ascending and (where different) descending order —
    /// 118 shapes, in a fixed popularity order.
    pub fn new(seed: u64) -> HsCells {
        let mut shapes: Vec<Vec<usize>> = Vec::new();
        fn multisets(len: usize, min: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if cur.len() == len {
                out.push(cur.clone());
                return;
            }
            for s in min..=4 {
                cur.push(s);
                multisets(len, s, cur, out);
                cur.pop();
            }
        }
        for len in 2..=4 {
            let mut ms = Vec::new();
            multisets(len, 1, &mut Vec::new(), &mut ms);
            for m in ms {
                let rev: Vec<usize> = m.iter().rev().copied().collect();
                if rev != m {
                    shapes.push(rev);
                }
                shapes.push(m);
            }
        }
        // The popularity order is fixed (not seeded), so every seed
        // draws the same mix of shape costs.
        SplitMix64::seed_from_u64(0x00c0_ffee).shuffle(&mut shapes);
        let mut rng = SplitMix64::seed_from_u64(client_seed(seed, 0, usize::MAX >> 1));
        let pool = shapes
            .iter()
            .map(|sizes| {
                let labels = shuffled(&mut rng, 16);
                let mut at = 0;
                sizes
                    .iter()
                    .map(|&k| {
                        let mut cell: Vec<u64> = labels[at..at + k].to_vec();
                        cell.sort_unstable();
                        at += k;
                        cell
                    })
                    .collect()
            })
            .collect::<Vec<Vec<Vec<u64>>>>();
        let weights: Vec<f64> = (1..=pool.len()).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        HsCells { pool, cdf }
    }
}

/// Cards in one `hs_cells` deck.
const HS_DECK: usize = 200;

/// Each client deals `(shape, query)` cards from a deck with fixed
/// contents: card `k` takes the Zipf quantile `(k + ½) / HS_DECK` for
/// its shape and query `k mod 6`. Every seed therefore draws the same
/// multiset of requests, shuffled, over freshly labeled cells. Warm-up
/// sends the rank-1 query on the most popular shape only.
struct HsStream<'a> {
    wl: &'a HsCells,
    rng: SplitMix64,
    hand: Vec<(usize, usize)>,
    warm: bool,
}

impl Workload for HsCells {
    fn client_stream(&self, seed: u64, stream: u64, client: usize) -> Box<dyn ReqStream + '_> {
        Box::new(HsStream {
            wl: self,
            rng: SplitMix64::seed_from_u64(client_seed(seed, stream, client)),
            hand: Vec::new(),
            warm: stream == WARM_STREAM,
        })
    }
}

impl ReqStream for HsStream<'_> {
    fn next_req(&mut self) -> Req {
        if self.warm {
            self.hand = vec![(0, 0)];
        } else if self.hand.is_empty() {
            self.hand = (0..HS_DECK)
                .map(|k| {
                    let u = (k as f64 + 0.5) / HS_DECK as f64;
                    let shape = self
                        .wl
                        .cdf
                        .partition_point(|&c| c < u)
                        .min(self.wl.pool.len() - 1);
                    (shape, k % HS_QUERIES.len())
                })
                .collect();
            self.rng.shuffle(&mut self.hand);
        }
        let (shape, query) = self.hand.pop().expect("a dealt deck is not empty");
        let program = HS_QUERIES[query];
        let cells = &self.wl.pool[shape];
        let mut parts: Vec<String> = cells
            .iter()
            .map(|c| {
                let vs: Vec<String> = c.iter().map(u64::to_string).collect();
                format!("[{}]", vs.join(","))
            })
            .collect();
        parts.push("\"inf\"".to_string());
        let db = format!("{{\"kind\":\"cells\",\"cells\":[{}]}}", parts.join(","));
        let mut ref_cells: Vec<Option<Vec<u64>>> = cells.iter().cloned().map(Some).collect();
        ref_cells.push(None);
        Req {
            path: "/v1/query",
            body: format!("{{\"program\":\"{program}\",\"db\":{db}}}"),
            expect: Expect::Reference(RefQuery {
                db: RefDb::Cells(ref_cells),
                program: program.to_string(),
            }),
            eligible: false,
            hs_key: Some(db),
        }
    }
}
