//! Relational-algebra expressions over named attributes.
//!
//! An [`RaExpr`] is a classical RA tree — base relation, selection,
//! projection, rename, natural join, union, difference, complement —
//! plus references to *named views*; an [`RaProgram`] is a list of
//! view definitions followed by a query expression. Attributes are
//! names, not positions: the typechecker ([`crate::schema::typecheck`]) assigns
//! every subexpression its attribute set, and the compiler
//! ([`crate::compile`]) maps attributes to tuple coordinates via the
//! canonical sorted order (DESIGN.md §10).
//!
//! Complement (`not(e)`) is a legal *shape* — it is what makes
//! guarded-negation joins and differences expressible — but a bare
//! complement never survives the safety validator
//! ([`crate::safety`]): its value depends on the ambient domain, so it
//! is rejected at validation, mirroring codd's `Full`-expression
//! rejection.

/// A selection predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pred {
    /// `#a = #b`: the two named attributes are equal.
    AttrEqAttr(String, String),
    /// `#a = c`: the named attribute equals the domain constant `c`.
    AttrEqConst(String, u64),
}

/// A relational-algebra expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaExpr {
    /// A base relation or an earlier view, by name.
    Name(String),
    /// `select <pred> (e)` — child at path index 0.
    Select(Pred, Box<RaExpr>),
    /// `project #a, #b (e)` — keep the listed attributes.
    Project(Vec<String>, Box<RaExpr>),
    /// `rename #a -> #x, … (e)` — rename attributes.
    Rename(Vec<(String, String)>, Box<RaExpr>),
    /// Natural join: children at path indices 0 and 1.
    Join(Box<RaExpr>, Box<RaExpr>),
    /// Union (operands must share their attribute set).
    Union(Box<RaExpr>, Box<RaExpr>),
    /// Difference (operands must share their attribute set).
    Diff(Box<RaExpr>, Box<RaExpr>),
    /// Complement within `adom^k` — child at path index 0.
    Not(Box<RaExpr>),
}

/// A base relation or view reference. Entry point of the builder API:
///
/// ```
/// use recdb_ra::ast::rel;
/// let q = rel("R").join(rel("S")).project(["a", "c"]);
/// ```
pub fn rel(name: impl Into<String>) -> RaExpr {
    RaExpr::Name(name.into())
}

impl RaExpr {
    /// `select #a = #b (self)`.
    pub fn select_eq(self, a: impl Into<String>, b: impl Into<String>) -> RaExpr {
        RaExpr::Select(Pred::AttrEqAttr(a.into(), b.into()), Box::new(self))
    }

    /// `select #a = c (self)`.
    pub fn select_const(self, a: impl Into<String>, c: u64) -> RaExpr {
        RaExpr::Select(Pred::AttrEqConst(a.into(), c), Box::new(self))
    }

    /// `project #a, … (self)`.
    pub fn project<I, S>(self, attrs: I) -> RaExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        RaExpr::Project(attrs.into_iter().map(Into::into).collect(), Box::new(self))
    }

    /// `rename #a -> #x, … (self)`.
    pub fn rename<I, S, T>(self, pairs: I) -> RaExpr
    where
        I: IntoIterator<Item = (S, T)>,
        S: Into<String>,
        T: Into<String>,
    {
        RaExpr::Rename(
            pairs
                .into_iter()
                .map(|(a, b)| (a.into(), b.into()))
                .collect(),
            Box::new(self),
        )
    }

    /// Natural join.
    pub fn join(self, other: RaExpr) -> RaExpr {
        RaExpr::Join(Box::new(self), Box::new(other))
    }

    /// Union.
    pub fn union(self, other: RaExpr) -> RaExpr {
        RaExpr::Union(Box::new(self), Box::new(other))
    }

    /// Difference.
    pub fn diff(self, other: RaExpr) -> RaExpr {
        RaExpr::Diff(Box::new(self), Box::new(other))
    }

    /// Complement within the active domain.
    #[allow(clippy::should_implement_trait)] // deliberate builder name mirroring `not (e)`
    pub fn not(self) -> RaExpr {
        RaExpr::Not(Box::new(self))
    }

    /// The children of this node, in path-index order.
    pub fn children(&self) -> Vec<&RaExpr> {
        match self {
            RaExpr::Name(_) => Vec::new(),
            RaExpr::Select(_, e)
            | RaExpr::Project(_, e)
            | RaExpr::Rename(_, e)
            | RaExpr::Not(e) => vec![e],
            RaExpr::Join(a, b) | RaExpr::Union(a, b) | RaExpr::Diff(a, b) => {
                vec![a, b]
            }
        }
    }

    /// Number of AST nodes (for size metrics).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }
}

/// A program: named views in definition order, then the query.
///
/// View `i` is addressed by [`NodePath`](recdb_qlhs::ast::NodePath)
/// prefix `[i]`; the query by `[views.len()]`. Within an expression,
/// each step appends the child index from [`RaExpr::children`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaProgram {
    /// `(name, body)` pairs, earlier views visible to later ones.
    pub views: Vec<(String, RaExpr)>,
    /// The query expression.
    pub query: RaExpr,
}

impl RaProgram {
    /// A program that is just a query.
    pub fn new(query: RaExpr) -> Self {
        RaProgram {
            views: Vec::new(),
            query,
        }
    }

    /// Prepends nothing, appends a view (builder style).
    pub fn with_view(mut self, name: impl Into<String>, body: RaExpr) -> Self {
        self.views.push((name.into(), body));
        self
    }

    /// Total AST node count across views and query.
    pub fn node_count(&self) -> usize {
        self.views
            .iter()
            .map(|(_, e)| e.node_count())
            .sum::<usize>()
            + self.query.node_count()
    }
}

impl std::fmt::Display for Pred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pred::AttrEqAttr(a, b) => write!(f, "#{a} = #{b}"),
            Pred::AttrEqConst(a, c) => write!(f, "#{a} = {c}"),
        }
    }
}

impl std::fmt::Display for RaExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_prec(f)
    }
}

impl RaExpr {
    fn fmt_prec(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaExpr::Name(n) => write!(f, "{n}"),
            RaExpr::Select(p, e) => {
                write!(f, "select {p} (")?;
                e.fmt_prec(f)?;
                write!(f, ")")
            }
            RaExpr::Project(attrs, e) => {
                write!(f, "project ")?;
                for (i, a) in attrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "#{a}")?;
                }
                write!(f, " (")?;
                e.fmt_prec(f)?;
                write!(f, ")")
            }
            RaExpr::Rename(pairs, e) => {
                write!(f, "rename ")?;
                for (i, (a, b)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "#{a} -> #{b}")?;
                }
                write!(f, " (")?;
                e.fmt_prec(f)?;
                write!(f, ")")
            }
            RaExpr::Join(a, b) => Self::fmt_binary(f, "join", a, b),
            RaExpr::Union(a, b) => Self::fmt_binary(f, "union", a, b),
            RaExpr::Diff(a, b) => Self::fmt_binary(f, "diff", a, b),
            RaExpr::Not(e) => {
                write!(f, "not (")?;
                e.fmt_prec(f)?;
                write!(f, ")")
            }
        }
    }

    fn fmt_binary(
        f: &mut std::fmt::Formatter<'_>,
        op: &str,
        a: &RaExpr,
        b: &RaExpr,
    ) -> std::fmt::Result {
        write!(f, "(")?;
        a.fmt_prec(f)?;
        write!(f, " {op} ")?;
        b.fmt_prec(f)?;
        write!(f, ")")
    }
}

impl std::fmt::Display for RaProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, body) in &self.views {
            writeln!(f, "{name} := {body};")?;
        }
        write!(f, "{}", self.query)
    }
}
