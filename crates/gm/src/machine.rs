//! Generic machines over hs-r-dbs — GMhs (§5, after \[AV\]).
//!
//! A GMhs is a set of synchronously-running *unit* machines, each with
//! a finite-state control, a tape over the dual alphabet (work symbols
//! and domain elements), **two heads**, and a relational store. The §5
//! operations are all here:
//!
//! * transitions depend on the state, the scanned cell's class, the
//!   equality of the element cells under the two heads (test 3), and
//!   the oracle answer to "is u ≅_B v?" for the tuples at the heads
//!   (test 4);
//! * actions move heads, write work symbols, **load** a relation from
//!   the store or the offspring of the current tuple from `T_B`
//!   (spawning one copy per loaded tuple), and **store** a
//!   representative equivalent to the current tuple;
//! * units that simultaneously reach the same state, tape, and head
//!   positions *collapse* into one unit whose store is the union of
//!   their stores;
//! * a successful computation ends with a single unit in the halt
//!   state with an empty tape.

use recdb_core::{Elem, Fuel, FuelError, Tuple};
use recdb_hsdb::HsDatabase;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// A control state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct State(pub u32);

/// A tape cell.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum GmCell {
    /// Blank.
    Blank,
    /// A work symbol (finite alphabet).
    Sym(u16),
    /// A domain element.
    Elem(Elem),
}

/// Which head an action refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Head {
    /// The first (primary) head.
    First,
    /// The second head.
    Second,
}

/// The action a state performs (one action per state keeps the machine
/// description readable while retaining full §5 power).
#[derive(Clone, Debug)]
pub enum GmAction {
    /// Move a head by ±1 (clamped at 0) and continue.
    Move(Head, i32, State),
    /// Write a work symbol under the first head.
    WriteSym(u16, State),
    /// Blank the cell under the first head.
    WriteBlank(State),
    /// Branch on the class of the cell under the first head.
    BranchClass {
        /// Target when scanning a blank.
        blank: State,
        /// Targets for specific work symbols.
        syms: Vec<(u16, State)>,
        /// Target for any other work symbol.
        sym_other: State,
        /// Target when scanning a domain element.
        elem: State,
    },
    /// Test 3: are the element cells under the two heads equal
    /// elements? (Reject-branch also taken if either cell is not an
    /// element.)
    BranchEq {
        /// Equal elements.
        yes: State,
        /// Unequal or non-element cells.
        no: State,
    },
    /// Test 4: `u ≅_B v` for the element blocks starting at the two
    /// heads (each block runs rightward to the first non-element).
    BranchEquiv {
        /// Equivalent.
        yes: State,
        /// Not equivalent.
        no: State,
    },
    /// Operation (iv): load every tuple of store relation `rel`,
    /// spawning one copy per tuple; the tuple is appended to the tape
    /// as a separator symbol followed by its element cells, with the
    /// first head left on the tuple's first element. An empty relation
    /// kills the unit.
    LoadRel {
        /// Store index to load from.
        rel: usize,
        /// Continuation state of each spawned copy.
        next: State,
    },
    /// Operation (v): load the `T_B`-offspring of the current tuple
    /// (the element block starting at the first head), spawning one
    /// copy per child; the extended tuple replaces nothing — the child
    /// element is appended right after the block.
    LoadOffspring {
        /// Continuation state.
        next: State,
    },
    /// Operation (vi): store into store relation `rel` the `T_B`
    /// representative equivalent to the current tuple (the element
    /// block at the first head).
    StoreCurrent {
        /// Store index to add to.
        rel: usize,
        /// Continuation state.
        next: State,
    },
    /// Branch on whether a store relation is empty — the decision the
    /// §5 loading protocol makes after a collapse ("if the appropriate
    /// store in the collapsed machine is empty, then the present
    /// unit-GMhs already contains the whole of `Cᵢ`").
    BranchStoreEmpty {
        /// Store index to inspect.
        rel: usize,
        /// Target when the store is empty.
        empty: State,
        /// Target when it holds at least one tuple.
        nonempty: State,
    },
    /// Erase the whole tape and continue (used before halting, per the
    /// §5 convention that machines halt with empty tapes).
    EraseTape(State),
    /// Halt (successful unit).
    Halt,
    /// Discontinue this unit (the proof's "erases the tape and enters
    /// the halting state" for redundant copies — made explicit).
    Die,
}

/// A GMhs program: one action per state; execution starts at state 0.
#[derive(Clone, Debug, Default)]
pub struct GmProgram {
    /// Actions indexed by state id.
    pub actions: Vec<GmAction>,
    /// Number of store relations (must cover the input relations).
    pub store_size: usize,
}

/// One unit machine.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Unit {
    state: State,
    tape: Vec<GmCell>,
    h1: usize,
    h2: usize,
    store: Vec<BTreeSet<Tuple>>,
}

impl Unit {
    fn cell(&self, pos: usize) -> GmCell {
        self.tape.get(pos).copied().unwrap_or(GmCell::Blank)
    }

    fn set_cell(&mut self, pos: usize, c: GmCell) {
        if pos >= self.tape.len() {
            self.tape.resize(pos + 1, GmCell::Blank);
        }
        self.tape[pos] = c;
        // Normalize trailing blanks so tape equality is canonical.
        while self.tape.last() == Some(&GmCell::Blank) {
            self.tape.pop();
        }
    }

    /// The element block starting at `pos`, rightward.
    fn block_at(&self, pos: usize) -> Tuple {
        let mut t = Vec::new();
        let mut p = pos;
        while let GmCell::Elem(e) = self.cell(p) {
            t.push(e);
            p += 1;
        }
        Tuple::from(t)
    }

    /// Collapse key: state + tape + head positions.
    fn key(&self) -> (State, Vec<GmCell>, usize, usize) {
        (self.state, self.tape.clone(), self.h1, self.h2)
    }
}

/// The result of a GMhs run.
#[derive(Clone, Debug)]
pub struct GmOutcome {
    /// Final store of the single surviving unit.
    pub store: Vec<BTreeSet<Tuple>>,
    /// Synchronous steps executed.
    pub steps: u64,
    /// Peak number of simultaneously live units.
    pub peak_units: usize,
}

/// Errors a run can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GmError {
    /// Fuel exhausted.
    Fuel(FuelError),
    /// All units died.
    Extinct,
    /// Units halted without collapsing to a single machine, or with a
    /// nonempty tape — an invalid computation per §5.
    InvalidHalt(&'static str),
    /// A state id without an action was reached.
    NoAction(State),
}

impl From<FuelError> for GmError {
    fn from(e: FuelError) -> Self {
        GmError::Fuel(e)
    }
}

impl std::fmt::Display for GmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GmError::Fuel(e) => write!(f, "{e}"),
            GmError::Extinct => write!(f, "all unit machines died"),
            GmError::InvalidHalt(m) => write!(f, "invalid halt: {m}"),
            GmError::NoAction(s) => write!(f, "no action for state {s:?}"),
        }
    }
}

impl std::error::Error for GmError {}

impl GmProgram {
    /// Runs the machine on an hs-r-db. The initial unit has an empty
    /// tape and the input representative sets `C₁,…,C_k` in its store
    /// (padded with empty relations up to `store_size`).
    pub fn run(&self, hs: &HsDatabase, fuel: &mut Fuel) -> Result<GmOutcome, GmError> {
        let k = hs.schema().len();
        assert!(
            self.store_size >= k,
            "store must cover the {k} input relations"
        );
        let mut store = Vec::with_capacity(self.store_size);
        for i in 0..k {
            store.push(hs.reps(i).clone());
        }
        store.resize(self.store_size, BTreeSet::new());
        let mut units = vec![Unit {
            state: State(0),
            tape: Vec::new(),
            h1: 0,
            h2: 0,
            store,
        }];
        let mut steps = 0u64;
        let mut peak = 1usize;
        loop {
            // Collapse identical units (union their stores).
            let mut merged: BTreeMap<(State, Vec<GmCell>, usize, usize), Unit> = BTreeMap::new();
            for u in units {
                match merged.get_mut(&u.key()) {
                    Some(m) => {
                        for (a, b) in m.store.iter_mut().zip(&u.store) {
                            a.extend(b.iter().cloned());
                        }
                    }
                    None => {
                        merged.insert(u.key(), u);
                    }
                }
            }
            units = merged.into_values().collect();
            peak = peak.max(units.len());

            if units.is_empty() {
                return Err(GmError::Extinct);
            }
            // All halted?
            if units
                .iter()
                .all(|u| matches!(self.action(u.state), Some(GmAction::Halt)))
            {
                if units.len() != 1 {
                    return Err(GmError::InvalidHalt(
                        "halted units failed to collapse into one",
                    ));
                }
                let u = &units[0];
                if !u.tape.is_empty() {
                    return Err(GmError::InvalidHalt("halted with a nonempty tape"));
                }
                return Ok(GmOutcome {
                    store: u.store.clone(),
                    steps,
                    peak_units: peak,
                });
            }

            // Synchronous step.
            fuel.consume(units.len() as u64)?;
            steps += 1;
            let mut next_units = Vec::with_capacity(units.len());
            for mut u in units {
                let Some(action) = self.action(u.state) else {
                    return Err(GmError::NoAction(u.state));
                };
                match action.clone() {
                    GmAction::Halt => next_units.push(u), // waits for others
                    GmAction::Die => {}
                    GmAction::Move(head, delta, next) => {
                        let h = match head {
                            Head::First => &mut u.h1,
                            Head::Second => &mut u.h2,
                        };
                        *h = h.saturating_add_signed(delta as isize);
                        u.state = next;
                        next_units.push(u);
                    }
                    GmAction::WriteSym(s, next) => {
                        u.set_cell(u.h1, GmCell::Sym(s));
                        u.state = next;
                        next_units.push(u);
                    }
                    GmAction::WriteBlank(next) => {
                        u.set_cell(u.h1, GmCell::Blank);
                        u.state = next;
                        next_units.push(u);
                    }
                    GmAction::BranchClass {
                        blank,
                        syms,
                        sym_other,
                        elem,
                    } => {
                        u.state = match u.cell(u.h1) {
                            GmCell::Blank => blank,
                            GmCell::Sym(s) => syms
                                .iter()
                                .find(|(t, _)| *t == s)
                                .map(|(_, st)| *st)
                                .unwrap_or(sym_other),
                            GmCell::Elem(_) => elem,
                        };
                        next_units.push(u);
                    }
                    GmAction::BranchEq { yes, no } => {
                        u.state = match (u.cell(u.h1), u.cell(u.h2)) {
                            (GmCell::Elem(a), GmCell::Elem(b)) if a == b => yes,
                            _ => no,
                        };
                        next_units.push(u);
                    }
                    GmAction::BranchEquiv { yes, no } => {
                        let a = u.block_at(u.h1);
                        let b = u.block_at(u.h2);
                        u.state = if hs.equivalent(&a, &b) { yes } else { no };
                        next_units.push(u);
                    }
                    GmAction::LoadRel { rel, next } => {
                        let tuples: Vec<Tuple> = u.store[rel].iter().cloned().collect();
                        for t in tuples {
                            fuel.tick()?;
                            let mut copy = u.clone();
                            copy.tape.push(GmCell::Sym(SEP));
                            copy.h1 = copy.tape.len();
                            for &e in t.elems() {
                                copy.tape.push(GmCell::Elem(e));
                            }
                            copy.state = next;
                            next_units.push(copy);
                        }
                        // Empty relation: the unit spawns nothing and
                        // disappears.
                    }
                    GmAction::LoadOffspring { next } => {
                        let cur = u.block_at(u.h1);
                        let canon = hs.canonical_rep(&cur);
                        for a in hs.tree().offspring(&canon) {
                            fuel.tick()?;
                            let mut copy = u.clone();
                            let end = copy.h1 + cur.rank();
                            // Insert the child element right after the
                            // block (shifting any suffix).
                            copy.tape.insert(end.min(copy.tape.len()), GmCell::Elem(a));
                            copy.state = next;
                            next_units.push(copy);
                        }
                    }
                    GmAction::StoreCurrent { rel, next } => {
                        let cur = u.block_at(u.h1);
                        let rep = hs.canonical_rep(&cur);
                        u.store[rel].insert(rep);
                        u.state = next;
                        next_units.push(u);
                    }
                    GmAction::BranchStoreEmpty {
                        rel,
                        empty,
                        nonempty,
                    } => {
                        u.state = if u.store[rel].is_empty() {
                            empty
                        } else {
                            nonempty
                        };
                        next_units.push(u);
                    }
                    GmAction::EraseTape(next) => {
                        u.tape.clear();
                        u.h1 = 0;
                        u.h2 = 0;
                        u.state = next;
                        next_units.push(u);
                    }
                }
            }
            units = next_units;
        }
    }

    fn action(&self, s: State) -> Option<&GmAction> {
        self.actions.get(s.0 as usize)
    }
}

/// The tape separator work symbol used by `LoadRel`.
pub const SEP: u16 = u16::MAX;

/// A small builder for GMhs programs.
#[derive(Default)]
pub struct GmBuilder {
    actions: Vec<Option<GmAction>>,
}

impl GmBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        GmBuilder::default()
    }

    /// Reserves a fresh state id.
    pub fn fresh(&mut self) -> State {
        self.actions.push(None);
        State(self.actions.len() as u32 - 1)
    }

    /// Sets the action of a state.
    pub fn set(&mut self, s: State, a: GmAction) -> &mut Self {
        self.actions[s.0 as usize] = Some(a);
        self
    }

    /// Finalizes with the given store size.
    ///
    /// A reserved state left without an action halts: if a run ever
    /// reaches one, the machine's halt validation reports it as a
    /// [`GmError::InvalidHalt`] instead of crashing the process.
    pub fn build(self, store_size: usize) -> GmProgram {
        GmProgram {
            actions: self
                .actions
                .into_iter()
                .map(|a| a.unwrap_or(GmAction::Halt))
                .collect(),
            store_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_hsdb::{infinite_clique, paper_example_graph};

    /// The §5 proof's loading pattern, distilled: load every tuple of
    /// `R₁` (spawning |C₁| units), store each current tuple into an
    /// output relation, erase, halt. Collapse reunites the copies and
    /// unions their stores — the output equals `C₁`.
    fn copy_machine(out: usize) -> GmProgram {
        let mut b = GmBuilder::new();
        let start = b.fresh();
        let store = b.fresh();
        let erase = b.fresh();
        let halt = b.fresh();
        b.set(
            start,
            GmAction::LoadRel {
                rel: 0,
                next: store,
            },
        );
        b.set(
            store,
            GmAction::StoreCurrent {
                rel: out,
                next: erase,
            },
        );
        b.set(erase, GmAction::EraseTape(halt));
        b.set(halt, GmAction::Halt);
        b.build(out + 1)
    }

    #[test]
    fn copy_machine_reproduces_c1_via_spawn_and_collapse() {
        let hs = paper_example_graph();
        let gm = copy_machine(1);
        let mut fuel = Fuel::new(100_000);
        let out = gm.run(&hs, &mut fuel).unwrap();
        assert_eq!(out.store[1], *hs.reps(0), "output store = C₁");
        assert!(out.peak_units >= hs.reps(0).len(), "one unit per tuple");
    }

    #[test]
    fn empty_relation_load_goes_extinct() {
        // The clique's diagonal-free R1 is nonempty; use an output
        // store (empty) as the load source instead.
        let hs = infinite_clique();
        let mut b = GmBuilder::new();
        let start = b.fresh();
        let halt = b.fresh();
        b.set(start, GmAction::LoadRel { rel: 1, next: halt });
        b.set(halt, GmAction::Halt);
        let gm = b.build(2);
        let mut fuel = Fuel::new(10_000);
        assert!(matches!(gm.run(&hs, &mut fuel), Err(GmError::Extinct)));
    }

    #[test]
    fn offspring_load_spawns_per_child() {
        // Load R1 of the clique (single rep (0,1)), then load its
        // offspring: children of (0,1) are (0,1,0),(0,1,1),(0,1,2) —
        // 3 units; store rank-3 reps; erase; halt.
        let hs = infinite_clique();
        let mut b = GmBuilder::new();
        let s0 = b.fresh();
        let s1 = b.fresh();
        let s2 = b.fresh();
        let s3 = b.fresh();
        let halt = b.fresh();
        b.set(s0, GmAction::LoadRel { rel: 0, next: s1 });
        b.set(s1, GmAction::LoadOffspring { next: s2 });
        b.set(s2, GmAction::StoreCurrent { rel: 1, next: s3 });
        b.set(s3, GmAction::EraseTape(halt));
        b.set(halt, GmAction::Halt);
        let gm = b.build(2);
        let mut fuel = Fuel::new(100_000);
        let out = gm.run(&hs, &mut fuel).unwrap();
        assert_eq!(out.store[1].len(), 3, "three rank-3 extension classes");
        assert!(out.store[1].iter().all(|t| t.rank() == 3));
    }

    #[test]
    fn equivalence_branch_test4() {
        // Load R1 twice: tape has two tuples (second load's head is on
        // the second tuple). Move h2 onto the first tuple's start and
        // compare blocks with ≅_B. On the clique both loads give
        // (0,1): equivalent → store a marker into an output store.
        let hs = infinite_clique();
        let mut b = GmBuilder::new();
        let s0 = b.fresh();
        let s1 = b.fresh();
        // After the 2nd load, tape = SEP e e SEP e e; h1 = 4.
        // Put h2 at 1 (first tuple's start) by moving right from 0.
        let mv = b.fresh();
        let cmp = b.fresh();
        let yes = b.fresh();
        let no = b.fresh();
        let halt = b.fresh();
        b.set(s0, GmAction::LoadRel { rel: 0, next: s1 });
        b.set(s1, GmAction::LoadRel { rel: 0, next: mv });
        b.set(mv, GmAction::Move(Head::Second, 1, cmp));
        b.set(cmp, GmAction::BranchEquiv { yes, no });
        b.set(yes, GmAction::StoreCurrent { rel: 1, next: no });
        b.set(no, GmAction::EraseTape(halt));
        b.set(halt, GmAction::Halt);
        let gm = b.build(2);
        let mut fuel = Fuel::new(100_000);
        let out = gm.run(&hs, &mut fuel).unwrap();
        assert_eq!(out.store[1].len(), 1, "the equivalent pair was detected");
    }

    #[test]
    fn invalid_halt_with_tape_content_detected() {
        let hs = infinite_clique();
        let mut b = GmBuilder::new();
        let s0 = b.fresh();
        let halt = b.fresh();
        b.set(s0, GmAction::LoadRel { rel: 0, next: halt });
        b.set(halt, GmAction::Halt);
        let gm = b.build(1);
        let mut fuel = Fuel::new(10_000);
        assert!(matches!(
            gm.run(&hs, &mut fuel),
            Err(GmError::InvalidHalt(_))
        ));
    }

    #[test]
    fn fuel_exhaustion_reported() {
        let hs = infinite_clique();
        let mut b = GmBuilder::new();
        let s0 = b.fresh();
        b.set(s0, GmAction::Move(Head::First, 1, s0));
        let gm = b.build(1);
        let mut fuel = Fuel::new(50);
        assert!(matches!(gm.run(&hs, &mut fuel), Err(GmError::Fuel(_))));
    }

    #[test]
    fn reverse_edge_machine_on_paper_graph() {
        // For each edge class (u₁,u₂) of the §3.1 example, compute the
        // class of the *reversed* pair (u₂,u₁): load an edge, extend
        // it twice via T_B offspring to reach (u₁,u₂,a,b), keep (by
        // test-3 equality) only the unit with a=u₂ and b=u₁, and store
        // the block (a,b) = (u₂,u₁). The symmetric class maps to
        // itself (inside C₁); the one-way arrow maps to the
        // reverse-arrow class (outside C₁).
        //
        // Tape layout after the loads: SEP u₁ u₂ a b, with h1 = 1.
        let hs = paper_example_graph();
        let mut b = GmBuilder::new();
        let s0 = b.fresh();
        let s1 = b.fresh();
        let s2 = b.fresh();
        let h2a = b.fresh(); // h2: 0 → 2 (onto u₂)
        let h2b = b.fresh();
        let h1a = b.fresh(); // h1: 1 → 3 (onto a)
        let h1b = b.fresh();
        let c1 = b.fresh(); // a == u₂ ?
        let m1 = b.fresh(); // h2: 2 → 1 (onto u₁)
        let m2 = b.fresh(); // h1: 3 → 4 (onto b)
        let c2 = b.fresh(); // b == u₁ ?
        let back = b.fresh(); // h1: 4 → 3 (block (a,b))
        let st = b.fresh();
        let fin = b.fresh();
        let halt = b.fresh();
        let die = b.fresh();
        b.set(s0, GmAction::LoadRel { rel: 0, next: s1 });
        b.set(s1, GmAction::LoadOffspring { next: s2 });
        b.set(s2, GmAction::LoadOffspring { next: h2a });
        b.set(h2a, GmAction::Move(Head::Second, 1, h2b));
        b.set(h2b, GmAction::Move(Head::Second, 1, h1a));
        b.set(h1a, GmAction::Move(Head::First, 1, h1b));
        b.set(h1b, GmAction::Move(Head::First, 1, c1));
        b.set(c1, GmAction::BranchEq { yes: m1, no: die });
        b.set(m1, GmAction::Move(Head::Second, -1, m2));
        b.set(m2, GmAction::Move(Head::First, 1, c2));
        b.set(c2, GmAction::BranchEq { yes: back, no: die });
        b.set(back, GmAction::Move(Head::First, -1, st));
        b.set(st, GmAction::StoreCurrent { rel: 1, next: fin });
        b.set(fin, GmAction::EraseTape(halt));
        b.set(halt, GmAction::Halt);
        b.set(die, GmAction::Die);
        let gm = b.build(2);
        let mut fuel = Fuel::new(10_000_000);
        let out = gm.run(&hs, &mut fuel).unwrap();
        // Two edge classes → two reversed classes.
        assert_eq!(out.store[1].len(), 2);
        let db = hs.database();
        let in_r1: Vec<bool> = out.store[1]
            .iter()
            .map(|rep| db.query(0, rep.elems()))
            .collect();
        assert_eq!(
            in_r1.iter().filter(|&&x| x).count(),
            1,
            "exactly one reversed class (the symmetric one) is still an edge"
        );
    }
}

#[cfg(test)]
mod store_branch_tests {
    use super::*;
    use recdb_core::Fuel;
    use recdb_hsdb::paper_example_graph;

    /// A two-phase machine: phase 1 copies C₁ into store 1; phase 2
    /// inspects store 1 and records the verdict by storing into
    /// store 2 only when store 1 is nonempty — the §5 "has everything
    /// been loaded?" decision, executable.
    #[test]
    fn store_emptiness_decision_after_collapse() {
        let hs = paper_example_graph();
        let mut b = GmBuilder::new();
        let s0 = b.fresh();
        let s1 = b.fresh();
        let s2 = b.fresh();
        let check = b.fresh();
        let record = b.fresh();
        let fin = b.fresh();
        let halt = b.fresh();
        b.set(s0, GmAction::LoadRel { rel: 0, next: s1 });
        b.set(s1, GmAction::StoreCurrent { rel: 1, next: s2 });
        b.set(s2, GmAction::EraseTape(check));
        b.set(
            check,
            GmAction::BranchStoreEmpty {
                rel: 1,
                empty: fin,
                nonempty: record,
            },
        );
        // Record the verdict: copy one representative into store 2.
        b.set(record, GmAction::LoadRel { rel: 1, next: fin });
        b.set(fin, GmAction::EraseTape(halt));
        b.set(halt, GmAction::Halt);
        let gm = b.build(3);
        let out = gm.run(&hs, &mut Fuel::new(1_000_000)).unwrap();
        assert_eq!(out.store[1], *hs.reps(0));
        // The decision fired on the nonempty branch in every unit.
        assert!(!out.store[1].is_empty());
    }

    /// The empty branch: inspecting a store that never received
    /// anything routes every unit to the empty target.
    #[test]
    fn store_emptiness_empty_branch() {
        let hs = paper_example_graph();
        let mut b = GmBuilder::new();
        let s0 = b.fresh();
        let dead = b.fresh();
        let halt = b.fresh();
        b.set(
            s0,
            GmAction::BranchStoreEmpty {
                rel: 1,
                empty: halt,
                nonempty: dead,
            },
        );
        b.set(dead, GmAction::Die);
        b.set(halt, GmAction::Halt);
        let gm = b.build(2);
        let out = gm.run(&hs, &mut Fuel::new(10_000)).unwrap();
        assert!(out.store[1].is_empty());
        assert_eq!(out.peak_units, 1);
    }
}

#[cfg(test)]
mod tape_op_tests {
    use super::*;
    use recdb_core::Fuel;
    use recdb_hsdb::infinite_clique;

    /// Exercises WriteSym, BranchClass and head clamping: load an edge,
    /// walk right over its elements counting them with work-symbol
    /// marks, then branch on the mark to decide the verdict.
    #[test]
    fn write_and_branch_on_work_symbols() {
        let hs = infinite_clique();
        let mut b = GmBuilder::new();
        let s0 = b.fresh(); // load
        let scan = b.fresh(); // walk right over elements
        let step_r = b.fresh(); // one cell right, back to scan
        let blank_hit = b.fresh(); // write a mark at the first blank
        let back = b.fresh(); // move left onto the mark
        let classify = b.fresh(); // branch on the scanned class
        let fwd = b.fresh(); // step right, back to classify
        let on_mark = b.fresh();
        let bad = b.fresh();
        let fin = b.fresh();
        let halt = b.fresh();
        b.set(s0, GmAction::LoadRel { rel: 0, next: scan });
        b.set(
            scan,
            GmAction::BranchClass {
                blank: blank_hit,
                syms: vec![],
                sym_other: bad,
                elem: step_r,
            },
        );
        b.set(step_r, GmAction::Move(Head::First, 1, scan));
        b.set(blank_hit, GmAction::WriteSym(7, back));
        b.set(back, GmAction::Move(Head::First, -1, classify));
        // After writing at the blank and moving left we sit on the
        // last element; move right once more to sit on the mark.
        b.set(
            classify,
            GmAction::BranchClass {
                blank: bad,
                syms: vec![(7, on_mark)],
                sym_other: bad,
                elem: fwd,
            },
        );
        b.set(fwd, GmAction::Move(Head::First, 1, classify));
        b.set(on_mark, GmAction::StoreCurrent { rel: 1, next: fin });
        b.set(bad, GmAction::Die);
        b.set(fin, GmAction::EraseTape(halt));
        b.set(halt, GmAction::Halt);
        let gm = b.build(2);
        let out = gm.run(&hs, &mut Fuel::new(100_000)).unwrap();
        // StoreCurrent at a work symbol stores the empty block — the
        // rank-0 representative.
        assert_eq!(out.store[1].len(), 1);
        assert_eq!(out.store[1].first().unwrap().rank(), 0);
    }

    /// Head movement clamps at the left end instead of underflowing.
    #[test]
    fn head_clamps_at_zero() {
        let hs = infinite_clique();
        let mut b = GmBuilder::new();
        let s0 = b.fresh();
        let s1 = b.fresh();
        let halt = b.fresh();
        b.set(s0, GmAction::Move(Head::First, -1, s1));
        b.set(s1, GmAction::Move(Head::Second, -1, halt));
        b.set(halt, GmAction::Halt);
        let gm = b.build(1);
        let out = gm.run(&hs, &mut Fuel::new(1000)).unwrap();
        assert_eq!(out.steps, 2);
    }

    /// WriteBlank erases an element cell (the §5 loading protocol
    /// "erases this tuple from the tape").
    #[test]
    fn write_blank_erases() {
        let hs = infinite_clique();
        let mut b = GmBuilder::new();
        let s0 = b.fresh();
        let e1 = b.fresh();
        let mv = b.fresh();
        let e2 = b.fresh();
        let chk = b.fresh();
        let good = b.fresh();
        let bad = b.fresh();
        let fin = b.fresh();
        let halt = b.fresh();
        b.set(s0, GmAction::LoadRel { rel: 0, next: e1 });
        b.set(e1, GmAction::WriteBlank(mv));
        b.set(mv, GmAction::Move(Head::First, 1, e2));
        b.set(e2, GmAction::WriteBlank(chk));
        // Both element cells blanked: the block at h1 is now empty.
        b.set(
            chk,
            GmAction::BranchClass {
                blank: good,
                syms: vec![],
                sym_other: bad,
                elem: bad,
            },
        );
        b.set(good, GmAction::EraseTape(halt));
        b.set(bad, GmAction::Die);
        b.set(fin, GmAction::Die);
        b.set(halt, GmAction::Halt);
        let gm = b.build(1);
        assert!(gm.run(&hs, &mut Fuel::new(10_000)).is_ok());
    }
}
