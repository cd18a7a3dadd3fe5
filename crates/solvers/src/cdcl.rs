//! Conflict-driven clause learning (CDCL) solver.
//!
//! A modern complete SAT solver in the lineage of GRASP / Chaff / MiniSat
//! (the paper's references \[3\]–\[7\]): two-watched-literal propagation, VSIDS
//! branching, first-UIP clause learning with non-chronological backjumping,
//! phase saving and Luby restarts.
//!
//! The hot path is laid out for cache locality and no per-conflict
//! allocation:
//!
//! * **Clause arena.** The literals of every clause sit in one flat
//!   `Vec<Literal>`; a small per-clause header records the clause's start
//!   and length in it, whether it was learned or imported, the push frame
//!   it depends on and its LBD. Reduction and [`CdclSolver::pop`] compact
//!   the arena in place and remap the reasons on the trail.
//! * **Blocker watches.** Each watch entry carries one other literal of its
//!   clause. When that blocker is already true the clause is satisfied and
//!   propagation skips it without touching the arena. Watch lists are
//!   compacted in place while they are scanned (MiniSat style).
//! * **Conflict analysis** walks reason clauses in place with persistent
//!   `seen` and scratch buffers, then shrinks the first-UIP clause by
//!   recursive minimization with abstract levels (Eén & Sörensson, SAT
//!   2003). A literal is removed when the rest of the clause implies it
//!   through a chain of reasons.
//! * **LBD tiers** (Audemard & Simon, IJCAI 2009). A learned clause
//!   records its literal block distance, the number of distinct decision
//!   levels among its literals, when it is learned; an imported clause
//!   enters with LBD = its length. Reduction runs on a conflict schedule:
//!   the first round after 2 000 conflicts, each later gap 300 conflicts
//!   longer than the one before. A round keeps every clause with LBD ≤ 2
//!   and every current reason, and drops the worse half of the remaining
//!   learned clauses (higher LBD first, then longer, then older).
//!
//! Push/pop frames: every clause carries the deepest push frame it depends
//! on. A learned clause takes the maximum over every clause its derivation
//! resolved through, including the reasons minimization walks and the
//! root-level literals analysis drops, so a pop keeps exactly the learned
//! clauses that are still implied.

use crate::limits::SearchLimits;
use crate::share::ShareHandle;
use crate::solver::{SolveResult, Solver, SolverStats};
use cnf::{Assignment, CnfFormula, Literal, Variable};

/// Value of a literal (or variable) in the solver's trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarValue {
    Unassigned,
    True,
    False,
}

/// The header of one clause in the literal arena.
#[derive(Debug, Clone, Copy)]
struct ClauseHeader {
    /// Offset of the clause's first literal in [`CdclSolver::lits`].
    start: u32,
    len: u32,
    /// Literal block distance at learn time (length for imports, 0 for
    /// original clauses, which are never reduced).
    lbd: u32,
    learned: bool,
    /// `true` for clauses that arrived through a shared clause pool. Imports
    /// are tagged with the push depth at import time, so a pop drops every
    /// import taken inside the popped frame.
    imported: bool,
    /// The deepest push frame this clause depends on: the frame an original
    /// clause was pushed in, or — for a learned clause — the maximum frame of
    /// every clause resolved while deriving it. [`CdclSolver::pop`] keeps
    /// exactly the clauses whose `push_level` survives, so learned clauses
    /// derived from lower frames stay sound across pops.
    push_level: usize,
}

impl ClauseHeader {
    fn range(&self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// One entry of a watch list: the watching clause plus a blocker literal
/// from the same clause. A true blocker means the clause is satisfied and
/// needs no visit.
#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Literal,
}

/// The result of one [`CdclSolver::solve_under_assumptions`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrementalResult {
    /// The pushed clauses are satisfiable with every assumption holding; the
    /// model covers all variables the solver has seen.
    Satisfiable(Assignment),
    /// Unsatisfiable under the assumptions. The payload is the
    /// *failed-assumption core*: a subset of the call's assumption literals
    /// that is already inconsistent with the pushed clauses. An **empty** core
    /// means the clauses are unsatisfiable regardless of any assumptions.
    Unsatisfiable(Vec<Literal>),
    /// The search limits expired before a verdict was reached.
    Unknown,
}

impl IncrementalResult {
    /// `true` for [`IncrementalResult::Satisfiable`].
    pub fn is_sat(&self) -> bool {
        matches!(self, IncrementalResult::Satisfiable(_))
    }

    /// `true` for [`IncrementalResult::Unsatisfiable`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, IncrementalResult::Unsatisfiable(_))
    }

    /// The model, when satisfiable.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            IncrementalResult::Satisfiable(model) => Some(model),
            _ => None,
        }
    }

    /// The failed-assumption core, when unsatisfiable.
    pub fn failed_assumptions(&self) -> Option<&[Literal]> {
        match self {
            IncrementalResult::Unsatisfiable(core) => Some(core),
            _ => None,
        }
    }
}

/// Sentinel for a variable currently absent from the VSIDS order heap.
const NOT_IN_HEAP: usize = usize::MAX;

/// Sentinel in a compaction remap for a clause that was dropped.
const DROPPED: u32 = u32::MAX;

/// Conflict-driven clause-learning SAT solver.
///
/// ```
/// use cnf::generators::pigeonhole;
/// use sat_solvers::{CdclSolver, Solver};
/// let mut solver = CdclSolver::new();
/// assert!(solver.solve(&pigeonhole(4, 3)).is_unsat());
/// assert!(solver.stats().learned_clauses > 0);
/// ```
#[derive(Debug, Clone)]
pub struct CdclSolver {
    stats: SolverStats,
    // Per-literal values, indexed by literal code: assigning a variable
    // writes both of its literals, so reading a literal is one load.
    assigns: Vec<VarValue>,
    // Per-variable state.
    levels: Vec<usize>,
    reasons: Vec<Option<usize>>, // clause index that implied the variable
    activity: Vec<f64>,
    saved_phase: Vec<bool>,
    // VSIDS order heap: a binary max-heap over variable activities so each
    // branching decision costs O(log n) instead of a linear scan. Assigned
    // variables are deleted lazily on pop; backjumping re-inserts what it
    // unassigns.
    heap: Vec<usize>,
    heap_pos: Vec<usize>, // position of each variable in `heap`, or NOT_IN_HEAP
    // Clause database: one literal arena plus a header per clause.
    lits: Vec<Literal>,
    headers: Vec<ClauseHeader>,
    learned_count: usize,     // headers with `learned` set
    watches: Vec<Vec<Watch>>, // indexed by the watched literal's code
    units: Vec<usize>,        // indices of single-literal clauses
    // Trail.
    trail: Vec<Literal>,
    trail_limits: Vec<usize>, // trail length at each decision level
    propagation_head: usize,
    // Conflict-analysis scratch, kept across conflicts so analysis never
    // allocates once the buffers have grown.
    seen: Vec<bool>,
    to_clear: Vec<usize>, // variables whose `seen` flag must be reset
    analyze_stack: Vec<Literal>,
    learnt: Vec<Literal>,
    level_stamps: Vec<u64>, // per decision level: last LBD computation that counted it
    lbd_stamp: u64,
    // Incremental state.
    push_depth: usize,
    /// Deepest root-level derivation frame per variable: the maximum
    /// `push_level` over the clause chain that forced the variable (0 for
    /// decisions). Only consulted for root-level literals dropped during
    /// conflict analysis, where the chain is decision-free.
    var_push: Vec<usize>,
    /// The push frame that contributed an empty clause, if any (the whole
    /// database is unsatisfiable until that frame is popped).
    empty_clause_level: Option<usize>,
    /// `true` while `assigns` holds a complete model of the current clause
    /// database (the previous call answered SAT and no clauses were pushed or
    /// popped since). Lets a later call whose assumptions the model already
    /// satisfies answer without searching.
    model_cached: bool,
    /// The cooperative-portfolio share handle, when attached: learned
    /// clauses are exported on learn, foreign clauses imported at restart
    /// boundaries. Survives [`Self::init`] — attachment outlives one solve.
    share: Option<ShareHandle>,
    // Heuristic parameters.
    activity_increment: f64,
    activity_decay: f64,
    restart_base: u64,
    // Reduction schedule: the first round after `reduce_base` conflicts,
    // each later gap `reduce_increment` conflicts longer. The conflict
    // count spans every call since the last `init`, because learned
    // clauses persist across incremental calls.
    reduce_base: u64,
    reduce_increment: u64,
    reduce_gap: u64,
    next_reduce: u64,
    total_conflicts: u64,
    reduce_rounds: u64,
}

impl Default for CdclSolver {
    fn default() -> Self {
        CdclSolver::new()
    }
}

impl CdclSolver {
    /// Creates a CDCL solver with default parameters.
    pub fn new() -> Self {
        const REDUCE_BASE: u64 = 2_000;
        CdclSolver {
            stats: SolverStats::default(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            activity: Vec::new(),
            saved_phase: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            lits: Vec::new(),
            headers: Vec::new(),
            learned_count: 0,
            watches: Vec::new(),
            units: Vec::new(),
            trail: Vec::new(),
            trail_limits: Vec::new(),
            propagation_head: 0,
            seen: Vec::new(),
            to_clear: Vec::new(),
            analyze_stack: Vec::new(),
            learnt: Vec::new(),
            level_stamps: Vec::new(),
            lbd_stamp: 0,
            push_depth: 0,
            var_push: Vec::new(),
            empty_clause_level: None,
            model_cached: false,
            share: None,
            activity_increment: 1.0,
            activity_decay: 0.95,
            restart_base: 100,
            reduce_base: REDUCE_BASE,
            reduce_increment: 300,
            reduce_gap: REDUCE_BASE,
            next_reduce: REDUCE_BASE,
            total_conflicts: 0,
            reduce_rounds: 0,
        }
    }

    /// Sets the Luby restart base interval (in conflicts).
    pub fn with_restart_base(mut self, base: u64) -> Self {
        self.restart_base = base.max(1);
        self
    }

    fn init(&mut self, formula: &CnfFormula) {
        let n = formula.num_vars();
        self.assigns = vec![VarValue::Unassigned; 2 * n];
        self.levels = vec![0; n];
        self.reasons = vec![None; n];
        self.activity = vec![0.0; n];
        self.saved_phase = vec![false; n];
        self.seen = vec![false; n];
        self.heap.clear();
        self.heap_pos = vec![NOT_IN_HEAP; n];
        self.rebuild_heap();
        self.lits.clear();
        self.headers.clear();
        self.learned_count = 0;
        self.watches = vec![Vec::new(); 2 * n];
        self.units.clear();
        self.trail.clear();
        self.trail_limits.clear();
        self.propagation_head = 0;
        self.push_depth = 0;
        self.var_push = vec![0; n];
        self.empty_clause_level = None;
        self.model_cached = false;
        self.activity_increment = 1.0;
        self.reduce_gap = self.reduce_base;
        self.next_reduce = self.reduce_base;
        self.total_conflicts = 0;
        self.reduce_rounds = 0;
        self.stats = SolverStats::default();
    }

    /// Grows every per-variable array to cover at least `n` variables.
    fn ensure_vars(&mut self, n: usize) {
        let old = self.levels.len();
        if n <= old {
            return;
        }
        self.assigns.resize(2 * n, VarValue::Unassigned);
        self.levels.resize(n, 0);
        self.reasons.resize(n, None);
        self.activity.resize(n, 0.0);
        self.saved_phase.resize(n, false);
        self.seen.resize(n, false);
        self.var_push.resize(n, 0);
        self.watches.resize(2 * n, Vec::new());
        self.heap_pos.resize(n, NOT_IN_HEAP);
        for var in old..n {
            self.heap_insert(var);
        }
    }

    /// Clears the trail and every per-variable assignment, keeping the clause
    /// database, activities and saved phases — the state that makes repeated
    /// incremental calls cheaper than solving from scratch.
    fn reset_search_state(&mut self) {
        self.assigns.fill(VarValue::Unassigned);
        self.reasons.fill(None);
        self.var_push.fill(0);
        self.trail.clear();
        self.trail_limits.clear();
        self.propagation_head = 0;
        self.rebuild_heap();
    }

    /// Refills the order heap with every variable (all unassigned after a
    /// search-state reset).
    fn rebuild_heap(&mut self) {
        self.heap.clear();
        self.heap_pos.fill(NOT_IN_HEAP);
        for var in 0..self.levels.len() {
            self.heap_insert(var);
        }
    }

    #[inline]
    fn value(&self, lit: Literal) -> VarValue {
        self.assigns[lit.code()]
    }

    fn decision_level(&self) -> usize {
        self.trail_limits.len()
    }

    fn clause(&self, index: usize) -> &[Literal] {
        &self.lits[self.headers[index].range()]
    }

    fn enqueue(&mut self, lit: Literal, reason: Option<usize>) {
        let var = lit.variable().index();
        debug_assert_eq!(self.value(lit), VarValue::Unassigned);
        self.assigns[lit.code()] = VarValue::True;
        self.assigns[(!lit).code()] = VarValue::False;
        self.levels[var] = self.decision_level();
        self.reasons[var] = reason;
        self.saved_phase[var] = lit.is_positive();
        // Track the deepest push frame this assignment transitively depends
        // on, so [`Self::analyze`] can tag learned clauses that silently
        // resolve against root-level literals. Only needed under push frames.
        let dep = match reason {
            Some(clause) if self.push_depth > 0 => self
                .clause(clause)
                .iter()
                .filter(|&&q| q != lit)
                .map(|q| self.var_push[q.variable().index()])
                .fold(self.headers[clause].push_level, usize::max),
            _ => 0,
        };
        self.var_push[var] = dep;
        self.trail.push(lit);
    }

    /// Appends a clause to the arena and registers its watches: the first
    /// two literals watch each other as blockers (callers arrange a sensible
    /// order); a single-literal clause watches its only literal.
    /// Returns `None` if the clause is empty (immediate conflict at level 0).
    fn add_clause(
        &mut self,
        literals: &[Literal],
        learned: bool,
        push_level: usize,
        lbd: u32,
    ) -> Option<usize> {
        let (&first, rest) = literals.split_first()?;
        // Offsets, lengths and clause indices are stored as `u32`; every
        // clause holds a literal, so no index exceeds the arena's end.
        assert!(
            u32::try_from(self.lits.len() + literals.len()).is_ok(),
            "clause arena exceeds u32 offsets"
        );
        let index = self.headers.len();
        let clause = index as u32;
        match rest.first() {
            Some(&second) => {
                self.watches[first.code()].push(Watch {
                    clause,
                    blocker: second,
                });
                self.watches[second.code()].push(Watch {
                    clause,
                    blocker: first,
                });
            }
            None => {
                self.watches[first.code()].push(Watch {
                    clause,
                    blocker: first,
                });
                self.units.push(index);
            }
        }
        self.headers.push(ClauseHeader {
            start: self.lits.len() as u32,
            len: literals.len() as u32,
            lbd,
            learned,
            imported: false,
            push_level,
        });
        self.lits.extend_from_slice(literals);
        self.learned_count += usize::from(learned);
        Some(index)
    }

    /// Propagates all pending assignments; returns a conflicting clause index
    /// if a conflict is found.
    fn propagate(&mut self) -> Option<usize> {
        let mut conflict = None;
        while conflict.is_none() && self.propagation_head < self.trail.len() {
            // Clauses watching `false_lit` must find a new watch or propagate.
            let false_lit = !self.trail[self.propagation_head];
            self.propagation_head += 1;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let (mut read, mut write) = (0, 0);
            while read < watch_list.len() {
                let watch = watch_list[read];
                read += 1;
                if self.value(watch.blocker) == VarValue::True {
                    watch_list[write] = watch;
                    write += 1;
                    continue;
                }
                let index = watch.clause as usize;
                let header = self.headers[index];
                let start = header.start as usize;
                if header.len == 1 {
                    // A single-literal clause watches its only literal, which
                    // is `false_lit` itself: a direct conflict.
                    watch_list[write] = watch;
                    write += 1;
                    conflict = Some(index);
                    break;
                }
                // Ensure the falsified literal sits in position 1.
                if self.lits[start] == false_lit {
                    self.lits.swap(start, start + 1);
                }
                let first = self.lits[start];
                let kept = Watch {
                    clause: watch.clause,
                    blocker: first,
                };
                if first != watch.blocker && self.value(first) == VarValue::True {
                    // Clause already satisfied; keep watching.
                    watch_list[write] = kept;
                    write += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in start + 2..header.range().end {
                    let candidate = self.lits[k];
                    if self.value(candidate) != VarValue::False {
                        self.lits[start + 1] = candidate;
                        self.lits[k] = false_lit;
                        self.watches[candidate.code()].push(kept);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting under the current assignment.
                watch_list[write] = kept;
                write += 1;
                if self.value(first) == VarValue::False {
                    conflict = Some(index);
                    break;
                }
                self.stats.propagations += 1;
                self.enqueue(first, Some(index));
            }
            // After a conflict, keep the watches that were not visited.
            watch_list.copy_within(read.., write);
            watch_list.truncate(write + watch_list.len() - read);
            self.watches[false_lit.code()] = watch_list;
        }
        conflict
    }

    fn bump_activity(&mut self, var: usize) {
        self.activity[var] += self.activity_increment;
        if self.activity[var] > 1e100 {
            // Rescaling multiplies every activity by the same factor, so the
            // heap order is untouched.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.activity_increment *= 1e-100;
        }
        // A bump only ever raises an activity, so restoring the heap
        // invariant is a single sift towards the root.
        if self.heap_pos[var] != NOT_IN_HEAP {
            self.heap_sift_up(self.heap_pos[var]);
        }
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        let var = self.heap[i];
        let activity = self.activity[var];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[parent]] >= activity {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.heap_pos[self.heap[i]] = i;
            i = parent;
        }
        self.heap[i] = var;
        self.heap_pos[var] = i;
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        let var = self.heap[i];
        let activity = self.activity[var];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && self.activity[self.heap[right]] > self.activity[self.heap[left]]
            {
                right
            } else {
                left
            };
            if activity >= self.activity[self.heap[child]] {
                break;
            }
            self.heap[i] = self.heap[child];
            self.heap_pos[self.heap[i]] = i;
            i = child;
        }
        self.heap[i] = var;
        self.heap_pos[var] = i;
    }

    fn heap_insert(&mut self, var: usize) {
        if self.heap_pos[var] != NOT_IN_HEAP {
            return;
        }
        self.heap_pos[var] = self.heap.len();
        self.heap.push(var);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<usize> {
        let top = *self.heap.first()?;
        self.heap_pos[top] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("heap non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn decay_activities(&mut self) {
        self.activity_increment /= self.activity_decay;
    }

    /// First-UIP conflict analysis followed by recursive minimization. Leaves
    /// the learned clause in `self.learnt` (asserting literal in position 0,
    /// a literal of the backjump level in position 1) and returns the
    /// backjump level and the deepest push frame the derivation depends on.
    fn analyze(&mut self, conflict: usize) -> (usize, usize) {
        let current_level = self.decision_level();
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        // Position 0 is reserved for the asserting literal.
        learnt.push(Literal::from_code(0));
        let mut counter = 0usize;
        let mut trail_index = self.trail.len();
        let mut resolved: Option<Literal> = None;
        let mut reason = conflict;
        let mut max_push = 0;

        loop {
            let header = self.headers[reason];
            max_push = max_push.max(header.push_level);
            for k in header.range() {
                let lit = self.lits[k];
                // When resolving on `resolved`, skip it in its reason clause.
                if Some(lit) == resolved {
                    continue;
                }
                let var = lit.variable().index();
                if self.seen[var] {
                    continue;
                }
                if self.levels[var] == 0 {
                    // Dropping a root-level-falsified literal resolves against
                    // the clause chain that fixed it; the learned clause
                    // inherits that chain's push dependency.
                    max_push = max_push.max(self.var_push[var]);
                    continue;
                }
                self.seen[var] = true;
                self.bump_activity(var);
                if self.levels[var] == current_level {
                    counter += 1;
                } else {
                    learnt.push(lit);
                }
            }
            // Find the next literal on the trail (at the current level) to resolve on.
            let lit = loop {
                trail_index -= 1;
                let lit = self.trail[trail_index];
                if self.seen[lit.variable().index()] {
                    break lit;
                }
            };
            counter -= 1;
            self.seen[lit.variable().index()] = false;
            if counter == 0 {
                // lit is the first UIP; the learned clause asserts its negation.
                learnt[0] = !lit;
                break;
            }
            reason = self.reasons[lit.variable().index()]
                .expect("non-decision literal must have a reason");
            resolved = Some(lit);
        }

        // Minimization: drop every literal the rest of the clause implies.
        // `seen` marks the clause's literals and, as the searches go, every
        // literal proven redundant.
        self.to_clear.clear();
        self.to_clear
            .extend(learnt[1..].iter().map(|l| l.variable().index()));
        let levels = learnt[1..].iter().fold(0, |acc, l| {
            acc | abstract_level(self.levels[l.variable().index()])
        });
        let mut kept = 1;
        for i in 1..learnt.len() {
            let lit = learnt[i];
            match self.lit_redundant(lit, levels) {
                // The walk's reasons join the derivation of the clause.
                Some(dep) => max_push = max_push.max(dep),
                None => {
                    learnt[kept] = lit;
                    kept += 1;
                }
            }
        }
        learnt.truncate(kept);
        for &var in &self.to_clear {
            self.seen[var] = false;
        }

        // Backjump level: the highest level among the non-asserting literals.
        // Put a literal from that level into watch position 1 so that the
        // learned clause wakes up correctly after backjumping.
        let mut backjump = 0;
        if learnt.len() > 1 {
            let mut pos = 1;
            for (i, l) in learnt.iter().enumerate().skip(1) {
                let level = self.levels[l.variable().index()];
                if level > backjump {
                    backjump = level;
                    pos = i;
                }
            }
            learnt.swap(1, pos);
        }
        self.learnt = learnt;
        (backjump, max_push)
    }

    /// Whether the false literal `lit` of the clause being learned is implied
    /// by the clause's other literals: a depth-first walk over reasons that
    /// succeeds when every path ends in a marked literal or at level 0. The
    /// abstract `levels` of the clause prune walks that must fail. On
    /// success returns the deepest push frame the walk resolved through (its
    /// reasons and the root-level literals it skipped); on failure undoes its
    /// marks and returns `None`. A decision is never redundant.
    fn lit_redundant(&mut self, lit: Literal, levels: u32) -> Option<usize> {
        self.reasons[lit.variable().index()]?;
        let mut stack = std::mem::take(&mut self.analyze_stack);
        stack.clear();
        stack.push(lit);
        let top = self.to_clear.len();
        let mut push = 0;
        let mut redundant = true;
        'walk: while let Some(implied) = stack.pop() {
            let implied_var = implied.variable().index();
            let reason = self.reasons[implied_var].expect("only implied literals are expanded");
            let header = self.headers[reason];
            push = push.max(header.push_level);
            for k in header.range() {
                let q = self.lits[k];
                let var = q.variable().index();
                if var == implied_var || self.seen[var] {
                    continue;
                }
                if self.levels[var] == 0 {
                    push = push.max(self.var_push[var]);
                    continue;
                }
                if self.reasons[var].is_some() && abstract_level(self.levels[var]) & levels != 0 {
                    self.seen[var] = true;
                    self.to_clear.push(var);
                    stack.push(q);
                } else {
                    for &var in &self.to_clear[top..] {
                        self.seen[var] = false;
                    }
                    self.to_clear.truncate(top);
                    redundant = false;
                    break 'walk;
                }
            }
        }
        self.analyze_stack = stack;
        redundant.then_some(push)
    }

    /// Literal block distance of `literals`: the number of distinct decision
    /// levels among them. Must run before the post-conflict backjump, while
    /// the levels of the learned literals are still current.
    fn clause_lbd(&mut self, literals: &[Literal]) -> u32 {
        self.lbd_stamp += 1;
        let stamp = self.lbd_stamp;
        let mut lbd = 0;
        for lit in literals {
            let level = self.levels[lit.variable().index()];
            if level >= self.level_stamps.len() {
                self.level_stamps.resize(level + 1, 0);
            }
            if self.level_stamps[level] != stamp {
                self.level_stamps[level] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    fn backjump(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let limit = self.trail_limits[level];
        for i in limit..self.trail.len() {
            let lit = self.trail[i];
            let var = lit.variable().index();
            self.assigns[lit.code()] = VarValue::Unassigned;
            self.assigns[(!lit).code()] = VarValue::Unassigned;
            self.reasons[var] = None;
            self.heap_insert(var);
        }
        self.trail.truncate(limit);
        self.trail_limits.truncate(level);
        self.propagation_head = self.trail.len();
    }

    fn pick_branch_variable(&mut self) -> Option<usize> {
        // Lazy deletion: variables assigned by propagation (or as
        // assumptions) linger in the heap and are skipped here; backjumping
        // re-inserts whatever it unassigns.
        while let Some(var) = self.heap_pop() {
            if self.assigns[2 * var] == VarValue::Unassigned {
                return Some(var);
            }
        }
        None
    }

    /// One reduction round: keeps every original clause, every learned
    /// clause with LBD ≤ 2 and every clause that is the reason of a literal
    /// on the trail, and drops the worse half of the other learned clauses
    /// (higher LBD first, then longer, then older).
    fn reduce_learned_clauses(&mut self) {
        self.reduce_rounds += 1;
        let mut locked = vec![false; self.headers.len()];
        for lit in &self.trail {
            if let Some(reason) = self.reasons[lit.variable().index()] {
                locked[reason] = true;
            }
        }
        let mut candidates: Vec<usize> = (0..self.headers.len())
            .filter(|&i| !locked[i] && self.headers[i].learned && self.headers[i].lbd > 2)
            .collect();
        candidates.sort_by_key(|&i| {
            let header = &self.headers[i];
            std::cmp::Reverse((header.lbd, header.len))
        });
        let mut dropped = vec![false; self.headers.len()];
        for &i in &candidates[..candidates.len() / 2] {
            dropped[i] = true;
        }
        self.compact(|i, _| !dropped[i]);
    }

    /// Removes every clause `keep` rejects: the arena and the headers are
    /// compacted in place (order preserved), and reasons, watch lists and
    /// the unit index are remapped to the new clause indices. Callers never
    /// drop a clause that is the reason of an assigned literal.
    fn compact(&mut self, keep: impl Fn(usize, &ClauseHeader) -> bool) {
        let mut remap = vec![DROPPED; self.headers.len()];
        let (mut next, mut write) = (0, 0);
        for (i, slot) in remap.iter_mut().enumerate() {
            let header = self.headers[i];
            if !keep(i, &header) {
                continue;
            }
            self.lits.copy_within(header.range(), write);
            self.headers[next] = ClauseHeader {
                start: write as u32,
                ..header
            };
            *slot = next as u32;
            next += 1;
            write += header.len as usize;
        }
        self.lits.truncate(write);
        self.headers.truncate(next);
        self.learned_count = self.headers.iter().filter(|h| h.learned).count();
        for reason in self.reasons.iter_mut().flatten() {
            debug_assert_ne!(remap[*reason], DROPPED, "a reason clause was dropped");
            *reason = remap[*reason] as usize;
        }
        for watch_list in &mut self.watches {
            watch_list.retain_mut(|watch| {
                watch.clause = remap[watch.clause as usize];
                watch.clause != DROPPED
            });
        }
        self.units.retain_mut(|unit| {
            let new = remap[*unit];
            *unit = new as usize;
            new != DROPPED
        });
    }

    fn extract_model(&self) -> Assignment {
        Assignment::from_bools(
            (0..self.levels.len())
                .map(|var| self.assigns[2 * var] == VarValue::True)
                .collect(),
        )
    }

    /// Loads a formula's clauses into the database, tagged with `push_level`.
    /// Tautologies are skipped; an empty clause marks the frame as
    /// unconditionally unsatisfiable instead of entering the database.
    fn load_frame(&mut self, formula: &CnfFormula, push_level: usize) {
        let mut lits: Vec<Literal> = Vec::new();
        for clause in formula.iter() {
            lits.clear();
            lits.extend_from_slice(clause.literals());
            lits.sort_unstable();
            lits.dedup();
            if lits.windows(2).any(|w| w[1] == !w[0]) {
                continue;
            }
            if lits.is_empty() {
                if self.empty_clause_level.is_none() {
                    self.empty_clause_level = Some(push_level);
                }
                continue;
            }
            self.add_clause(&lits, false, push_level, 0);
        }
    }

    /// Final-conflict analysis for a falsified assumption `p`: walks the
    /// implication graph backwards from `p` and collects the assumption
    /// decisions it transitively rests on. The returned literals are a subset
    /// of the current call's assumptions that is already inconsistent with
    /// the clause database.
    fn analyze_final(&mut self, p: Literal) -> Vec<Literal> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[p.variable().index()] = true;
        for i in (self.trail_limits[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let var = lit.variable().index();
            if !self.seen[var] {
                continue;
            }
            match self.reasons[var] {
                // Every decision above level 0 at this point is an assumption.
                None => core.push(lit),
                Some(clause) => {
                    for k in self.headers[clause].range() {
                        let q = self.lits[k].variable().index();
                        if self.levels[q] > 0 {
                            self.seen[q] = true;
                        }
                    }
                }
            }
            self.seen[var] = false;
        }
        // `p` itself may be fixed at level 0, below the walked trail segment.
        self.seen[p.variable().index()] = false;
        core
    }

    /// Drains every unseen foreign clause from the attached share pool into
    /// the clause database. Must be called at decision level 0 (a restart
    /// boundary). Returns `true` when an import is falsified outright by the
    /// level-0 trail, which proves the database unsatisfiable.
    fn import_shared_clauses(&mut self) -> bool {
        let Some(mut share) = self.share.take() else {
            return false;
        };
        debug_assert_eq!(self.decision_level(), 0);
        let mut incoming: Vec<Vec<Literal>> = Vec::new();
        share.import(|lits| incoming.push(lits.to_vec()));
        self.share = Some(share);
        let mut conflict = false;
        for literals in incoming {
            self.stats.clauses_imported += 1;
            if self.integrate_import(literals) {
                conflict = true;
            }
        }
        conflict
    }

    /// Adds one imported clause to the database, re-establishing the watch
    /// invariant against the current level-0 trail. Returns `true` when the
    /// clause is falsified at level 0 (the database is unsatisfiable — every
    /// import is implied by the shared base formula).
    fn integrate_import(&mut self, mut literals: Vec<Literal>) -> bool {
        literals.sort_unstable();
        literals.dedup();
        if literals.is_empty() {
            return true;
        }
        if literals
            .iter()
            .any(|&l| literals.binary_search(&!l).is_ok())
        {
            // Tautology: true under every assignment, nothing to learn.
            return false;
        }
        let max_var = literals
            .iter()
            .map(|l| l.variable().index() + 1)
            .max()
            .unwrap_or(0);
        self.ensure_vars(max_var);
        if literals.iter().any(|&l| self.value(l) == VarValue::True) {
            // Already satisfied at level 0 for the rest of this frame — the
            // clause cannot prune anything, skip it.
            return false;
        }
        // Move non-false literals to the front so the watched positions 0/1
        // hold literals that are unassigned under the level-0 trail.
        literals.sort_by_key(|&l| self.value(l) == VarValue::False);
        let non_false = literals
            .iter()
            .take_while(|&&l| self.value(l) != VarValue::False)
            .count();
        if non_false == 0 {
            // Falsified by the level-0 trail: since the import is implied by
            // the base formula, the database itself is unsatisfiable.
            if self.empty_clause_level.is_none() {
                self.empty_clause_level = Some(self.push_depth);
            }
            return true;
        }
        // Imports enter the LBD tiers with LBD = length: no decision levels
        // to count, and long imports stay reducible.
        let idx = self
            .add_clause(&literals, true, self.push_depth, literals.len() as u32)
            .expect("non-empty");
        self.headers[idx].imported = true;
        if non_false == 1 {
            // Exactly one watchable literal: the clause propagates it at
            // level 0 right away (the false watch at position 1 never wakes
            // again, but the clause stays satisfied for the whole frame).
            self.enqueue(literals[0], Some(idx));
        }
        false
    }

    /// Number of clauses in the database that arrived through the shared
    /// clause pool (exposed for the clause-sharing invariant suites).
    pub fn imported_clause_count(&self) -> usize {
        self.headers.iter().filter(|h| h.imported).count()
    }

    /// The literals of every clause currently in the database that arrived
    /// through the shared clause pool (exposed for the clause-sharing
    /// invariant suites, which check each one is implied by the input).
    pub fn imported_clauses(&self) -> Vec<Vec<Literal>> {
        self.headers
            .iter()
            .filter(|h| h.imported)
            .map(|h| self.lits[h.range()].to_vec())
            .collect()
    }

    /// The CDCL main loop over the current clause database, with
    /// `assumptions` enqueued as the first decisions (in order).
    fn search(&mut self, assumptions: &[Literal], limits: &SearchLimits) -> IncrementalResult {
        if self.empty_clause_level.is_some() {
            return IncrementalResult::Unsatisfiable(Vec::new());
        }
        // (Re-)assert stored unit clauses at level 0. Single-literal clauses
        // only watch their own literal, so they never self-propagate at the
        // start of a call.
        for i in 0..self.units.len() {
            let idx = self.units[i];
            let only = self.lits[self.headers[idx].start as usize];
            match self.value(only) {
                VarValue::False => return IncrementalResult::Unsatisfiable(Vec::new()),
                VarValue::True => {}
                VarValue::Unassigned => self.enqueue(only, Some(idx)),
            }
        }
        if self.propagate().is_some() {
            return IncrementalResult::Unsatisfiable(Vec::new());
        }

        let mut conflicts_since_restart = 0u64;
        let mut restart_count = 0u64;
        loop {
            // One deadline check per conflict/decision iteration: each
            // iteration performs a full propagation pass, so the check is
            // amortized noise yet bounds the reaction latency to one
            // propagation.
            if limits.expired() {
                return IncrementalResult::Unknown;
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                self.total_conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    return IncrementalResult::Unsatisfiable(Vec::new());
                }
                let (backjump_level, depends_on) = self.analyze(conflict);
                let learnt = std::mem::take(&mut self.learnt);
                // The LBD needs the decision levels of the learned literals,
                // which go stale once we backjump.
                let lbd = self.clause_lbd(&learnt);
                // Only frame-0 derivations leave the solver — those are the
                // clauses implied by the base formula alone, so a foreign
                // member may adopt them regardless of its own frame stack.
                if depends_on == 0
                    && self
                        .share
                        .as_ref()
                        .is_some_and(|share| share.export(&learnt, lbd))
                {
                    self.stats.clauses_exported += 1;
                }
                self.decay_activities();
                self.backjump(backjump_level);
                let asserting = learnt[0];
                let idx = self
                    .add_clause(&learnt, true, depends_on, lbd)
                    .expect("non-empty");
                let unit = learnt.len() == 1;
                self.learnt = learnt;
                self.stats.learned_clauses += 1;
                if unit {
                    // Unit learned clause: assert at level 0.
                    match self.value(asserting) {
                        VarValue::Unassigned => self.enqueue(asserting, Some(idx)),
                        VarValue::False => return IncrementalResult::Unsatisfiable(Vec::new()),
                        VarValue::True => {}
                    }
                } else {
                    self.enqueue(asserting, Some(idx));
                }
                if self.total_conflicts >= self.next_reduce {
                    self.reduce_gap += self.reduce_increment;
                    self.next_reduce = self.total_conflicts + self.reduce_gap;
                    if self.learned_count > 0 {
                        self.reduce_learned_clauses();
                    }
                }
            } else {
                // Restart check.
                let limit = self.restart_base * luby(restart_count);
                if conflicts_since_restart >= limit {
                    restart_count += 1;
                    conflicts_since_restart = 0;
                    self.stats.restarts += 1;
                    self.backjump(0);
                    // Restart boundary: the trail is back at level 0, which is
                    // the only point where a foreign clause can be integrated
                    // with the two-watched-literal invariant intact.
                    if self.import_shared_clauses() {
                        return IncrementalResult::Unsatisfiable(Vec::new());
                    }
                    continue;
                }
                // Establish the assumptions as the first decisions, in order.
                // A restart backjumps to level 0, so this loop re-establishes
                // them afterwards; already-satisfied assumptions get a dummy
                // decision level so level indices stay aligned.
                let mut next_assumption = None;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value(p) {
                        VarValue::True => self.trail_limits.push(self.trail.len()),
                        VarValue::False => {
                            return IncrementalResult::Unsatisfiable(self.analyze_final(p))
                        }
                        VarValue::Unassigned => {
                            next_assumption = Some(p);
                            break;
                        }
                    }
                }
                if let Some(p) = next_assumption {
                    self.stats.decisions += 1;
                    self.trail_limits.push(self.trail.len());
                    self.enqueue(p, None);
                    continue;
                }
                // Branch.
                match self.pick_branch_variable() {
                    None => return IncrementalResult::Satisfiable(self.extract_model()),
                    Some(var) => {
                        self.stats.decisions += 1;
                        self.trail_limits.push(self.trail.len());
                        let phase = self.saved_phase[var];
                        self.enqueue(Literal::with_phase(Variable::new(var), phase), None);
                    }
                }
            }
        }
    }

    /// Pushes a frame of clauses onto the solver. Returns the new push depth.
    ///
    /// The frame's clauses stay active until a matching [`Self::pop`]; learned
    /// clauses derived from them are tagged so the pop removes exactly the
    /// learned clauses whose derivation touched the frame.
    pub fn push(&mut self, formula: &CnfFormula) -> usize {
        self.push_depth += 1;
        self.model_cached = false;
        self.ensure_vars(formula.num_vars());
        self.load_frame(formula, self.push_depth);
        self.push_depth
    }

    /// Pops the most recent frame, dropping its clauses and every learned
    /// clause that depends on it. Returns `false` when no frame is open.
    pub fn pop(&mut self) -> bool {
        if self.push_depth == 0 {
            return false;
        }
        self.push_depth -= 1;
        self.model_cached = false;
        // The trail may rest on clauses about to be dropped: discard it
        // entirely (activities and phases survive, which is where the
        // incremental speedup lives anyway).
        self.reset_search_state();
        let depth = self.push_depth;
        self.compact(|_, header| header.push_level <= depth);
        if self.empty_clause_level.is_some_and(|l| l > depth) {
            self.empty_clause_level = None;
        }
        true
    }

    /// The number of currently open push frames.
    pub fn push_depth(&self) -> usize {
        self.push_depth
    }

    /// The number of variables the solver currently tracks.
    pub fn num_vars(&self) -> usize {
        self.levels.len()
    }

    /// Solves the pushed clauses under `assumptions`, IPASIR-style.
    ///
    /// Assumption literals are enqueued as the first decisions; when the
    /// database is unsatisfiable under them, the result carries a
    /// failed-assumption core (see [`IncrementalResult::Unsatisfiable`]).
    /// Learned clauses, variable activities and saved phases persist across
    /// calls, which is what makes a sweep of near-identical queries cheaper
    /// than re-solving each from scratch.
    ///
    /// ```
    /// use cnf::{cnf_formula, Literal};
    /// use sat_solvers::{CdclSolver, IncrementalResult, SearchLimits};
    /// let mut solver = CdclSolver::new();
    /// solver.push(&cnf_formula![[1, 2], [-1, 2]]);
    /// let limits = SearchLimits::unlimited();
    /// let lit = |i| Literal::from_dimacs(i).unwrap();
    /// assert!(solver.solve_under_assumptions(&[lit(-2)], &limits).is_unsat());
    /// assert!(solver.solve_under_assumptions(&[lit(2)], &limits).is_sat());
    /// ```
    pub fn solve_under_assumptions(
        &mut self,
        assumptions: &[Literal],
        limits: &SearchLimits,
    ) -> IncrementalResult {
        self.stats = SolverStats::default();
        // Model reuse: the previous call's complete model is still a model of
        // the unchanged clause database, so if it happens to satisfy every
        // new assumption the answer needs no search at all. Sweep workloads
        // hit this constantly — one test pattern detects many faults.
        if self.model_cached
            && assumptions
                .iter()
                .all(|&l| l.code() < self.assigns.len() && self.value(l) == VarValue::True)
        {
            return IncrementalResult::Satisfiable(self.extract_model());
        }
        self.model_cached = false;
        self.reset_search_state();
        let max_var = assumptions
            .iter()
            .map(|l| l.variable().index() + 1)
            .max()
            .unwrap_or(0);
        self.ensure_vars(max_var);
        let result = self.search(assumptions, limits);
        self.model_cached = result.is_sat();
        result
    }
}

/// The abstraction of a decision level used to prune minimization: one bit
/// of a 32-bit set per level, modulo 32.
fn abstract_level(level: usize) -> u32 {
    1 << (level & 31)
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), 0-indexed.
fn luby(i: u64) -> u64 {
    fn luby_one_indexed(i: u64) -> u64 {
        let mut k = 1u64;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            1u64 << (k - 1)
        } else {
            luby_one_indexed(i - ((1u64 << (k - 1)) - 1))
        }
    }
    luby_one_indexed(i + 1)
}

impl Solver for CdclSolver {
    fn solve_limited(&mut self, formula: &CnfFormula, limits: &SearchLimits) -> SolveResult {
        self.init(formula);
        self.load_frame(formula, 0);
        match self.search(&[], limits) {
            IncrementalResult::Satisfiable(model) => {
                debug_assert!(formula.evaluate(&model));
                SolveResult::Satisfiable(model)
            }
            IncrementalResult::Unsatisfiable(_) => SolveResult::Unsatisfiable,
            IncrementalResult::Unknown => SolveResult::Unknown,
        }
    }

    fn attach_share(&mut self, handle: ShareHandle) {
        self.share = Some(handle);
    }

    fn detach_share(&mut self) {
        self.share = None;
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "cdcl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceSolver;
    use cnf::cnf_formula;
    use cnf::generators::{self, RandomKSatConfig};

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expected.len() as u64).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn solves_paper_instances() {
        let mut solver = CdclSolver::new();
        assert!(solver.solve(&generators::example6_sat()).is_sat());
        assert!(solver.solve(&generators::example7_unsat()).is_unsat());
        assert!(solver.solve(&generators::section4_sat_instance()).is_sat());
        assert!(solver
            .solve(&generators::section4_unsat_instance())
            .is_unsat());
    }

    #[test]
    fn model_validity_on_structured_instances() {
        let instances = [
            generators::parity_chain(6, true),
            generators::graph_coloring(&generators::cycle_graph(7), 3),
            generators::pigeonhole(3, 3),
            generators::buggy_adder_miter(2, 0),
        ];
        for f in instances {
            let mut solver = CdclSolver::new();
            let result = solver.solve(&f);
            let model = result.model().expect("instances are satisfiable");
            assert!(f.evaluate(model));
        }
    }

    #[test]
    fn unsat_structured_instances() {
        let instances = [
            generators::pigeonhole(4, 3),
            generators::graph_coloring(&generators::cycle_graph(5), 2),
            generators::adder_equivalence_miter(2),
        ];
        for f in instances {
            let mut solver = CdclSolver::new();
            assert!(solver.solve(&f).is_unsat());
        }
    }

    #[test]
    fn agrees_with_brute_force_on_random_3sat() {
        for seed in 0..60 {
            let cfg = RandomKSatConfig::new(10, 43, 3).with_seed(seed);
            let f = generators::random_ksat(&cfg).unwrap();
            let expected = BruteForceSolver::new().solve(&f).is_sat();
            let mut solver = CdclSolver::new();
            let got = solver.solve(&f);
            assert_eq!(got.is_sat(), expected, "seed {seed}");
            if let Some(m) = got.model() {
                assert!(f.evaluate(m), "seed {seed}");
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_wide_clauses() {
        for seed in 0..20 {
            let cfg = RandomKSatConfig::new(9, 25, 4).with_seed(seed + 1000);
            let f = generators::random_ksat(&cfg).unwrap();
            let expected = BruteForceSolver::new().solve(&f).is_sat();
            let mut solver = CdclSolver::new().with_restart_base(10);
            assert_eq!(solver.solve(&f).is_sat(), expected, "seed {seed}");
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_handled() {
        let f = cnf_formula![[1, 1, 2], [1, -1], [-2, -2], [-1, 2]];
        let expected = BruteForceSolver::new().solve(&f).is_sat();
        assert_eq!(CdclSolver::new().solve(&f).is_sat(), expected);
    }

    #[test]
    fn contradictory_units_detected() {
        assert!(CdclSolver::new().solve(&cnf_formula![[3], [-3]]).is_unsat());
    }

    #[test]
    fn empty_formula_and_empty_clause() {
        assert!(CdclSolver::new().solve(&cnf::CnfFormula::new(4)).is_sat());
        let mut f = cnf::CnfFormula::new(1);
        f.push_clause(cnf::Clause::new());
        assert!(CdclSolver::new().solve(&f).is_unsat());
    }

    #[test]
    fn expired_deadline_interrupts_with_unknown() {
        let f = generators::pigeonhole(7, 6);
        let mut solver = CdclSolver::new();
        let limits = SearchLimits::deadline_in(std::time::Duration::ZERO);
        assert_eq!(solver.solve_limited(&f, &limits), SolveResult::Unknown);
        assert!(solver.solve(&generators::example6_sat()).is_sat());
    }

    #[test]
    fn restarts_happen_on_hard_unsat_instances() {
        let f = generators::pigeonhole(5, 4);
        let mut solver = CdclSolver::new().with_restart_base(5);
        assert!(solver.solve(&f).is_unsat());
        assert!(solver.stats().restarts > 0);
        assert!(solver.stats().learned_clauses > 0);
        assert_eq!(solver.name(), "cdcl");
    }

    fn lit(i: i64) -> Literal {
        Literal::from_dimacs(i).expect("nonzero dimacs literal")
    }

    /// Checks an incremental verdict against solving `formula` plus the
    /// assumptions as unit clauses from scratch, and — on UNSAT — that the
    /// returned core is a subset of the assumptions and itself inconsistent
    /// with the formula.
    fn check_incremental_against_oracle(
        solver: &mut CdclSolver,
        formula: &CnfFormula,
        assumptions: &[Literal],
    ) {
        let limits = SearchLimits::unlimited();
        let result = solver.solve_under_assumptions(assumptions, &limits);
        let mut augmented = formula.clone();
        augmented.ensure_vars(solver.num_vars());
        for &a in assumptions {
            augmented.push_clause(cnf::Clause::from_literals(vec![a]));
        }
        let oracle = CdclSolver::new().solve(&augmented);
        match &result {
            IncrementalResult::Satisfiable(model) => {
                assert!(oracle.is_sat(), "incremental SAT but oracle UNSAT");
                assert!(formula.evaluate(model));
                for &a in assumptions {
                    assert!(model.satisfies(a), "assumption {a} not honoured by model");
                }
            }
            IncrementalResult::Unsatisfiable(core) => {
                assert!(oracle.is_unsat(), "incremental UNSAT but oracle SAT");
                for c in core {
                    assert!(assumptions.contains(c), "core literal {c} not assumed");
                }
                let mut with_core = formula.clone();
                with_core.ensure_vars(solver.num_vars());
                for &c in core {
                    with_core.push_clause(cnf::Clause::from_literals(vec![c]));
                }
                assert!(
                    CdclSolver::new().solve(&with_core).is_unsat(),
                    "core {core:?} is not inconsistent with the formula"
                );
            }
            IncrementalResult::Unknown => panic!("unlimited search returned Unknown"),
        }
    }

    #[test]
    fn incremental_agrees_with_unit_clause_oracle() {
        for seed in 0..25 {
            let cfg = RandomKSatConfig::new(8, 30, 3).with_seed(seed + 7000);
            let f = generators::random_ksat(&cfg).unwrap();
            let mut solver = CdclSolver::new();
            solver.push(&f);
            // Several calls against the same persistent solver.
            for call in 0..4u64 {
                let a = ((seed + call) % 8) as i64 + 1;
                let b = ((seed + 3 * call + 2) % 8) as i64 + 1;
                let assumptions = [
                    lit(if call % 2 == 0 { a } else { -a }),
                    lit(if call % 3 == 0 { b } else { -b }),
                ];
                let assumptions: Vec<Literal> =
                    if assumptions[0].variable() == assumptions[1].variable() {
                        assumptions[..1].to_vec()
                    } else {
                        assumptions.to_vec()
                    };
                check_incremental_against_oracle(&mut solver, &f, &assumptions);
            }
        }
    }

    #[test]
    fn failed_assumption_core_on_chain() {
        // 1 → 2 → 3; assuming 1 and ¬3 is inconsistent.
        let f = cnf_formula![[-1, 2], [-2, 3]];
        let mut solver = CdclSolver::new();
        solver.push(&f);
        let limits = SearchLimits::unlimited();
        let result = solver.solve_under_assumptions(&[lit(1), lit(-3)], &limits);
        let core = result
            .failed_assumptions()
            .expect("UNSAT under assumptions");
        assert!(!core.is_empty());
        check_incremental_against_oracle(&mut solver, &f, &[lit(1), lit(-3)]);
        // Same solver answers SAT afterwards.
        assert!(solver.solve_under_assumptions(&[lit(1)], &limits).is_sat());
    }

    #[test]
    fn contradictory_assumptions_yield_core() {
        let f = cnf_formula![[1, 2]];
        let mut solver = CdclSolver::new();
        solver.push(&f);
        let limits = SearchLimits::unlimited();
        let result = solver.solve_under_assumptions(&[lit(3), lit(-3)], &limits);
        let core = result
            .failed_assumptions()
            .expect("contradictory assumptions");
        assert!(core.contains(&lit(3)) && core.contains(&lit(-3)));
    }

    #[test]
    fn formula_unsat_core_is_subset_of_assumptions() {
        let f = generators::pigeonhole(4, 3);
        let mut solver = CdclSolver::new();
        solver.push(&f);
        // With no assumptions the core must be empty (a subset of nothing)...
        let limits = SearchLimits::unlimited();
        match solver.solve_under_assumptions(&[], &limits) {
            IncrementalResult::Unsatisfiable(core) => assert!(core.is_empty()),
            other => panic!("expected UNSAT, got {other:?}"),
        }
        // ...and with an irrelevant assumption the core stays a valid subset
        // (it may name the assumption: formula ∧ core is still UNSAT).
        check_incremental_against_oracle(&mut solver, &f, &[lit(1)]);
    }

    #[test]
    fn pop_restores_satisfiability() {
        let base = cnf_formula![[1, 2], [-1, 2]];
        let contradiction = cnf_formula![[-2]];
        let mut solver = CdclSolver::new();
        let limits = SearchLimits::unlimited();
        solver.push(&base);
        assert_eq!(solver.push_depth(), 1);
        assert!(solver.solve_under_assumptions(&[], &limits).is_sat());
        solver.push(&contradiction);
        assert_eq!(solver.push_depth(), 2);
        match solver.solve_under_assumptions(&[], &limits) {
            IncrementalResult::Unsatisfiable(core) => assert!(core.is_empty()),
            other => panic!("expected UNSAT, got {other:?}"),
        }
        assert!(solver.pop());
        assert_eq!(solver.push_depth(), 1);
        // Any learned clause depending on the popped frame is gone: the base
        // frame is satisfiable again, with 2 forced true.
        let result = solver.solve_under_assumptions(&[], &limits);
        let model = result.model().expect("base frame is SAT");
        assert!(model.satisfies(lit(2)));
        assert!(solver.pop());
        assert!(!solver.pop());
    }

    #[test]
    fn learned_clauses_survive_unrelated_pops() {
        // Frame 1: a hard UNSAT core teaches the solver plenty. Frame 2 is
        // independent; popping it must not forget frame 1's lessons or break
        // later calls.
        let hard = generators::pigeonhole(4, 3);
        let mut solver = CdclSolver::new();
        let limits = SearchLimits::unlimited();
        solver.push(&hard);
        assert!(solver.solve_under_assumptions(&[], &limits).is_unsat());
        let learned_after_first = solver.learned_count;
        assert!(learned_after_first > 0);
        let mut side = CnfFormula::new(solver.num_vars());
        side.push_clause(cnf::Clause::from_literals(vec![lit(1)]));
        solver.push(&side);
        solver.pop();
        // Learned clauses tagged with frame 1 survive the pop of frame 2.
        let learned_after_pop = solver.learned_count;
        assert_eq!(learned_after_pop, learned_after_first);
        assert!(solver.solve_under_assumptions(&[], &limits).is_unsat());
    }

    #[test]
    fn empty_clause_in_frame_pops_cleanly() {
        let mut with_empty = CnfFormula::new(2);
        with_empty.push_clause(cnf::Clause::new());
        let mut solver = CdclSolver::new();
        let limits = SearchLimits::unlimited();
        solver.push(&cnf_formula![[1, 2]]);
        solver.push(&with_empty);
        match solver.solve_under_assumptions(&[lit(1)], &limits) {
            IncrementalResult::Unsatisfiable(core) => assert!(core.is_empty()),
            other => panic!("expected UNSAT, got {other:?}"),
        }
        solver.pop();
        assert!(solver.solve_under_assumptions(&[lit(1)], &limits).is_sat());
    }

    #[test]
    fn assumptions_widen_the_variable_range() {
        let mut solver = CdclSolver::new();
        let limits = SearchLimits::unlimited();
        solver.push(&cnf_formula![[1]]);
        // Variable 5 is unknown to the clause database; assuming it must
        // still be honoured in the model.
        let result = solver.solve_under_assumptions(&[lit(-5)], &limits);
        let model = result.model().expect("SAT");
        assert!(model.satisfies(lit(-5)));
        assert!(solver.num_vars() >= 5);
    }

    #[test]
    fn incremental_deadline_returns_unknown() {
        let mut solver = CdclSolver::new();
        solver.push(&generators::pigeonhole(7, 6));
        let limits = SearchLimits::deadline_in(std::time::Duration::ZERO);
        assert_eq!(
            solver.solve_under_assumptions(&[], &limits),
            IncrementalResult::Unknown
        );
        // The solver remains usable after an interrupted call.
        assert!(solver
            .solve_under_assumptions(&[], &SearchLimits::unlimited())
            .is_unsat());
    }

    #[test]
    fn exports_flow_between_cooperating_solvers() {
        use crate::share::{ShareHandle, SharedClausePool};
        use std::sync::Arc;

        let pool = Arc::new(SharedClausePool::default());
        let formula = generators::pigeonhole(5, 4);

        let mut exporter = CdclSolver::new().with_restart_base(1);
        exporter.attach_share(ShareHandle::new(Arc::clone(&pool), 0));
        assert!(exporter.solve(&formula).is_unsat());
        assert!(exporter.stats().clauses_exported > 0);
        // A member never re-imports its own exports.
        assert_eq!(exporter.stats().clauses_imported, 0);

        let mut importer = CdclSolver::new().with_restart_base(1);
        importer.attach_share(ShareHandle::new(Arc::clone(&pool), 1));
        assert!(importer.solve(&formula).is_unsat());
        assert!(importer.stats().clauses_imported > 0);
        assert!(importer.imported_clause_count() > 0);
        // Every clause in the pool came from frame-0 derivations on the same
        // formula, so each one is implied by it: any model of the formula
        // satisfies every imported clause. (UNSAT here, so spot-check on the
        // SAT sibling below instead.)
    }

    #[test]
    fn imported_clauses_satisfy_models() {
        use crate::share::{ShareHandle, SharedClausePool};
        use std::sync::Arc;

        // Once with the default schedule, once reducing after every conflict
        // so the imports also go through reduction rounds.
        for reduce_every_conflict in [false, true] {
            let pool = Arc::new(SharedClausePool::default());
            let mut reduce_rounds = 0;
            for seed in 0..5 {
                let cfg = RandomKSatConfig::new(9, 30, 3).with_seed(seed + 4200);
                let formula = generators::random_ksat(&cfg).unwrap();
                let mut exporter = CdclSolver::new().with_restart_base(1);
                exporter.attach_share(ShareHandle::new(Arc::clone(&pool), 0));
                let baseline = exporter.solve(&formula);

                let mut importer = CdclSolver::new().with_restart_base(1);
                if reduce_every_conflict {
                    importer = with_reduce_schedule(importer, 1, 0);
                }
                importer.attach_share(ShareHandle::new(Arc::clone(&pool), 1));
                let shared = importer.solve(&formula);
                reduce_rounds += importer.reduce_rounds;
                assert_eq!(baseline.is_sat(), shared.is_sat(), "seed {seed}");
                if let SolveResult::Satisfiable(model) = &shared {
                    for clause in importer.imported_clauses() {
                        assert!(
                            clause.iter().any(|&l| model.satisfies(l)),
                            "imported clause {clause:?} not satisfied by model (seed {seed})"
                        );
                    }
                }
                assert_database_consistent(&importer);
            }
            assert_eq!(reduce_rounds > 0, reduce_every_conflict);
        }
    }

    #[test]
    fn pop_drops_imports_taken_inside_the_frame() {
        use crate::share::{ShareHandle, SharedClausePool};
        use std::sync::Arc;

        let pool = Arc::new(SharedClausePool::default());
        // A foreign member seeds the pool before our solver ever searches.
        let foreign = ShareHandle::new(Arc::clone(&pool), 1);
        assert!(foreign.export(&[lit(1), lit(2)], 2));
        assert!(foreign.export(&[lit(-1), lit(3)], 2));
        // Long enough to sit in a reducible LBD tier once imported.
        assert!(foreign.export(&[lit(-2), lit(4), lit(-5), lit(7)], 4));

        // Reduction rounds after every conflict: the imports live through
        // several of them before the pop.
        let mut solver = with_reduce_schedule(CdclSolver::new().with_restart_base(1), 1, 0);
        solver.attach_share(ShareHandle::new(Arc::clone(&pool), 0));
        solver.push(&generators::pigeonhole(4, 3));
        let limits = SearchLimits::unlimited();
        assert!(solver.solve_under_assumptions(&[], &limits).is_unsat());
        assert!(solver.imported_clause_count() > 0);
        assert!(solver.reduce_rounds > 0);
        assert_database_consistent(&solver);
        solver.pop();
        assert_database_consistent(&solver);
        // Imports were tagged with the frame they arrived in; the pop drops
        // every one of them.
        assert_eq!(solver.imported_clause_count(), 0);
    }

    #[test]
    fn falsified_import_reports_unsat() {
        use crate::share::{ShareHandle, SharedClausePool};
        use std::sync::Arc;

        // The exporter contract guarantees pooled clauses are implied by the
        // shared formula; this test bypasses it to exercise the level-0
        // falsification path: a clause contradicting the root trail proves
        // the database unsatisfiable.
        let pool = Arc::new(SharedClausePool::default());
        let foreign = ShareHandle::new(Arc::clone(&pool), 1);
        assert!(foreign.export(&[lit(-1)], 1));

        // One conflict then a restart (base 1), at which point the import of
        // ¬x1 clashes with the level-0 unit x1.
        let mut solver = CdclSolver::new().with_restart_base(1);
        solver.attach_share(ShareHandle::new(Arc::clone(&pool), 0));
        let formula = cnf_formula![[1, 2], [1, -2], [-1, 2]];
        assert!(solver.solve(&formula).is_unsat());
        assert!(solver.stats().clauses_imported > 0);
    }

    #[test]
    fn detached_solver_matches_baseline() {
        use crate::share::{ShareHandle, SharedClausePool};
        use std::sync::Arc;

        let pool = Arc::new(SharedClausePool::default());
        let formula = generators::pigeonhole(4, 3);
        let mut solver = CdclSolver::new().with_restart_base(1);
        solver.attach_share(ShareHandle::new(Arc::clone(&pool), 0));
        solver.detach_share();
        assert!(solver.solve(&formula).is_unsat());
        assert_eq!(solver.stats().clauses_exported, 0);
        assert_eq!(solver.stats().clauses_imported, 0);

        let mut baseline = CdclSolver::new().with_restart_base(1);
        assert!(baseline.solve(&formula).is_unsat());
        assert_eq!(solver.stats().conflicts, baseline.stats().conflicts);
    }

    /// Sets the reduction schedule of a fresh solver: the first round after
    /// `base` conflicts, each later gap `increment` conflicts longer.
    fn with_reduce_schedule(mut solver: CdclSolver, base: u64, increment: u64) -> CdclSolver {
        solver.reduce_base = base;
        solver.reduce_increment = increment;
        solver.reduce_gap = base;
        solver.next_reduce = base;
        solver
    }

    /// Structural invariants of the arena after any compaction: headers tile
    /// the arena in order, every clause of two or more literals is watched
    /// by exactly its first two literals, single-literal clauses are indexed
    /// as units, and the learned-clause counter matches the headers.
    fn assert_database_consistent(solver: &CdclSolver) {
        let mut next_start = 0;
        let mut watched = vec![0usize; solver.headers.len()];
        for (code, watch_list) in solver.watches.iter().enumerate() {
            for watch in watch_list {
                let clause = solver.clause(watch.clause as usize);
                assert!(clause[..clause.len().min(2)].contains(&Literal::from_code(code)));
                assert!(clause.contains(&watch.blocker));
                watched[watch.clause as usize] += 1;
            }
        }
        for (i, header) in solver.headers.iter().enumerate() {
            assert_eq!(header.start as usize, next_start, "clause {i} not packed");
            next_start += header.len as usize;
            assert_eq!(watched[i], header.len.min(2) as usize, "clause {i} watches");
            assert_eq!(
                solver.units.contains(&i),
                header.len == 1,
                "clause {i} unit index"
            );
        }
        assert_eq!(next_start, solver.lits.len());
        let learned = solver.headers.iter().filter(|h| h.learned).count();
        assert_eq!(solver.learned_count, learned);
    }

    /// Every clause in the database holds under every model of `formula`
    /// (brute force: keep `formula` small).
    fn assert_database_implied_by(solver: &CdclSolver, formula: &CnfFormula) {
        let n = formula.num_vars();
        for bits in 0u64..1 << n {
            let model = Assignment::from_bools((0..n).map(|v| bits >> v & 1 == 1).collect());
            if !formula.evaluate(&model) {
                continue;
            }
            for (i, header) in solver.headers.iter().enumerate() {
                let clause = solver.clause(i);
                assert!(
                    clause.iter().any(|&l| model.satisfies(l)),
                    "clause {clause:?} (learned {}, frame {}) is not implied",
                    header.learned,
                    header.push_level
                );
            }
        }
    }

    #[test]
    fn scheduled_reduction_shrinks_the_database_and_keeps_the_verdict() {
        let mut solver = CdclSolver::new();
        assert!(solver.solve(&generators::pigeonhole(8, 7)).is_unsat());
        // php(8,7) needs several thousand conflicts, past the first round.
        assert!(solver.stats().conflicts >= solver.reduce_base);
        assert!(solver.reduce_rounds > 0);
        assert!(solver.learned_count < solver.stats().learned_clauses as usize);
        assert_database_consistent(&solver);
        // The solver stays usable after the rounds.
        assert!(solver.solve(&generators::pigeonhole(5, 4)).is_unsat());
        assert!(solver.solve(&generators::example6_sat()).is_sat());
    }

    #[test]
    fn reduction_keeps_every_current_reason() {
        // A satisfiable instance that takes some search: after the SAT answer
        // the whole trail, with its reasons, is still in place.
        let (formula, mut solver) = (0..50)
            .find_map(|seed| {
                let cfg = RandomKSatConfig::from_ratio(100, 4.2, 3).with_seed(seed);
                let formula = generators::random_ksat(&cfg).unwrap();
                let mut solver = CdclSolver::new();
                solver.push(&formula);
                let sat = solver
                    .solve_under_assumptions(&[], &SearchLimits::unlimited())
                    .is_sat();
                (sat && solver.learned_count >= 100).then_some((formula, solver))
            })
            .expect("a satisfiable seed with at least 100 learned clauses");
        let reasons: Vec<(usize, Vec<Literal>)> = solver
            .trail
            .iter()
            .filter_map(|lit| {
                let var = lit.variable().index();
                solver.reasons[var].map(|r| (var, solver.clause(r).to_vec()))
            })
            .collect();
        assert!(!reasons.is_empty());
        let learned_before = solver.learned_count;
        solver.reduce_learned_clauses();
        assert!(
            solver.learned_count < learned_before,
            "the round dropped nothing"
        );
        for (var, literals) in &reasons {
            let reason = solver.reasons[*var].expect("reason kept");
            assert_eq!(solver.clause(reason), literals.as_slice());
        }
        assert_database_consistent(&solver);
        check_incremental_against_oracle(&mut solver, &formula, &[lit(1), lit(-2)]);
        check_incremental_against_oracle(&mut solver, &formula, &[]);
    }

    #[test]
    fn reduction_under_frames_then_pop_matches_the_oracle() {
        for seed in 0..4 {
            let base = generators::random_ksat(
                &RandomKSatConfig::from_ratio(50, 4.0, 3).with_seed(seed + 300),
            )
            .unwrap();
            let top = generators::random_ksat(
                &RandomKSatConfig::from_ratio(50, 0.4, 3).with_seed(seed + 400),
            )
            .unwrap();
            let mut both = base.clone();
            for clause in top.iter() {
                both.push_clause(clause.clone());
            }
            let mut solver = with_reduce_schedule(CdclSolver::new(), 10, 5);
            solver.push(&base);
            solver.push(&top);
            for call in 0..8i64 {
                let assumptions = [lit(call % 50 + 1), lit(-((call * 7 + 3) % 50 + 1))];
                check_incremental_against_oracle(&mut solver, &both, &assumptions);
            }
            check_incremental_against_oracle(&mut solver, &both, &[]);
            assert!(solver.reduce_rounds > 0, "seed {seed}: no reduction round");
            assert!(solver.pop());
            assert_database_consistent(&solver);
            for call in 0..8i64 {
                let assumptions = [lit(-(call % 50 + 1)), lit((call * 11 + 5) % 50 + 1)];
                check_incremental_against_oracle(&mut solver, &base, &assumptions);
            }
            check_incremental_against_oracle(&mut solver, &base, &[]);
        }
    }

    #[test]
    fn learned_clauses_stay_implied_by_the_frames_that_survive_a_pop() {
        // Small enough to enumerate: after every call each clause in the
        // database must be implied by the pushed frames, and after the pop
        // by the base frame alone. A learned clause whose derivation (first
        // UIP, minimization, or a root-level literal it dropped) touched the
        // top frame must leave with it.
        for seed in 0..40 {
            let base =
                generators::random_ksat(&RandomKSatConfig::new(12, 40, 3).with_seed(seed + 500))
                    .unwrap();
            let top =
                generators::random_ksat(&RandomKSatConfig::new(12, 14, 2).with_seed(seed + 600))
                    .unwrap();
            let mut both = base.clone();
            for clause in top.iter() {
                both.push_clause(clause.clone());
            }
            let mut solver = with_reduce_schedule(CdclSolver::new().with_restart_base(2), 3, 1);
            solver.push(&base);
            solver.push(&top);
            for call in 0..4i64 {
                let assumptions = [lit((seed as i64 + call) % 12 + 1)];
                check_incremental_against_oracle(&mut solver, &both, &assumptions);
                assert_database_implied_by(&solver, &both);
            }
            solver.pop();
            assert_database_consistent(&solver);
            assert_database_implied_by(&solver, &base);
            check_incremental_against_oracle(&mut solver, &base, &[lit(-(seed as i64 % 12) - 1)]);
        }
    }

    #[test]
    fn minimization_drops_implied_literals_and_inherits_their_frame() {
        // Assuming 1 then 3: 1 implies 2; 3 and 2 imply 5, which conflicts
        // with (¬3 ∨ ¬1 ∨ ¬5). The first-UIP clause is (¬3 ∨ ¬1 ∨ ¬2), and
        // minimization drops ¬2 because the reason of 2 rests on ¬1 alone
        // (plus root-level literals). The top frame supplies what that
        // walk resolves through: in the first case the reason (¬1 ∨ 2)
        // itself, in the second the root-level unit 6 the reason
        // (¬1 ∨ ¬6 ∨ 2) needs. Either way the shorter clause depends on the
        // top frame although the rest of its derivation does not.
        let cases = [
            (
                cnf_formula![[-3, -2, 5], [-3, -1, -5]],
                cnf_formula![[-1, 2]],
            ),
            (
                cnf_formula![[-3, -2, 5], [-3, -1, -5], [-1, -6, 2]],
                cnf_formula![[6]],
            ),
        ];
        for (case, (base, top)) in cases.iter().enumerate() {
            let mut solver = CdclSolver::new();
            solver.push(base);
            solver.push(top);
            let limits = SearchLimits::unlimited();
            let result = solver.solve_under_assumptions(&[lit(1), lit(3)], &limits);
            assert!(result.is_unsat(), "case {case}");
            let learned: Vec<(Vec<Literal>, usize)> = solver
                .headers
                .iter()
                .enumerate()
                .filter(|(_, h)| h.learned)
                .map(|(i, h)| {
                    let mut clause = solver.clause(i).to_vec();
                    clause.sort();
                    (clause, h.push_level)
                })
                .collect();
            assert_eq!(learned, vec![(vec![lit(-1), lit(-3)], 2)], "case {case}");
            // Popping the top frame drops the clause: without the top frame
            // both assumptions hold together.
            solver.pop();
            assert_eq!(solver.learned_count, 0, "case {case}");
            assert!(solver
                .solve_under_assumptions(&[lit(1), lit(3)], &limits)
                .is_sat());
        }
    }
}
