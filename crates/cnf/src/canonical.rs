//! Canonical preprocessing for the solve pipeline: deterministic
//! normalization, unit/pure reduction with an invertible [`ReductionTrace`],
//! and a renaming-invariant canonical form usable as a cache key.
//!
//! The NBL engines of the paper scale exponentially in *live* variables, so
//! every variable removed before dispatch widens the range the stack can
//! serve. This module is the front half of that story:
//!
//! 1. [`normalize`] — a deterministic, idempotent cleanup (sort literals
//!    within clauses, drop duplicate literals, duplicate clauses and
//!    tautologies) that never changes the set of models.
//! 2. [`preprocess`] — normalization followed by the unit-propagation /
//!    pure-literal fixpoint of [`mod@crate::simplify`], then a renaming of the
//!    surviving variables to a dense canonical order. The result is either an
//!    outright verdict (with a model in the caller's variable space when
//!    satisfiable) or a reduced formula plus the [`ReductionTrace`] that maps
//!    models and literals back.
//! 3. [`canonicalize`] / [`fingerprint`] — a canonical variable order
//!    computed by iterative signature refinement, so two formulas that
//!    differ only by a variable renaming and clause/literal permutations map
//!    to the *same* reduced formula and therefore the same fingerprint. A
//!    verdict cache keyed this way answers renamed resubmissions without a
//!    solve. Ties the refinement leaves are broken without any search when
//!    every tied class is interchangeable (swapping two of its members is an
//!    automorphism of the formula, as for the operand bits `a_i`, `b_i` of a
//!    buggy adder miter): then every order consistent with the coloring
//!    encodes the same formula, so the (color, input index) order is
//!    canonical, and it is the order the search would have returned. Only
//!    the other inputs pay for the budgeted individualize-and-refine search:
//!    pigeonhole, equivalence miters (whose two copies swap only as wholes)
//!    and some ATPG sweeps.

use crate::assignment::Assignment;
use crate::clause::Clause;
use crate::formula::CnfFormula;
use crate::simplify::simplify;
use crate::var::{Literal, Variable};

/// Leaf budget of the individualize-and-refine tie-break search: how many
/// complete candidate orderings [`canonicalize`] may encode before falling
/// back to the deterministic (but not renaming-invariant) input-order
/// tie-break. Highly symmetric formulas are the only way to exceed it, and
/// the fallback only costs cache hit rate, never correctness. Interchangeable
/// classes never spend it: [`canonicalize`] recognizes them before the
/// search and takes the order the search would have returned.
const CANONICAL_LEAF_BUDGET: usize = 64;

/// Returns a deterministic, idempotent normal form of `formula`: literals
/// sorted and deduplicated within each clause, tautological clauses dropped,
/// clauses sorted lexicographically and deduplicated. The variable count is
/// preserved, so `normalize(normalize(f)) == normalize(f)` and the set of
/// satisfying assignments is unchanged.
pub fn normalize(formula: &CnfFormula) -> CnfFormula {
    let mut clauses: Vec<Clause> = formula
        .iter()
        .filter(|clause| !clause.is_tautology())
        .map(Clause::normalized)
        .collect();
    clauses.sort_by(|a, b| {
        a.iter()
            .map(|lit| lit.code())
            .cmp(b.iter().map(|lit| lit.code()))
    });
    clauses.dedup();
    CnfFormula::from_clauses(formula.num_vars(), clauses)
}

/// The invertible record of one [`preprocess`] reduction: which literals were
/// forced (unit propagation, pure literals) in the *original* variable space,
/// and how the surviving variables were renamed to the dense canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionTrace {
    original_vars: usize,
    /// Literals fixed during simplification, in the original variable space.
    forced: Vec<Literal>,
    /// Canonical index → original variable, for every surviving variable.
    kept: Vec<Variable>,
}

impl ReductionTrace {
    /// Number of variables the caller's formula had.
    pub fn original_vars(&self) -> usize {
        self.original_vars
    }

    /// Number of variables surviving in the reduced formula.
    pub fn reduced_vars(&self) -> usize {
        self.kept.len()
    }

    /// How many of the caller's variables the reduction eliminated.
    pub fn vars_removed(&self) -> usize {
        self.original_vars - self.kept.len()
    }

    /// The literals fixed by simplification, in the original variable space.
    pub fn forced(&self) -> &[Literal] {
        &self.forced
    }

    /// The original variable behind a canonical one, or `None` when the
    /// canonical index is out of range.
    pub fn original_variable(&self, canonical: Variable) -> Option<Variable> {
        self.kept.get(canonical.index()).copied()
    }

    /// Maps a literal of the reduced formula back to the caller's variable
    /// space (the polarity is preserved; only variables are renamed).
    pub fn lift_literal(&self, lit: Literal) -> Option<Literal> {
        self.original_variable(lit.variable())
            .map(|var| var.literal(lit.phase()))
    }

    /// Lifts a model of the reduced formula to a complete assignment in the
    /// caller's variable space: forced literals take their forced value,
    /// surviving variables take the model's value, and variables eliminated
    /// as unconstrained default to `false`.
    pub fn lift_model(&self, model: &Assignment) -> Assignment {
        let mut lifted = Assignment::all_false(self.original_vars);
        for &lit in &self.forced {
            lifted.set(lit.variable(), lit.is_positive());
        }
        for (canonical, &original) in self.kept.iter().enumerate() {
            lifted.set(original, model.value(Variable::new(canonical)));
        }
        lifted
    }
}

/// What [`preprocess`] decided about a formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreprocessOutcome {
    /// Simplification satisfied every clause; the model is in the caller's
    /// variable space (unconstrained variables default to `false`).
    Satisfiable(Assignment),
    /// Simplification derived the empty clause: unsatisfiable.
    Unsatisfiable,
    /// A non-trivial residual remains: the reduced formula, renamed to the
    /// dense canonical order, plus the trace mapping back.
    Reduced {
        /// The reduced formula over the dense canonical variables.
        formula: CnfFormula,
        /// The invertible record mapping models and literals back to the
        /// caller's variable space.
        trace: ReductionTrace,
    },
}

/// Size telemetry of one [`preprocess`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreprocessReport {
    /// Variables in the caller's formula.
    pub original_vars: usize,
    /// Clauses in the caller's formula.
    pub original_clauses: usize,
    /// Variables in the reduced formula (0 when solved outright).
    pub reduced_vars: usize,
    /// Clauses in the reduced formula (0 when solved outright).
    pub reduced_clauses: usize,
    /// Literals fixed by unit propagation and pure-literal elimination.
    pub forced_literals: usize,
}

impl PreprocessReport {
    /// Variables eliminated by the reduction.
    pub fn vars_removed(&self) -> usize {
        self.original_vars.saturating_sub(self.reduced_vars)
    }

    /// Clauses eliminated by the reduction.
    pub fn clauses_removed(&self) -> usize {
        self.original_clauses.saturating_sub(self.reduced_clauses)
    }
}

/// The result of [`preprocess`]: the decision plus size telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Preprocessed {
    /// What preprocessing decided.
    pub outcome: PreprocessOutcome,
    /// Size telemetry of the reduction.
    pub report: PreprocessReport,
}

/// Runs the full preprocessing stage: [`normalize`], the unit-propagation /
/// pure-literal fixpoint of [`simplify`], a second normalization of the
/// residual, then [`canonicalize`] to the dense canonical variable order.
///
/// The reduction is verdict-preserving: the reduced formula is satisfiable
/// exactly when the caller's formula is, and
/// [`ReductionTrace::lift_model`] turns any model of the reduced formula
/// into a model of the caller's formula.
pub fn preprocess(formula: &CnfFormula) -> Preprocessed {
    let mut report = PreprocessReport {
        original_vars: formula.num_vars(),
        original_clauses: formula.num_clauses(),
        ..PreprocessReport::default()
    };
    let normalized = normalize(formula);
    if normalized.has_empty_clause() {
        return Preprocessed {
            outcome: PreprocessOutcome::Unsatisfiable,
            report,
        };
    }
    let (residual, simplified) = simplify(&normalized);
    report.forced_literals = simplified.fixed.len();
    if simplified.proved_unsat {
        return Preprocessed {
            outcome: PreprocessOutcome::Unsatisfiable,
            report,
        };
    }
    if simplified.proved_sat {
        let mut model = Assignment::all_false(formula.num_vars());
        for lit in &simplified.fixed {
            model.set(lit.variable(), lit.is_positive());
        }
        return Preprocessed {
            outcome: PreprocessOutcome::Satisfiable(model),
            report,
        };
    }
    // Literal removal can leave equal clauses behind; normalize again so the
    // canonical form never depends on the order simplification visited them.
    let residual = normalize(&residual);
    let (reduced, kept) = canonicalize(&residual);
    report.reduced_vars = reduced.num_vars();
    report.reduced_clauses = reduced.num_clauses();
    let trace = ReductionTrace {
        original_vars: formula.num_vars(),
        forced: simplified.fixed,
        kept,
    };
    Preprocessed {
        outcome: PreprocessOutcome::Reduced {
            formula: reduced,
            trace,
        },
        report,
    }
}

/// Renames the occurring variables of `formula` to a dense canonical order
/// and returns the renamed formula together with the order (new index →
/// original variable).
///
/// The order is computed by iterative signature refinement over the
/// variable–clause incidence structure (a Weisfeiler–Lehman-style coloring
/// that is invariant under variable renaming and clause/literal
/// permutations). Ties the refinement leaves are broken in one of two ways:
///
/// - **Interchangeable classes.** If, for every tied class, swapping any two
///   members adjacent in input order maps the clause multiset onto itself,
///   the order is (color, input index) and no search runs. Those adjacent
///   transpositions generate the full symmetric group on each class, so every
///   order consistent with the coloring encodes the same formula (renaming
///   invariance holds whatever the budget), and refinement after
///   individualizing one member never splits the rest of any class. The
///   search below would therefore return its first leaf, which individualizes
///   members in input order and so is exactly this order, or exhaust its
///   budget and fall back to the same order: the shortcut changes the cost,
///   never the output.
/// - **Search.** Otherwise a budgeted individualize-and-refine search picks
///   the lexicographically minimal encoding. Within the budget, two formulas
///   differing only by a renaming produce the *same* canonical formula.
///   Beyond it (pathologically symmetric inputs), the tie-break degrades to
///   input order — still deterministic, merely not renaming-invariant.
pub fn canonicalize(formula: &CnfFormula) -> (CnfFormula, Vec<Variable>) {
    let vars = formula.occurring_variables();
    if vars.is_empty() {
        return (CnfFormula::new(0), Vec::new());
    }
    let incidence = Incidence::new(formula, &vars);
    let mut refiner = Refiner::new(&incidence);
    let colors = refiner.refine(vec![0; vars.len()]);
    let by_color = order_by_color(&colors);
    let order = if classes_interchangeable(&incidence, &by_color, &colors) {
        by_color
    } else {
        let mut budget = CANONICAL_LEAF_BUDGET;
        match lex_min_order(&mut refiner, &colors, &mut budget) {
            Some((_, order)) => order,
            // Budget exhausted: deterministic fallback by (color, input
            // index). Loses renaming invariance, never correctness.
            None => by_color,
        }
    };
    // `order[new] = local var index`; build the renamed formula.
    let mut rename = vec![0usize; vars.len()];
    for (new, &old_local) in order.iter().enumerate() {
        rename[old_local] = new;
    }
    let renamed: Vec<Clause> = (0..incidence.num_clauses())
        .map(|c| {
            incidence
                .clause(c)
                .iter()
                .map(|&lit| Variable::new(rename[lit >> 1]).literal(lit & 1 == 1))
                .collect()
        })
        .collect();
    let canonical = normalize(&CnfFormula::from_clauses(vars.len(), renamed));
    let kept: Vec<Variable> = order.iter().map(|&local| vars[local]).collect();
    (canonical, kept)
}

/// A renaming-invariant fingerprint of a formula: FNV-1a over its exact
/// encoding *after* the caller put it in canonical form. Two canonical
/// formulas are equal exactly when their encodings are, so this is a sound
/// cache key as long as entries also compare the formula itself (the cache
/// does: a 64-bit hash alone could collide).
pub fn fingerprint(formula: &CnfFormula) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(formula.num_vars() as u64);
    eat(formula.num_clauses() as u64);
    for clause in formula.iter() {
        eat(clause.len() as u64);
        for lit in clause.iter() {
            eat(lit.code() as u64);
        }
    }
    hash
}

/// The variable–clause incidence structure of a formula over its occurring
/// variables (local indices), in compressed sparse rows. Every entry packs an
/// index with a phase as `index << 1 | phase` (`1` = positive): clause `c`
/// holds its (variable, phase) entries in input order, duplicates included,
/// and variable `v` its (clause, phase) occurrence entries.
struct Incidence {
    clause_start: Vec<usize>,
    lits: Vec<usize>,
    occ_start: Vec<usize>,
    occs: Vec<usize>,
}

impl Incidence {
    fn new(formula: &CnfFormula, vars: &[Variable]) -> Self {
        let mut local = vec![usize::MAX; formula.num_vars()];
        for (i, var) in vars.iter().enumerate() {
            local[var.index()] = i;
        }
        let mut clause_start = Vec::with_capacity(formula.num_clauses() + 1);
        clause_start.push(0);
        let mut lits = Vec::new();
        for clause in formula.iter() {
            lits.extend(
                clause
                    .iter()
                    .map(|lit| local[lit.variable().index()] << 1 | usize::from(lit.phase())),
            );
            clause_start.push(lits.len());
        }
        let mut occ_start = vec![0usize; vars.len() + 1];
        for &lit in &lits {
            occ_start[(lit >> 1) + 1] += 1;
        }
        for v in 0..vars.len() {
            occ_start[v + 1] += occ_start[v];
        }
        let mut next = occ_start.clone();
        let mut occs = vec![0usize; lits.len()];
        for c in 0..formula.num_clauses() {
            for &lit in &lits[clause_start[c]..clause_start[c + 1]] {
                let slot = &mut next[lit >> 1];
                occs[*slot] = c << 1 | lit & 1;
                *slot += 1;
            }
        }
        Incidence {
            clause_start,
            lits,
            occ_start,
            occs,
        }
    }

    fn num_vars(&self) -> usize {
        self.occ_start.len() - 1
    }

    fn num_clauses(&self) -> usize {
        self.clause_start.len() - 1
    }

    fn clause(&self, c: usize) -> &[usize] {
        &self.lits[self.clause_start[c]..self.clause_start[c + 1]]
    }

    fn occurrences(&self, v: usize) -> &[usize] {
        &self.occs[self.occ_start[v]..self.occ_start[v + 1]]
    }
}

/// Number of distinct values in a color vector.
fn distinct(colors: &[usize]) -> usize {
    let mut seen: Vec<usize> = colors.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Stable variable order sorted by (color, input index).
fn order_by_color(colors: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..colors.len()).collect();
    order.sort_by_key(|&v| (colors[v], v));
    order
}

/// Whether every tied class of `colors` is interchangeable: each pair of
/// same-colored variables adjacent in `by_color` (the [`order_by_color`]
/// order) is swapped by an automorphism of the clause multiset. Trivially
/// true for a discrete coloring.
fn classes_interchangeable(incidence: &Incidence, by_color: &[usize], colors: &[usize]) -> bool {
    by_color
        .windows(2)
        .filter(|pair| colors[pair[0]] == colors[pair[1]])
        .all(|pair| swap_is_automorphism(incidence, pair[0], pair[1]))
}

/// Whether exchanging variables `u` and `w` (phases kept) maps the clause
/// multiset onto itself. Only the clauses containing either variable change,
/// so it compares their multiset, each clause as its sorted literal entries,
/// before and after the swap.
fn swap_is_automorphism(incidence: &Incidence, u: usize, w: usize) -> bool {
    let mut touched: Vec<usize> = incidence
        .occurrences(u)
        .iter()
        .chain(incidence.occurrences(w))
        .map(|&occ| occ >> 1)
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let clause_multiset = |swap: bool| {
        let mut clauses: Vec<Vec<usize>> = touched
            .iter()
            .map(|&c| {
                let mut lits: Vec<usize> = incidence
                    .clause(c)
                    .iter()
                    .map(|&lit| match lit >> 1 {
                        v if swap && v == u => w << 1 | lit & 1,
                        v if swap && v == w => u << 1 | lit & 1,
                        _ => lit,
                    })
                    .collect();
                lits.sort_unstable();
                lits
            })
            .collect();
        clauses.sort_unstable();
        clauses
    };
    clause_multiset(false) == clause_multiset(true)
}

/// Signature refinement over one [`Incidence`], with its signature buffers
/// kept across calls so the individualize-and-refine search allocates none
/// per round.
struct Refiner<'a> {
    incidence: &'a Incidence,
    /// Clause signatures, laid out like `incidence.lits`: each clause's
    /// sorted `variable color << 1 | phase` entries.
    clause_sigs: Vec<usize>,
    clause_colors: Vec<usize>,
    /// Variable signatures, `var_start[v]..var_start[v + 1]`: the variable's
    /// old color, then its sorted `clause color << 1 | phase` entries.
    var_sigs: Vec<usize>,
    var_start: Vec<usize>,
    /// Index scratch for ranking.
    by_sig: Vec<usize>,
}

impl<'a> Refiner<'a> {
    fn new(incidence: &'a Incidence) -> Self {
        let var_start: Vec<usize> = incidence
            .occ_start
            .iter()
            .enumerate()
            .map(|(v, &start)| start + v)
            .collect();
        Refiner {
            incidence,
            clause_sigs: vec![0; incidence.lits.len()],
            clause_colors: vec![0; incidence.num_clauses()],
            var_sigs: vec![0; incidence.occs.len() + incidence.num_vars()],
            var_start,
            by_sig: Vec::new(),
        }
    }

    /// Signature refinement iterated to fixpoint: clause colors from the
    /// multiset of (variable color, phase) pairs, then variable colors from
    /// the old color plus the multiset of (clause color, phase) pairs. Both
    /// ranking steps use sorted signatures, so the result is invariant under
    /// any renaming of variables or reordering of clauses and literals. A
    /// `color << 1 | phase` entry orders like the `(color, phase)` pair, so
    /// the ranks are those of the pairwise signatures.
    fn refine(&mut self, mut colors: Vec<usize>) -> Vec<usize> {
        let incidence = self.incidence;
        let mut classes = distinct(&colors);
        loop {
            for (sig, &lit) in self.clause_sigs.iter_mut().zip(&incidence.lits) {
                *sig = colors[lit >> 1] << 1 | lit & 1;
            }
            for bounds in incidence.clause_start.windows(2) {
                self.clause_sigs[bounds[0]..bounds[1]].sort_unstable();
            }
            dense_rank(
                &incidence.clause_start,
                &self.clause_sigs,
                &mut self.by_sig,
                &mut self.clause_colors,
            );
            for (v, &color) in colors.iter().enumerate() {
                let sig = &mut self.var_sigs[self.var_start[v]..self.var_start[v + 1]];
                sig[0] = color;
                for (slot, &occ) in sig[1..].iter_mut().zip(incidence.occurrences(v)) {
                    *slot = self.clause_colors[occ >> 1] << 1 | occ & 1;
                }
                sig[1..].sort_unstable();
            }
            let refined = dense_rank(
                &self.var_start,
                &self.var_sigs,
                &mut self.by_sig,
                &mut colors,
            );
            if refined == classes {
                return colors;
            }
            classes = refined;
        }
    }
}

/// Writes to `ranks[i]` the dense rank of signature `i`
/// (`sigs[starts[i]..starts[i + 1]]`) among the distinct signatures in
/// lexicographic order, and returns the number of distinct signatures.
fn dense_rank(
    starts: &[usize],
    sigs: &[usize],
    by_sig: &mut Vec<usize>,
    ranks: &mut [usize],
) -> usize {
    let sig = |i: usize| &sigs[starts[i]..starts[i + 1]];
    by_sig.clear();
    by_sig.extend(0..ranks.len());
    by_sig.sort_unstable_by(|&a, &b| sig(a).cmp(sig(b)));
    let mut classes = 0;
    for (k, &i) in by_sig.iter().enumerate() {
        if k == 0 || sig(by_sig[k - 1]) != sig(i) {
            classes += 1;
        }
        ranks[i] = classes - 1;
    }
    classes
}

/// Budgeted individualize-and-refine: returns the lexicographically minimal
/// formula encoding over all tie-break branches, or `None` once `budget`
/// complete encodings have been spent.
fn lex_min_order(
    refiner: &mut Refiner<'_>,
    colors: &[usize],
    budget: &mut usize,
) -> Option<(Vec<u64>, Vec<usize>)> {
    // Find the first (smallest-color) non-singleton class.
    let mut counts = vec![0usize; colors.len() + 1];
    for &color in colors {
        counts[color] += 1;
    }
    let split = colors
        .iter()
        .copied()
        .filter(|&color| counts[color] > 1)
        .min();
    let Some(split) = split else {
        // Discrete coloring: one leaf.
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        let order = order_by_color(colors);
        return Some((encode_under(refiner.incidence, &order), order));
    };
    let mut best: Option<(Vec<u64>, Vec<usize>)> = None;
    for v in 0..colors.len() {
        if colors[v] != split {
            continue;
        }
        // Individualize v: give it a color just below its class, shifting
        // everything at or above the class up by one to stay dense enough.
        let mut branched: Vec<usize> = colors
            .iter()
            .map(|&color| if color >= split { color + 1 } else { color })
            .collect();
        branched[v] = split;
        let refined = refiner.refine(branched);
        let candidate = lex_min_order(refiner, &refined, budget)?;
        best = match best {
            Some(current) if current.0 <= candidate.0 => Some(current),
            _ => Some(candidate),
        };
    }
    best
}

/// Encodes the formula under a candidate variable order (new index per
/// variable) as a flat word sequence comparable lexicographically: the
/// distinct renamed clauses in sorted order, each as its length followed by
/// its sorted distinct literal codes.
fn encode_under(incidence: &Incidence, order: &[usize]) -> Vec<u64> {
    let mut rename = vec![0usize; order.len()];
    for (new, &old) in order.iter().enumerate() {
        rename[old] = new;
    }
    let mut codes: Vec<u64> = Vec::with_capacity(incidence.lits.len());
    let mut starts = Vec::with_capacity(incidence.num_clauses() + 1);
    starts.push(0);
    let mut clause: Vec<u64> = Vec::new();
    for c in 0..incidence.num_clauses() {
        clause.clear();
        clause.extend(
            incidence
                .clause(c)
                .iter()
                .map(|&lit| Variable::new(rename[lit >> 1]).literal(lit & 1 == 1).code() as u64),
        );
        clause.sort_unstable();
        clause.dedup();
        codes.extend_from_slice(&clause);
        starts.push(codes.len());
    }
    let encoded = |c: usize| &codes[starts[c]..starts[c + 1]];
    let mut by_clause: Vec<usize> = (0..incidence.num_clauses()).collect();
    by_clause.sort_unstable_by(|&a, &b| encoded(a).cmp(encoded(b)));
    by_clause.dedup_by(|a, b| encoded(*a) == encoded(*b));
    let mut flat = Vec::with_capacity(codes.len() + by_clause.len());
    for c in by_clause {
        flat.push(encoded(c).len() as u64);
        flat.extend_from_slice(encoded(c));
    }
    flat
}

/// The search-based canonical form this module computed before the
/// interchangeable-class shortcut and the flat refinement: a test-only
/// oracle, kept verbatim, that the production [`canonicalize`] must match
/// bit for bit. It carries its own copies of the small helpers so a change
/// to a production helper cannot move the oracle with it.
#[cfg(test)]
mod reference {
    use super::normalize;
    use crate::clause::Clause;
    use crate::formula::CnfFormula;
    use crate::var::Variable;

    /// The leaf budget the reference searches with.
    const CANONICAL_LEAF_BUDGET: usize = 64;

    /// The search-based canonical form: refinement, then the budgeted
    /// search whenever the coloring is not discrete.
    pub(super) fn canonicalize(formula: &CnfFormula) -> (CnfFormula, Vec<Variable>) {
        let vars = formula.occurring_variables();
        if vars.is_empty() {
            return (CnfFormula::new(0), Vec::new());
        }
        let mut local = vec![usize::MAX; formula.num_vars()];
        for (i, var) in vars.iter().enumerate() {
            local[var.index()] = i;
        }
        // Clauses as (local var, phase) pairs.
        let clauses: Vec<Vec<(usize, bool)>> = formula
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|lit| (local[lit.variable().index()], lit.phase()))
                    .collect()
            })
            .collect();
        let mut occurrences: Vec<Vec<(usize, bool)>> = vec![Vec::new(); vars.len()];
        for (c, clause) in clauses.iter().enumerate() {
            for &(v, phase) in clause {
                occurrences[v].push((c, phase));
            }
        }
        let colors = refine(&clauses, &occurrences, vec![0; vars.len()]);
        let order = if distinct(&colors) == vars.len() {
            order_by_color(&colors)
        } else {
            let mut budget = CANONICAL_LEAF_BUDGET;
            match lex_min_order(&clauses, &occurrences, &colors, &mut budget) {
                Some((_, order)) => order,
                // Budget exhausted: deterministic fallback by (color, input
                // index). Loses renaming invariance, never correctness.
                None => order_by_color(&colors),
            }
        };
        // `order[new] = local var index`; build the renamed formula.
        let mut rename = vec![0usize; vars.len()];
        for (new, &old_local) in order.iter().enumerate() {
            rename[old_local] = new;
        }
        let renamed: Vec<Clause> = clauses
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|&(v, phase)| Variable::new(rename[v]).literal(phase))
                    .collect()
            })
            .collect();
        let canonical = normalize(&CnfFormula::from_clauses(vars.len(), renamed));
        let kept: Vec<Variable> = order.iter().map(|&local| vars[local]).collect();
        (canonical, kept)
    }

    /// Number of distinct values in a color vector.
    fn distinct(colors: &[usize]) -> usize {
        let mut seen: Vec<usize> = colors.to_vec();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Stable variable order sorted by (color, input index).
    fn order_by_color(colors: &[usize]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..colors.len()).collect();
        order.sort_by_key(|&v| (colors[v], v));
        order
    }

    /// One round of signature refinement, iterated to fixpoint: clause colors
    /// from the multiset of (variable color, phase) pairs, then variable colors
    /// from the old color plus the multiset of (clause color, phase) pairs. Both
    /// ranking steps use sorted signatures, so the result is invariant under any
    /// renaming of variables or reordering of clauses and literals.
    fn refine(
        clauses: &[Vec<(usize, bool)>],
        occurrences: &[Vec<(usize, bool)>],
        mut colors: Vec<usize>,
    ) -> Vec<usize> {
        let mut classes = distinct(&colors);
        loop {
            // Clause signatures → dense clause colors.
            let mut clause_sigs: Vec<Vec<(usize, bool)>> = clauses
                .iter()
                .map(|clause| {
                    let mut sig: Vec<(usize, bool)> = clause
                        .iter()
                        .map(|&(v, phase)| (colors[v], phase))
                        .collect();
                    sig.sort_unstable();
                    sig
                })
                .collect();
            let clause_colors = rank(&mut clause_sigs);
            // Variable signatures → dense variable colors.
            let mut var_sigs: Vec<(usize, Vec<(usize, bool)>)> = occurrences
                .iter()
                .enumerate()
                .map(|(v, occ)| {
                    let mut sig: Vec<(usize, bool)> = occ
                        .iter()
                        .map(|&(c, phase)| (clause_colors[c], phase))
                        .collect();
                    sig.sort_unstable();
                    (colors[v], sig)
                })
                .collect();
            colors = rank(&mut var_sigs);
            let refined = distinct(&colors);
            if refined == classes {
                return colors;
            }
            classes = refined;
        }
    }

    /// Replaces each signature with its dense rank among the sorted distinct
    /// signatures, ranked against a sorted, deduplicated clone of the input.
    fn rank<T: Ord + Clone>(sigs: &mut [T]) -> Vec<usize> {
        let mut sorted: Vec<T> = sigs.to_vec();
        sorted.sort();
        sorted.dedup();
        sigs.iter()
            .map(|sig| sorted.binary_search(sig).expect("signature present"))
            .collect()
    }

    /// Budgeted individualize-and-refine: returns the lexicographically minimal
    /// formula encoding over all tie-break branches, or `None` once `budget`
    /// complete encodings have been spent.
    fn lex_min_order(
        clauses: &[Vec<(usize, bool)>],
        occurrences: &[Vec<(usize, bool)>],
        colors: &[usize],
        budget: &mut usize,
    ) -> Option<(Vec<u64>, Vec<usize>)> {
        // Find the first (smallest-color) non-singleton class.
        let mut counts = vec![0usize; colors.len() + 1];
        for &color in colors {
            counts[color] += 1;
        }
        let split = colors
            .iter()
            .copied()
            .filter(|&color| counts[color] > 1)
            .min();
        let Some(split) = split else {
            // Discrete coloring: one leaf.
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            let order = order_by_color(colors);
            return Some((encode_under(clauses, &order), order));
        };
        let mut best: Option<(Vec<u64>, Vec<usize>)> = None;
        for v in 0..colors.len() {
            if colors[v] != split {
                continue;
            }
            // Individualize v: give it a color just below its class, shifting
            // everything at or above the class up by one to stay dense enough.
            let mut branched: Vec<usize> = colors
                .iter()
                .map(|&color| if color >= split { color + 1 } else { color })
                .collect();
            branched[v] = split;
            let refined = refine(clauses, occurrences, branched);
            let candidate = lex_min_order(clauses, occurrences, &refined, budget)?;
            best = match best {
                Some(current) if current.0 <= candidate.0 => Some(current),
                _ => Some(candidate),
            };
        }
        best
    }

    /// Encodes the formula under a candidate variable order (new index per
    /// variable) as a flat word sequence comparable lexicographically: sorted
    /// renamed clauses, each as its sorted literal codes.
    fn encode_under(clauses: &[Vec<(usize, bool)>], order: &[usize]) -> Vec<u64> {
        let mut rename = vec![0usize; order.len()];
        for (new, &old) in order.iter().enumerate() {
            rename[old] = new;
        }
        let mut encoded: Vec<Vec<u64>> = clauses
            .iter()
            .map(|clause| {
                let mut lits: Vec<u64> = clause
                    .iter()
                    .map(|&(v, phase)| Variable::new(rename[v]).literal(phase).code() as u64)
                    .collect();
                lits.sort_unstable();
                lits.dedup();
                lits
            })
            .collect();
        encoded.sort();
        encoded.dedup();
        let mut flat = Vec::with_capacity(encoded.iter().map(|c| c.len() + 1).sum());
        for clause in encoded {
            flat.push(clause.len() as u64);
            flat.extend(clause);
        }
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf_formula;
    use crate::generators::{
        adder_equivalence_miter, buggy_adder_miter, pigeonhole, random_ksat, RandomKSatConfig,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Applies a variable permutation (old index → new index) to a formula,
    /// keeping polarities.
    fn rename_formula(formula: &CnfFormula, perm: &[usize]) -> CnfFormula {
        let clauses: Vec<Clause> = formula
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|lit| Variable::new(perm[lit.variable().index()]).literal(lit.phase()))
                    .collect()
            })
            .collect();
        CnfFormula::from_clauses(formula.num_vars(), clauses)
    }

    #[test]
    fn normalize_sorts_dedups_and_drops_tautologies() {
        let messy = cnf_formula![[2, 1, 2], [1, -1, 3], [1, 2], [3]];
        let normal = normalize(&messy);
        assert_eq!(normal.num_clauses(), 2);
        assert_eq!(normal, normalize(&normal));
        // Models unchanged: check satisfiability-preserving on all points.
        for assignment in Assignment::enumerate_all(3) {
            assert_eq!(messy.evaluate(&assignment), normal.evaluate(&assignment));
        }
    }

    #[test]
    fn preprocess_decides_trivial_formulas() {
        let unsat = cnf_formula![[1], [-1]];
        assert_eq!(preprocess(&unsat).outcome, PreprocessOutcome::Unsatisfiable);
        let sat = cnf_formula![[1], [1, 2]];
        match preprocess(&sat).outcome {
            PreprocessOutcome::Satisfiable(model) => assert!(sat.evaluate(&model)),
            other => panic!("expected satisfiable, got {other:?}"),
        }
    }

    #[test]
    fn preprocess_reduces_and_lifts_models() {
        // Unit clause [3] fires, pure literal 4 fires; vars 1,2 survive.
        let formula = cnf_formula![[3], [-3, 4], [1, 2], [-1, -2]];
        let pre = preprocess(&formula);
        let PreprocessOutcome::Reduced {
            formula: reduced,
            trace,
        } = pre.outcome
        else {
            panic!("expected a residual, got {:?}", pre.outcome);
        };
        assert_eq!(reduced.num_vars(), 2);
        assert_eq!(trace.vars_removed(), 2);
        assert_eq!(pre.report.vars_removed(), 2);
        // Any model of the residual lifts to a model of the original.
        for candidate in Assignment::enumerate_all(reduced.num_vars()) {
            if reduced.evaluate(&candidate) {
                assert!(formula.evaluate(&trace.lift_model(&candidate)));
            }
        }
    }

    #[test]
    fn renamed_formulas_share_a_canonical_form() {
        let formula = cnf_formula![[1, 2, -3], [-1, 3], [2, 3], [-2, -3]];
        let renamed = rename_formula(&formula, &[2, 0, 1]);
        let a = preprocess(&formula);
        let b = preprocess(&renamed);
        let (fa, fb) = match (a.outcome, b.outcome) {
            (
                PreprocessOutcome::Reduced { formula: fa, .. },
                PreprocessOutcome::Reduced { formula: fb, .. },
            ) => (fa, fb),
            other => panic!("expected residuals, got {other:?}"),
        };
        assert_eq!(fa, fb);
        assert_eq!(fingerprint(&fa), fingerprint(&fb));
    }

    #[test]
    fn automorphic_variables_still_canonicalize() {
        // x1 and x2 are fully symmetric; the individualize-and-refine
        // tie-break must terminate and pick one order deterministically.
        let formula = cnf_formula![[1, 2], [-1, -2]];
        let (canonical, kept) = canonicalize(&formula);
        assert_eq!(canonical.num_vars(), 2);
        assert_eq!(kept.len(), 2);
        let again = canonicalize(&formula);
        assert_eq!(canonical, again.0);
    }

    #[test]
    fn fingerprint_distinguishes_different_formulas() {
        let a = normalize(&cnf_formula![[1, 2], [-1, -2]]);
        let b = normalize(&cnf_formula![[1, 2], [-1, 2]]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    /// A seeded variable permutation with the clause order shuffled as well.
    fn shuffled_renaming(formula: &CnfFormula, rng: &mut StdRng) -> CnfFormula {
        let mut perm: Vec<usize> = (0..formula.num_vars()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let renamed = rename_formula(formula, &perm);
        let mut clauses: Vec<Clause> = renamed.iter().cloned().collect();
        for i in (1..clauses.len()).rev() {
            clauses.swap(i, rng.gen_range(0..=i));
        }
        CnfFormula::from_clauses(formula.num_vars(), clauses)
    }

    /// Asserts that `canonicalize` returns the reference's formula and order
    /// on `formula` as given, after `normalize → simplify → normalize`, and
    /// under a seeded renaming.
    fn assert_matches_reference(label: &str, formula: &CnfFormula, rng: &mut StdRng) {
        let simplified = normalize(&simplify(&normalize(formula)).0);
        let renamed = shuffled_renaming(formula, rng);
        for (variant, input) in [
            ("raw", formula),
            ("simplified", &simplified),
            ("renamed", &renamed),
        ] {
            assert_eq!(
                canonicalize(input),
                reference::canonicalize(input),
                "{label} ({variant}) left the reference canonical form"
            );
        }
    }

    /// Whether the interchangeable-class shortcut applies to `formula`: its
    /// refined coloring has ties and every tied class is interchangeable.
    fn shortcut_fires(formula: &CnfFormula) -> bool {
        let vars = formula.occurring_variables();
        let incidence = Incidence::new(formula, &vars);
        let colors = Refiner::new(&incidence).refine(vec![0; vars.len()]);
        distinct(&colors) < vars.len()
            && classes_interchangeable(&incidence, &order_by_color(&colors), &colors)
    }

    #[test]
    fn canonical_form_matches_the_reference_on_unnormalized_formulas() {
        // Up to 7 variables: duplicate literals, duplicate clauses and
        // tautologies all occur, and small formulas tie often.
        let mut rng = StdRng::seed_from_u64(0x5eed_0001);
        for case in 0..3000 {
            let num_vars = rng.gen_range(1..=7usize);
            let mut clauses: Vec<Clause> = (0..rng.gen_range(0..=12usize))
                .map(|_| {
                    (0..rng.gen_range(1..=4usize))
                        .map(|_| Variable::new(rng.gen_range(0..num_vars)).literal(rng.gen()))
                        .collect()
                })
                .collect();
            if !clauses.is_empty() && rng.gen_bool(0.3) {
                let copy = clauses[rng.gen_range(0..clauses.len())].clone();
                clauses.push(copy);
            }
            let formula = CnfFormula::from_clauses(num_vars, clauses);
            assert_matches_reference(&format!("random case {case}"), &formula, &mut rng);
        }
    }

    #[test]
    fn canonical_form_matches_the_reference_on_random_3sat() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0002);
        for num_vars in [8, 12, 20, 35, 60] {
            for alpha in [1.5, 3.0, 4.26, 6.0] {
                for seed in 0..3 {
                    let config = RandomKSatConfig::from_ratio(num_vars, alpha, 3).with_seed(seed);
                    let formula = random_ksat(&config).expect("valid 3-SAT configuration");
                    let label = format!("3-SAT n={num_vars} alpha={alpha} seed={seed}");
                    assert_matches_reference(&label, &formula, &mut rng);
                }
            }
        }
    }

    #[test]
    fn canonical_form_matches_the_reference_on_buggy_adder_miters() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0003);
        let mut cases: Vec<(usize, usize)> = [4, 6, 8]
            .into_iter()
            .flat_map(|width| (width / 2..width).map(move |bit| (width, bit)))
            .collect();
        cases.push((6, 0));
        for (width, bit) in cases {
            let label = format!("buggy adder miter w={width} bit={bit}");
            assert_matches_reference(&label, &buggy_adder_miter(width, bit), &mut rng);
        }
    }

    #[test]
    fn canonical_form_matches_the_reference_on_searched_families() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0004);
        for width in 2..=4 {
            let label = format!("adder equivalence miter w={width}");
            assert_matches_reference(&label, &adder_equivalence_miter(width), &mut rng);
        }
        for pigeons in 3..=6 {
            let label = format!("pigeonhole({pigeons}, {})", pigeons - 1);
            assert_matches_reference(&label, &pigeonhole(pigeons, pigeons - 1), &mut rng);
        }
    }

    #[test]
    fn shortcut_fires_on_interchangeable_classes() {
        assert!(shortcut_fires(&buggy_adder_miter(6, 4)));
        // Three independent pairs, each pair a class of its own (the pairs
        // differ in phase or occurrence count) and each swap an automorphism.
        let pairs = cnf_formula![[1, 2], [-3, -4], [5, 6], [-5, -6]];
        assert!(shortcut_fires(&pairs));
    }

    #[test]
    fn shortcut_stays_off_where_the_search_decides() {
        assert!(!shortcut_fires(&pigeonhole(3, 2)));
        assert!(!shortcut_fires(&adder_equivalence_miter(3)));
    }
}
