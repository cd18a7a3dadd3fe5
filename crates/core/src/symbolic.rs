//! The exact (infinite-sample) symbolic engine.

use crate::budget::BudgetMeter;
use crate::engine::{MeanEstimate, NblEngine, StepAnswer};
use crate::error::{NblSatError, Result};
use crate::transform::NblSatInstance;
use cnf::{Assignment, CnfFormula, Literal, PartialAssignment, Variable};
use nbl_logic::MomentModel;
use std::cmp::Reverse;
use std::ops::Range;

/// How many search nodes the budgeted estimate visits between wall-clock
/// deadline polls.
const DEADLINE_POLL_NODES: u64 = 1024;

/// Exact evaluation of ⟨S_N⟩ using the orthogonality rules of the noise
/// algebra.
///
/// Expanding `τ_N · Σ_N` and taking expectations, every cross term between
/// different minterms vanishes (some basis source appears with an odd power),
/// and each valid minterm `a` that satisfies the formula survives with weight
///
/// ```text
/// w(a) = Π_j |{literals of clause j satisfied by a}| · Var^{n·m}
/// ```
///
/// because clause `j`'s superposition Z_j contains `a`'s noise minterm once
/// per satisfied literal. The engine therefore computes
/// `⟨S_N⟩ = Var^{n·m} · Σ_{a ⊨ S, a ∈ τ-subspace} Π_j (#literals of c_j satisfied by a)`
/// exactly, with a depth-first branch-and-prune weighted model counter: the
/// bindings are its starting partial assignment, a branch ends the moment a
/// clause has no true and no unassigned literal left, and every complete
/// assignment it reaches is a model, weighted by its clauses' true-literal
/// counts. This is the ideal infinite-sample output of the analog hardware,
/// free of estimation noise.
///
/// The search is still exponential in the number of *free* variables in the
/// worst case — the same fundamental scaling the paper accepts for its
/// software simulation — and is guarded by a configurable variable limit.
#[derive(Debug, Clone, Copy)]
pub struct SymbolicEngine {
    moment_model: MomentModel,
    max_free_vars: usize,
}

impl Default for SymbolicEngine {
    fn default() -> Self {
        SymbolicEngine::new()
    }
}

impl SymbolicEngine {
    /// Creates a symbolic engine with the paper's uniform [-0.5, 0.5] carriers
    /// and a 26-free-variable limit.
    pub fn new() -> Self {
        SymbolicEngine {
            moment_model: MomentModel::uniform_half(),
            max_free_vars: 26,
        }
    }

    /// Uses a different carrier moment model (changes only the `Var^{nm}`
    /// scale factor, not the SAT/UNSAT sign).
    pub fn with_moment_model(mut self, model: MomentModel) -> Self {
        self.moment_model = model;
        self
    }

    /// Overrides the free-variable limit.
    pub fn with_max_free_vars(mut self, max_free_vars: usize) -> Self {
        self.max_free_vars = max_free_vars;
        self
    }

    /// The per-minterm self-correlation scale `Var^{n·m}`.
    pub fn minterm_weight(&self, instance: &NblSatInstance) -> f64 {
        self.moment_model.variance().powi(instance.nm() as i32)
    }

    /// Counts satisfying assignments inside the bound τ subspace, both
    /// unweighted (`K`) and weighted by the per-clause literal multiplicity
    /// (the quantity that actually scales ⟨S_N⟩).
    ///
    /// The weighted count is summed exactly as an integer and converted to
    /// `f64` once, so it is exact whenever it is below 2^53.
    ///
    /// # Errors
    ///
    /// Returns [`NblSatError::InstanceTooLarge`] if the number of free
    /// variables exceeds the engine's limit, and
    /// [`NblSatError::BindingOutOfRange`] for mismatched bindings.
    pub fn count_models(
        &self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> Result<(u64, f64)> {
        self.count_models_impl(instance, bindings, None)
    }

    fn count_models_impl(
        &self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: Option<&BudgetMeter>,
    ) -> Result<(u64, f64)> {
        self.ensure_countable(instance, bindings)?;
        WeightedCounter::new(instance.formula(), bindings).count(meter)
    }

    /// Validates `bindings` and enforces the free-variable limit on a check
    /// of their subspace.
    fn ensure_countable(
        &self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> Result<()> {
        instance.validate_bindings(bindings)?;
        let free = instance.num_vars() - bindings.num_assigned();
        if free > self.max_free_vars {
            return Err(self.too_large(free));
        }
        Ok(())
    }

    /// The error of a check over `free` free variables, past the limit.
    fn too_large(&self, free: usize) -> NblSatError {
        NblSatError::InstanceTooLarge {
            limit: format!("{} free variables", self.max_free_vars),
            actual: free,
        }
    }
}

/// The depth-first branch-and-prune weighted model counter behind
/// [`SymbolicEngine::count_models`].
///
/// Every buffer is sized once per call. Assigning or undoing a variable walks
/// only the occurrence lists of its two literals, and the search allocates
/// nothing per node.
struct WeightedCounter {
    /// Literal → clause occurrences in CSR form: the clauses containing the
    /// literal with code `l` are `occ_clauses[occ_start[l]..occ_start[l + 1]]`,
    /// once per occurrence. Only free variables' literals have entries.
    occ_start: Vec<u32>,
    occ_clauses: Vec<u32>,
    /// Per clause, how many of its literals are true.
    true_lits: Vec<u32>,
    /// Per clause, how many of its literals are still unassigned.
    open_lits: Vec<u32>,
    /// `hist[t]` is the number of clauses with exactly `t` true literals.
    hist: Vec<u32>,
    /// The free variables that occur in some clause, most occurrences first
    /// (ties by index): the fixed branching order.
    order: Vec<Variable>,
    /// Free variables that occur in no clause. Each one doubles the count
    /// and the weight without branching.
    isolated: u32,
    nodes: u64,
    models: u64,
    weight: WeightSum,
}

impl WeightedCounter {
    /// Builds the search state with the bindings applied.
    fn new(formula: &CnfFormula, bindings: &PartialAssignment) -> Self {
        let num_clauses = formula.num_clauses();
        let mut occ_start = vec![0u32; 2 * formula.num_vars() + 1];
        let mut true_lits = vec![0u32; num_clauses];
        let mut open_lits = vec![0u32; num_clauses];
        let mut max_len = 0;
        for (c, clause) in formula.iter().enumerate() {
            max_len = max_len.max(clause.len());
            for lit in clause.iter() {
                match bindings.value(lit.variable()) {
                    Some(value) => true_lits[c] += u32::from(lit.evaluate(value)),
                    None => {
                        open_lits[c] += 1;
                        occ_start[lit.code()] += 1;
                    }
                }
            }
        }
        // Running sums turn each count into its list's end; filling the lists
        // back to front then leaves `occ_start[l]` at the start of list `l`.
        let mut end = 0;
        for slot in &mut occ_start {
            end += *slot;
            *slot = end;
        }
        let mut occ_clauses = vec![0u32; end as usize];
        for (c, clause) in formula.iter().enumerate().rev() {
            for lit in clause.iter() {
                if bindings.value(lit.variable()).is_none() {
                    occ_start[lit.code()] -= 1;
                    occ_clauses[occ_start[lit.code()] as usize] = c as u32;
                }
            }
        }
        let mut hist = vec![0u32; max_len + 1];
        for &t in &true_lits {
            hist[t as usize] += 1;
        }
        let occurrences =
            |var: Variable| occ_start[var.negative().code() + 1] - occ_start[var.positive().code()];
        let mut order = Vec::with_capacity(formula.num_vars());
        let mut isolated = 0;
        for var in (0..formula.num_vars()).map(Variable::new) {
            if bindings.value(var).is_some() {
                continue;
            }
            if occurrences(var) > 0 {
                order.push(var);
            } else {
                isolated += 1;
            }
        }
        order.sort_by_key(|&var| Reverse(occurrences(var)));
        WeightedCounter {
            occ_start,
            occ_clauses,
            true_lits,
            open_lits,
            hist,
            order,
            isolated,
            nodes: 0,
            models: 0,
            weight: WeightSum::Exact(0),
        }
    }

    /// Whether the bindings alone leave a clause with no true and no
    /// unassigned literal.
    fn falsified(&self) -> bool {
        self.true_lits
            .iter()
            .zip(&self.open_lits)
            .any(|(&true_lits, &open_lits)| true_lits == 0 && open_lits == 0)
    }

    /// Runs the search and returns the model count and the weighted count.
    fn count(mut self, meter: Option<&BudgetMeter>) -> Result<(u64, f64)> {
        if !self.falsified() {
            self.branch(0, meter)?;
        }
        let models = self.models << self.isolated;
        Ok((models, self.weight.doubled(self.isolated).to_f64()))
    }

    /// The weighted count of every child subspace, from one search: entry
    /// `lit.code()` is what [`WeightedCounter::count`] returns with the free
    /// variable of `lit` also bound to make `lit` true. Entries of bound
    /// variables carry no meaning.
    ///
    /// A separate count with `lit` bound branches in this search's order
    /// minus `lit`'s variable, so it adds up the same model weights. While
    /// they fit in `u128` the sums are the same integers, bit for bit. A
    /// variable in no clause splits the models evenly, so each of its
    /// literals gets the total over one isolated variable fewer.
    fn literal_weights(mut self, meter: Option<&BudgetMeter>) -> Result<Vec<f64>> {
        let mut marginal = vec![WeightSum::Exact(0); self.occ_start.len() - 1];
        let total = if self.falsified() {
            WeightSum::Exact(0)
        } else {
            self.branch_marginals(0, &mut marginal, meter)?
        };
        let isolated_weight = total.doubled(self.isolated.saturating_sub(1)).to_f64();
        let mut weights = vec![isolated_weight; marginal.len()];
        for &var in &self.order {
            for lit in [var.positive(), var.negative()] {
                weights[lit.code()] = marginal[lit.code()].doubled(self.isolated).to_f64();
            }
        }
        Ok(weights)
    }

    /// Searches for one model in the bindings' subspace, entering each
    /// variable by its true literal first, and stops at the first it
    /// reaches. The model keeps the bindings and sets the free variables in
    /// no clause to 1.
    fn find_model(
        mut self,
        bindings: &PartialAssignment,
        meter: Option<&BudgetMeter>,
    ) -> Result<Option<Assignment>> {
        let mut model = bindings.to_complete(true);
        let found = !self.falsified() && self.branch_model(0, &mut model, meter)?;
        Ok(found.then_some(model))
    }

    /// Polls the deadline every [`DEADLINE_POLL_NODES`] nodes, then counts
    /// the node.
    fn visit_node(&mut self, meter: Option<&BudgetMeter>) -> Result<()> {
        if let Some(meter) = meter {
            if self.nodes.is_multiple_of(DEADLINE_POLL_NODES) {
                meter.ensure_time()?;
            }
        }
        self.nodes += 1;
        Ok(())
    }

    /// Counts the models below a node whose first `depth` variables of the
    /// branching order are set.
    fn branch(&mut self, depth: usize, meter: Option<&BudgetMeter>) -> Result<()> {
        self.visit_node(meter)?;
        let Some(&var) = self.order.get(depth) else {
            debug_assert_eq!(self.hist[0], 0, "a model with a falsified clause");
            self.models += 1;
            self.weight.add(&self.hist);
            return Ok(());
        };
        for lit in [var.negative(), var.positive()] {
            let searched = if self.assign(lit) {
                self.branch(depth + 1, meter)
            } else {
                Ok(())
            };
            self.undo(lit);
            searched?;
        }
        Ok(())
    }

    /// [`WeightedCounter::branch`] for [`WeightedCounter::literal_weights`]:
    /// returns the weight below the node and adds each child's weight to
    /// `marginal[code]` of the literal that entered it.
    fn branch_marginals(
        &mut self,
        depth: usize,
        marginal: &mut [WeightSum],
        meter: Option<&BudgetMeter>,
    ) -> Result<WeightSum> {
        self.visit_node(meter)?;
        let Some(&var) = self.order.get(depth) else {
            debug_assert_eq!(self.hist[0], 0, "a model with a falsified clause");
            return Ok(WeightSum::of_model(&self.hist));
        };
        let mut below = WeightSum::Exact(0);
        for lit in [var.negative(), var.positive()] {
            let searched = if self.assign(lit) {
                self.branch_marginals(depth + 1, marginal, meter)
            } else {
                Ok(WeightSum::Exact(0))
            };
            self.undo(lit);
            let weight = searched?;
            marginal[lit.code()] = marginal[lit.code()].plus(weight);
            below = below.plus(weight);
        }
        Ok(below)
    }

    /// [`WeightedCounter::branch`] for [`WeightedCounter::find_model`]: true
    /// literal first, and back out at the first model, writing the path's
    /// values into `model`.
    fn branch_model(
        &mut self,
        depth: usize,
        model: &mut Assignment,
        meter: Option<&BudgetMeter>,
    ) -> Result<bool> {
        self.visit_node(meter)?;
        let Some(&var) = self.order.get(depth) else {
            debug_assert_eq!(self.hist[0], 0, "a model with a falsified clause");
            return Ok(true);
        };
        for lit in [var.positive(), var.negative()] {
            let searched = if self.assign(lit) {
                self.branch_model(depth + 1, model, meter)
            } else {
                Ok(false)
            };
            self.undo(lit);
            if searched? {
                model.set(var, lit.phase());
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Makes `lit` true: every clause containing it gains a true literal and
    /// every clause containing `¬lit` loses an unassigned one. Returns
    /// `false` if a clause is left with neither.
    fn assign(&mut self, lit: Literal) -> bool {
        for i in self.occurrences(lit) {
            let c = self.occ_clauses[i] as usize;
            self.hist[self.true_lits[c] as usize] -= 1;
            self.true_lits[c] += 1;
            self.hist[self.true_lits[c] as usize] += 1;
            self.open_lits[c] -= 1;
        }
        let mut consistent = true;
        for i in self.occurrences(!lit) {
            let c = self.occ_clauses[i] as usize;
            self.open_lits[c] -= 1;
            consistent &= self.true_lits[c] > 0 || self.open_lits[c] > 0;
        }
        consistent
    }

    /// Reverts [`WeightedCounter::assign`] of the same literal.
    fn undo(&mut self, lit: Literal) {
        for i in self.occurrences(lit) {
            let c = self.occ_clauses[i] as usize;
            self.hist[self.true_lits[c] as usize] -= 1;
            self.true_lits[c] -= 1;
            self.hist[self.true_lits[c] as usize] += 1;
            self.open_lits[c] += 1;
        }
        for i in self.occurrences(!lit) {
            self.open_lits[self.occ_clauses[i] as usize] += 1;
        }
    }

    /// The positions of `lit`'s occurrence list in `occ_clauses`.
    fn occurrences(&self, lit: Literal) -> Range<usize> {
        self.occ_start[lit.code()] as usize..self.occ_start[lit.code() + 1] as usize
    }
}

/// A weighted model count, summed exactly in `u128`. If the integer sum
/// would overflow (a single weight can reach 3^m), the rest of the sum
/// continues in `f64` in the same fixed search order, so the result is
/// deterministic either way.
#[derive(Debug, Clone, Copy)]
enum WeightSum {
    Exact(u128),
    Float(f64),
}

impl WeightSum {
    /// The weight `Π_t t^hist[t]` of one model.
    fn of_model(hist: &[u32]) -> Self {
        exact_weight(hist).map_or_else(|| WeightSum::Float(float_weight(hist)), WeightSum::Exact)
    }

    /// The sum of two weights, exact while it fits in `u128`.
    fn plus(self, other: WeightSum) -> Self {
        match (self, other) {
            (WeightSum::Exact(a), WeightSum::Exact(b)) => a
                .checked_add(b)
                .map_or(WeightSum::Float(a as f64 + b as f64), WeightSum::Exact),
            (a, b) => WeightSum::Float(a.to_f64() + b.to_f64()),
        }
    }

    /// Adds the weight `Π_t t^hist[t]` of one model.
    fn add(&mut self, hist: &[u32]) {
        *self = match *self {
            WeightSum::Exact(sum) => match exact_weight(hist).and_then(|w| sum.checked_add(w)) {
                Some(sum) => WeightSum::Exact(sum),
                None => WeightSum::Float(sum as f64 + float_weight(hist)),
            },
            WeightSum::Float(sum) => WeightSum::Float(sum + float_weight(hist)),
        };
    }

    /// Multiplies the sum by `2^k`.
    fn doubled(self, k: u32) -> Self {
        match self {
            WeightSum::Exact(sum) => match 1u128.checked_shl(k).and_then(|f| sum.checked_mul(f)) {
                Some(sum) => WeightSum::Exact(sum),
                None => WeightSum::Float(sum as f64 * 2f64.powi(k as i32)),
            },
            WeightSum::Float(sum) => WeightSum::Float(sum * 2f64.powi(k as i32)),
        }
    }

    fn to_f64(self) -> f64 {
        match self {
            WeightSum::Exact(sum) => sum as f64,
            WeightSum::Float(sum) => sum,
        }
    }
}

/// `Π_t t^hist[t]` as an integer, or `None` if it overflows `u128`.
fn exact_weight(hist: &[u32]) -> Option<u128> {
    (2..hist.len()).try_fold(1u128, |weight, t| {
        (t as u128)
            .checked_pow(hist[t])
            .and_then(|power| weight.checked_mul(power))
    })
}

/// `Π_t t^hist[t]` in `f64`.
fn float_weight(hist: &[u32]) -> f64 {
    (2..hist.len())
        .map(|t| (t as f64).powi(hist[t] as i32))
        .product()
}

impl NblEngine for SymbolicEngine {
    fn estimate(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> Result<MeanEstimate> {
        let (_count, weighted) = self.count_models(instance, bindings)?;
        Ok(MeanEstimate::exact(self.scaled_mean(instance, weighted)))
    }

    /// Budgeted variant: polls the wall-clock deadline inside the model
    /// search so a tight budget interrupts it. Exact engines draw no noise
    /// samples, so only the deadline applies.
    fn estimate_budgeted(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: &mut BudgetMeter,
    ) -> Result<MeanEstimate> {
        meter.ensure_time()?;
        let (_count, weighted) = self.count_models_impl(instance, bindings, Some(meter))?;
        Ok(MeanEstimate::exact(self.scaled_mean(instance, weighted)))
    }

    /// Every child's mean from one weighted-count pass over the node's
    /// subspace, equal bit for bit to separate checks wherever their sums fit
    /// in `u128`. The pass stands for checks over one free variable fewer, so
    /// it runs while the node has at most `max_free_vars + 1` free variables;
    /// past that it fails as the first separate check would.
    fn literal_means(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        meter: &mut BudgetMeter,
        visit: &mut dyn FnMut(Literal, MeanEstimate),
    ) -> Result<()> {
        let free: Vec<Variable> = (0..instance.num_vars())
            .map(Variable::new)
            .filter(|&var| bindings.value(var).is_none())
            .collect();
        if free.is_empty() {
            return Ok(());
        }
        // The first check is charged before the pass, so an exhausted budget
        // runs no search.
        meter.charge_check()?;
        meter.ensure_time()?;
        instance.validate_bindings(bindings)?;
        if free.len() > self.max_free_vars + 1 {
            return Err(self.too_large(free.len() - 1));
        }
        let weights =
            WeightedCounter::new(instance.formula(), bindings).literal_weights(Some(meter))?;
        let children = free
            .iter()
            .flat_map(|&var| [var.positive(), var.negative()]);
        for (k, lit) in children.enumerate() {
            if k > 0 {
                meter.charge_check()?;
            }
            let mean = self.scaled_mean(instance, weights[lit.code()]);
            visit(lit, MeanEstimate::exact(mean));
        }
        Ok(())
    }

    /// Answers from `witness` when it lies inside the subspace, and otherwise
    /// searches for one model there, which visits a subset of the nodes a
    /// count of the subspace visits.
    fn extraction_step(
        &mut self,
        instance: &NblSatInstance,
        bindings: &PartialAssignment,
        witness: Option<&Assignment>,
        meter: &mut BudgetMeter,
    ) -> Result<StepAnswer> {
        meter.charge_check()?;
        meter.ensure_time()?;
        self.ensure_countable(instance, bindings)?;
        let inside = |model: &&Assignment| {
            bindings
                .assigned()
                .all(|(var, value)| model.get(var) == Some(value))
        };
        if let Some(model) = witness.filter(inside) {
            return Ok(StepAnswer::Model(Some(model.clone())));
        }
        WeightedCounter::new(instance.formula(), bindings)
            .find_model(bindings, Some(meter))
            .map(StepAnswer::Model)
    }

    fn name(&self) -> &'static str {
        "symbolic"
    }
}

impl SymbolicEngine {
    /// Converts the weighted model count into ⟨S_N⟩.
    fn scaled_mean(&self, instance: &NblSatInstance, weighted: f64) -> f64 {
        let mean = weighted * self.minterm_weight(instance);
        // `Var^{nm}` underflows to zero once n·m exceeds a few hundred, which
        // would flip a satisfiable verdict to UNSAT even though the exact
        // algebra says the mean is strictly positive. The verdict carries the
        // *sign* of the weighted model count, so preserve it through the
        // underflow with the smallest positive value.
        if weighted > 0.0 && mean == 0.0 {
            f64::MIN_POSITIVE
        } else {
            mean
        }
    }
}

/// The enumerator [`SymbolicEngine::count_models`] ran before the
/// branch-and-prune counter: a test-only oracle, kept verbatim except for its
/// deadline poll, that the counter must match bit for bit wherever the
/// weighted count is below 2^53. It visits all 2^free assignments and
/// evaluates the whole formula twice for each model.
#[cfg(test)]
mod reference {
    use super::SymbolicEngine;
    use crate::error::{NblSatError, Result};
    use crate::transform::NblSatInstance;
    use cnf::{Assignment, PartialAssignment, Variable};

    impl SymbolicEngine {
        /// The model count and weighted count by enumeration.
        pub(super) fn count_models_enumerated(
            &self,
            instance: &NblSatInstance,
            bindings: &PartialAssignment,
        ) -> Result<(u64, f64)> {
            instance.validate_bindings(bindings)?;
            let n = instance.num_vars();
            let free_vars: Vec<Variable> = (0..n)
                .map(Variable::new)
                .filter(|v| bindings.value(*v).is_none())
                .collect();
            if free_vars.len() > self.max_free_vars {
                return Err(NblSatError::InstanceTooLarge {
                    limit: format!("{} free variables", self.max_free_vars),
                    actual: free_vars.len(),
                });
            }
            let formula = instance.formula();
            let mut count = 0u64;
            let mut weighted = 0.0f64;
            let num_combinations = 1u64 << free_vars.len();
            let mut assignment = bindings.to_complete(false);
            for mask in 0..num_combinations {
                for (bit, var) in free_vars.iter().enumerate() {
                    assignment.set(*var, (mask >> bit) & 1 == 1);
                }
                if satisfies_with_weight(formula, &assignment) {
                    count += 1;
                    weighted += clause_multiplicity_weight(formula, &assignment);
                }
            }
            Ok((count, weighted))
        }
    }

    /// Returns `true` if the assignment satisfies the formula.
    fn satisfies_with_weight(formula: &cnf::CnfFormula, assignment: &Assignment) -> bool {
        formula.evaluate(assignment)
    }

    /// `Π_j (#literals of clause j satisfied by the assignment)`.
    fn clause_multiplicity_weight(formula: &cnf::CnfFormula, assignment: &Assignment) -> f64 {
        formula
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .filter(|lit| assignment.satisfies(**lit))
                    .count() as f64
            })
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::cnf_formula;
    use cnf::generators;

    fn instance(f: &cnf::CnfFormula) -> NblSatInstance {
        NblSatInstance::new(f).unwrap()
    }

    #[test]
    fn example6_mean_is_two_satisfying_minterms() {
        // (x1+x2)(¬x1+¬x2): two models, each satisfying exactly one literal
        // per clause, so ⟨S_N⟩ = 2 · (1/12)^4.
        let inst = instance(&generators::example6_sat());
        let mut engine = SymbolicEngine::new();
        let est = engine.estimate(&inst, &inst.empty_bindings()).unwrap();
        let expected = 2.0 * (1.0f64 / 12.0).powi(4);
        assert!((est.mean - expected).abs() < 1e-15);
        assert!(est.exact);
        assert!(est.is_positive(3.0));
    }

    #[test]
    fn example7_mean_is_zero() {
        let inst = instance(&generators::example7_unsat());
        let mut engine = SymbolicEngine::new();
        let est = engine.estimate(&inst, &inst.empty_bindings()).unwrap();
        assert_eq!(est.mean, 0.0);
        assert!(!est.is_positive(3.0));
    }

    #[test]
    fn section4_instances() {
        let mut engine = SymbolicEngine::new();
        let sat = instance(&generators::section4_sat_instance());
        let unsat = instance(&generators::section4_unsat_instance());
        let sat_mean = engine.estimate(&sat, &sat.empty_bindings()).unwrap().mean;
        let unsat_mean = engine
            .estimate(&unsat, &unsat.empty_bindings())
            .unwrap()
            .mean;
        assert!(sat_mean > 0.0);
        assert_eq!(unsat_mean, 0.0);
        // The single model <1,1> satisfies both literals of the two (x1+x2)
        // clauses and one literal of each remaining clause: weight 2·2·1·1 = 4.
        let expected = 4.0 * (1.0f64 / 12.0).powi(8);
        assert!((sat_mean - expected).abs() < 1e-18);
    }

    #[test]
    fn verdict_matches_brute_force_on_random_instances() {
        use cnf::generators::RandomKSatConfig;
        let mut engine = SymbolicEngine::new();
        for seed in 0..40 {
            let f =
                generators::random_ksat(&RandomKSatConfig::new(6, 26, 3).with_seed(seed)).unwrap();
            let inst = instance(&f);
            let est = engine.estimate(&inst, &inst.empty_bindings()).unwrap();
            let sat = f.count_satisfying_assignments() > 0;
            assert_eq!(est.mean > 0.0, sat, "seed {seed}");
        }
    }

    #[test]
    fn bindings_restrict_the_count() {
        // Example 8: S = (x1+x2)(¬x1+¬x2); binding x1=1 leaves one model.
        let inst = instance(&generators::example6_sat());
        let engine = SymbolicEngine::new();
        let mut bindings = inst.empty_bindings();
        bindings.assign(Variable::new(0), true);
        let (count, weighted) = engine.count_models(&inst, &bindings).unwrap();
        assert_eq!(count, 1);
        assert_eq!(weighted, 1.0);
        bindings.assign(Variable::new(1), true);
        let (count, _) = engine.count_models(&inst, &bindings).unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn weighted_count_reflects_literal_multiplicity() {
        // Single clause (x1 + x2): model (1,1) satisfies both literals.
        let inst = instance(&cnf_formula![[1, 2]]);
        let engine = SymbolicEngine::new();
        let (count, weighted) = engine.count_models(&inst, &inst.empty_bindings()).unwrap();
        assert_eq!(count, 3);
        assert_eq!(weighted, 1.0 + 1.0 + 2.0);
    }

    #[test]
    fn size_limit_is_enforced() {
        let f = generators::random_ksat(
            &cnf::generators::RandomKSatConfig::new(30, 10, 3).with_seed(0),
        )
        .unwrap();
        let inst = instance(&f);
        let mut engine = SymbolicEngine::new().with_max_free_vars(10);
        assert!(matches!(
            engine.estimate(&inst, &inst.empty_bindings()),
            Err(NblSatError::InstanceTooLarge { .. })
        ));
    }

    #[test]
    fn moment_model_scales_but_does_not_flip_sign() {
        let inst = instance(&generators::example6_sat());
        let uniform = SymbolicEngine::new().estimate_helper(&inst);
        let rtw = SymbolicEngine::new()
            .with_moment_model(MomentModel::unit_rtw())
            .estimate_helper(&inst);
        assert!(uniform > 0.0 && rtw > 0.0);
        assert!(rtw > uniform); // RTW variance 1 ≫ 1/12
        assert_eq!(SymbolicEngine::new().name(), "symbolic");
    }

    impl SymbolicEngine {
        fn estimate_helper(mut self, inst: &NblSatInstance) -> f64 {
            self.estimate(inst, &inst.empty_bindings()).unwrap().mean
        }
    }

    #[test]
    fn budgeted_estimate_honours_the_deadline_and_matches_plain() {
        use crate::budget::{Budget, BudgetMeter, ExhaustedResource};
        use std::time::Duration;
        let inst = instance(&generators::section4_sat_instance());
        let mut engine = SymbolicEngine::new();
        let plain = engine.estimate(&inst, &inst.empty_bindings()).unwrap();
        let mut meter = BudgetMeter::start(&Budget::unlimited());
        let budgeted = engine
            .estimate_budgeted(&inst, &inst.empty_bindings(), &mut meter)
            .unwrap();
        assert_eq!(plain, budgeted);
        let mut expired = BudgetMeter::start(&Budget::unlimited().with_wall_time(Duration::ZERO));
        assert!(matches!(
            engine
                .estimate_budgeted(&inst, &inst.empty_bindings(), &mut expired)
                .unwrap_err(),
            NblSatError::BudgetExhausted {
                resource: ExhaustedResource::WallClock
            }
        ));
    }

    #[test]
    fn verdict_sign_survives_var_power_underflow() {
        // n·m large enough that Var^{nm} = (1/12)^{375} underflows f64 to 0,
        // on an instance that is trivially satisfiable (every clause is the
        // same tautology-free satisfiable clause). The exact mean must still
        // be reported strictly positive so Algorithm 1 answers SAT.
        let mut f = cnf::CnfFormula::new(15);
        for _ in 0..25 {
            f.add_clause([
                Variable::new(0).positive(),
                Variable::new(1).positive(),
                Variable::new(2).positive(),
            ]);
        }
        let inst = instance(&f);
        assert!(inst.nm() >= 300);
        let mut engine = SymbolicEngine::new();
        let estimate = engine.estimate(&inst, &inst.empty_bindings()).unwrap();
        assert!(
            estimate.mean > 0.0,
            "satisfiable instance must keep a positive exact mean even when Var^nm underflows"
        );
        assert!(estimate.is_positive(3.0));
    }

    /// The child means of one pass under `bindings`, in visiting order.
    fn literal_means_of<E: NblEngine>(
        engine: &mut E,
        inst: &NblSatInstance,
        bindings: &PartialAssignment,
    ) -> Vec<(Literal, MeanEstimate)> {
        let mut means = Vec::new();
        let mut meter = BudgetMeter::default();
        engine
            .literal_means(inst, bindings, &mut meter, &mut |lit, estimate| {
                means.push((lit, estimate))
            })
            .unwrap();
        assert_eq!(meter.checks_used(), means.len() as u64);
        means
    }

    /// Asserts that one pass gives every free variable's two child means in
    /// the per-check order, each equal bit for bit to a separate check with
    /// that literal bound.
    fn assert_literal_means_match_separate_checks(
        label: &str,
        inst: &NblSatInstance,
        bindings: &PartialAssignment,
    ) {
        let mut engine = SymbolicEngine::new();
        let means = literal_means_of(&mut engine, inst, bindings);
        let order: Vec<Literal> = (0..inst.num_vars())
            .map(Variable::new)
            .filter(|&var| bindings.value(var).is_none())
            .flat_map(|var| [var.positive(), var.negative()])
            .collect();
        assert_eq!(
            means.iter().map(|&(lit, _)| lit).collect::<Vec<_>>(),
            order,
            "{label} under {bindings:?}"
        );
        let mut child = bindings.clone();
        for (lit, estimate) in means {
            child.assign_literal(lit);
            let separate = engine.estimate(inst, &child).unwrap();
            child.unassign(lit.variable());
            assert_eq!(
                (estimate.mean.to_bits(), estimate),
                (separate.mean.to_bits(), separate),
                "{label} under {bindings:?}, child {lit}"
            );
        }
    }

    /// Asserts that the counter returns the reference enumerator's model
    /// count and weighted count bit for bit, unbound and with one to three
    /// variables bound each way, and that one pass's child means equal
    /// separate checks under each of those bindings. Which variables are
    /// bound, and to what, varies with `case`.
    fn assert_matches_reference(label: &str, formula: &cnf::CnfFormula, case: usize) {
        let inst = instance(formula);
        let engine = SymbolicEngine::new();
        let n = inst.num_vars();
        let mut variants = vec![inst.empty_bindings()];
        for bound in 1..=n.min(3) {
            for flip in [false, true] {
                let mut bindings = inst.empty_bindings();
                for i in 0..bound {
                    let value = ((case >> i) & 1 == 1) != flip;
                    bindings.assign(Variable::new((case + i) % n), value);
                }
                variants.push(bindings);
            }
        }
        for bindings in &variants {
            let expected = engine.count_models_enumerated(&inst, bindings).unwrap();
            assert!(
                expected.1 < 2f64.powi(53),
                "{label}: the reference sum {} is past 2^53",
                expected.1
            );
            let actual = engine.count_models(&inst, bindings).unwrap();
            assert_eq!(
                (actual.0, actual.1.to_bits()),
                (expected.0, expected.1.to_bits()),
                "{label} under {bindings:?}: {actual:?} vs the reference's {expected:?}"
            );
            assert_literal_means_match_separate_checks(label, &inst, bindings);
        }
    }

    #[test]
    fn counter_matches_the_reference_on_the_paper_instances() {
        let cases = [
            ("running example", generators::running_example()),
            ("example 6", generators::example6_sat()),
            ("example 7", generators::example7_unsat()),
            ("section 4 SAT", generators::section4_sat_instance()),
            ("section 4 UNSAT", generators::section4_unsat_instance()),
        ];
        for (case, (label, formula)) in cases.iter().enumerate() {
            assert_matches_reference(label, formula, case);
        }
    }

    #[test]
    fn counter_matches_the_reference_on_random_3sat() {
        use cnf::generators::RandomKSatConfig;
        let mut case = 0;
        for n in [3, 5, 8, 12, 14, 16] {
            for alpha in [1.5, 3.0, 4.26, 6.0] {
                for seed in 0..3 {
                    let config = RandomKSatConfig::from_ratio(n, alpha, 3).with_seed(seed);
                    let formula = generators::random_ksat(&config).unwrap();
                    let label = format!("random 3-SAT n={n} alpha={alpha} seed={seed}");
                    assert_matches_reference(&label, &formula, case);
                    case += 1;
                }
            }
        }
    }

    #[test]
    fn counter_matches_the_reference_on_unnormalized_formulas() {
        use cnf::generators::RandomKSatConfig;
        // Duplicate literals, tautological clauses, and x5 and x6 in no clause.
        let mut hand = cnf::CnfFormula::from_dimacs_clauses(&[
            vec![1, 1, 2],
            vec![-1, 1],
            vec![2, -3, -3],
            vec![-2, 4, -4, 4],
        ])
        .unwrap();
        hand.ensure_vars(6);
        assert_matches_reference("hand-written", &hand, 0);
        let (mut duplicates, mut tautologies) = (0, 0);
        for seed in 0..60u64 {
            let (k, m) = (2 + seed as usize % 3, 3 + seed as usize % 10);
            let config = RandomKSatConfig::new(5, m, k)
                .allow_repeated_vars()
                .with_seed(seed);
            let mut formula = generators::random_ksat(&config).unwrap();
            formula.ensure_vars(5 + seed as usize % 3);
            for clause in formula.iter() {
                duplicates += usize::from(clause.normalized().len() < clause.len());
                tautologies += usize::from(clause.is_tautology());
            }
            assert_matches_reference(
                &format!("repeated vars seed={seed}"),
                &formula,
                seed as usize,
            );
        }
        assert!(
            duplicates > 0 && tautologies > 0,
            "{duplicates} {tautologies}"
        );
    }

    #[test]
    fn weights_past_u128_continue_in_f64() {
        // 90 copies of (x1 + x2 + x3), plus x4 and x5 in no clause. The model
        // x1 = x2 = x3 = 1 alone weighs 3^90 > 2^128, so the integer sum
        // overflows on the last leaf and the rest continues in f64.
        let mut f = cnf::CnfFormula::new(5);
        for _ in 0..90 {
            f.add_clause((0..3).map(|i| Variable::new(i).positive()));
        }
        let inst = instance(&f);
        let engine = SymbolicEngine::new();
        let (count, weighted) = engine.count_models(&inst, &inst.empty_bindings()).unwrap();
        assert_eq!(count, 7 * 4);
        let exact = 4.0 * (3f64.powi(90) + 3.0 * 2f64.powi(90) + 3.0);
        assert!(
            (weighted - exact).abs() <= exact * 1e-15,
            "{weighted} vs {exact}"
        );
        let (ref_count, ref_weighted) = engine
            .count_models_enumerated(&inst, &inst.empty_bindings())
            .unwrap();
        assert_eq!(count, ref_count);
        assert!((weighted - ref_weighted).abs() <= ref_weighted * 1e-15);
        // Past u128 the pass sums in another grouping, so its child means
        // agree with separate checks only to rounding.
        let mut engine = SymbolicEngine::new();
        let bindings = inst.empty_bindings();
        for (lit, estimate) in literal_means_of(&mut engine, &inst, &bindings) {
            let mut child = bindings.clone();
            child.assign_literal(lit);
            let separate = engine.estimate(&inst, &child).unwrap().mean;
            assert!(
                (estimate.mean - separate).abs() <= separate * 1e-15,
                "{lit}: {} vs {separate}",
                estimate.mean
            );
        }
    }

    #[test]
    fn a_witness_inside_the_subspace_answers_without_a_search() {
        // Example 6: (x1 + x2)(¬x1 + ¬x2).
        let inst = instance(&generators::example6_sat());
        let mut engine = SymbolicEngine::new();
        let mut meter = BudgetMeter::default();
        let mut bindings = inst.empty_bindings();
        bindings.assign(Variable::new(0), true);
        let StepAnswer::Model(Some(model)) = engine
            .extraction_step(&inst, &bindings, None, &mut meter)
            .unwrap()
        else {
            panic!("x1 = 1 holds the model x1·¬x2");
        };
        assert_eq!(model.values(), [true, false]);
        // The step reuses a witness inside its subspace.
        assert_eq!(
            engine.extraction_step(&inst, &bindings, Some(&model), &mut meter),
            Ok(StepAnswer::Model(Some(model.clone())))
        );
        // Outside it, the step searches: x1 = x2 = 1 holds no model.
        bindings.assign(Variable::new(1), true);
        assert_eq!(
            engine.extraction_step(&inst, &bindings, Some(&model), &mut meter),
            Ok(StepAnswer::Model(None))
        );
        assert_eq!(meter.checks_used(), 3);
    }

    #[test]
    fn the_search_polls_the_deadline() {
        use crate::budget::{Budget, ExhaustedResource};
        use std::time::Duration;
        let inst = instance(&generators::section4_sat_instance());
        let expired = BudgetMeter::start(&Budget::unlimited().with_wall_time(Duration::ZERO));
        assert!(matches!(
            SymbolicEngine::new().count_models_impl(&inst, &inst.empty_bindings(), Some(&expired)),
            Err(NblSatError::BudgetExhausted {
                resource: ExhaustedResource::WallClock
            })
        ));
    }
}
