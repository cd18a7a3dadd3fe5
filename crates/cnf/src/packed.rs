//! Packed evaluation cores: 64 candidate assignments per word op.
//!
//! Built on [`crate::bits`], this module holds the two data structures the
//! bit-parallel hot paths run on:
//!
//! * [`AssignmentBlock`] — up to 64 candidate assignments stored
//!   *variable-major*: one [`Word`] per variable whose bit `l` is the value
//!   of that variable in candidate lane `l`. A single AND/OR/NOT over such a
//!   word evaluates a literal against all lanes at once.
//! * [`PackedFormula`] — a CNF formula compiled to flat literal tables and
//!   per-clause sparse word masks, with evaluators for whole blocks
//!   ([`PackedFormula::eval_block`]) and for a single bit-packed assignment
//!   ([`PackedFormula::satisfied`]).
//!
//! Semantics match the scalar evaluators bit-for-bit, including the
//! tail-word convention and the "missing variable reads false" totality rule
//! of [`crate::Clause::evaluate`]: a lane (or bit vector) covering fewer
//! variables than the formula reads `false` for the uncovered variables.
//!
//! These are the only evaluation cores the solvers and engines run; the
//! scalar searches they replaced survive only as test-only reference
//! oracles next to the code they check.

use crate::assignment::Assignment;
use crate::bits::{BitMatrix, BitVector, Word, WORD_BITS};
use crate::clause::Clause;
use crate::formula::CnfFormula;
use crate::var::Variable;

/// A block of up to 64 candidate assignments in variable-major bit layout.
///
/// Row `v` of the backing matrix is a single [`Word`] whose bit `l` holds the
/// value of variable `v` in lane `l`. Lanes past [`AssignmentBlock::lanes`]
/// are kept zero (the tail convention), and variables past
/// [`AssignmentBlock::num_vars`] read [`Word::ZERO`] — every lane treats
/// uncovered variables as `false`, exactly like scalar evaluation.
///
/// ```
/// use cnf::{Assignment, AssignmentBlock};
/// let a = Assignment::from_bools(vec![true, false]);
/// let b = Assignment::from_bools(vec![false, true]);
/// let block = AssignmentBlock::from_assignments(&[a.clone(), b]);
/// assert_eq!(block.lanes(), 2);
/// assert_eq!(block.lane(0), a);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignmentBlock {
    matrix: BitMatrix,
    lanes: usize,
}

/// Bit patterns of the low six minterm-index bits: `LOW_PATTERNS[i]` has bit
/// `l` set iff `(l >> i) & 1 == 1`.
const LOW_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl AssignmentBlock {
    /// Packs a slice of assignments (one per lane, in order).
    ///
    /// The block covers the maximum variable count over the inputs; a lane
    /// whose assignment is shorter reads `false` for its uncovered variables,
    /// matching scalar totality.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 assignments are given.
    pub fn from_assignments(assignments: &[Assignment]) -> Self {
        assert!(
            assignments.len() <= WORD_BITS,
            "a block holds at most {WORD_BITS} lanes"
        );
        let num_vars = assignments
            .iter()
            .map(Assignment::num_vars)
            .max()
            .unwrap_or(0);
        let mut matrix = BitMatrix::zeros(num_vars, assignments.len());
        for (lane, a) in assignments.iter().enumerate() {
            for (var, &value) in a.values().iter().enumerate() {
                if value {
                    matrix.set(var, lane, true);
                }
            }
        }
        AssignmentBlock {
            matrix,
            lanes: assignments.len(),
        }
    }

    /// Packs `lanes` copies of one assignment.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 64`.
    pub fn broadcast(assignment: &Assignment, lanes: usize) -> Self {
        assert!(
            lanes <= WORD_BITS,
            "a block holds at most {WORD_BITS} lanes"
        );
        let mask = Word::tail_mask(lanes);
        let mut matrix = BitMatrix::zeros(assignment.num_vars(), lanes);
        for (var, &value) in assignment.values().iter().enumerate() {
            if value {
                matrix.row_mut(var)[0] = mask;
            }
        }
        AssignmentBlock { matrix, lanes }
    }

    /// Packs one candidate flip per lane: lane `l` is `base` with variable
    /// `flips[l]` negated. This is the block WalkSAT/GSAT-style flip scoring
    /// evaluates in one pass.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 flips are given or a flipped variable is not
    /// covered by `base`.
    pub fn with_flips(base: &Assignment, flips: &[Variable]) -> Self {
        assert!(
            flips.len() <= WORD_BITS,
            "a block holds at most {WORD_BITS} lanes"
        );
        let mut block = AssignmentBlock::broadcast(base, flips.len());
        for (lane, &var) in flips.iter().enumerate() {
            let flipped = !base.value(var);
            block.matrix.set(var.index(), lane, flipped);
        }
        block
    }

    /// Packs the minterms `first .. first + lanes` over `num_vars` variables
    /// (bit `i` of the minterm index is the value of variable `i`, as in
    /// [`Assignment::from_index`]). This is the block the packed brute-force
    /// solver enumerates.
    ///
    /// # Panics
    ///
    /// Panics if `first` is not a multiple of 64, `lanes > 64`, or
    /// `num_vars > 64`.
    pub fn minterm_range(num_vars: usize, first: u64, lanes: usize) -> Self {
        assert!(
            first.is_multiple_of(WORD_BITS as u64),
            "first minterm must be 64-aligned"
        );
        assert!(
            lanes <= WORD_BITS,
            "a block holds at most {WORD_BITS} lanes"
        );
        assert!(num_vars <= 64, "minterm indices cover at most 64 variables");
        let mask = Word::tail_mask(lanes);
        let mut matrix = BitMatrix::zeros(num_vars, lanes);
        for var in 0..num_vars {
            // Lane l holds minterm first + l; with first 64-aligned the low
            // six index bits come straight from l, higher bits from `first`.
            let pattern = match LOW_PATTERNS.get(var) {
                Some(&low) => low,
                None if (first >> var) & 1 == 1 => u64::MAX,
                None => 0,
            };
            matrix.row_mut(var)[0] = Word(pattern) & mask;
        }
        AssignmentBlock { matrix, lanes }
    }

    /// Number of candidate lanes (at most 64).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of variables covered by the block.
    pub fn num_vars(&self) -> usize {
        self.matrix.rows()
    }

    /// The word with ones in exactly the valid lanes.
    pub fn lane_mask(&self) -> Word {
        Word::tail_mask(self.lanes)
    }

    /// The lane word of variable `var` — bit `l` is the variable's value in
    /// lane `l`. Total: variables past the block read [`Word::ZERO`]
    /// (every lane sees `false`).
    pub fn var_word(&self, var: Variable) -> Word {
        if var.index() < self.matrix.rows() {
            self.matrix.row(var.index())[0]
        } else {
            Word::ZERO
        }
    }

    /// Extracts lane `l` back into a scalar [`Assignment`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes`.
    pub fn lane(&self, lane: usize) -> Assignment {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range ({})",
            self.lanes
        );
        Assignment::from_bools(
            (0..self.matrix.rows())
                .map(|v| self.matrix.get(v, lane))
                .collect(),
        )
    }
}

/// A CNF formula compiled for packed evaluation.
///
/// Two complementary representations are prebuilt from the same clauses:
///
/// * a flat literal table (per-clause `(variable, phase)` runs) driving the
///   block evaluator, which tests 64 candidate assignments per word op;
/// * per-clause sparse word masks (`(word_index, positive_mask,
///   negative_mask)` runs) driving the single-assignment evaluator over a
///   [`BitVector`], which tests 64 *variables* per word op.
///
/// ```
/// use cnf::{cnf_formula, Assignment, AssignmentBlock, PackedFormula};
/// let f = cnf_formula![[1, -2], [-1, 2, 3]];
/// let packed = PackedFormula::new(&f);
/// let block = AssignmentBlock::from_assignments(&[
///     Assignment::from_bools(vec![false, false, true]), // model
///     Assignment::from_bools(vec![false, true, false]), // non-model
/// ]);
/// assert_eq!(packed.eval_block(&block).0, 0b01);
/// ```
#[derive(Debug, Clone)]
pub struct PackedFormula {
    num_vars: usize,
    /// Flattened `(variable index, phase)` pairs of every clause.
    lits: Vec<(u32, bool)>,
    /// `lit_ranges[c]..lit_ranges[c + 1]` indexes clause `c`'s run in `lits`.
    lit_ranges: Vec<u32>,
    /// Flattened `(word index, positive mask, negative mask)` runs.
    masks: Vec<(u32, u64, u64)>,
    /// `mask_ranges[c]..mask_ranges[c + 1]` indexes clause `c`'s run in `masks`.
    mask_ranges: Vec<u32>,
}

impl PackedFormula {
    /// Compiles a formula for packed evaluation.
    pub fn new(formula: &CnfFormula) -> Self {
        let mut lits = Vec::with_capacity(formula.num_literals());
        let mut lit_ranges = Vec::with_capacity(formula.num_clauses() + 1);
        let mut masks = Vec::new();
        let mut mask_ranges = Vec::with_capacity(formula.num_clauses() + 1);
        lit_ranges.push(0);
        mask_ranges.push(0);
        for clause in formula.iter() {
            for &lit in clause.iter() {
                lits.push((lit.variable().index() as u32, lit.is_positive()));
            }
            lit_ranges.push(lits.len() as u32);
            Self::push_clause_masks(clause, &mut masks);
            mask_ranges.push(masks.len() as u32);
        }
        PackedFormula {
            num_vars: formula.num_vars(),
            lits,
            lit_ranges,
            masks,
            mask_ranges,
        }
    }

    /// Collects the sparse `(word, pos, neg)` mask run of one clause, merging
    /// literals that fall in the same word and sorting runs by word index.
    fn push_clause_masks(clause: &Clause, masks: &mut Vec<(u32, u64, u64)>) {
        let start = masks.len();
        for &lit in clause.iter() {
            let var = lit.variable().index();
            let word = (var / WORD_BITS) as u32;
            let bit = 1u64 << (var % WORD_BITS);
            let entry = match masks[start..].iter_mut().find(|(w, _, _)| *w == word) {
                Some(entry) => entry,
                None => {
                    masks.push((word, 0, 0));
                    masks.last_mut().expect("just pushed")
                }
            };
            if lit.is_positive() {
                entry.1 |= bit;
            } else {
                entry.2 |= bit;
            }
        }
        masks[start..].sort_unstable_by_key(|&(w, _, _)| w);
    }

    /// Number of variables of the source formula.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.lit_ranges.len() - 1
    }

    /// The `(variable index, phase)` pairs of clause `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn clause_literals(&self, c: usize) -> &[(u32, bool)] {
        &self.lits[self.lit_ranges[c] as usize..self.lit_ranges[c + 1] as usize]
    }

    /// Evaluates clause `c` against every lane of a block: bit `l` of the
    /// result is set iff lane `l` satisfies the clause. Lanes past the block
    /// are zero; an empty clause yields [`Word::ZERO`].
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn clause_block(&self, c: usize, block: &AssignmentBlock) -> Word {
        let mut sat = Word::ZERO;
        for &(var, positive) in self.clause_literals(c) {
            let w = block.var_word(Variable::new(var as usize));
            sat |= if positive { w } else { !w };
        }
        sat & block.lane_mask()
    }

    /// Evaluates the whole formula against every lane of a block: bit `l` of
    /// the result is set iff lane `l` satisfies every clause.
    pub fn eval_block(&self, block: &AssignmentBlock) -> Word {
        let mut sat = block.lane_mask();
        for c in 0..self.num_clauses() {
            sat &= self.clause_block(c, block);
            if sat.is_zero() {
                break;
            }
        }
        sat
    }

    /// Evaluates clause `c` against one bit-packed assignment, 64 variables
    /// per word op. Total like [`Clause::evaluate`]: variables past the
    /// vector read `false`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn clause_satisfied(&self, c: usize, assignment: &BitVector) -> bool {
        let run = &self.masks[self.mask_ranges[c] as usize..self.mask_ranges[c + 1] as usize];
        run.iter().any(|&(word, pos, neg)| {
            let a = assignment.word(word as usize).0;
            (pos & a) | (neg & !a) != 0
        })
    }

    /// Evaluates the whole formula against one bit-packed assignment.
    pub fn satisfied(&self, assignment: &BitVector) -> bool {
        (0..self.num_clauses()).all(|c| self.clause_satisfied(c, assignment))
    }

    /// Index of the first clause the assignment falsifies, if any — the
    /// packed counterpart of scanning `formula.iter()` for an unsatisfied
    /// clause in formula order.
    pub fn first_unsatisfied(&self, assignment: &BitVector) -> Option<usize> {
        (0..self.num_clauses()).find(|&c| !self.clause_satisfied(c, assignment))
    }

    /// Number of clauses the assignment satisfies.
    pub fn count_satisfied(&self, assignment: &BitVector) -> usize {
        (0..self.num_clauses())
            .filter(|&c| self.clause_satisfied(c, assignment))
            .count()
    }
}

impl From<&CnfFormula> for PackedFormula {
    fn from(formula: &CnfFormula) -> Self {
        PackedFormula::new(formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf_formula;

    #[test]
    fn block_from_assignments_roundtrips_lanes() {
        let a = Assignment::from_bools(vec![true, false, true]);
        let b = Assignment::from_bools(vec![false]); // shorter lane
        let block = AssignmentBlock::from_assignments(&[a.clone(), b]);
        assert_eq!(block.lanes(), 2);
        assert_eq!(block.num_vars(), 3);
        assert_eq!(block.lane(0), a);
        // The short lane reads false for its uncovered variables.
        assert_eq!(block.lane(1), Assignment::all_false(3));
        assert_eq!(block.lane_mask(), Word(0b11));
        assert_eq!(block.var_word(Variable::new(0)), Word(0b01));
        assert_eq!(block.var_word(Variable::new(9)), Word::ZERO);
    }

    #[test]
    fn block_broadcast_fills_all_lanes() {
        let a = Assignment::from_bools(vec![true, false]);
        let block = AssignmentBlock::broadcast(&a, 5);
        for lane in 0..5 {
            assert_eq!(block.lane(lane), a);
        }
        assert_eq!(block.var_word(Variable::new(0)), Word(0b11111));
    }

    #[test]
    fn block_with_flips_negates_one_var_per_lane() {
        let base = Assignment::from_bools(vec![true, false, true]);
        let flips = [Variable::new(1), Variable::new(0), Variable::new(1)];
        let block = AssignmentBlock::with_flips(&base, &flips);
        assert_eq!(block.lane(0).values(), &[true, true, true]);
        assert_eq!(block.lane(1).values(), &[false, false, true]);
        assert_eq!(block.lane(2).values(), &[true, true, true]);
    }

    #[test]
    fn block_minterm_range_matches_from_index() {
        for num_vars in [0usize, 1, 3, 7] {
            let total = 1u64 << num_vars;
            let mut first = 0;
            while first < total {
                let lanes = 64.min((total - first) as usize);
                let block = AssignmentBlock::minterm_range(num_vars, first, lanes);
                for lane in 0..lanes {
                    assert_eq!(
                        block.lane(lane),
                        Assignment::from_index(num_vars, first + lane as u64),
                        "minterm {} over {num_vars} vars",
                        first + lane as u64
                    );
                }
                first += 64;
            }
        }
    }

    #[test]
    #[should_panic(expected = "64-aligned")]
    fn minterm_range_rejects_unaligned_start() {
        let _ = AssignmentBlock::minterm_range(8, 3, 4);
    }

    #[test]
    fn packed_formula_block_eval_matches_scalar() {
        let f = cnf_formula![[1, -2], [-1, 2, 3]];
        let packed = PackedFormula::new(&f);
        assert_eq!(packed.num_vars(), 3);
        assert_eq!(packed.num_clauses(), 2);
        let all: Vec<Assignment> = Assignment::enumerate_all(3).collect();
        let block = AssignmentBlock::from_assignments(&all);
        let sat = packed.eval_block(&block);
        for (lane, a) in all.iter().enumerate() {
            assert_eq!(sat.bit(lane), f.evaluate(a), "lane {lane}");
            for (c, clause) in f.iter().enumerate() {
                assert_eq!(packed.clause_block(c, &block).bit(lane), clause.evaluate(a));
            }
        }
    }

    #[test]
    fn packed_formula_bitvector_eval_matches_scalar() {
        let f = cnf_formula![[1, 2], [-1, -2], [-3]];
        let packed = PackedFormula::new(&f);
        for a in Assignment::enumerate_all(3) {
            let bits = BitVector::from(&a);
            assert_eq!(packed.satisfied(&bits), f.evaluate(&a));
            assert_eq!(packed.count_satisfied(&bits), f.count_satisfied_clauses(&a));
            assert_eq!(
                packed.first_unsatisfied(&bits),
                f.iter().position(|c| !c.evaluate(&a))
            );
        }
    }

    #[test]
    fn packed_eval_is_total_over_short_vectors() {
        // x65 forces a second word; the short vector covers only x1.
        let f = cnf_formula![[1, -65], [-2]];
        let packed = PackedFormula::new(&f);
        let short = BitVector::from_bools(&[true]);
        // x65 and x2 read false: ¬x65 and ¬x2 hold, so both clauses hold.
        assert!(packed.satisfied(&short));
        assert!(f.evaluate(&short.to_assignment()));
        let block = AssignmentBlock::from_assignments(&[short.to_assignment()]);
        assert_eq!(packed.eval_block(&block), Word(1));
    }

    #[test]
    fn empty_and_tautological_clauses() {
        let mut f = CnfFormula::new(2);
        f.push_clause(Clause::new());
        let packed = PackedFormula::new(&f);
        let block = AssignmentBlock::from_assignments(&[Assignment::all_true(2)]);
        assert_eq!(packed.eval_block(&block), Word::ZERO);
        assert!(!packed.satisfied(&BitVector::from_bools(&[true, true])));

        let taut = cnf_formula![[1, -1]];
        let tp = PackedFormula::new(&taut);
        for a in Assignment::enumerate_all(1) {
            assert!(tp.satisfied(&BitVector::from(&a)));
            let block = AssignmentBlock::from_assignments(&[a]);
            assert_eq!(tp.eval_block(&block), Word(1));
        }
    }
}
