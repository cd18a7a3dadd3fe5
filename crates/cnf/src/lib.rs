//! CNF substrate for the NBL-SAT reproduction.
//!
//! This crate provides the Boolean-formula data model that every other crate
//! in the workspace builds on: [`Variable`], [`Literal`], [`Clause`],
//! [`CnfFormula`], full and partial [`Assignment`]s, [`Cube`]s, DIMACS I/O,
//! workload generators (random k-SAT, pigeonhole, graph coloring, parity
//! chains, equivalence-checking miters), light preprocessing
//! (unit propagation, pure-literal elimination), and bit-packed evaluation
//! cores ([`bits`], [`packed`]) that test 64 candidate assignments per
//! machine word.
//!
//! The NBL-SAT paper (Lin, Mandal, Khatri, DAC 2012) defines a SAT instance
//! as a conjunction of `m` clauses over `n` binary variables; this crate is a
//! faithful, production-grade realization of those definitions (Definitions
//! 1–6 of the paper).
//!
//! # Example
//!
//! ```
//! use cnf::{CnfFormula, Literal, Variable};
//!
//! // S(x1,x2,x3) = (x1 + x2') (x1' + x2 + x3)   -- the paper's Section III.A example
//! let x1 = Variable::new(0);
//! let x2 = Variable::new(1);
//! let x3 = Variable::new(2);
//! let mut f = CnfFormula::new(3);
//! f.add_clause([Literal::positive(x1), Literal::negative(x2)]);
//! f.add_clause([Literal::negative(x1), Literal::positive(x2), Literal::positive(x3)]);
//!
//! assert_eq!(f.num_vars(), 3);
//! assert_eq!(f.num_clauses(), 2);
//! assert_eq!(f.num_literals(), 5);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod assignment;
pub mod bits;
pub mod canonical;
pub mod clause;
pub mod cube;
pub mod dimacs;
pub mod error;
pub mod formula;
pub mod generators;
pub mod packed;
pub mod simplify;
pub mod stats;
pub mod var;

pub use assignment::{Assignment, PartialAssignment};
pub use bits::{BitMatrix, BitVector, Word};
pub use canonical::{
    canonicalize, fingerprint, normalize, preprocess, PreprocessOutcome, PreprocessReport,
    Preprocessed, ReductionTrace,
};
pub use clause::Clause;
pub use cube::Cube;
pub use error::{CnfError, Result};
pub use formula::CnfFormula;
pub use packed::{AssignmentBlock, PackedFormula};
pub use simplify::{
    propagate_units, pure_literals, simplify, CubeRestriction, PropagationOutcome,
    RestrictionOutcome, SimplifyReport,
};
pub use stats::FormulaStats;
pub use var::{Literal, Variable};

/// Convenience macro for building a [`CnfFormula`] from integer literals.
///
/// Positive integers denote positive literals of 1-indexed variables (DIMACS
/// convention), negative integers denote negated literals. The number of
/// variables is inferred from the largest magnitude used.
///
/// ```
/// use cnf::cnf_formula;
///
/// // (x1 + x2) (x1' + x2')   -- Example 6 of the paper
/// let f = cnf_formula![[1, 2], [-1, -2]];
/// assert_eq!(f.num_vars(), 2);
/// assert_eq!(f.num_clauses(), 2);
/// ```
#[macro_export]
macro_rules! cnf_formula {
    [$([$($lit:expr),* $(,)?]),* $(,)?] => {{
        let clauses: Vec<Vec<i64>> = vec![$(vec![$($lit as i64),*]),*];
        $crate::CnfFormula::from_dimacs_clauses(&clauses)
            .expect("cnf_formula! literals must be non-zero and within range")
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_expected_formula() {
        let f = cnf_formula![[1, -2], [-1, 2, 3]];
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.clause(0).unwrap().len(), 2);
        assert_eq!(f.clause(1).unwrap().len(), 3);
    }

    #[test]
    fn macro_in_function_scope() {
        fn build() -> CnfFormula {
            cnf_formula![[1], [2], [3]]
        }
        assert_eq!(build().num_clauses(), 3);
    }
}
