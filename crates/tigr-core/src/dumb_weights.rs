//! Dumb-weight policies for transformation-introduced edges (§3.3).

use tigr_graph::{Weight, INFINITE_WEIGHT};

/// Weight assigned to the edges a physical split transformation
/// introduces (`E_new` in Theorem 1), chosen so the new edges "contribute
/// nothing to the calculation".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DumbWeight {
    /// Weight `0`: preserves total path weight, hence distances
    /// (Corollary 2). Correct for SSSP, BFS, and BC.
    #[default]
    Zero,
    /// Weight `∞`: preserves the minimum edge weight along paths
    /// (Corollary 3). Correct for SSWP.
    Infinity,
    /// Drop weights entirely: the output graph is unweighted. Correct for
    /// purely topological analyses such as CC (Corollary 1).
    Unweighted,
}

impl DumbWeight {
    /// The concrete weight value this policy assigns to new edges.
    ///
    /// For [`DumbWeight::Unweighted`] the value is irrelevant (weights are
    /// dropped); `1` is returned for consistency.
    pub fn value(self) -> Weight {
        match self {
            DumbWeight::Zero => 0,
            DumbWeight::Infinity => INFINITE_WEIGHT,
            DumbWeight::Unweighted => 1,
        }
    }

    /// Whether the transformed graph should carry a weight array.
    pub fn keeps_weights(self) -> bool {
        !matches!(self, DumbWeight::Unweighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_match_corollaries() {
        assert_eq!(DumbWeight::Zero.value(), 0);
        assert_eq!(DumbWeight::Infinity.value(), INFINITE_WEIGHT);
        assert_eq!(DumbWeight::Unweighted.value(), 1);
    }

    #[test]
    fn unweighted_drops_weights() {
        assert!(DumbWeight::Zero.keeps_weights());
        assert!(DumbWeight::Infinity.keeps_weights());
        assert!(!DumbWeight::Unweighted.keeps_weights());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(DumbWeight::default(), DumbWeight::Zero);
    }
}
