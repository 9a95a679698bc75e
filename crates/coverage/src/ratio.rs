//! Coverage ratios and report formatting.

use std::fmt;

/// A covered/total pair for one coverage metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ratio {
    /// Number of points hit at least once.
    pub covered: usize,
    /// Number of points instrumented.
    pub total: usize,
}

impl Ratio {
    /// Creates a ratio.
    pub fn new(covered: usize, total: usize) -> Self {
        Ratio { covered, total }
    }

    /// Coverage percentage; 100 when there are no points to cover.
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.covered as f64 / self.total as f64
        }
    }

    /// Whether every point was hit.
    pub fn is_full(&self) -> bool {
        self.covered >= self.total
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}% ({}/{})",
            self.percent(),
            self.covered,
            self.total
        )
    }
}

/// A full coverage report across all instrumented metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoverageReport {
    /// Statement (line) coverage.
    pub line: Ratio,
    /// Branch coverage (if/else outcomes, case arms).
    pub branch: Ratio,
    /// Condition coverage (boolean subterms of branch predicates).
    pub condition: Ratio,
    /// Expression coverage (boolean subterms of assignment RHSes).
    pub expression: Ratio,
    /// Toggle coverage (per-bit rise and fall).
    pub toggle: Ratio,
    /// FSM state coverage, when the design declares FSM registers.
    pub fsm: Option<Ratio>,
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {} | branch {} | cond {} | expr {} | toggle {}",
            self.line, self.branch, self.condition, self.expression, self.toggle
        )?;
        if let Some(fsm) = &self.fsm {
            write!(f, " | fsm {fsm}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_math() {
        assert_eq!(Ratio::new(1, 4).percent(), 25.0);
        assert_eq!(Ratio::new(0, 0).percent(), 100.0);
        assert!(Ratio::new(3, 3).is_full());
        assert!(!Ratio::new(2, 3).is_full());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Ratio::new(1, 3)), "33.33% (1/3)");
        let r = CoverageReport {
            fsm: Some(Ratio::new(2, 4)),
            ..CoverageReport::default()
        };
        assert!(format!("{r}").contains("fsm 50.00%"));
    }
}
