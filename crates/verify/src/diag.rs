//! Structured diagnostics: rules, severities, locations, reports.

use dsp_cluster::NodeId;
use dsp_dag::TaskId;
use dsp_units::Time;
use std::fmt;

/// The checkable invariants, one per paper property. Stable rule ids
/// (`R1`–`R6`) name them in diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1: every task assigned exactly once, to a real node.
    Coverage,
    /// R2: no planned start precedes a parent's planned finish
    /// `t^s + l/g(k)` (Eq. 2 applied along DAG edges).
    Precedence,
    /// R3: no node oversubscribed beyond its slots at any planned instant
    /// (the machine-disjunctive ordering of Eq. 3–4).
    Capacity,
    /// R4: planned finish times meet the level-propagated task deadlines
    /// (Eq. 5 feasibility).
    Deadline,
    /// R5: preemption-overhead conservation — paid recovery equals
    /// `N^p (t^r + σ)`.
    Overhead,
    /// R6: work conservation — retained MI equals task size.
    WorkConservation,
}

impl Rule {
    /// Stable short id, `"R1"`..`"R6"`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Coverage => "R1",
            Rule::Precedence => "R2",
            Rule::Capacity => "R3",
            Rule::Deadline => "R4",
            Rule::Overhead => "R5",
            Rule::WorkConservation => "R6",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How bad a finding is. `Error` breaks the invariant outright; `Warning`
/// marks a property the configuration does not promise (a
/// dependency-oblivious baseline planning before parent finishes, or a
/// soft deadline overrun).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding: which rule fired, how severely, where, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Error or warning.
    pub severity: Severity,
    /// Offending task, when the finding is task-scoped.
    pub task: Option<TaskId>,
    /// Offending node, when the finding is node-scoped.
    pub node: Option<NodeId>,
    /// Instant of the violation, when one exists.
    pub at: Option<Time>,
    /// Human-readable explanation with the numbers that disagree.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.rule, self.severity)?;
        if let Some(t) = self.task {
            write!(f, " task {t}")?;
        }
        if let Some(n) = self.node {
            write!(f, " node {}", n.idx())?;
        }
        if let Some(at) = self.at {
            write!(f, " @{:.3}s", at.as_secs_f64())?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of a checker run: every diagnostic, in rule order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Add a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append another report's findings.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// No `Error`-severity findings (warnings allowed).
    pub fn passes(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Did `rule` fire at least once?
    pub fn fired(&self, rule: Rule) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// Number of findings for `rule`.
    pub fn count(&self, rule: Rule) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// No findings at all — not even warnings.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Iterate findings.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "clean: no rule violations");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: Rule, severity: Severity) -> Diagnostic {
        Diagnostic {
            rule,
            severity,
            task: Some(TaskId::new(3, 4)),
            node: Some(NodeId(1)),
            at: Some(Time::from_millis(12_500)),
            message: "test".into(),
        }
    }

    #[test]
    fn rule_ids_are_stable() {
        let all = [
            Rule::Coverage,
            Rule::Precedence,
            Rule::Capacity,
            Rule::Deadline,
            Rule::Overhead,
            Rule::WorkConservation,
        ];
        let ids: Vec<&str> = all.iter().map(|r| r.id()).collect();
        assert_eq!(ids, ["R1", "R2", "R3", "R4", "R5", "R6"]);
    }

    #[test]
    fn report_accounting() {
        let mut r = Report::default();
        assert!(r.is_empty() && r.passes());
        r.push(diag(Rule::Deadline, Severity::Warning));
        assert!(!r.is_empty());
        assert!(r.passes());
        r.push(diag(Rule::Coverage, Severity::Error));
        assert!(!r.passes());
        assert!(r.fired(Rule::Coverage));
        assert!(!r.fired(Rule::Capacity));
        assert_eq!(r.count(Rule::Deadline), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn display_carries_location() {
        let line = diag(Rule::Precedence, Severity::Error).to_string();
        assert!(line.starts_with("R2 error"), "{line}");
        assert!(line.contains("node 1"), "{line}");
        assert!(line.contains("@12.500s"), "{line}");
    }
}
