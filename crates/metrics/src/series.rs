//! Sweep series: the x/y data behind each paper figure.

/// One method's curve: a name and one y value per sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSeries {
    /// Method label as the paper uses it ("DSP", "TetrisW/oDep", ...).
    pub method: String,
    /// One value per x point.
    pub values: Vec<f64>,
}

/// A full figure: shared x axis plus one [`MethodSeries`] per method.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Figure identifier ("fig5a", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label (always "number of jobs" in the paper's evaluation).
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Sweep points.
    pub x: Vec<f64>,
    /// Per-method curves.
    pub series: Vec<MethodSeries>,
}

impl SweepSeries {
    /// New empty sweep.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        x: Vec<f64>,
    ) -> Self {
        SweepSeries {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            x,
            series: Vec::new(),
        }
    }

    /// Append a method curve. Panics if the curve length disagrees with the
    /// x axis — a malformed figure should fail loudly in the harness.
    pub fn push(&mut self, method: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.x.len(), "series length must match x axis");
        self.series.push(MethodSeries { method: method.into(), values });
    }

    /// Find a method's curve.
    pub fn method(&self, name: &str) -> Option<&MethodSeries> {
        self.series.iter().find(|s| s.method == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepSeries {
        let mut s = SweepSeries::new("t", "test", "jobs", "y", vec![1.0, 2.0, 3.0]);
        s.push("A", vec![1.0, 2.0, 3.0]);
        s.push("B", vec![2.0, 3.0, 4.0]);
        s.push("C", vec![3.0, 1.5, 5.0]);
        s
    }

    #[test]
    #[should_panic(expected = "series length")]
    fn mismatched_series_panics() {
        let mut s = SweepSeries::new("t", "t", "x", "y", vec![1.0]);
        s.push("A", vec![1.0, 2.0]);
    }

    #[test]
    fn method_lookup() {
        let s = sweep();
        assert_eq!(s.method("B").unwrap().values[1], 3.0);
        assert!(s.method("Z").is_none());
    }
}
