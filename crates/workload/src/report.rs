//! Table/series formatting for the experiment binaries.
//!
//! The figure regenerators print both a human-readable markdown table and a
//! machine-readable CSV block, so results can be pasted into
//! EXPERIMENTS.md and re-plotted.

use std::fmt::Write as _;

/// A labelled series of `(x, y)` points — one curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (e.g. "Pc = 0.9").
    pub label: String,
    /// The points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Maximum y value (NaN-safe); `None` when empty.
    pub fn max_y(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|(_, y)| *y)
            .fold(None, |acc, y| Some(acc.map_or(y, |a: f64| a.max(y))))
    }
}

/// A figure: a title, axis names, and one or more series over a shared x
/// grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title (e.g. "Figure 4: …").
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Renders a markdown table: one row per x value, one column per
    /// series.
    ///
    /// # Panics
    ///
    /// Panics if the series do not share the same x grid.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out);
        let header: Vec<String> = std::iter::once(self.x_label.clone())
            .chain(self.series.iter().map(|s| s.label.clone()))
            .collect();
        let _ = writeln!(out, "| {} |", header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        if let Some(first) = self.series.first() {
            for (row, (x, _)) in first.points.iter().enumerate() {
                let mut cells = vec![format_num(*x)];
                for s in &self.series {
                    assert!(
                        (s.points[row].0 - *x).abs() < 1e-9,
                        "series must share the x grid"
                    );
                    cells.push(format_num(s.points[row].1));
                }
                let _ = writeln!(out, "| {} |", cells.join(" | "));
            }
        }
        out
    }

    /// Renders a CSV block: `x,label1,label2,…` header then one row per x.
    ///
    /// # Panics
    ///
    /// Panics if the series do not share the same x grid.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = std::iter::once(self.x_label.clone())
            .chain(self.series.iter().map(|s| s.label.clone()))
            .collect();
        let _ = writeln!(out, "{}", header.join(","));
        if let Some(first) = self.series.first() {
            for (row, (x, _)) in first.points.iter().enumerate() {
                let mut cells = vec![format_num(*x)];
                for s in &self.series {
                    assert!(
                        (s.points[row].0 - *x).abs() < 1e-9,
                        "series must share the x grid"
                    );
                    cells.push(format_num(s.points[row].1));
                }
                let _ = writeln!(out, "{}", cells.join(","));
            }
        }
        out
    }
}

impl Figure {
    /// Renders the figure as an ASCII chart (for terminals and logs).
    /// Each series gets a marker (`*`, `o`, `+`, `x`, …); points are
    /// plotted on a `width`×`height` grid spanning the data ranges, with a
    /// zero-based y axis.
    ///
    /// # Panics
    ///
    /// Panics if `width < 16` or `height < 4`.
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        assert!(width >= 16, "chart width must be at least 16 columns");
        assert!(height >= 4, "chart height must be at least 4 rows");
        const MARKERS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(_, y)| *y))
            .collect();
        if xs.is_empty() {
            return format!("{} (no data)\n", self.title);
        }
        let x_min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let x_max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let y_max = ys.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        let x_span = (x_max - x_min).max(1e-12);

        let mut grid = vec![vec![' '; width]; height];
        for (si, series) in self.series.iter().enumerate() {
            let marker = MARKERS[si % MARKERS.len()];
            for (x, y) in &series.points {
                let col = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
                let row = ((y / y_max) * (height - 1) as f64).round() as usize;
                let row = height - 1 - row.min(height - 1);
                let cell = &mut grid[row][col.min(width - 1)];
                // Overlapping series show the later marker.
                *cell = marker;
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        for (si, series) in self.series.iter().enumerate() {
            let _ = writeln!(out, "  {} {}", MARKERS[si % MARKERS.len()], series.label);
        }
        let _ = writeln!(out, "{y_max:>8.2} ┤");
        for row in &grid {
            let line: String = row.iter().collect();
            let _ = writeln!(out, "         │{line}");
        }
        let _ = writeln!(out, "{:>8.2} └{}", 0.0, "─".repeat(width));
        let _ = writeln!(
            out,
            "          {:<w$}{:>8}",
            format_num(x_min),
            format_num(x_max),
            w = width.saturating_sub(7)
        );
        let _ = writeln!(out, "          x: {}, y: {}", self.x_label, self.y_label);
        out
    }
}

fn format_num(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 && v.abs() < 1e12 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut fig = Figure::new("Figure X", "deadline", "value");
        let mut a = Series::new("Pc = 0.9");
        let mut b = Series::new("Pc = 0.5");
        for x in [100.0, 150.0, 200.0] {
            a.push(x, x / 50.0);
            b.push(x, 2.0);
        }
        fig.series.push(a);
        fig.series.push(b);
        fig
    }

    #[test]
    fn markdown_has_header_and_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("### Figure X"));
        assert!(md.contains("| deadline | Pc = 0.9 | Pc = 0.5 |"));
        assert!(md.contains("| 100 | 2 | 2 |"));
        assert!(md.contains("| 150 | 3 | 2 |"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "deadline,Pc = 0.9,Pc = 0.5");
        assert_eq!(lines[1], "100,2,2");
    }

    #[test]
    fn fractional_values_use_three_decimals() {
        let mut fig = Figure::new("f", "x", "y");
        let mut s = Series::new("s");
        s.push(1.0, 0.12345);
        fig.series.push(s);
        assert!(fig.to_csv().contains("1,0.123"));
    }

    #[test]
    fn series_extrema() {
        let mut s = Series::new("s");
        assert_eq!(s.max_y(), None);
        s.push(0.0, 3.0);
        s.push(1.0, -1.0);
        assert_eq!(s.max_y(), Some(3.0));
    }

    #[test]
    fn ascii_chart_places_extremes() {
        let chart = sample().to_ascii(40, 8);
        assert!(chart.contains("Figure X"));
        assert!(chart.contains("* Pc = 0.9"));
        assert!(chart.contains("o Pc = 0.5"));
        // The max-y marker of series a (y = 4 at x = 200) sits on the top
        // grid row; the axis labels show the ranges.
        let lines: Vec<&str> = chart.lines().collect();
        let top_grid = lines
            .iter()
            .find(|l| l.starts_with("         │"))
            .expect("grid rows exist");
        assert!(top_grid.contains('*'), "top row holds the maximum: {chart}");
        assert!(chart.contains("100"), "{chart}");
        assert!(chart.contains("200"), "{chart}");
        assert!(chart.contains("x: deadline, y: value"));
    }

    #[test]
    fn ascii_chart_empty_figure() {
        let fig = Figure::new("Empty", "x", "y");
        assert_eq!(fig.to_ascii(40, 8), "Empty (no data)\n");
    }

    #[test]
    #[should_panic(expected = "width must be at least")]
    fn ascii_chart_rejects_tiny_grids() {
        let _ = sample().to_ascii(4, 8);
    }

    #[test]
    #[should_panic(expected = "share the x grid")]
    fn mismatched_grids_panic() {
        let mut fig = Figure::new("f", "x", "y");
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        let mut b = Series::new("b");
        b.push(2.0, 1.0);
        fig.series.push(a);
        fig.series.push(b);
        let _ = fig.to_markdown();
    }
}
