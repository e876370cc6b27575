//! Experiment harness shared utilities.
//!
//! The `exp` binary regenerates every experiment table (E1–E16; run
//! `exp` with no arguments for the list, or see each module under
//! [`experiments`]); this library provides the plumbing: deterministic
//! seed management, aligned/markdown table rendering, and JSON result
//! records so tables can be diffed across runs. Environment knobs
//! (`RP_QUICK`, `RP_SEED`, `RP_SCALE`, `RP_BATTERY`,
//! `RP_ENFORCE_BENCH`) are documented in the top-level README.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod history;

use std::fmt::Write as _;

/// Master seed used by every experiment unless `RP_SEED` overrides it.
pub const DEFAULT_MASTER_SEED: u64 = 0x5EED_C0FF_EE00_2004;

/// Run-wide context handed to each experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpContext {
    /// Master seed; per-component streams derive from it.
    pub seed: u64,
    /// Quick mode shrinks sweeps for CI-speed smoke runs.
    pub quick: bool,
}

impl ExpContext {
    /// Context from the environment: `RP_SEED` (decimal) and `RP_QUICK=1`.
    pub fn from_env() -> ExpContext {
        let seed = std::env::var("RP_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_MASTER_SEED);
        let quick = std::env::var("RP_QUICK").map(|v| v == "1").unwrap_or(false);
        ExpContext { seed, quick }
    }

    /// Derives the seed for a named experiment stream.
    pub fn stream(&self, experiment: u64, stream: u64) -> u64 {
        simnet::rng::derive_seed(self.seed ^ experiment.wrapping_mul(0x9E37), stream)
    }
}

impl Default for ExpContext {
    fn default() -> ExpContext {
        ExpContext {
            seed: DEFAULT_MASTER_SEED,
            quick: false,
        }
    }
}

/// A rendered experiment table: a title, a claim line, column headers and
/// string rows.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Table {
    /// Experiment id and name, e.g. `"E2: minimum arc scaling"`.
    pub title: String,
    /// The paper claim being checked.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// One-line verdict comparing measurement to claim.
    pub verdict: String,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, claim: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            claim: claim.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            verdict: String::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Sets the verdict line.
    pub fn set_verdict(&mut self, verdict: impl Into<String>) {
        self.verdict = verdict.into();
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = writeln!(out, "claim: {}", self.claim);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        if !self.verdict.is_empty() {
            let _ = writeln!(out, "verdict: {}", self.verdict);
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table (for EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "*Claim:* {}\n", self.claim);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        if !self.verdict.is_empty() {
            let _ = writeln!(out, "\n*Verdict:* {}", self.verdict);
        }
        out
    }
}

/// Formats a float with a sensible default precision for tables.
pub fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_markdown() {
        let mut t = Table::new("E0: demo", "x = y", &["n", "value"]);
        t.push_row(vec!["16".into(), "3.14".into()]);
        t.push_row(vec!["1024".into(), "2.72".into()]);
        t.set_verdict("holds");
        let text = t.render();
        assert!(text.contains("E0: demo"));
        assert!(text.contains("claim: x = y"));
        assert!(text.contains("verdict: holds"));
        let md = t.to_markdown();
        assert!(md.contains("| n | value |"));
        assert!(md.contains("| 1024 | 2.72 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new("t", "c", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn context_streams_differ() {
        let ctx = ExpContext::default();
        assert_ne!(ctx.stream(1, 0), ctx.stream(1, 1));
        assert_ne!(ctx.stream(1, 0), ctx.stream(2, 0));
        assert_eq!(ctx.stream(3, 4), ctx.stream(3, 4));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(3.24159), "3.242");
        assert_eq!(fmt_f(12345.6), "12346");
        assert_eq!(fmt_f(0.000123), "1.230e-4");
    }
}
