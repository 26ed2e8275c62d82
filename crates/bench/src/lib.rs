//! # tpcds-bench
//!
//! The reproduction harness: one function per table/figure of the paper,
//! each returning a formatted report that places the paper's published
//! value next to the value this repository measures or computes. The
//! `paper_tables` and `paper_figures` binaries print them; EXPERIMENTS.md
//! records a full run.

#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod harness;

/// Renders a two-column (paper vs ours) comparison block.
pub fn comparison(title: &str, rows: &[(String, String, String)]) -> String {
    let mut out = format!("### {title}\n\n");
    let w0 = rows.iter().map(|r| r.0.len()).max().unwrap_or(8).max(8);
    let w1 = rows.iter().map(|r| r.1.len()).max().unwrap_or(8).max(8);
    let w2 = rows.iter().map(|r| r.2.len()).max().unwrap_or(8).max(8);
    out.push_str(&format!(
        "{:<w0$}  {:>w1$}  {:>w2$}\n",
        "quantity",
        "paper",
        "ours",
        w0 = w0,
        w1 = w1,
        w2 = w2
    ));
    out.push_str(&format!(
        "{}  {}  {}\n",
        "-".repeat(w0),
        "-".repeat(w1),
        "-".repeat(w2)
    ));
    for (name, paper, ours) in rows {
        out.push_str(&format!(
            "{:<w0$}  {:>w1$}  {:>w2$}\n",
            name,
            paper,
            ours,
            w0 = w0,
            w1 = w1,
            w2 = w2
        ));
    }
    out
}

/// Renders a simple ASCII bar chart for a (label, value) series.
pub fn bar_chart(title: &str, series: &[(String, f64)], width: usize) -> String {
    let mut out = format!("### {title}\n\n");
    let max = series
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::MIN, f64::max)
        .max(1e-12);
    let wl = series.iter().map(|(l, _)| l.len()).max().unwrap_or(4);
    for (label, value) in series {
        let bar = "#".repeat(((value / max) * width as f64).round() as usize);
        out.push_str(&format!("{label:<wl$}  {bar} {value:.4}\n"));
    }
    out
}

/// Human formatting for large counts: 288M, 2.9B, ...
pub fn humanize(v: u64) -> String {
    fn trimmed(x: f64, suffix: &str) -> String {
        let s = format!("{x:.4}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        format!("{s}{suffix}")
    }
    let f = v as f64;
    if f >= 1e9 {
        trimmed(f / 1e9, "B")
    } else if f >= 1e6 {
        trimmed(f / 1e6, "M")
    } else if f >= 1e4 {
        trimmed(f / 1e3, "K")
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn humanize_matches_paper_style() {
        assert_eq!(humanize(288_000_000), "288M");
        assert_eq!(humanize(2_900_000_000), "2.9B");
        assert_eq!(humanize(200_000), "200K");
        assert_eq!(humanize(1500), "1500");
    }

    #[test]
    fn comparison_renders() {
        let s = comparison("t", &[("a".into(), "1".into(), "2".into())]);
        assert!(s.contains("paper"));
        assert!(s.contains("ours"));
    }
}
