//! Findings and their rendering: human `file:line: rule: message`
//! lines and the machine-readable `--json` document.

use crate::allow::Waiver;

/// One rule violation at a specific source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule identifier (e.g. `poison-hygiene`).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and how to fix it.
    pub message: String,
    /// The offending source line, used for waiver needle matching.
    pub snippet: String,
}

/// The result of a full run: findings split by waiver status, plus any
/// waivers that matched nothing (stale baseline entries are themselves
/// failures — they mean the violation they excused is gone).
#[derive(Debug)]
pub struct Analysis {
    /// Violations not covered by the allow file, ordered by path/line.
    pub findings: Vec<Finding>,
    /// Violations excused by an `analyze.allow` entry.
    pub waived: Vec<Finding>,
    /// Allow entries that matched no finding.
    pub stale: Vec<Waiver>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// Lines outside test code per package (`crates/<name>`, or `.`
    /// for the root package), sorted by package: the size measure the
    /// ROADMAP tracks from change to change.
    pub non_test_lines: Vec<(String, usize)>,
}

impl Analysis {
    /// True when CI should pass: nothing unwaived and no stale waivers.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale.is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: {}: {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        for w in &self.stale {
            out.push_str(&format!(
                "analyze.allow:{}: stale-waiver: `{} | {} | {}` matched no finding; delete it\n",
                w.line_no, w.rule, w.path, w.needle
            ));
        }
        out.push_str(&format!(
            "pp-analyze: {} file(s), {} finding(s), {} waived, {} stale waiver(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.waived.len(),
            self.stale.len()
        ));
        out.push_str("pp-analyze: non-test lines per crate\n");
        for (package, lines) in &self.non_test_lines {
            out.push_str(&format!("  {package:<20} {lines:>6}\n"));
        }
        out
    }

    /// Machine-readable report (schema documented in the README).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"findings\": [\n");
        let all: Vec<(&Finding, bool)> = self
            .findings
            .iter()
            .map(|f| (f, false))
            .chain(self.waived.iter().map(|f| (f, true)))
            .collect();
        for (i, (f, waived)) in all.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"waived\": {}}}{}\n",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message),
                waived,
                if i + 1 < all.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"stale_waivers\": [\n");
        for (i, w) in self.stale.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"line\": {}, \"rule\": {}, \"path\": {}, \"needle\": {}, \"reason\": {}}}{}\n",
                w.line_no,
                json_str(&w.rule),
                json_str(&w.path),
                json_str(&w.needle),
                json_str(&w.reason),
                if i + 1 < self.stale.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"non_test_lines\": {");
        for (i, (package, lines)) in self.non_test_lines.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    {}: {lines}", json_str(package)));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\nc"), "\"a\\\"b\\nc\"");
    }

    #[test]
    fn clean_requires_no_findings_and_no_stale() {
        let a = Analysis {
            findings: vec![],
            waived: vec![],
            stale: vec![],
            files_scanned: 1,
            non_test_lines: vec![],
        };
        assert!(a.is_clean());
    }
}
