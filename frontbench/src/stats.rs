//! Order statistics, the metric sheet a run prints, and the small JSON
//! reader used to check that sheet against the declared benchmark.

use std::collections::BTreeMap;

/// Nearest-rank percentile of `values` (`p` in `[0, 100]`): the smallest
/// value with at least `p` % of the samples at or below it. Returns
/// `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A percentile together with the sample count it was taken over and
/// how many samples lie strictly above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the value was taken over.
    pub count: usize,
    /// Samples strictly greater than the value.
    pub beyond: usize,
}

/// [`percentile`] with its sample count and tail size, so a report can
/// say how well supported a high percentile is.
pub fn quantile(values: &[f64], p: f64) -> Option<Quantile> {
    let value = percentile(values, p)?;
    Some(Quantile {
        value,
        count: values.len(),
        beyond: values.iter().filter(|&&v| v > value).count(),
    })
}

/// Median by nearest rank (the lower middle for even counts), or 0 for
/// an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Whether `name` is a valid metric or workload name: 1 to 64 ASCII
/// letters, digits, `_`, `.` or `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Named metric values with their units, printed in name order.
#[derive(Debug, Default, Clone)]
pub struct Sheet {
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Sheet {
    /// Records `value` under `name`; a later call replaces it.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// Recorded names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.metrics.keys().map(String::as_str).collect()
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}`.
    /// Non-finite values are written as 0 so the line stays valid JSON;
    /// [`Sheet::problems`] reports them.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, &(value, unit))| {
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// What is wrong with this sheet when it must hold exactly
    /// `expected`: invalid names, non-finite values, missing and
    /// undeclared metrics.
    pub fn problems(&self, expected: &[String]) -> Vec<String> {
        let mut out = Vec::new();
        for (name, &(value, _)) in &self.metrics {
            if !valid_name(name) {
                out.push(format!("invalid metric name {name:?}"));
            }
            if !value.is_finite() {
                out.push(format!("metric {name} is not finite"));
            }
            if !expected.iter().any(|e| e == name) {
                out.push(format!("metric {name} is not declared"));
            }
        }
        for name in expected {
            if !self.metrics.contains_key(name) {
                out.push(format!("declared metric {name} was not emitted"));
            }
        }
        out
    }
}

/// A parsed JSON value (only what `BENCHMARK.json` needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`, `true`, `false`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes `\"`, `\\`, `\/`, `\n`, `\t` decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty for anything else).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn word(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8".into());
                }
                Some(b'\\') => {
                    let decoded = match self.s.get(self.i + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    };
                    out.push(decoded);
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// The workloads and metric names a benchmark declaration lists.
#[derive(Debug, Clone, Default)]
pub struct Declared {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics a run without tracing must print.
    pub end_to_end: Vec<String>,
    /// Metrics a traced run must print.
    pub per_layer: Vec<String>,
}

impl Declared {
    /// Reads the declaration from the text of `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message when the text is not JSON or a list entry has no
    /// `name`.
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = Json::parse(text)?;
        let names = |key: &str| -> Result<Vec<String>, String> {
            doc.get(key)
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .map(|item| {
                    item.get("name")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("an entry of {key} has no name"))
                })
                .collect()
        };
        Ok(Declared {
            workloads: names("workloads")?,
            end_to_end: names("end_to_end")?,
            per_layer: names("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_report_their_support() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v, 90.0), Some(18.0));
        assert_eq!(percentile(&v, 100.0), Some(20.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        let q = quantile(&v, 90.0).unwrap();
        assert_eq!((q.count, q.beyond), (20, 2));
        // Ten samples beyond p90 needs at least 100 samples.
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&w, 90.0).unwrap().beyond, 10);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names_follow_the_declared_alphabet() {
        for ok in ["setup_s", "nn.conv.rb1.b16.gflops", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn sheet_flags_missing_extra_and_non_finite_metrics() {
        let mut s = Sheet::default();
        s.set("a", 1.5, "ms");
        s.set("b", f64::NAN, "s");
        let p = s.problems(&["a".into(), "c".into()]);
        assert!(p.iter().any(|m| m.contains("b is not finite")));
        assert!(p.iter().any(|m| m.contains("b is not declared")));
        assert!(p.iter().any(|m| m.contains("c was not emitted")));
        assert_eq!(
            s.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
    }

    #[test]
    fn json_reader_handles_the_declaration_shape() {
        let d = Declared::parse(
            r#"{"command": ["x"], "run_seconds": 10,
                "workloads": [{"name": "w1", "why": "a \"quoted\" why"}],
                "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [], "flag": true, "none": null, "neg": -1.5e2}"#,
        )
        .unwrap();
        assert_eq!(d.workloads, ["w1"]);
        assert_eq!(d.end_to_end, ["m"]);
        assert!(d.per_layer.is_empty());
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1] 2").is_err());
    }
}
