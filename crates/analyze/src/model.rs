//! Per-file analysis model: the lexed token stream plus the line-level
//! classification rules need — which lines are code vs comment vs
//! attribute-only, and which lines sit inside `#[cfg(test)]` items.

use crate::lexer::{lex, Tok};

/// How one physical line reads at a glance.
#[derive(Debug, Clone, Default)]
pub struct LineInfo {
    /// Any non-comment token starts on this line.
    pub has_code: bool,
    /// Every code token on this line belongs to an attribute
    /// (`#[...]` / `#![...]`).
    pub attr_only: bool,
    /// Concatenated text of comments starting on this line.
    pub comment: String,
    /// The line lies inside a multi-line comment that started earlier.
    pub comment_cont: bool,
}

/// One source file prepared for the rule engine.
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Raw lines, for snippets and waiver matching.
    pub lines: Vec<String>,
    /// All tokens, comments included.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    line_info: Vec<LineInfo>,
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Lexes and classifies `src`.
    pub fn new(path: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let n_lines = lines.len();

        let attr_toks = attribute_tokens(&toks, &code);
        let mut line_info = vec![LineInfo::default(); n_lines];
        for t in toks.iter() {
            let l = t.line as usize - 1;
            if l >= n_lines {
                continue;
            }
            if t.is_comment() {
                if !line_info[l].comment.is_empty() {
                    line_info[l].comment.push('\n');
                }
                line_info[l].comment.push_str(&t.text);
                // Mark the lines a block comment spans beyond its first.
                let extra = t.text.matches('\n').count();
                for k in 1..=extra {
                    if l + k < n_lines {
                        line_info[l + k].comment_cont = true;
                    }
                }
            } else {
                line_info[l].has_code = true;
            }
        }
        // A line is attribute-only when it has code and every code
        // token on it is inside an attribute.
        let mut all_attr = vec![true; n_lines];
        for (i, t) in toks.iter().enumerate() {
            if t.is_comment() {
                continue;
            }
            let l = t.line as usize - 1;
            if l < n_lines && !attr_toks[i] {
                all_attr[l] = false;
            }
        }
        for (l, info) in line_info.iter_mut().enumerate() {
            info.attr_only = info.has_code && all_attr[l];
        }

        let mut test_lines = vec![false; n_lines];
        let dir_is_test = path.starts_with("tests/") || path.contains("/tests/");
        if dir_is_test {
            test_lines.iter_mut().for_each(|t| *t = true);
        } else {
            mark_cfg_test_items(&toks, &code, &mut test_lines);
        }

        SourceFile {
            path: path.to_string(),
            lines,
            toks,
            code,
            line_info,
            test_lines,
        }
    }

    /// Line classification for 1-based `line` (default beyond EOF).
    pub fn line_info(&self, line: u32) -> LineInfo {
        self.line_info
            .get(line as usize - 1)
            .cloned()
            .unwrap_or_default()
    }

    /// True when 1-based `line` is inside `#[cfg(test)]` code or the
    /// whole file is a test target (under a `tests/` directory).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }

    /// Lines outside test code ([`SourceFile::is_test_line`] false) —
    /// blank and comment lines included, like a plain line count.
    pub(crate) fn non_test_lines(&self) -> usize {
        self.test_lines.iter().filter(|&&t| !t).count()
    }

    /// The raw text of 1-based `line` (empty beyond EOF).
    pub fn snippet(&self, line: u32) -> &str {
        self.lines
            .get(line as usize - 1)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// The code token at code-stream position `k`.
    pub fn ct(&self, k: usize) -> &Tok {
        &self.toks[self.code[k]]
    }

    /// Number of code tokens.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }
}

/// Marks which token indices belong to attributes (`#[...]`, `#![...]`).
fn attribute_tokens(toks: &[Tok], code: &[usize]) -> Vec<bool> {
    let mut attr = vec![false; toks.len()];
    let mut k = 0usize;
    while k < code.len() {
        if toks[code[k]].is_punct('#') {
            let mut j = k + 1;
            if j < code.len() && toks[code[j]].is_punct('!') {
                j += 1;
            }
            if j < code.len() && toks[code[j]].is_punct('[') {
                let mut depth = 0i32;
                while j < code.len() {
                    if toks[code[j]].is_punct('[') {
                        depth += 1;
                    } else if toks[code[j]].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let end = j.min(code.len() - 1);
                for pos in k..=end {
                    attr[code[pos]] = true;
                }
                k = end + 1;
                continue;
            }
        }
        k += 1;
    }
    attr
}

/// Finds `#[cfg(test)]` attributes and marks the lines of the item each
/// one gates (through the matching close brace, or the terminating
/// semicolon for brace-less items).
fn mark_cfg_test_items(toks: &[Tok], code: &[usize], test_lines: &mut [bool]) {
    let n = code.len();
    let mut k = 0usize;
    while k < n {
        if !(toks[code[k]].is_punct('#') && k + 1 < n && toks[code[k + 1]].is_punct('[')) {
            k += 1;
            continue;
        }
        // Collect the attribute token span.
        let mut j = k + 1;
        let mut depth = 0i32;
        let mut is_cfg = false;
        let mut is_test = false;
        while j < n {
            let t = &toks[code[j]];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("cfg") {
                is_cfg = true;
            } else if t.is_ident("test") {
                is_test = true;
            }
            j += 1;
        }
        if !(is_cfg && is_test) || j >= n {
            k = j.max(k + 1);
            continue;
        }
        let attr_start_line = toks[code[k]].line;
        // Skip any further attributes between this one and the item.
        let mut p = j + 1;
        while p + 1 < n && toks[code[p]].is_punct('#') && toks[code[p + 1]].is_punct('[') {
            let mut d = 0i32;
            let mut q = p + 1;
            while q < n {
                if toks[code[q]].is_punct('[') {
                    d += 1;
                } else if toks[code[q]].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                q += 1;
            }
            p = q + 1;
        }
        // Walk the item: to `;` before any brace, else to matching `}`.
        let mut brace = 0i32;
        let mut end_line = attr_start_line;
        let mut seen_brace = false;
        while p < n {
            let t = &toks[code[p]];
            if t.is_punct('{') {
                brace += 1;
                seen_brace = true;
            } else if t.is_punct('}') {
                brace -= 1;
                if seen_brace && brace == 0 {
                    end_line = t.line;
                    break;
                }
            } else if t.is_punct(';') && !seen_brace {
                end_line = t.line;
                break;
            }
            end_line = t.line;
            p += 1;
        }
        for l in (attr_start_line as usize - 1)..(end_line as usize) {
            if l < test_lines.len() {
                test_lines[l] = true;
            }
        }
        k = p + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_lines_are_marked() {
        let src =
            "fn live() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(5));
        assert!(f.is_test_line(6));
        assert!(!f.is_test_line(7));
        assert_eq!(f.non_test_lines(), 3);
    }

    #[test]
    fn tests_directory_files_are_all_test() {
        let f = SourceFile::new("tests/integration.rs", "fn x() {}\n");
        assert!(f.is_test_line(1));
        assert_eq!(f.non_test_lines(), 0);
    }

    #[test]
    fn attribute_only_lines_are_classified() {
        let src = "#[cfg(feature = \"x\")]\nfn f() {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        assert!(f.line_info(1).attr_only);
        assert!(!f.line_info(2).attr_only);
        assert!(f.line_info(2).has_code);
    }

    #[test]
    fn comments_attach_to_their_lines() {
        let src = "// SAFETY: fine\nlet x = 1; // trailing\n";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        assert!(f.line_info(1).comment.contains("SAFETY:"));
        assert!(!f.line_info(1).has_code);
        assert!(f.line_info(2).has_code);
        assert!(f.line_info(2).comment.contains("trailing"));
    }
}
