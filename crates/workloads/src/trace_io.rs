//! Plain-text trace serialisation.
//!
//! Traces are the unit of reproducibility in this repository: the same
//! trace replayed on two machines is what makes a speedup comparison
//! valid. This module gives traces a stable, diffable, line-oriented text
//! form so they can be archived alongside results, shipped to other
//! implementations, or hand-written for regression cases.
//!
//! One operation per line (`#` starts a comment):
//!
//! ```text
//! m <size>             # malloc
//! f <index> <s|u>      # free pool[index % len], sized|unsized
//! fn <s|u>             # free newest
//! ant <per_mille>      # antagonist eviction
//! cs <quantum>         # context switch
//! run <cycles>         # application compute
//! touch <lines> <ws>   # application memory traffic
//! ```

use std::fmt::Write as _;

use crate::ops::{Op, Trace};

/// Error parsing a serialised trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseTraceError {}

fn sized_flag(s: bool) -> &'static str {
    if s {
        "s"
    } else {
        "u"
    }
}

/// Renders one op as a line of `out`.
fn fmt_op(out: &mut String, op: &Op) {
    match *op {
        Op::Malloc { size } => {
            let _ = writeln!(out, "m {size}");
        }
        Op::Free { index, sized } => {
            let _ = writeln!(out, "f {index} {}", sized_flag(sized));
        }
        Op::FreeNewest { sized } => {
            let _ = writeln!(out, "fn {}", sized_flag(sized));
        }
        Op::Antagonize { per_mille } => {
            let _ = writeln!(out, "ant {per_mille}");
        }
        Op::ContextSwitch { quantum } => {
            let _ = writeln!(out, "cs {quantum}");
        }
        Op::AppRun { cycles } => {
            let _ = writeln!(out, "run {cycles}");
        }
        Op::AppTouch {
            lines,
            working_set_lines,
        } => {
            let _ = writeln!(out, "touch {lines} {working_set_lines}");
        }
    }
}

fn parse_sized(tok: &str) -> Result<bool, String> {
    match tok {
        "s" => Ok(true),
        "u" => Ok(false),
        other => Err(format!("expected 's' or 'u', got {other:?}")),
    }
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse().map_err(|_| format!("invalid {what}: {tok:?}"))
}

/// Parses one non-empty, comment-stripped line.
fn parse_op_tokens(kw: &str, args: &[&str]) -> Result<Op, String> {
    match (kw, args) {
        ("m", [size]) => Ok(Op::Malloc {
            size: parse_num(size, "size")?,
        }),
        ("f", [index, sized]) => Ok(Op::Free {
            index: parse_num(index, "index")?,
            sized: parse_sized(sized)?,
        }),
        ("fn", [sized]) => Ok(Op::FreeNewest {
            sized: parse_sized(sized)?,
        }),
        ("ant", [pm]) => Ok(Op::Antagonize {
            per_mille: parse_num(pm, "per-mille")?,
        }),
        ("cs", [q]) => Ok(Op::ContextSwitch {
            quantum: parse_num(q, "quantum")?,
        }),
        ("run", [c]) => Ok(Op::AppRun {
            cycles: parse_num(c, "cycles")?,
        }),
        ("touch", [lines, ws]) => Ok(Op::AppTouch {
            lines: parse_num(lines, "lines")?,
            working_set_lines: parse_num(ws, "working set")?,
        }),
        ("m" | "f" | "fn" | "ant" | "cs" | "run" | "touch", _) => Err(format!(
            "expected {} argument(s), got {}",
            match kw {
                "f" | "touch" => 2,
                _ => 1,
            },
            args.len()
        )),
        (other, _) => Err(format!("unknown op {other:?}")),
    }
}

/// Serialises a trace to the text format.
///
/// # Example
///
/// ```
/// use mallacc_workloads::{Op, Trace, to_text, from_text};
///
/// let t: Trace = [Op::Malloc { size: 64 }, Op::FreeNewest { sized: true }]
///     .into_iter()
///     .collect();
/// let s = to_text(&t);
/// assert_eq!(from_text(&s).unwrap(), t);
/// ```
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 8);
    for op in trace.ops() {
        fmt_op(&mut out, op);
    }
    out
}

/// Parses the text format back into a trace. Comments and blank lines are
/// skipped; parsing stops at the first malformed line.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] naming the first malformed line.
pub fn from_text(text: &str) -> Result<Trace, ParseTraceError> {
    text.lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let mut toks = line.split('#').next().unwrap_or("").split_whitespace();
            let kw = toks.next()?;
            let args: Vec<&str> = toks.collect();
            Some(
                parse_op_tokens(kw, &args).map_err(|message| ParseTraceError {
                    line: i + 1,
                    message,
                }),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::Microbenchmark;

    fn every_op_trace() -> Trace {
        [
            Op::Malloc { size: 123 },
            Op::Free {
                index: 42,
                sized: true,
            },
            Op::Free {
                index: 7,
                sized: false,
            },
            Op::FreeNewest { sized: false },
            Op::Antagonize { per_mille: 500 },
            Op::ContextSwitch { quantum: 5000 },
            Op::AppRun { cycles: 900 },
            Op::AppTouch {
                lines: 8,
                working_set_lines: 4096,
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn round_trips_every_op_kind() {
        let t = every_op_trace();
        assert_eq!(from_text(&to_text(&t)).unwrap(), t);
    }

    #[test]
    fn round_trips_generated_workloads() {
        for m in Microbenchmark::ALL {
            let t = m.trace(300, 5);
            assert_eq!(from_text(&to_text(&t)).unwrap(), t, "{m}");
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let t = from_text("# header\n\nm 64   # inline comment\n  \nfn s\n").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn errors_name_the_line() {
        let e = from_text("m 64\nbogus 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown op"));
        let e = from_text("m notanumber").unwrap_err();
        assert_eq!(e.line, 1);
        let e = from_text("f 1 x").unwrap_err();
        assert!(e.message.contains("'s' or 'u'"));
        let e = from_text("touch 1").unwrap_err();
        assert!(e.message.contains("expected 2"));
    }
}
