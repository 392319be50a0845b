//! The lint pass: domain rules evaluated over one file's token stream.
//!
//! Test code is exempt by construction — `#[cfg(test)]` / `#[test]` items
//! are masked out of the token stream before any lint runs, and the
//! workspace walker never descends into `tests/` directories. The lints
//! protect shipped simulator behaviour; tests are free to `unwrap` and
//! write raw literals.
//!
//! A finding is suppressed by a directive comment on the same line or the
//! line directly above it:
//!
//! ```text
//! // flumen-check: allow(no-panic-hot-path) — invariant: queue non-empty
//! let head = queue.pop_front().expect("checked above");
//! ```

use crate::lexer::{LineComment, Tok, TokKind};

/// The lints this checker knows, by their diagnostic / allow name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// `unwrap`/`expect`/`panic!` family in a hot-path module.
    NoPanicHotPath,
    /// Bare float literal bound to a dB/mW/pJ-suffixed name, or an
    /// open-coded `10^(x/10)` dB conversion.
    RawUnitLiteral,
    /// `<time-or-cycle identifier> as u64|f64` outside the units crate.
    NoBareCast,
    /// `TraceEvent` emitted with a name missing from the trace registry.
    TraceCategoryRegistered,
    /// An `allow(...)` directive naming an unknown lint.
    BadAllow,
    /// `HashMap`/`HashSet` iteration inside a determinism-tainted
    /// function (`flumen-audit`; keyed lookup stays allowed).
    DetHashIter,
    /// A float/aggregate reduction (`sum`/`product`/`fold`) driven off a
    /// hash-container iterator in a tainted function (`flumen-audit`).
    DetUnorderedReduction,
    /// `Instant::now` / `SystemTime::now` inside a tainted function
    /// (`flumen-audit`).
    DetWallClock,
    /// Unseeded or thread-local randomness (`thread_rng`,
    /// `from_entropy`, `RandomState`, `rand::random`) inside a tainted
    /// function (`flumen-audit`).
    DetUnseededRng,
    /// Thread-identity or pointer-address dependence
    /// (`thread::current`, `ThreadId`, `as_ptr() as usize`) inside a
    /// tainted function (`flumen-audit`).
    DetAmbientId,
    /// An `unsafe` block / fn / impl without an adjacent `// SAFETY:`
    /// comment (`flumen-audit`).
    UnsafeSafetyComment,
    /// A `#[target_feature]` fn called from a function that neither
    /// carries the same feature attribute nor performs a runtime
    /// dispatch check (`flumen-audit`).
    TargetFeatureGate,
    /// Raw-pointer index arithmetic (`.add`/`.offset`/`get_unchecked`)
    /// in an unsafe fn with no checked preamble (`flumen-audit`).
    UncheckedPtrArith,
}

impl Lint {
    /// The kebab-case name used in diagnostics and allow directives.
    pub fn name(&self) -> &'static str {
        match self {
            Lint::NoPanicHotPath => "no-panic-hot-path",
            Lint::RawUnitLiteral => "raw-unit-literal",
            Lint::NoBareCast => "no-bare-cast",
            Lint::TraceCategoryRegistered => "trace-category-registered",
            Lint::BadAllow => "bad-allow",
            Lint::DetHashIter => "det-hash-iter",
            Lint::DetUnorderedReduction => "det-unordered-reduction",
            Lint::DetWallClock => "det-wall-clock",
            Lint::DetUnseededRng => "det-unseeded-rng",
            Lint::DetAmbientId => "det-ambient-id",
            Lint::UnsafeSafetyComment => "unsafe-safety-comment",
            Lint::TargetFeatureGate => "target-feature-gate",
            Lint::UncheckedPtrArith => "unchecked-ptr-arith",
        }
    }

    pub(crate) fn from_name(name: &str) -> Option<Lint> {
        match name {
            "no-panic-hot-path" => Some(Lint::NoPanicHotPath),
            "raw-unit-literal" => Some(Lint::RawUnitLiteral),
            "no-bare-cast" => Some(Lint::NoBareCast),
            "trace-category-registered" => Some(Lint::TraceCategoryRegistered),
            "bad-allow" => Some(Lint::BadAllow),
            "det-hash-iter" => Some(Lint::DetHashIter),
            "det-unordered-reduction" => Some(Lint::DetUnorderedReduction),
            "det-wall-clock" => Some(Lint::DetWallClock),
            "det-unseeded-rng" => Some(Lint::DetUnseededRng),
            "det-ambient-id" => Some(Lint::DetAmbientId),
            "unsafe-safety-comment" => Some(Lint::UnsafeSafetyComment),
            "target-feature-gate" => Some(Lint::TargetFeatureGate),
            "unchecked-ptr-arith" => Some(Lint::UncheckedPtrArith),
            _ => None,
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Tunable rule sets; [`CheckConfig::flumen`] holds the workspace policy.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Module paths (e.g. `noc::routed`) where panics are forbidden.
    pub hot_paths: Vec<String>,
    /// Module-path prefixes exempt from `raw-unit-literal` (the unit
    /// definitions themselves and the calibrated device/power tables).
    pub unit_literal_exempt: Vec<String>,
    /// Module-path prefixes exempt from `no-bare-cast` (the units crate's
    /// own conversion functions).
    pub cast_exempt: Vec<String>,
    /// Registered trace event names (from `flumen-trace`'s
    /// `REGISTERED_EVENT_NAMES`); empty disables the trace lint.
    pub trace_registry: Vec<String>,
}

impl CheckConfig {
    /// The Flumen workspace policy (paper hot paths, §3–§5 unit tables).
    pub fn flumen() -> Self {
        CheckConfig {
            hot_paths: vec![
                "noc::routed".into(),
                "noc::bus".into(),
                "noc::crossbar".into(),
                "noc::fabric".into(),
                "core::scheduler".into(),
                "photonics::fabric".into(),
                "photonics::mesh".into(),
                "photonics::progstore".into(),
                "linalg::store".into(),
                "sim::event".into(),
                "sim::kernel".into(),
                "serve::queue".into(),
                "serve::admission".into(),
            ],
            unit_literal_exempt: vec![
                "units".into(),
                "photonics::device".into(),
                "power::compute".into(),
                "power::system_energy".into(),
                "power::link_budget".into(),
            ],
            cast_exempt: vec!["units".into()],
            trace_registry: Vec::new(),
        }
    }
}

fn module_in(module: &str, list: &[String]) -> bool {
    list.iter()
        .any(|m| module == m || module.starts_with(&format!("{m}::")))
}

/// Lints one file's source, given its module path (`crate::sub::mod`).
pub fn check_tokens(
    module: &str,
    toks: &[Tok],
    comments: &[LineComment],
    cfg: &CheckConfig,
) -> Vec<Diagnostic> {
    let mask = test_mask(toks);
    let (allows, mut diags) = parse_allows(comments);

    let prod = |i: usize| !mask[i];
    let ident = |i: usize| match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize, c: char| matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c);

    let hot = module_in(module, &cfg.hot_paths);
    let unit_exempt = module_in(module, &cfg.unit_literal_exempt);
    let cast_exempt = module_in(module, &cfg.cast_exempt);

    for i in 0..toks.len() {
        if !prod(i) {
            continue;
        }
        let line = toks[i].line;

        // no-panic-hot-path -----------------------------------------------
        if hot {
            if punct(i, '.') {
                if let Some(name @ ("unwrap" | "expect")) = ident(i + 1) {
                    if punct(i + 2, '(') {
                        diags.push(Diagnostic {
                            lint: Lint::NoPanicHotPath,
                            line: toks[i + 1].line,
                            message: format!(
                                "`.{name}(…)` in hot-path module `{module}`; return a typed \
                                 error (or justify the invariant with an allow comment)"
                            ),
                        });
                    }
                }
            }
            if let Some(mac @ ("panic" | "unreachable" | "todo" | "unimplemented")) = ident(i) {
                if punct(i + 1, '!') {
                    diags.push(Diagnostic {
                        lint: Lint::NoPanicHotPath,
                        line,
                        message: format!(
                            "`{mac}!` in hot-path module `{module}`; hot paths must not panic"
                        ),
                    });
                }
            }
        }

        // raw-unit-literal ------------------------------------------------
        if !unit_exempt {
            if let Some(name) = ident(i) {
                let tagged = ["_db", "_dbm", "_mw", "_pj"]
                    .iter()
                    .any(|s| name.to_ascii_lowercase().ends_with(s));
                // Bindings that tag a raw float with a unit name:
                //   `x_db = 1.5` / `x_db: 1.5` (assignment, struct literal)
                //   `X_DB: f64 = 1.5`          (annotated const/let)
                // each with an optional leading minus.
                if tagged {
                    let mut k = i + 1;
                    if punct(k, ':')
                        && matches!(toks.get(k + 1).map(|t| &t.kind), Some(TokKind::Ident(ty)) if ty == "f64" || ty == "f32")
                    {
                        k += 2; // skip the `: f64` annotation
                    }
                    if punct(k, ':') || (punct(k, '=') && !punct(k + 1, '=')) {
                        k += 1;
                        if punct(k, '-') {
                            k += 1;
                        }
                        if let Some(Tok {
                            kind: TokKind::Float(lit),
                            line: flin,
                        }) = toks.get(k)
                        {
                            diags.push(Diagnostic {
                                lint: Lint::RawUnitLiteral,
                                line: *flin,
                                message: format!(
                                    "raw float {lit} bound to unit-tagged `{name}`; construct \
                                     it through the flumen-units newtype instead"
                                ),
                            });
                        }
                    }
                }
            }
            // The open-coded dB→linear fingerprint: `10f64.powf(…)` (or
            // `10.0.powf`). Decibels::to_linear is the one blessed site.
            if let Some(Tok {
                kind: TokKind::Float(lit),
                ..
            }) = toks.get(i)
            {
                if (lit == "10f64" || lit == "10.0" || lit == "10.")
                    && punct(i + 1, '.')
                    && ident(i + 2) == Some("powf")
                {
                    diags.push(Diagnostic {
                        lint: Lint::RawUnitLiteral,
                        line,
                        message: "open-coded base-10 power (dB conversion?); use \
                                  `Decibels::to_linear`/`from_linear`"
                            .into(),
                    });
                }
            }
        }

        // no-bare-cast ----------------------------------------------------
        if !cast_exempt {
            if let Some(name) = ident(i) {
                let timeish = name == "cycles"
                    || name == "cycle"
                    || name.ends_with("_cycles")
                    || name.ends_with("_ns");
                if timeish && ident(i + 1) == Some("as") {
                    if let Some(target @ ("u64" | "f64")) = ident(i + 2) {
                        diags.push(Diagnostic {
                            lint: Lint::NoBareCast,
                            line,
                            message: format!(
                                "bare `{name} as {target}` between time/cycle domains; go \
                                 through a flumen-units conversion (e.g. `Cycles`)"
                            ),
                        });
                    }
                }
            }
        }

        // trace-category-registered ---------------------------------------
        if !cfg.trace_registry.is_empty()
            && ident(i) == Some("TraceEvent")
            && punct(i + 1, ':')
            && punct(i + 2, ':')
            && matches!(ident(i + 3), Some("new" | "instant" | "counter"))
            && punct(i + 4, '(')
        {
            // Skip the category argument (depth-0 comma search), then
            // check the name argument when it is a string literal.
            let mut k = i + 5;
            let mut depth = 0usize;
            while let Some(t) = toks.get(k) {
                match &t.kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    TokKind::Punct(',') if depth == 0 => {
                        if let Some(Tok {
                            kind: TokKind::Str(name),
                            line: nline,
                        }) = toks.get(k + 1)
                        {
                            if !cfg.trace_registry.iter().any(|r| r == name) {
                                diags.push(Diagnostic {
                                    lint: Lint::TraceCategoryRegistered,
                                    line: *nline,
                                    message: format!(
                                        "trace event name {name:?} is not declared in \
                                         `flumen_trace::REGISTERED_EVENT_NAMES`"
                                    ),
                                });
                            }
                        }
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }

    // Apply allow directives: a finding is dropped when a directive for its
    // lint sits on the same line or the line directly above.
    diags.retain(|d| {
        !allows
            .iter()
            .any(|(line, lint)| *lint == d.lint && (*line == d.line || *line + 1 == d.line))
    });
    diags.sort_by_key(|d| d.line);
    diags
}

/// Parses `flumen-check: allow(...)` directives out of the line comments.
/// Returns the (line, lint) pairs plus diagnostics for malformed ones.
pub(crate) fn parse_allows(comments: &[LineComment]) -> (Vec<(u32, Lint)>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim_start().strip_prefix("flumen-check:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(inner, _)| inner)
        else {
            diags.push(Diagnostic {
                lint: Lint::BadAllow,
                line: c.line,
                message: format!(
                    "malformed directive `//{}`; expected `flumen-check: allow(<lint>)`",
                    c.text
                ),
            });
            continue;
        };
        for name in args.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Lint::from_name(name) {
                Some(lint) => allows.push((c.line, lint)),
                None => diags.push(Diagnostic {
                    lint: Lint::BadAllow,
                    line: c.line,
                    message: format!("allow directive names unknown lint `{name}`"),
                }),
            }
        }
    }
    (allows, diags)
}

/// Marks every token that belongs to a `#[cfg(test)]` or `#[test]` item
/// (the attribute itself, any stacked attributes, and the item body).
pub(crate) fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if is_test_attr(toks, i) {
            let start = i;
            // Consume this and any further attributes.
            let mut j = i;
            while matches!(toks.get(j).map(|t| &t.kind), Some(TokKind::Punct('#')))
                && matches!(toks.get(j + 1).map(|t| &t.kind), Some(TokKind::Punct('[')))
            {
                j = skip_bracketed(toks, j + 1);
            }
            // Skip the item: to the first `{` (then its match) or `;` at
            // depth zero.
            let mut depth = 0usize;
            while let Some(t) = toks.get(j) {
                match &t.kind {
                    TokKind::Punct('{') => {
                        j = skip_braced(toks, j);
                        break;
                    }
                    TokKind::Punct(';') if depth == 0 => {
                        j += 1;
                        break;
                    }
                    TokKind::Punct('(') | TokKind::Punct('[') => {
                        depth += 1;
                        j += 1;
                    }
                    TokKind::Punct(')') | TokKind::Punct(']') => {
                        depth = depth.saturating_sub(1);
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            for m in mask.iter_mut().take(j.min(toks.len())).skip(start) {
                *m = true;
            }
            i = j.max(start + 1);
        } else {
            i += 1;
        }
    }
    mask
}

/// Whether tokens at `i` begin `#[cfg(test)]`, `#[cfg(all(test, …))]` or
/// `#[test]`.
fn is_test_attr(toks: &[Tok], i: usize) -> bool {
    let idt = |k: usize| match toks.get(k).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let pct = |k: usize, c: char| matches!(toks.get(k).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c);
    if !(pct(i, '#') && pct(i + 1, '[')) {
        return false;
    }
    match idt(i + 2) {
        Some("test") => pct(i + 3, ']'),
        Some("cfg") => {
            // Any `test` identifier inside the cfg predicate counts.
            let end = skip_bracketed(toks, i + 1);
            (i + 2..end).any(|k| idt(k) == Some("test"))
        }
        _ => false,
    }
}

/// Given `i` on a `[`, returns the index just past its matching `]`.
pub(crate) fn skip_bracketed(toks: &[Tok], i: usize) -> usize {
    skip_balanced(toks, i, '[', ']')
}

/// Given `i` on a `{`, returns the index just past its matching `}`.
pub(crate) fn skip_braced(toks: &[Tok], i: usize) -> usize {
    skip_balanced(toks, i, '{', '}')
}

pub(crate) fn skip_balanced(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while let Some(t) = toks.get(j) {
        match &t.kind {
            TokKind::Punct(c) if *c == open => depth += 1,
            TokKind::Punct(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}
