//! `flumen-check` — domain-aware static analysis for the Flumen workspace.
//!
//! The compiler enforces unit safety *within* the type system
//! (`flumen-units` newtypes); this crate enforces the conventions the type
//! system cannot see, by lexing every production source file (no `syn`;
//! the build is offline) and running four domain lints:
//!
//! * **no-panic-hot-path** — `unwrap`/`expect`/`panic!`-family calls in
//!   the cycle-level simulation loops (`noc::{routed,bus,crossbar}`,
//!   `core::scheduler`, `photonics::{fabric,mesh}`).
//! * **raw-unit-literal** — a bare float bound to a dB/mW/pJ-tagged name,
//!   or an open-coded `10^(x/10)` conversion, outside the calibrated unit
//!   tables (`photonics::device`, the `power` tables, `units` itself).
//! * **no-bare-cast** — `<cycle/time identifier> as u64|f64` outside the
//!   units crate's conversion functions.
//! * **trace-category-registered** — `TraceEvent` emit sites whose static
//!   name string is missing from `flumen_trace::REGISTERED_EVENT_NAMES`.
//!
//! Findings are suppressed per-site with
//! `// flumen-check: allow(<lint>)` on the same or preceding line; test
//! code (`#[cfg(test)]`, `#[test]`, `tests/` directories) is exempt.
//!
//! Run it over the workspace with `cargo run -p flumen-check -- --deny`.

#![warn(missing_docs)]

pub mod audit;
pub mod index;
pub mod lexer;
pub mod lints;
pub mod taint;

pub use lints::{CheckConfig, Diagnostic, Lint};

use std::fs;
use std::path::{Path, PathBuf};

/// A diagnostic located in a workspace file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileDiagnostic {
    /// Path of the offending file, relative to the workspace root when
    /// possible.
    pub file: PathBuf,
    /// The finding.
    pub diag: Diagnostic,
}

impl std::fmt::Display for FileDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.diag.line,
            self.diag.lint.name(),
            self.diag.message
        )
    }
}

/// Lints one source string as module `module` under `cfg`. The unit of
/// the fixture tests, and the kernel `check_workspace` applies per file.
pub fn check_source(module: &str, src: &str, cfg: &CheckConfig) -> Vec<Diagnostic> {
    let (toks, comments) = lexer::lex(src);
    lints::check_tokens(module, &toks, &comments, cfg)
}

/// Walks every `crates/*/src/**/*.rs` under `root` and lints it with the
/// Flumen policy, trace registry included. `tests/` directories, `vendor/`
/// and `target/` are never visited.
///
/// Returns diagnostics sorted by file then line; I/O problems (missing
/// `crates/`, unreadable file) surface as an `Err` string.
pub fn check_workspace(root: &Path) -> Result<Vec<FileDiagnostic>, String> {
    let mut cfg = CheckConfig::flumen();
    cfg.trace_registry = trace_registry(root)?;

    let mut out = Vec::new();
    for s in collect_workspace_sources(root)? {
        out.extend(
            check_source(&s.module, &s.src, &cfg)
                .into_iter()
                .map(|diag| FileDiagnostic {
                    file: s.file.clone(),
                    diag,
                }),
        );
    }
    Ok(out)
}

/// Reads every production source under `root` into
/// [`index::SourceFile`]s (module path + workspace-relative display
/// path + contents), in deterministic crate/file order.
pub fn collect_workspace_sources(root: &Path) -> Result<Vec<index::SourceFile>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut out = Vec::new();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let module = module_path(&crate_name, &src_dir, &file);
            let src = fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            out.push(index::SourceFile {
                module,
                file: rel,
                src,
            });
        }
    }
    Ok(out)
}

/// Runs the cross-crate `flumen-audit` pass over the workspace: builds
/// the item/call-graph index, propagates determinism taint, and applies
/// the audit lints. Allow directives are already applied; baseline
/// filtering is the caller's business (see [`audit::load_baseline`]).
pub fn audit_workspace(root: &Path) -> Result<Vec<FileDiagnostic>, String> {
    let sources = collect_workspace_sources(root)?;
    let ix = index::WorkspaceIndex::build(&sources);
    Ok(audit::audit_index(&ix, &audit::AuditConfig::flumen()))
}

/// Audits an in-memory set of `(module, source)` snippets under the
/// Flumen policy — the unit of the audit fixture tests.
pub fn audit_snippets(sources: &[(&str, &str)]) -> Vec<FileDiagnostic> {
    let files: Vec<index::SourceFile> = sources
        .iter()
        .map(|(m, s)| index::SourceFile {
            module: m.to_string(),
            file: PathBuf::from(format!("{}.rs", m.replace("::", "/"))),
            src: s.to_string(),
        })
        .collect();
    let ix = index::WorkspaceIndex::build(&files);
    audit::audit_index(&ix, &audit::AuditConfig::flumen())
}

/// Extracts `REGISTERED_EVENT_NAMES` from the trace crate's source, so
/// the checker needs no (cyclic) dependency on `flumen-trace` itself.
pub fn trace_registry(root: &Path) -> Result<Vec<String>, String> {
    let path = root.join("crates/trace/src/event.rs");
    let src =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (toks, _) = lexer::lex(&src);
    let mut names = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == lexer::TokKind::Ident("REGISTERED_EVENT_NAMES".into()) {
            for t in &toks[i..] {
                match &t.kind {
                    lexer::TokKind::Str(s) => names.push(s.clone()),
                    lexer::TokKind::Punct(']') if !names.is_empty() => return Ok(names),
                    _ => {}
                }
            }
        }
    }
    if names.is_empty() {
        return Err(format!(
            "no REGISTERED_EVENT_NAMES array found in {}",
            path.display()
        ));
    }
    Ok(names)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_str().unwrap_or_default();
        if path.is_dir() {
            if name == "tests" || name == "target" || name == "vendor" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Derives a module path like `noc::routed` or `bench::bin::fig12a` from
/// a file location; `lib.rs` and `mod.rs` collapse onto their parent.
fn module_path(crate_name: &str, src_dir: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(src_dir).unwrap_or(file);
    let mut parts = vec![crate_name.to_string()];
    for comp in rel.components() {
        let s = comp.as_os_str().to_str().unwrap_or_default();
        let s = s.strip_suffix(".rs").unwrap_or(s);
        if s == "lib" || s == "mod" || s.is_empty() {
            continue;
        }
        parts.push(s.to_string());
    }
    parts.join("::")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry lists only names something still emits: every
    /// registered name appears as a string literal in non-test code
    /// outside the registry itself.
    #[test]
    fn every_registered_name_has_a_production_emitter() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let registry = trace_registry(&root).expect("registry parses");
        let mut literals = std::collections::BTreeSet::new();
        for file in collect_workspace_sources(&root).expect("workspace walk succeeds") {
            if file.module == "trace::event" {
                continue;
            }
            let (toks, _) = lexer::lex(&file.src);
            let mask = lints::test_mask(&toks);
            for (tok, in_test) in toks.iter().zip(mask) {
                if let (lexer::TokKind::Str(s), false) = (&tok.kind, in_test) {
                    literals.insert(s.clone());
                }
            }
        }
        let unused: Vec<&String> = registry.iter().filter(|n| !literals.contains(*n)).collect();
        assert!(
            unused.is_empty(),
            "registered but never emitted: {unused:?}"
        );
    }

    #[test]
    fn module_paths_collapse_lib_and_mod() {
        let src = Path::new("/r/crates/noc/src");
        assert_eq!(
            module_path("noc", src, Path::new("/r/crates/noc/src/routed.rs")),
            "noc::routed"
        );
        assert_eq!(
            module_path("noc", src, Path::new("/r/crates/noc/src/lib.rs")),
            "noc"
        );
        assert_eq!(
            module_path(
                "bench",
                Path::new("/r/crates/bench/src"),
                Path::new("/r/crates/bench/src/bin/fig12a.rs")
            ),
            "bench::bin::fig12a"
        );
    }
}
