//! Result sinks: trace files and the run manifest.
//!
//! The manifest (`manifest.jsonl` next to the cache) appends one line per
//! sweep invocation — job count, hit/miss split, wall time — so a data
//! directory records how its contents were produced and a re-run can be
//! audited for cache effectiveness.

use crate::exec::SweepReport;
use crate::json::{Json, ToJson};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Writes a recorded event stream twice: Chrome-trace JSON (open in
/// Perfetto / `chrome://tracing`) at `<stem>.trace.json` and one event
/// per line at `<stem>.trace.jsonl`. Returns the two paths.
///
/// Pass [`SweepReport::trace_events`] for the executor timeline, or any
/// stream drained from a `flumen_trace::RecordingTracer`.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_trace_files(
    dir: &Path,
    stem: &str,
    events: &[flumen_trace::TraceEvent],
) -> (std::path::PathBuf, std::path::PathBuf) {
    fs::create_dir_all(dir).expect("create trace dir");
    let chrome = dir.join(format!("{stem}.trace.json"));
    fs::write(&chrome, flumen_trace::chrome::to_chrome_json(events)).expect("write chrome trace");
    let jsonl = dir.join(format!("{stem}.trace.jsonl"));
    let mut f = fs::File::create(&jsonl).expect("create trace jsonl");
    flumen_trace::jsonl::write_jsonl(&mut f, events).expect("write trace jsonl");
    (chrome, jsonl)
}

/// Appends one summary line for this sweep to `<dir>/manifest.jsonl`.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn append_manifest(dir: &Path, name: &str, report: &SweepReport) {
    fs::create_dir_all(dir).expect("create manifest dir");
    let line = Json::obj([
        ("sweep", Json::Str(name.to_string())),
        ("jobs", report.records.len().to_json()),
        ("cache_hits", report.cache_hits().to_json()),
        ("executed", report.executed().to_json()),
        ("wall_ms", report.wall_ms.to_json()),
        (
            "job_hashes",
            Json::Arr(
                report
                    .records
                    .iter()
                    .map(|r| Json::Str(r.hash.clone()))
                    .collect(),
            ),
        ),
    ]);
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("manifest.jsonl"))
        .expect("open manifest");
    writeln!(f, "{}", line.to_canonical()).expect("append manifest");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_plan, SweepOptions, SweepPlan};
    use crate::job::{JobSpec, NetSpec};
    use flumen_noc::harness::RunConfig;
    use flumen_noc::traffic::TrafficPattern;

    #[test]
    fn manifest_appends_one_line_per_sweep() {
        let base = std::env::temp_dir().join(format!("flumen-sweep-sink-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);

        let mut plan = SweepPlan::new();
        for seed in [1u64, 2] {
            plan.push(JobSpec::NocPoint {
                net: NetSpec::Ring { nodes: 8 },
                pattern: TrafficPattern::Shuffle,
                load: 0.05,
                cfg: RunConfig {
                    warmup: 50,
                    measure: 200,
                    seed,
                    ..RunConfig::default()
                },
            });
        }
        let report = run_plan(&plan, &SweepOptions::serial_in(base.join("cache")));

        append_manifest(&base, "test-sweep", &report);
        append_manifest(&base, "test-sweep", &report);
        let manifest = fs::read_to_string(base.join("manifest.jsonl")).unwrap();
        assert_eq!(manifest.lines().count(), 2);
        let j = Json::parse(manifest.lines().next().unwrap()).unwrap();
        assert_eq!(j.get("jobs").unwrap().as_usize().unwrap(), 2);
        let hashes = j.get("job_hashes").unwrap().as_arr().unwrap();
        for (h, rec) in hashes.iter().zip(&report.records) {
            assert_eq!(h.as_str().unwrap(), rec.hash);
        }

        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn trace_sink_writes_both_formats() {
        use flumen_trace::EventKind;
        let base = std::env::temp_dir().join(format!("flumen-sweep-trace-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);

        let mut plan = SweepPlan::new();
        plan.push(JobSpec::NocPoint {
            net: NetSpec::Ring { nodes: 8 },
            pattern: TrafficPattern::Shuffle,
            load: 0.05,
            cfg: RunConfig {
                warmup: 50,
                measure: 200,
                ..RunConfig::default()
            },
        });
        let report = run_plan(&plan, &SweepOptions::serial_in(base.join("cache")));
        // One executed job → one begin + one end span on the timeline.
        let begins = report
            .trace_events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin)
            .count();
        assert_eq!(begins, 1);
        assert_eq!(report.trace_events.len(), 2);

        let (chrome, jsonl) = write_trace_files(&base, "sweep", &report.trace_events);
        let cj = fs::read_to_string(&chrome).unwrap();
        assert!(cj.starts_with('[') && cj.contains("\"ph\":\"B\""));
        assert_eq!(fs::read_to_string(&jsonl).unwrap().lines().count(), 2);

        // A re-run is served from cache and leaves a cache_hit instant.
        let again = run_plan(&plan, &SweepOptions::serial_in(base.join("cache")));
        assert_eq!(again.cache_hits(), 1);
        assert!(again
            .trace_events
            .iter()
            .any(|e| e.name == "cache_hit" && e.kind == EventKind::Instant));

        fs::remove_dir_all(&base).unwrap();
    }
}
