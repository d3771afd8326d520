//! The repository benchmark: one seeded workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path fgbench/Cargo.toml -- \
//!     --workload <traverse|triangles|serve|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every answer is checked against an oracle; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
//! are the end-to-end ones; with `--trace 1` they are the per-layer
//! ones, and the recorded spans are written as a Chrome trace to
//! `--trace-out` (default `fgbench/out/trace-<workload>-<seed>.json`).
//! The process exits non-zero when any answer or check fails. See
//! `fgbench/README.md`.

mod batch;
mod fixture;
mod heap;
mod inputs;
mod json;
mod report;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use crate::json::Json;
use crate::report::Report;
use crate::trace::{self_time_by_name, Tracer};

/// Counts live heap bytes for `peak_heap_mb`.
#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Traverse,
    Triangles,
    Serve,
    Ingest,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "traverse" => Workload::Traverse,
            "triangles" => Workload::Triangles,
            "serve" => Workload::Serve,
            "ingest" => Workload::Ingest,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Traverse => "traverse",
            Workload::Triangles => "triangles",
            Workload::Serve => "serve",
            Workload::Ingest => "ingest",
        }
    }
}

/// What every workload gets: its seed and budget, and the span
/// recorder (always present; recording only in traced runs).
pub struct Ctx {
    pub seed: u64,
    pub run_for: Duration,
    pub traced: bool,
    pub tracer: Arc<Tracer>,
    /// The `workload` span every `rep` and `setup` span hangs under.
    pub root: u64,
}

impl Ctx {
    /// The tracer device stores record into, in traced runs only: an
    /// untraced run's arrays use the plain in-memory store.
    pub fn store_tracer(&self) -> Option<&Arc<Tracer>> {
        self.traced.then_some(&self.tracer)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// The layer a span's self time is booked to: the same five on every
/// workload. A workload's operations (apps, queries, ingest batches,
/// compactions) are one layer; the root span (the run minus
/// everything measured) is none.
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span.split('.').next().unwrap_or(span) {
        "setup" => "setup",
        "rep" => "rep",
        "app" | "query" | "ingest" | "compact" => "op",
        "serve" => "serve",
        "device" => "device",
        _ => return None,
    })
}

/// Per-layer self time of the traced spans (see [`layer_of`]), in ms.
fn self_time_metrics(report: &mut Report, tracer: &Tracer) {
    let mut by_layer: BTreeMap<&str, u64> = ["setup", "rep", "op", "serve", "device"]
        .into_iter()
        .map(|l| (l, 0))
        .collect();
    for (name, ns) in self_time_by_name(&tracer.spans()) {
        if let Some(layer) = layer_of(name) {
            *by_layer.entry(layer).or_default() += ns;
        }
    }
    for (layer, ns) in by_layer {
        report.metric(format!("trace.self_ms.{layer}"), ns as f64 / 1e6, "ms");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgbench: {e}");
            eprintln!(
                "usage: fgbench --workload <traverse|triangles|serve|ingest> --seed <n> \
                 --seconds <s> --trace <0|1> [--trace-out <file>]"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    tracer.name_thread("main");
    let root = tracer.begin(
        match args.workload {
            Workload::Traverse => "workload.traverse",
            Workload::Triangles => "workload.triangles",
            Workload::Serve => "workload.serve",
            Workload::Ingest => "workload.ingest",
        },
        0,
    );
    let ctx = Ctx {
        seed: args.seed,
        run_for: Duration::from_secs_f64(args.seconds),
        traced: args.trace,
        tracer: Arc::clone(&tracer),
        root: root.id(),
    };
    let mut report = Report::default();
    let outcome = match args.workload {
        Workload::Traverse => batch::run(&ctx, &mut report, &batch::TRAVERSE),
        Workload::Triangles => batch::run(&ctx, &mut report, &batch::TRIANGLES),
        Workload::Serve => serve::run(&ctx, &mut report, false),
        Workload::Ingest => serve::run(&ctx, &mut report, true),
    };
    if let Err(e) = outcome {
        eprintln!("fgbench: {} failed: {e}", args.workload.name());
        return ExitCode::FAILURE;
    }
    if args.trace {
        tracer.set_enabled(true);
        tracer.end(root);
        self_time_metrics(&mut report, &tracer);
        let path = args.trace_out.unwrap_or_else(|| {
            PathBuf::from(format!(
                "fgbench/out/trace-{}-{}.json",
                args.workload.name(),
                args.seed
            ))
        });
        let meta = Json::obj()
            .with("workload", args.workload.name())
            .with("seed", args.seed)
            .with("seconds", args.seconds);
        match tracer.write_chrome(&path, meta) {
            Ok(()) => eprintln!("fgbench: trace written to {}", path.display()),
            Err(e) => {
                eprintln!("fgbench: cannot write trace {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for e in &report.errors {
        eprintln!("fgbench: FAILED {e}");
    }
    for (name, value, unit) in report.metrics() {
        eprintln!("  {name:<36} {value:>14.4} {unit}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
