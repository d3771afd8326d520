//! The batch-analytics workloads: `traverse` (BFS, WCC, PageRank on
//! the directed graph) and `triangles` (TC on the symmetrized graph).
//! One client runs each app on the semi-external engine, through a
//! `GraphService` that admits one query at a time, rep after rep,
//! until the run's time is spent.

use std::time::{Duration, Instant};

use fg_baselines::direct;
use fg_graph::Graph;
use fg_types::{Result, VertexId};
use flashgraph::{Engine, EngineConfig, GraphService, QueryOpts, RunStats, ServiceConfig};

use crate::fixture::{report_setup, set_up};
use crate::inputs;
use crate::report::{
    delta_layer, device_layer, engine_layer, op_metrics, serve_layer, DeviceSample, EngineReads,
    OpKind, PeakHeap, Report,
};
use crate::stats::{geomean, median};
use crate::Ctx;

/// Engine worker threads of every batch run.
pub const WORKERS: usize = 2;
/// Reps run even when they overrun the time budget, so every median
/// has at least this many samples.
pub const MIN_REPS: usize = 3;
/// PageRank: damping, convergence threshold, iteration cap.
const PR_DAMPING: f32 = 0.85;
const PR_TOL: f32 = 1e-3;
const PR_ITERS: u32 = 30;
/// Largest accepted difference between the engine's delta PageRank
/// (stopped at threshold [`PR_TOL`]) and 30 power iterations, relative
/// to the oracle rank (ranks are scaled to average about 1).
pub const PR_MAX_REL_ERR: f64 = 0.02;

/// An app of the batch workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Bfs,
    Wcc,
    Pr,
    Tc,
}

impl App {
    fn name(self) -> &'static str {
        match self {
            App::Bfs => "bfs",
            App::Wcc => "wcc",
            App::Pr => "pr",
            App::Tc => "tc",
        }
    }

    fn span(self) -> &'static str {
        match self {
            App::Bfs => "app.bfs",
            App::Wcc => "app.wcc",
            App::Pr => "app.pr",
            App::Tc => "app.tc",
        }
    }
}

/// A batch workload: which graph view, which apps.
pub struct Spec {
    pub undirected: bool,
    pub apps: &'static [App],
}

pub const TRAVERSE: Spec = Spec {
    undirected: false,
    apps: &[App::Bfs, App::Wcc, App::Pr],
};

pub const TRIANGLES: Spec = Spec {
    undirected: true,
    apps: &[App::Tc],
};

enum Answer {
    Levels(Vec<Option<u32>>),
    Labels(Vec<u32>),
    Ranks(Vec<f32>),
    Count(u64),
}

/// Oracle answers, computed once in untimed set-up.
struct Oracles {
    root: VertexId,
    levels: Vec<Option<u32>>,
    labels: Vec<u32>,
    ranks: Vec<f64>,
    triangles: u64,
}

impl Oracles {
    fn new(g: &Graph, apps: &[App]) -> Oracles {
        let root = inputs::hub(g);
        let has = |a| apps.contains(&a);
        Oracles {
            root,
            levels: if has(App::Bfs) {
                direct::bfs_levels(g, root)
            } else {
                Vec::new()
            },
            labels: if has(App::Wcc) {
                direct::wcc_labels(g)
            } else {
                Vec::new()
            },
            ranks: if has(App::Pr) {
                direct::pagerank(g, PR_DAMPING as f64, PR_ITERS)
            } else {
                Vec::new()
            },
            triangles: if has(App::Tc) {
                direct::triangle_count(g)
            } else {
                0
            },
        }
    }

    /// Books one app run as an operation: it must have succeeded and
    /// match the oracle. Returns whether it did.
    fn verify(
        &self,
        report: &mut Report,
        app: App,
        rep: usize,
        out: &Result<(Answer, RunStats)>,
    ) -> bool {
        let verdict = match out {
            Ok((answer, _)) => self.check(app, answer),
            Err(e) => Err(e.to_string()),
        };
        let ok = verdict.is_ok();
        report.op(ok, || {
            format!("{} rep {rep}: {}", app.name(), verdict.unwrap_err())
        });
        ok
    }

    /// `Ok` when `answer` matches the oracle for `app`.
    fn check(&self, app: App, answer: &Answer) -> std::result::Result<(), String> {
        match (app, answer) {
            (App::Bfs, Answer::Levels(got)) if *got == self.levels => Ok(()),
            (App::Wcc, Answer::Labels(got)) if *got == self.labels => Ok(()),
            (App::Pr, Answer::Ranks(got)) => {
                let worst = got
                    .iter()
                    .zip(&self.ranks)
                    .map(|(&g, &w)| (g as f64 - w).abs() / w.max(1.0))
                    .fold(0.0, f64::max);
                if got.len() == self.ranks.len() && worst <= PR_MAX_REL_ERR {
                    Ok(())
                } else {
                    Err(format!("relative rank error {worst:.4} > {PR_MAX_REL_ERR}"))
                }
            }
            (App::Tc, Answer::Count(got)) if *got == self.triangles => Ok(()),
            (App::Tc, Answer::Count(got)) => {
                Err(format!("{got} triangles, oracle {}", self.triangles))
            }
            _ => Err("answer differs from the oracle".into()),
        }
    }
}

fn run_app(app: App, engine: &Engine<'_>, root: VertexId) -> Result<(Answer, RunStats)> {
    Ok(match app {
        App::Bfs => {
            let (levels, stats) = fg_apps::bfs(engine, root)?;
            (Answer::Levels(levels), stats)
        }
        App::Wcc => {
            let (labels, stats) = fg_apps::wcc(engine)?;
            (Answer::Labels(labels), stats)
        }
        App::Pr => {
            let (ranks, stats) = fg_apps::pagerank(engine, PR_DAMPING, PR_TOL, PR_ITERS)?;
            (Answer::Ranks(ranks), stats)
        }
        App::Tc => {
            let (count, _, stats) = fg_apps::triangle_count(engine, false)?;
            (Answer::Count(count), stats)
        }
    })
}

/// Runs `app` through `svc` and times it from the client's side:
/// the latency from the call to the return, and the admission wait
/// from the call until the service hands over its engine.
fn query_app(
    svc: &GraphService,
    app: App,
    root: VertexId,
) -> (Result<(Answer, RunStats)>, Duration, Duration) {
    let called = Instant::now();
    let res = svc.query_opts(QueryOpts::new(), |engine| {
        (Instant::now(), run_app(app, engine, root))
    });
    let latency = called.elapsed();
    match res {
        Ok((entered, out)) => (out, latency, entered - called),
        Err(e) => (Err(e), latency, Duration::ZERO),
    }
}

/// Runs a batch workload and reports its metrics.
///
/// # Errors
///
/// Propagates set-up errors; app errors are booked as failed
/// operations instead.
pub fn run(ctx: &Ctx, report: &mut Report, spec: &Spec) -> Result<()> {
    let (g, mounted, setups) = set_up(ctx, || {
        let g = inputs::graph(ctx.seed);
        if spec.undirected {
            inputs::symmetrize(&g)
        } else {
            g
        }
    })?;
    report_setup(report, ctx, &setups);
    let oracles = Oracles::new(&g, spec.apps);
    drop(g);
    let cfg = ServiceConfig::default()
        .with_max_inflight(1)
        .with_engine(EngineConfig::default().with_threads(WORKERS));
    let svc = GraphService::new(mounted.safs, mounted.index, cfg);
    let safs = svc.safs();
    let stats = safs.array().stats();
    let tracer = &ctx.tracer;

    let mut kinds: Vec<OpKind> = spec.apps.iter().map(|a| OpKind::new(a.name())).collect();
    let mut runs: Vec<Vec<RunStats>> = spec.apps.iter().map(|_| Vec::new()).collect();
    let (mut wait_ms, mut exec_ms) = (Vec::new(), Vec::new());
    let mut device: Vec<DeviceSample> = Vec::new();
    // Per-kind latencies of traced and untraced reps (traced runs).
    let mut traced_ms: Vec<Vec<f64>> = spec.apps.iter().map(|_| Vec::new()).collect();
    let mut untraced_ms = traced_ms.clone();
    let (mut ops, mut busy) = (0u64, Duration::ZERO);
    // Rep 0 warms the page cache and the allocator and is checked but
    // not measured; then reps run until the time is spent.
    let mut peak_heap = PeakHeap::default();
    let mut start = Instant::now();
    let mut rep = 0;
    while rep <= MIN_REPS || start.elapsed() < ctx.run_for {
        let warm_up = rep == 0;
        if rep == 1 {
            start = Instant::now();
        }
        if !warm_up {
            peak_heap.start_rep();
        }
        // A traced run alternates traced and untraced reps: the pair
        // measures the tracing overhead.
        let traced = ctx.traced && !warm_up && rep % 2 == 0;
        tracer.set_enabled(traced);
        let rep_span = tracer.begin("rep", ctx.root);
        let mut io = None;
        let mut engine = EngineReads::default();
        let mut store_read_ns = 0;
        let mut rep_ok = true;
        for (i, &app) in spec.apps.iter().enumerate() {
            let span = tracer.begin(app.span(), rep_span.id());
            let span_id = span.id();
            tracer.set_device_parent(span_id);
            let io0 = stats.snapshot();
            let (out, latency, wait) = query_app(&svc, app, oracles.root);
            let app_io = stats.snapshot().delta_since(&io0);
            tracer.record_leading("serve.admission", &span, wait.as_nanos() as u64);
            tracer.end(span);
            let ok = oracles.verify(report, app, rep, &out);
            rep_ok &= ok;
            let (Ok((_, run)), true, false) = (out, ok, warm_up) else {
                continue;
            };
            if traced {
                let d = tracer.device_totals(span_id);
                report.check(d.bytes == app_io.bytes_read, || {
                    format!(
                        "{} rep {rep}: device spans hold {} bytes, IoStats read {}",
                        app.name(),
                        d.bytes,
                        app_io.bytes_read
                    )
                });
                store_read_ns += d.ns;
            }
            let latency_ms = latency.as_secs_f64() * 1e3;
            kinds[i].latency_ms.push(latency_ms);
            if ctx.traced {
                if traced {
                    &mut traced_ms[i]
                } else {
                    &mut untraced_ms[i]
                }
                .push(latency_ms);
            }
            ops += 1;
            busy += latency;
            wait_ms.push(wait.as_secs_f64() * 1e3);
            exec_ms.push(run.elapsed.as_secs_f64() * 1e3);
            engine.add(&run);
            match &mut io {
                None => io = Some(app_io),
                Some(total) => total.absorb(&app_io),
            }
            runs[i].push(run);
        }
        tracer.end(rep_span);
        if let (Some(io), true) = (io, rep_ok) {
            device.push(DeviceSample {
                io,
                engine,
                direct_bytes: 0,
                store_read_ns: traced.then_some(store_read_ns),
            });
        }
        if !warm_up {
            peak_heap.end_rep();
        }
        rep += 1;
    }
    tracer.set_enabled(ctx.traced);

    if ctx.traced {
        engine_layer(report, &runs, WORKERS);
        device_layer(report, &device);
        serve_layer(report, &wait_ms, &exec_ms, svc.stats().peak_inflight);
        delta_layer(report, 0, &[], &[]);
        let typical = |per_kind: &[Vec<f64>]| {
            geomean(&per_kind.iter().map(|xs| median(xs)).collect::<Vec<_>>())
        };
        report.metric(
            "trace.overhead_pct",
            (typical(&traced_ms) / typical(&untraced_ms) - 1.0) * 100.0,
            "%",
        );
    } else {
        op_metrics(report, &kinds, ops, busy.as_secs_f64());
        peak_heap.report(report);
    }
    Ok(())
}
