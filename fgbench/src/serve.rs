//! The serving workloads: `serve` (two closed-loop query clients on
//! one `GraphService`) and `ingest` (one closed-loop query client
//! beside an open-loop delta-ingest client, each rep ending with a
//! compaction).

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

use fg_apps::bfs::BfsProgram;
use fg_apps::lcc::LccProgram;
use fg_baselines::direct;
use fg_graph::{DeltaBatch, DeltaLog, Graph};
use fg_ssdsim::IoStatsSnapshot;
use fg_types::{EdgeDir, Result, VertexId};
use flashgraph::{Engine, EngineConfig, GraphService, Init, QueryOpts, RunStats, ServiceConfig};

use crate::fixture::{new_array, report_setup, set_up};
use crate::inputs::{self, Query};
use crate::report::{
    delta_layer, device_layer, engine_layer, op_metrics, serve_layer, DeviceSample, EngineReads,
    OpKind, PeakHeap, Report,
};
use crate::stats::median;
use crate::trace;
use crate::Ctx;

/// Queries admitted at once; later arrivals queue.
pub const MAX_INFLIGHT: usize = 2;
/// Engine workers per query.
pub const QUERY_WORKERS: usize = 1;
/// Sample size of the point queries' LCC estimator.
pub const LCC_K: u32 = 16;
/// Mutations per ingested batch.
pub const BATCH_OPS: usize = 256;
/// The ingest rate, as the mutations one rep submits before its
/// compaction over the base graph's edges; the open-loop schedule
/// spreads those batches evenly over the rep. It is set by headroom.
/// `GraphService::ingest` holds the delta log's lock, which every
/// query needs to pin its view, while it reads the touched base lists
/// and scans the earlier runs, so the share of the rep the ingest
/// client spends in calls decides how often a query waits, and a
/// slower host lengthens every call. A tenth of the base per
/// compaction (the LSM level size ratio of 10) kept the client in
/// calls 11–18 % of the time at one batch per 66 ms, and a host
/// slowdown that raised set-up times by about 15 % cut query
/// throughput by up to 39 %; at one batch per 44 ms a slowdown of
/// about 30 % cut it fivefold. A twentieth keeps the client in calls
/// about 3 % of the time, so the reads measure the read path
/// beside a steady write load rather than the host's speed.
pub const DELTA_SHARE: f64 = 0.05;
/// Reps of each serving workload; the run's time is split evenly. A
/// traced run traces every other rep. With [`DELTA_SHARE`] fixed, the
/// rep length sets the ingest rate: two reps of a 20 s run put one
/// batch due every 132 ms.
const REPS: usize = 2;
/// Queries pre-generated per client (the stream wraps around after).
const STREAM_LEN: usize = 100_000;
/// Ingest: answers verified after the run per rep (each needs a
/// union graph of its snapshot).
const CHECKED_POINTS_PER_REP: usize = 12;
const CHECKED_TRAVERSALS_PER_REP: usize = 5;
/// Point answers may differ from the oracle by float summation order.
const LCC_EPS: f32 = 1e-5;

#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Lcc(f32),
    Levels(Vec<Option<u32>>),
}

/// One answered query.
struct QuerySample {
    query: Query,
    latency_ns: u64,
    run: RunStats,
    traced: bool,
    /// Ingest: the watermark the query saw, when no batch landed
    /// while it ran (only those can be checked afterwards).
    watermark: Option<u64>,
    answer: Option<Answer>,
    /// Serve: the fingerprint of a traversal's levels, checked after
    /// the run against BFS from its root.
    levels_hash: Option<u64>,
}

/// One ingested batch.
struct BatchSample {
    index: usize,
    /// Delay from the batch's due time to its ack.
    ack_ns: u64,
    /// Time inside `GraphService::ingest`.
    call_ns: u64,
    /// How late the client sent it.
    late_ns: u64,
    pending_ops: u64,
    watermark: u64,
}

/// The last BFS of an ingest rep, before and after its compaction.
struct RepFinal {
    watermark: u64,
    before: Option<Vec<Option<u32>>>,
    after: Option<Vec<Option<u32>>>,
}

fn levels_hash(levels: &[Option<u32>]) -> u64 {
    let mut h = DefaultHasher::new();
    levels.hash(&mut h);
    h.finish()
}

fn run_query(svc: &GraphService, q: Query, lcc_seed: u64) -> Result<(Answer, RunStats)> {
    match q {
        Query::Point(v) => {
            let program = LccProgram {
                k: LCC_K,
                seed: lcc_seed,
            };
            let (states, stats) = svc.run_opts(&program, Init::Seeds(vec![v]), QueryOpts::new())?;
            Ok((Answer::Lcc(states[v.index()].lcc), stats))
        }
        Query::Traversal(root) => {
            let program = BfsProgram { dir: EdgeDir::Out };
            let (states, stats) =
                svc.run_opts(&program, Init::Seeds(vec![root]), QueryOpts::new())?;
            let levels = states
                .into_iter()
                .map(|s| s.visited.then_some(s.level))
                .collect();
            Ok((Answer::Levels(levels), stats))
        }
    }
}

/// Oracle answers of the serve workload's point queries (base graph
/// only). Traversals draw their roots from every non-isolated vertex,
/// so they are checked after the run, one oracle BFS per root.
struct ServeOracles {
    lcc: Vec<f32>,
}

impl ServeOracles {
    fn check_point(&self, v: VertexId, a: &Answer) -> std::result::Result<(), String> {
        let want = self.lcc[v.index()];
        match a {
            Answer::Lcc(got) if (got - want).abs() <= LCC_EPS => Ok(()),
            Answer::Lcc(got) => Err(format!("lcc({v}) = {got}, oracle {want}")),
            Answer::Levels(_) => Err(format!("lcc({v}) answered with levels")),
        }
    }
}

struct ClientOut {
    report: Report,
    queries: Vec<QuerySample>,
}

/// A closed-loop query client: sends its next query once the previous
/// one returned, until `until`.
#[allow(clippy::too_many_arguments)]
fn query_client(
    ctx: &Ctx,
    svc: &GraphService,
    name: &str,
    stream: &[Query],
    cursor: &mut usize,
    until: Instant,
    parent: u64,
    lcc_seed: u64,
    oracles: Option<&ServeOracles>,
) -> ClientOut {
    let tracer = &ctx.tracer;
    tracer.name_thread(name);
    let mut out = ClientOut {
        report: Report::default(),
        queries: Vec::new(),
    };
    let mut kept_traversals = 0;
    while Instant::now() < until {
        let q = stream[*cursor % stream.len()];
        *cursor += 1;
        let w0 = oracles.is_none().then(|| svc.watermark());
        let span = tracer.begin(
            match q {
                Query::Point(_) => "query.point",
                Query::Traversal(_) => "query.traversal",
            },
            parent,
        );
        let t = Instant::now();
        let res = run_query(svc, q, lcc_seed);
        let latency_ns = t.elapsed().as_nanos() as u64;
        if let Ok((_, run)) = &res {
            tracer.record_leading("serve.admission", &span, run.queue_wait_ns);
        }
        tracer.end(span);
        let (answer, run) = match res {
            Ok(x) => x,
            Err(e) => {
                out.report.op(false, || format!("{q:?}: {e}"));
                continue;
            }
        };
        // Serve checks point answers now and fingerprints traversals
        // for `check_serve_traversals`; ingest keeps what it can check
        // later against the replayed snapshot.
        let (watermark, answer, levels_hash) = match (oracles, q, &answer) {
            (Some(_), Query::Traversal(_), Answer::Levels(l)) => (None, None, Some(levels_hash(l))),
            (Some(o), _, _) => {
                let verdict = match q {
                    Query::Point(v) => o.check_point(v, &answer),
                    Query::Traversal(r) => Err(format!("bfs from {r} answered with an lcc")),
                };
                out.report.op(verdict.is_ok(), || verdict.unwrap_err());
                (None, None, None)
            }
            (None, _, _) => {
                out.report.op(true, String::new);
                let w = w0.filter(|&w| w == svc.watermark());
                // Levels are 64 KiB or more per answer: keep only a
                // few spares beyond the ones `check_ingest` samples.
                let keep = w.is_some()
                    && match q {
                        Query::Point(_) => true,
                        Query::Traversal(_) => {
                            kept_traversals += 1;
                            kept_traversals <= 4 * CHECKED_TRAVERSALS_PER_REP
                        }
                    };
                (w, keep.then_some(answer), None)
            }
        };
        out.queries.push(QuerySample {
            query: q,
            latency_ns,
            run,
            traced: tracer.enabled(),
            watermark,
            answer,
            levels_hash,
        });
    }
    out
}

/// The open-loop ingest client: batch `i` of the rep is due at
/// `start + i × period` and is sent then, or at once when the client
/// is running late.
#[allow(clippy::too_many_arguments)]
fn ingest_client(
    ctx: &Ctx,
    svc: &GraphService,
    batches: &[DeltaBatch],
    next: &mut usize,
    period: Duration,
    start: Instant,
    until: Instant,
    parent: u64,
) -> (Report, Vec<BatchSample>) {
    let tracer = &ctx.tracer;
    tracer.name_thread("ingest");
    let mut report = Report::default();
    let mut samples = Vec::new();
    for i in 0u32.. {
        let due = start + period * i;
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let Some(batch) = batches.get(*next) else {
            report.op(false, || "ran out of pre-generated batches".into());
            break;
        };
        let index = *next;
        *next += 1;
        let span = tracer.begin("ingest.batch", parent);
        let sent = Instant::now();
        let res = svc.ingest(batch);
        let acked = Instant::now();
        tracer.end(span);
        match res {
            Ok(watermark) => {
                report.op(true, String::new);
                samples.push(BatchSample {
                    index,
                    ack_ns: (acked - due).as_nanos() as u64,
                    call_ns: (acked - sent).as_nanos() as u64,
                    late_ns: (sent - due).as_nanos() as u64,
                    pending_ops: svc.pending_deltas(),
                    watermark,
                });
            }
            Err(e) => report.op(false, || format!("ingest batch {index}: {e}")),
        }
    }
    (report, samples)
}

fn bfs_levels_of(
    svc: &GraphService,
    root: VertexId,
    lcc_seed: u64,
) -> Result<(Vec<Option<u32>>, RunStats)> {
    match run_query(svc, Query::Traversal(root), lcc_seed)? {
        (Answer::Levels(l), run) => Ok((l, run)),
        (Answer::Lcc(_), _) => unreachable!("a traversal answers with levels"),
    }
}

/// Runs `serve` (`ingest == false`) or `ingest` and reports its
/// metrics.
///
/// # Errors
///
/// Propagates set-up errors; query, ingest and compaction errors are
/// booked as failed operations instead.
pub fn run(ctx: &Ctx, report: &mut Report, ingest: bool) -> Result<()> {
    let tracer = &ctx.tracer;
    let (u, mounted, setups) = set_up(ctx, || inputs::symmetrize(&inputs::graph(ctx.seed)))?;
    report_setup(report, ctx, &setups);

    // Inputs and oracles, untimed.
    let candidates = inputs::non_isolated(&u);
    let lcc_seed = inputs::lcc_seed(ctx.seed);
    let clients = if ingest { 1 } else { 2 };
    let streams: Vec<Vec<Query>> = (0..clients)
        .map(|c| inputs::query_stream(ctx.seed, c as u64, &candidates, STREAM_LEN))
        .collect();
    let rep_len = ctx.run_for / REPS as u32;
    let per_rep = (DELTA_SHARE * u.num_edges() as f64 / BATCH_OPS as f64).ceil() as u32;
    let period = rep_len / per_rep.max(1);
    let batches: Vec<DeltaBatch> = if ingest {
        eprintln!(
            "fgbench: ingest schedule: {per_rep} batches of {BATCH_OPS} ops per {:.1} s rep, \
             one every {:.2} ms",
            rep_len.as_secs_f64(),
            period.as_secs_f64() * 1e3
        );
        inputs::delta_batches(
            ctx.seed,
            &u,
            &candidates,
            (per_rep as usize + 1) * REPS,
            BATCH_OPS,
        )
        .iter()
        .map(|ops| inputs::to_batch(ops))
        .collect()
    } else {
        Vec::new()
    };
    let oracles = (!ingest).then(|| {
        let mem = Engine::new_mem(&u, EngineConfig::default().with_threads(2));
        let (lcc, _) = fg_apps::lcc(&mem, LCC_K, lcc_seed).expect("in-memory LCC oracle");
        ServeOracles { lcc }
    });
    let hub = inputs::hub(&u);
    // Reads issued on this thread — ingest canonicalization and the
    // compaction's read of the old image — bypass the engine.
    trace::mark_direct_reader();

    let cfg = ServiceConfig::default()
        .with_max_inflight(MAX_INFLIGHT)
        .with_engine(EngineConfig::default().with_threads(QUERY_WORKERS));
    let svc = GraphService::new(mounted.safs, mounted.index, cfg);

    let mut queries: Vec<QuerySample> = Vec::new();
    let mut batch_samples: Vec<BatchSample> = Vec::new();
    let mut finals: Vec<RepFinal> = Vec::new();
    let mut compact_s = Vec::new();
    let mut compact_written = Vec::new();
    let mut device = Vec::new();
    let mut measured = Duration::ZERO;
    let mut cursors = vec![0usize; clients];
    let mut next_batch = 0;

    let mut peak_heap = PeakHeap::default();
    for rep in 0..REPS {
        let traced = ctx.traced && rep % 2 == 1;
        tracer.set_enabled(traced);
        let rep_span = tracer.begin("rep", ctx.root);
        tracer.set_device_parent(rep_span.id());
        let mut arrays = vec![svc.safs().array().clone()];
        let io0: Vec<IoStatsSnapshot> = arrays.iter().map(|a| a.stats().snapshot()).collect();
        let direct0 = tracer.direct_read_bytes();
        let mut engine_reads = EngineReads::default();
        let first_query = queries.len();
        peak_heap.start_rep();
        let start = Instant::now();
        let until = start + rep_len;
        let outs = std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .zip(cursors.iter_mut())
                .enumerate()
                .map(|(c, (stream, cursor))| {
                    let (svc, oracles) = (&svc, oracles.as_ref());
                    let parent = rep_span.id();
                    s.spawn(move || {
                        query_client(
                            ctx,
                            svc,
                            &format!("client-{c}"),
                            stream,
                            cursor,
                            until,
                            parent,
                            lcc_seed,
                            oracles,
                        )
                    })
                })
                .collect();
            let ingested = ingest.then(|| {
                ingest_client(
                    ctx,
                    &svc,
                    &batches,
                    &mut next_batch,
                    period,
                    start,
                    until,
                    rep_span.id(),
                )
            });
            let outs: Vec<ClientOut> = handles
                .into_iter()
                .map(|h| h.join().expect("query client panicked"))
                .collect();
            (outs, ingested)
        });
        measured += start.elapsed();
        let (outs, ingested) = outs;
        for out in outs {
            report.absorb(out.report);
            queries.extend(out.queries);
        }
        for q in &queries[first_query..] {
            engine_reads.add(&q.run);
        }
        if let Some((r, samples)) = ingested {
            report.absorb(r);
            batch_samples.extend(samples);
        }
        if ingest {
            // The rep ends with the final BFS before and after folding
            // every pending delta into a fresh image.
            let watermark = svc.watermark();
            let before = bfs_levels_of(&svc, hub, lcc_seed);
            report.op(before.is_ok(), || {
                format!("final bfs before compaction: {:?}", before.as_ref().err())
            });
            if let Ok((_, run)) = &before {
                engine_reads.add(run);
            }
            let span = tracer.begin("compact", rep_span.id());
            let mut fresh = None;
            let t = Instant::now();
            let res = svc.compact_with(|cap| {
                let a = new_array(cap, ctx.store_tracer())?;
                fresh = Some(a.clone());
                Ok(a)
            });
            compact_s.push(t.elapsed().as_secs_f64());
            tracer.end(span);
            report.op(res.is_ok(), || {
                format!("compaction: {:?}", res.as_ref().err())
            });
            let after = bfs_levels_of(&svc, hub, lcc_seed);
            report.op(after.is_ok(), || {
                format!("final bfs after compaction: {:?}", after.as_ref().err())
            });
            if let Ok((_, run)) = &after {
                engine_reads.add(run);
            }
            if let Some(a) = fresh {
                compact_written.push(a.stats().snapshot().bytes_written as f64);
                arrays.push(a);
            }
            finals.push(RepFinal {
                watermark,
                before: before.ok().map(|(l, _)| l),
                after: after.ok().map(|(l, _)| l),
            });
        }
        peak_heap.end_rep();
        // Reads of the rep on every array it used: the serving image,
        // and any image its compaction wrote (counted from zero).
        let mut deltas = arrays.iter().enumerate().map(|(i, a)| {
            let now = a.stats().snapshot();
            match io0.get(i) {
                Some(before) => now.delta_since(before),
                None => now,
            }
        });
        let mut io = deltas.next().expect("the serving array");
        deltas.for_each(|d| io.absorb(&d));
        let rep_id = rep_span.id();
        tracer.end(rep_span);
        let store_read_ns = traced.then(|| {
            let d = tracer.device_totals(rep_id);
            report.check(d.bytes == io.bytes_read, || {
                format!(
                    "rep {rep}: device spans hold {} bytes, IoStats read {}",
                    d.bytes, io.bytes_read
                )
            });
            d.ns
        });
        device.push(DeviceSample {
            io,
            engine: engine_reads,
            direct_bytes: tracer.direct_read_bytes() - direct0,
            store_read_ns,
        });
    }
    tracer.set_enabled(ctx.traced);

    if ingest {
        check_ingest(
            report,
            &u,
            &batches,
            &batch_samples,
            &queries,
            &finals,
            hub,
            lcc_seed,
        )?;
    } else {
        check_serve_traversals(report, &u, &queries);
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let of_kind = |point: bool| -> Vec<&QuerySample> {
        queries
            .iter()
            .filter(|q| matches!(q.query, Query::Point(_)) == point)
            .collect()
    };
    let (points, traversals) = (of_kind(true), of_kind(false));
    if ingest {
        let calls: Vec<f64> = batch_samples.iter().map(|b| ms(b.call_ns)).collect();
        let late = batch_samples.iter().map(|b| b.late_ns).max().unwrap_or(0);
        let busy: f64 = calls.iter().sum::<f64>() / 1e3;
        eprintln!(
            "fgbench: ingest calls: p50 {:.3} ms, {:.1} % of the measured time; \
             the client ran at most {:.3} ms late",
            median(&calls),
            100.0 * busy / measured.as_secs_f64(),
            ms(late)
        );
    }
    if ctx.traced {
        let runs = |qs: &[&QuerySample]| qs.iter().map(|q| q.run.clone()).collect::<Vec<_>>();
        engine_layer(report, &[runs(&points), runs(&traversals)], QUERY_WORKERS);
        device_layer(report, &device);
        let waits: Vec<f64> = queries.iter().map(|q| ms(q.run.queue_wait_ns)).collect();
        let exec: Vec<f64> = queries
            .iter()
            .map(|q| q.run.elapsed.as_secs_f64() * 1e3)
            .collect();
        serve_layer(report, &waits, &exec, svc.stats().peak_inflight);
        let pending = batch_samples
            .iter()
            .map(|b| b.pending_ops)
            .max()
            .unwrap_or(0);
        let direct: Vec<f64> = device.iter().map(|d| d.direct_bytes as f64).collect();
        delta_layer(report, pending, &compact_written, &direct);
        let point_ms = |traced: bool| {
            median(
                &points
                    .iter()
                    .filter(|q| q.traced == traced)
                    .map(|q| ms(q.latency_ns))
                    .collect::<Vec<_>>(),
            )
        };
        report.metric(
            "trace.overhead_pct",
            (point_ms(true) / point_ms(false) - 1.0) * 100.0,
            "%",
        );
    } else {
        let latency = |name, qs: &[&QuerySample]| OpKind {
            name,
            latency_ms: qs.iter().map(|q| ms(q.latency_ns)).collect(),
        };
        let mut kinds = vec![latency("point", &points), latency("traversal", &traversals)];
        if ingest {
            kinds.push(OpKind {
                name: "ingest",
                latency_ms: batch_samples.iter().map(|b| ms(b.ack_ns)).collect(),
            });
            kinds.push(OpKind {
                name: "compact",
                latency_ms: compact_s.iter().map(|s| s * 1e3).collect(),
            });
        }
        op_metrics(report, &kinds, queries.len() as u64, measured.as_secs_f64());
        peak_heap.report(report);
    }
    Ok(())
}

/// Books every serve traversal as an operation: its levels must
/// match BFS on the base graph from its root. The oracle runs once
/// per distinct root, after the timed phase.
fn check_serve_traversals(report: &mut Report, base: &Graph, queries: &[QuerySample]) {
    let mut by_root: HashMap<VertexId, Vec<u64>> = HashMap::new();
    for q in queries {
        if let (Query::Traversal(r), Some(h)) = (q.query, q.levels_hash) {
            by_root.entry(r).or_default().push(h);
        }
    }
    for (root, hashes) in by_root {
        let want = levels_hash(&direct::bfs_levels(base, root));
        for h in hashes {
            report.op(h == want, || {
                format!("bfs from {root} differs from the oracle")
            });
        }
    }
}

/// Verifies the ingest workload after the fact, against a replica
/// log fed the same batches over the in-memory base graph: every
/// batch got the replica's watermark, each rep's final BFS (before
/// and after compaction) matches BFS on the union graph, and a sample
/// of the queries that saw a stable watermark match the in-memory
/// engine on that snapshot.
#[allow(clippy::too_many_arguments)]
fn check_ingest(
    report: &mut Report,
    base: &Graph,
    batches: &[DeltaBatch],
    sent: &[BatchSample],
    queries: &[QuerySample],
    finals: &[RepFinal],
    hub: VertexId,
    lcc_seed: u64,
) -> Result<()> {
    let replica = DeltaLog::for_graph(base);
    for b in sent {
        // Batches are sent in index order with none skipped.
        let w = replica.apply(base, &batches[b.index])?;
        report.check(w == b.watermark, || {
            format!(
                "batch {}: service watermark {}, replica {w}",
                b.index, b.watermark
            )
        });
    }
    let union_at = |w: u64| DeltaLog::union(base, &replica.view(w));
    for (rep, f) in finals.iter().enumerate() {
        let want = direct::bfs_levels(&union_at(f.watermark), hub);
        for (when, got) in [("before", &f.before), ("after", &f.after)] {
            report.check(got.as_ref() == Some(&want), || {
                format!("rep {rep}: final bfs {when} compaction differs from the union graph")
            });
        }
    }
    // A sample of the checkable queries, spread evenly over the run
    // (watermarks grow through it, so the sample spans many).
    let checkable: Vec<&QuerySample> = queries.iter().filter(|q| q.answer.is_some()).collect();
    let mut picked: Vec<&QuerySample> = Vec::new();
    for point in [true, false] {
        let of_kind: Vec<&QuerySample> = checkable
            .iter()
            .copied()
            .filter(|q| matches!(q.query, Query::Point(_)) == point)
            .collect();
        let want = finals.len()
            * if point {
                CHECKED_POINTS_PER_REP
            } else {
                CHECKED_TRAVERSALS_PER_REP
            };
        let step = (of_kind.len() / want.max(1)).max(1);
        picked.extend(of_kind.iter().step_by(step).take(want));
    }
    report.check(!picked.is_empty(), || {
        "no ingest query could be checked".into()
    });
    for q in picked {
        let w = q.watermark.expect("checkable queries carry a watermark");
        let union = union_at(w);
        let got = q
            .answer
            .as_ref()
            .expect("checkable queries keep their answer");
        let ok = match q.query {
            Query::Point(v) => {
                let mem = Engine::new_mem(&union, EngineConfig::default().with_threads(2));
                let (want, _) = fg_apps::lcc_of(&mem, &[v], LCC_K, lcc_seed)?;
                matches!(got, Answer::Lcc(x) if (x - want[v.index()]).abs() <= LCC_EPS)
            }
            Query::Traversal(r) => *got == Answer::Levels(direct::bfs_levels(&union, r)),
        };
        report.check(ok, || {
            format!(
                "{:?} at watermark {w} differs from the union graph",
                q.query
            )
        });
    }
    Ok(())
}
