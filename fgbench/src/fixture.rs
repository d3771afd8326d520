//! Set-up: generate the graph, write its image to a simulated paper
//! array, load the index, and mount SAFS — each step timed.

use std::sync::Arc;
use std::time::Instant;

use fg_format::{load_index, required_capacity_with, write_image_with, GraphIndex, WriteOptions};
use fg_graph::Graph;
use fg_safs::{Safs, SafsConfig};
use fg_ssdsim::{ArrayConfig, SsdArray};
use fg_types::Result;

use crate::report::Report;
use crate::stats::median;
use crate::trace::{TracedStore, Tracer};
use crate::Ctx;

/// Page cache as a share of the image: the paper's 1 GB cache for the
/// 13 GB Twitter image.
pub const CACHE_FRACTION: f64 = 1.0 / 13.0;

/// Full set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Seconds spent in each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub write_image_s: f64,
    pub load_index_s: f64,
    pub mount_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.write_image_s + self.load_index_s + self.mount_s
    }
}

/// A mounted image.
pub struct Mounted {
    pub safs: Safs,
    pub index: GraphIndex,
}

/// A zeroed array on the paper's geometry; its store records device
/// spans into `tracer` when the run is traced.
///
/// # Errors
///
/// Propagates array configuration errors.
pub fn new_array(capacity: u64, tracer: Option<&Arc<Tracer>>) -> Result<SsdArray> {
    let cfg = ArrayConfig::paper_array();
    let capacity = capacity.max(cfg.page_bytes);
    match tracer {
        Some(t) => SsdArray::with_store(
            cfg,
            Box::new(TracedStore::new(capacity, cfg.page_bytes, Arc::clone(t))),
        ),
        None => SsdArray::new_mem(cfg, capacity),
    }
}

/// Writes `g`'s image, loads its index and mounts it with a
/// [`CACHE_FRACTION`] page cache, adding each step's time to `times`
/// and a `setup.*` span per step under `parent`.
///
/// # Errors
///
/// Propagates image and SAFS errors.
pub fn mount(g: &Graph, ctx: &Ctx, parent: u64, times: &mut SetupTimes) -> Result<Mounted> {
    let tracer = &ctx.tracer;
    tracer.set_device_parent(parent);
    let opts = WriteOptions::default();
    let span = tracer.begin("setup.write_image", parent);
    let t = Instant::now();
    let array = new_array(required_capacity_with(g, &opts), ctx.store_tracer())?;
    let meta = write_image_with(g, &array, &opts)?;
    times.write_image_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    let span = tracer.begin("setup.load_index", parent);
    let t = Instant::now();
    let (_, index) = load_index(&array)?;
    times.load_index_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    let span = tracer.begin("setup.mount", parent);
    let t = Instant::now();
    let cache_bytes = (meta.total_bytes as f64 * CACHE_FRACTION) as u64;
    let safs = Safs::new(SafsConfig::default().with_cache_bytes(cache_bytes), array)?;
    times.mount_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    safs.reset_stats();
    Ok(Mounted { safs, index })
}

/// Runs the whole set-up [`SETUP_REPS`] times — `generate` makes the
/// graph, then it is written, indexed and mounted — and keeps the
/// last result. An earlier set-up is dropped (unmounted) before the
/// next one starts.
///
/// # Errors
///
/// Propagates image and SAFS errors.
pub fn set_up(
    ctx: &Ctx,
    generate: impl Fn() -> Graph,
) -> Result<(Graph, Mounted, Vec<SetupTimes>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let span = ctx.tracer.begin("setup", ctx.root);
        let mut t = SetupTimes::default();
        let gen = ctx.tracer.begin("setup.generate", span.id());
        let start = Instant::now();
        let g = generate();
        t.generate_s = start.elapsed().as_secs_f64();
        ctx.tracer.end(gen);
        let m = mount(&g, ctx, span.id(), &mut t)?;
        ctx.tracer.end(span);
        times.push(t);
        last = Some((g, m));
    }
    let (g, m) = last.expect("SETUP_REPS is positive");
    Ok((g, m, times))
}

/// Reports the set-up: `setup_s` (median total) in an untraced run,
/// the median of each step in a traced one.
pub fn report_setup(report: &mut Report, ctx: &Ctx, times: &[SetupTimes]) {
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    if ctx.traced {
        report.metric("graph.generate_s", med(|t| t.generate_s), "s");
        report.metric("format.write_image_s", med(|t| t.write_image_s), "s");
        report.metric("format.load_index_s", med(|t| t.load_index_s), "s");
        report.metric("safs.mount_s", med(|t| t.mount_s), "s");
    } else {
        report.metric("setup_s", med(SetupTimes::total), "s");
    }
}
