//! What a run reports: operation counts, failures, and named metrics,
//! printed as the one-line JSON result.

use fg_ssdsim::IoStatsSnapshot;
use flashgraph::RunStats;

use crate::heap;
use crate::json::Json;
use crate::stats::{geomean, highest_percentile, median, percentile, quantile};

/// Counts, failures and metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed operation or check, in order.
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Books one operation; a failed one (error or wrong answer) adds
    /// `what()` to the errors.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Books a failed whole-run check (not an operation).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Folds a client thread's counts into this report.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.metrics.extend(other.metrics);
    }

    /// Records metric `name`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Whether every answer matched its oracle and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The metrics recorded so far, in order.
    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// The result line.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.metrics {
            metrics.push(name, Json::obj().with("value", *value).with("unit", *unit));
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        f64::NAN
    } else {
        a as f64 / b as f64
    }
}

/// Latencies of one kind of operation a workload's clients issue (an
/// app, a query kind, an ingest batch, a compaction), in ms.
#[derive(Debug, Default)]
pub struct OpKind {
    pub name: &'static str,
    pub latency_ms: Vec<f64>,
}

impl OpKind {
    pub fn new(name: &'static str) -> OpKind {
        OpKind {
            name,
            latency_ms: Vec::new(),
        }
    }
}

/// The end-to-end latency and throughput of a workload, defined the
/// same way on every workload: `op_ms` is the geometric mean, over
/// the workload's operation kinds, of each kind's median latency;
/// `ops_per_s` is `ops` completed operations over `busy_s`, the time
/// the clients spent issuing them. A kind without samples fails the
/// run.
pub fn op_metrics(report: &mut Report, kinds: &[OpKind], ops: u64, busy_s: f64) {
    let mut medians = Vec::with_capacity(kinds.len());
    for k in kinds {
        report.check(!k.latency_ms.is_empty(), || {
            format!("no {} operation was measured", k.name)
        });
        let m = median(&k.latency_ms);
        let tail = highest_percentile(k.latency_ms.len())
            .filter(|&p| p > 0.5)
            .and_then(|p| Some((p, percentile(&k.latency_ms, p)?)))
            .map_or(String::new(), |(p, v)| {
                format!(", p{} {v:.3} ms", p * 100.0)
            });
        eprintln!(
            "fgbench: {} latency over {} samples: p50 {m:.3} ms{tail}",
            k.name,
            k.latency_ms.len()
        );
        medians.push(m);
    }
    report.metric("op_ms", geomean(&medians), "ms");
    report.metric("ops_per_s", ops as f64 / busy_s, "1/s");
}

/// The engine layer of the semi-external runs of a workload, one list
/// per operation kind: each figure is the sum, over the kinds, of the
/// kind's median (one operation of each kind), so every workload
/// reports the same names. `other_ms` is the rest of the workers'
/// time (`threads × wall − compute − wait`: scheduler and ready-pool
/// contention); `ns_per_edge` and `merge_ratio` are taken from the
/// summed medians.
pub fn engine_layer(report: &mut Report, kinds: &[Vec<RunStats>], threads: usize) {
    let sum = |f: &dyn Fn(&RunStats) -> f64| {
        kinds
            .iter()
            .map(|runs| median(&runs.iter().map(f).collect::<Vec<_>>()))
            .sum::<f64>()
    };
    let wall_ns = |r: &RunStats| r.elapsed.as_nanos() as f64;
    let wall = sum(&wall_ns);
    let edges = sum(&|r| r.edges_delivered as f64);
    let issued = sum(&|r| r.issued_requests as f64);
    let metrics: [(&str, f64, &'static str); 8] = [
        ("wall_ms", wall / 1e6, "ms"),
        ("compute_ms", sum(&|r| r.compute_ns as f64) / 1e6, "ms"),
        ("io_wait_ms", sum(&|r| r.wait_ns as f64) / 1e6, "ms"),
        (
            "other_ms",
            sum(&|r| threads as f64 * wall_ns(r) - r.compute_ns as f64 - r.wait_ns as f64) / 1e6,
            "ms",
        ),
        ("ns_per_edge", wall / edges, "ns"),
        ("edges_delivered", edges, "count"),
        ("issued_requests", issued, "count"),
        (
            "merge_ratio",
            sum(&|r| r.engine_requests as f64) / issued,
            "ratio",
        ),
    ];
    for (name, value, unit) in metrics {
        report.metric(format!("engine.{name}"), value, unit);
    }
}

/// Engine-side reads: the bytes engine runs asked for and their own
/// page-cache lookups. A run's `RunStats::cache` counts only its own
/// sessions, so the sum is exact on a shared mount and across a
/// compaction's swap of mounts.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineReads {
    pub bytes_requested: u64,
    pub hits: u64,
    pub lookups: u64,
}

impl EngineReads {
    pub fn add(&mut self, run: &RunStats) {
        self.bytes_requested += run.bytes_requested;
        if let Some(c) = run.cache {
            self.hits += c.hits;
            self.lookups += c.lookups;
        }
    }
}

/// One measured rep of device and cache activity: the array's
/// statistics delta, the engine's reads, and the device-span time the
/// traced store saw.
#[derive(Debug, Clone)]
pub struct DeviceSample {
    pub io: IoStatsSnapshot,
    pub engine: EngineReads,
    /// Device bytes of reads issued outside the engine (ingest
    /// canonicalization, a compaction's read of the old image); they
    /// count in `io` but not in the read amplification.
    pub direct_bytes: u64,
    /// Summed device-read span time (traced samples only).
    pub store_read_ns: Option<u64>,
}

/// The ssdsim and safs layers of `samples`, one per rep (medians).
pub fn device_layer(report: &mut Report, samples: &[DeviceSample]) {
    let med = |f: &dyn Fn(&DeviceSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    report.metric("ssdsim.bytes_read", med(&|s| s.io.bytes_read as f64), "B");
    report.metric(
        "ssdsim.read_requests",
        med(&|s| s.io.read_requests as f64),
        "count",
    );
    report.metric("ssdsim.busy_max_ms", med(&|s| ms(s.io.max_busy_ns)), "ms");
    let traced: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.store_read_ns.map(ms))
        .collect();
    report.metric("ssdsim.store_read_ms", median(&traced), "ms");
    report.metric(
        "safs.cache_hit_rate",
        med(&|s| ratio(s.engine.hits, s.engine.lookups)),
        "ratio",
    );
    report.metric(
        "safs.read_amp",
        med(&|s| {
            ratio(
                s.io.bytes_read.saturating_sub(s.direct_bytes),
                s.engine.bytes_requested,
            )
        }),
        "ratio",
    );
    report.metric("safs.dedup_hits", med(&|s| s.io.dedup_hits as f64), "count");
}

/// The serve layer: admission waits and engine execution times of
/// every operation that went through the service, and the most
/// operations it ever ran at once. The p99 is the nearest-rank one
/// (the largest wait below 100 operations): a per-layer figure, kept
/// for every workload whatever its operation count.
pub fn serve_layer(report: &mut Report, wait_ms: &[f64], exec_ms: &[f64], peak_inflight: usize) {
    report.metric("serve.queue_wait_p50_ms", median(wait_ms), "ms");
    report.metric("serve.queue_wait_p99_ms", quantile(wait_ms, 0.99), "ms");
    report.metric("serve.exec_p50_ms", median(exec_ms), "ms");
    report.metric("serve.peak_inflight", peak_inflight as f64, "count");
}

/// The delta layer: the most mutations ever pending, the bytes each
/// compaction wrote (median), and the device bytes read outside the
/// engine per rep (median). All three are 0 on workloads that ingest
/// nothing.
pub fn delta_layer(report: &mut Report, pending_max: u64, compact_written: &[f64], direct: &[f64]) {
    let med0 = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    report.metric("delta.pending_ops_max", pending_max as f64, "count");
    report.metric("delta.compact_bytes_written", med0(compact_written), "B");
    report.metric("delta.direct_read_bytes", med0(direct), "B");
}

/// The peak live heap of each measured rep (see [`crate::heap`]):
/// reset before the rep, read after it.
#[derive(Debug, Default)]
pub struct PeakHeap {
    peaks: Vec<f64>,
    /// Live heap at the start of each rep (a diagnostic: growth from
    /// rep to rep is memory the program keeps).
    live: Vec<f64>,
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

impl PeakHeap {
    /// Call right before a measured rep.
    pub fn start_rep(&mut self) {
        heap::reset_peak();
        self.live.push(mib(heap::live_bytes()));
    }

    /// Call right after it.
    pub fn end_rep(&mut self) {
        self.peaks.push(mib(heap::peak_bytes()));
    }

    /// Reports `peak_heap_mb`, the mean of the reps' peaks, and
    /// prints each rep's starting live heap and peak to standard error.
    /// A mean, not a median: on triangles each rep's peak is set by
    /// how many edge lists happen to be in flight at once, and spreads
    /// roughly evenly from 140 to 250 MiB; over the six or seven reps
    /// of a run the mean varied about two thirds as much from run to
    /// run as the median did.
    pub fn report(&self, report: &mut Report) {
        let list = |xs: &[f64]| xs.iter().map(|x| format!(" {x:.1}")).collect::<String>();
        eprintln!("fgbench: live heap at rep start (MiB):{}", list(&self.live));
        eprintln!("fgbench: peak heap per rep (MiB):{}", list(&self.peaks));
        let mean = self.peaks.iter().sum::<f64>() / self.peaks.len() as f64;
        report.metric("peak_heap_mb", mean, "MiB");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.op(true, || unreachable!());
        r.op(false, || "wrong answer".into());
        r.metric("setup_s", 0.25, "s");
        let line = r.to_json().to_string();
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(back.get("attempted"), Some(&Json::Num(2.0)));
        assert_eq!(back.get("failed"), Some(&Json::Num(1.0)));
        let m = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value"), Some(&Json::Num(0.25)));
        assert_eq!(m.get("unit"), Some(&Json::Str("s".into())));
    }

    #[test]
    fn failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.op(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "bytes differ".into());
        assert!(!r.correct());
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn op_metrics_are_the_geomean_of_kind_medians() {
        let mut r = Report::default();
        let kinds = [
            OpKind {
                name: "a",
                latency_ms: vec![100.0, 1.0, 2.0],
            },
            OpKind {
                name: "b",
                latency_ms: vec![8.0],
            },
        ];
        op_metrics(&mut r, &kinds, 4, 2.0);
        let got: Vec<(&str, f64)> = r
            .metrics()
            .iter()
            .map(|(n, v, _)| (n.as_str(), *v))
            .collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "op_ms");
        assert!((got[0].1 - 4.0).abs() < 1e-9, "geomean of medians 2 and 8");
        assert_eq!(got[1], ("ops_per_s", 2.0));
        assert!(r.correct());
        op_metrics(&mut r, &[OpKind::new("c")], 0, 1.0);
        assert!(!r.correct(), "a kind without samples fails the run");
    }

    #[test]
    fn peak_heap_is_the_mean_of_rep_peaks() {
        let mut p = PeakHeap::default();
        for _ in 0..3 {
            p.start_rep();
            let v = vec![1u8; 4 << 20];
            p.end_rep();
            drop(v);
        }
        let mut r = Report::default();
        p.report(&mut r);
        let (name, value, unit) = &r.metrics()[0];
        assert_eq!((name.as_str(), *unit), ("peak_heap_mb", "MiB"));
        assert!(*value >= 4.0, "{value}");
    }
}
