//! `pimdsm-simbench`: the simulator's own benchmark.
//!
//! ```text
//! pimdsm-simbench --workload <svc-serve|report-io> --seed N --seconds S [--spans FILE]
//! ```
//!
//! Runs the named workload in passes, one point after another on one
//! thread, until the timed part of the passes adds up to `S` seconds of
//! host time (at least one pass). Each host time is the median over
//! passes, taken per point and summed over points. Outputs are verified
//! outside the timed region: a coherence sweep after every point of the
//! first pass, the first pass's exact counts repeated in every later one,
//! lossless report and trace round trips, and with seed 0 equality with
//! the committed `results/fig-svc.json` runs.
//!
//! Host times are reported at a reference host speed: a fixed kernel (in a
//! process of its own, see `refspeed`) runs before and after every point
//! and the documents, and each point's host times are scaled by the
//! geometric mean of the two samples' factors. A host that slows down
//! slows the kernel with the simulator, and the scale cancels it; a change
//! to the simulator does not touch the kernel.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `passes`, and the `end_to_end` and `per_layer` metric maps
//! (`{"name": {"value": v, "unit": u}}`). The traced build (feature
//! `traced`) adds allocation counts and `next_op` time; `--spans FILE`
//! writes the recorded host-time spans as a Chrome trace.
//!
//! The simulator is driven through its public API only: workload and
//! service builders, `Machine::build`/`run`/`check_coherence`,
//! `RunReport::to_json`/`from_json`, `pimdsm_obs::json::parse`,
//! `Tracer::to_chrome_json` and `pimdsm_prof` counter snapshots.

mod refspeed;
mod spans;
mod wrap;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;

use pimdsm::{ArchSpec, Machine, RunReport};
use pimdsm_engine::stats::Histogram;
use pimdsm_obs::{json, JsonValue, ToJson, Tracer};
use pimdsm_prof::counters::{self, Snapshot};
use pimdsm_prof::AllocTotals;
use pimdsm_svc::SvcSpec;
use pimdsm_workloads::{build, AppId, Scale, Workload};

use refspeed::Reference;
use spans::Spans;
use wrap::{Permuted, Tally};

/// Application threads of the simulation workloads (the lab default).
const THREADS: usize = 32;
/// Application threads of the `report-io` sweep.
const IO_THREADS: usize = 16;

#[derive(Clone, Copy)]
enum Source {
    App(AppId),
    Svc(SvcSpec),
}

/// One simulation point.
struct Point {
    source: Source,
    threads: usize,
    scale: Scale,
    arch: ArchSpec,
    label: String,
    /// Epoch length of the report's epoch series, if sampled.
    epoch: Option<u64>,
    /// Whether the run records a Chrome trace.
    chrome: bool,
}

/// The machine configurations used here, named as in the lab suites.
#[derive(Clone, Copy)]
enum Cfg {
    Numa,
    Coma75,
    Agg75 { ratio: usize },
}

impl Cfg {
    fn label(self) -> String {
        match self {
            Cfg::Numa => "NUMA".into(),
            Cfg::Coma75 => "COMA75".into(),
            Cfg::Agg75 { ratio } => format!("1/{ratio}AGG75"),
        }
    }

    fn arch(self, threads: usize) -> ArchSpec {
        match self {
            Cfg::Numa => ArchSpec::Numa,
            Cfg::Coma75 => ArchSpec::Coma,
            Cfg::Agg75 { ratio } => ArchSpec::Agg {
                n_d: (threads / ratio).max(1),
            },
        }
    }
}

fn point(source: Source, threads: usize, scale: Scale, cfg: Cfg, label: String) -> Point {
    Point {
        source,
        threads,
        scale,
        arch: cfg.arch(threads),
        label,
        epoch: None,
        chrome: false,
    }
}

/// Four `fig-svc` workloads on its three machines: 12 points.
fn svc_serve() -> Vec<Point> {
    let kv = |open_loop| SvcSpec::Kv {
        threads: THREADS,
        theta_milli: 900,
        write_pct: 10,
        open_loop,
    };
    let specs = [
        ("kv-0.9", kv(false)),
        ("kv-open", kv(true)),
        ("bfs", SvcSpec::Bfs { threads: THREADS }),
        (
            "stream-offload",
            SvcSpec::Stream {
                threads: THREADS,
                offload: true,
            },
        ),
    ];
    let mut points = Vec::new();
    for cfg in [Cfg::Numa, Cfg::Coma75, Cfg::Agg75 { ratio: 1 }] {
        for (tag, spec) in specs {
            let label = format!("{} {tag}", cfg.label());
            points.push(point(
                Source::Svc(spec),
                THREADS,
                Scale::bench(),
                cfg,
                label,
            ));
        }
    }
    points
}

/// Epoch length of the `report-io` sweep's series.
const IO_EPOCH: u64 = 1_300;

/// A small CI-scale sweep with epoch series (its reports form the suite
/// document) plus one traced point (its Chrome trace).
fn report_io() -> Vec<Point> {
    let mut points = Vec::new();
    for app in [AppId::Fft, AppId::Radix, AppId::Ocean] {
        for cfg in [Cfg::Numa, Cfg::Coma75, Cfg::Agg75 { ratio: 1 }] {
            let mut p = point(Source::App(app), IO_THREADS, Scale::ci(), cfg, cfg.label());
            p.epoch = Some(IO_EPOCH);
            points.push(p);
        }
    }
    points.push(trace_point());
    points
}

/// Barnes on one thread at 1/96 size, traced: a Chrome trace of 433 KB.
/// With one thread the seed's permutation cannot change the trace, so the
/// parse, whose time grows with the square of the size, gets the same
/// input under every seed.
fn trace_point() -> Point {
    let tiny = Scale {
        size_div: 96,
        iter_div: 96,
    };
    let mut p = point(
        Source::App(AppId::Barnes),
        1,
        tiny,
        Cfg::Agg75 { ratio: 1 },
        "trace".into(),
    );
    p.chrome = true;
    p
}

/// Host times of one point in one pass.
#[derive(Clone, Copy, Default)]
struct Times {
    workload_build_s: f64,
    machine_build_s: f64,
    run_s: f64,
    next_op_s: f64,
    /// The whole point, verification excluded.
    wall_s: f64,
}

impl Times {
    fn scaled(self, k: f64) -> Times {
        Times {
            workload_build_s: self.workload_build_s * k,
            machine_build_s: self.machine_build_s * k,
            run_s: self.run_s * k,
            next_op_s: self.next_op_s * k,
            wall_s: self.wall_s * k,
        }
    }

    /// Field-wise median over passes: a burst of host noise in one
    /// point of one pass is dropped instead of slowing that whole pass.
    fn median(passes: &[Times]) -> Times {
        let med = |f: fn(&Times) -> f64| median(&mut passes.iter().map(f).collect::<Vec<_>>());
        Times {
            workload_build_s: med(|t| t.workload_build_s),
            machine_build_s: med(|t| t.machine_build_s),
            run_s: med(|t| t.run_s),
            next_op_s: med(|t| t.next_op_s),
            wall_s: med(|t| t.wall_s),
        }
    }
}

/// What one point's run produced.
struct PointRun {
    report: RunReport,
    tracer: Option<Tracer>,
    t: Times,
    verify_s: f64,
    ops: u64,
    accesses: u64,
    counters: Snapshot,
    build_allocs: AllocTotals,
    run_allocs: AllocTotals,
}

fn alloc_delta(before: AllocTotals, after: AllocTotals) -> AllocTotals {
    AllocTotals {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        ..AllocTotals::default()
    }
}

/// Builds and runs one point; `check` runs the coherence sweep after it.
fn run_point(p: &Point, seed: u64, check: bool, spans: &mut Spans) -> PointRun {
    let tally = Rc::new(Tally::default());
    let point_span = spans.open("point");

    let s = spans.open("workload.build");
    let inner = match p.source {
        Source::App(app) => build(app, p.threads, p.scale),
        Source::Svc(spec) => spec.build(p.scale),
    };
    let workload: Box<dyn Workload> = Box::new(Permuted::new(inner, seed, Rc::clone(&tally)));
    let workload_build_s = spans.close(s);

    let s = spans.open("machine.build");
    let a0 = pimdsm_prof::alloc::totals();
    let mut machine = Machine::build(p.arch, workload, 0.75).with_label(p.label.clone());
    let build_allocs = alloc_delta(a0, pimdsm_prof::alloc::totals());
    let machine_build_s = spans.close(s);
    if let Some(e) = p.epoch {
        machine.sample_epochs(e);
    }
    let tracer = p.chrome.then(|| {
        let t = Tracer::enabled();
        machine.attach_tracer(t.clone());
        t
    });

    tally.reset();
    let s = spans.open("machine.run");
    let a0 = pimdsm_prof::alloc::totals();
    let (report, counters) = counters::scoped(|| machine.run());
    let run_allocs = alloc_delta(a0, pimdsm_prof::alloc::totals());
    let run_s = spans.close(s);
    spans.aggregate(s, "next_op", tally.next_op_ns.get());

    let s = spans.open("verify");
    if check {
        machine.check_coherence();
    }
    let verify_s = spans.close(s);

    drop(machine);
    let point_s = spans.close(point_span);
    PointRun {
        report,
        tracer,
        t: Times {
            workload_build_s,
            machine_build_s,
            run_s,
            next_op_s: tally.next_op_ns.get() as f64 * 1e-9,
            wall_s: point_s - verify_s,
        },
        verify_s,
        ops: tally.ops.get(),
        accesses: tally.accesses.get(),
        counters,
        build_allocs,
        run_allocs,
    }
}

/// Metric values with their units.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.entry(name.into()).or_insert((0.0, unit)).0 += value;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulation metrics of the points, whose times are already the
/// per-point medians over passes.
fn sim_metrics(runs: &[PointRun], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&PointRun) -> u64| runs.iter().map(f).sum::<u64>();
    let sum_s = |f: &dyn Fn(&PointRun) -> f64| runs.iter().map(f).sum::<f64>();

    let accesses = sum(&|r| r.accesses);
    let ops = sum(&|r| r.ops);
    let run_s = sum_s(&|r| r.t.run_s);
    let next_op_s = sum_s(&|r| r.t.next_op_s);
    let mut ctr = Snapshot::default();
    for r in runs {
        ctr.merge(&r.counters);
    }
    let sim_cycles = sum(&|r| r.report.total_cycles);
    let p = |f: &dyn Fn(&RunReport) -> u64| sum(&|r| f(&r.report));
    let reads = |lvl: usize| p(&|r| r.proto.reads_by_level[lvl]);
    let messages = p(&|r| r.net.messages);
    let mut latency = Histogram::new();
    for r in runs {
        if let Some(s) = &r.report.svc {
            latency.merge(&s.latency);
        }
    }

    m.put("accesses_per_s", ratio(accesses as f64, run_s), "1/s");
    m.put("sim_cycles", sim_cycles as f64, "cycles");

    m.put("workloads.build_s", sum_s(&|r| r.t.workload_build_s), "s");
    m.put("workloads.ops", ops as f64, "count");
    m.put("workloads.accesses", accesses as f64, "count");
    m.put("workloads.next_op_s", next_op_s, "s");

    m.put("core.build_s", sum_s(&|r| r.t.machine_build_s), "s");
    m.put(
        "core.build_allocs",
        sum(&|r| r.build_allocs.allocs) as f64,
        "count",
    );
    m.put(
        "core.build_alloc_mb",
        sum(&|r| r.build_allocs.bytes) as f64 / (1 << 20) as f64,
        "MB",
    );
    m.put("core.run_s", run_s, "s");
    m.put("core.run_self_s", run_s - next_op_s, "s");
    m.put(
        "core.run_ns_per_access",
        ratio(run_s * 1e9, accesses as f64),
        "ns",
    );
    m.put(
        "core.run_allocs",
        sum(&|r| r.run_allocs.allocs) as f64,
        "count",
    );
    for arch in ["NUMA", "COMA", "AGG"] {
        m.put(format!("core.build_s.{arch}"), 0.0, "s");
        m.put(format!("core.run_s.{arch}"), 0.0, "s");
    }
    for r in runs {
        m.add(
            format!("core.build_s.{}", r.report.arch),
            r.t.machine_build_s,
            "s",
        );
        m.add(format!("core.run_s.{}", r.report.arch), r.t.run_s, "s");
    }

    m.put("engine.events", ctr.engine_events() as f64, "count");
    m.put("engine.queue_peak", ctr.engine_queue_peak() as f64, "count");
    m.put(
        "engine.events_per_access",
        ratio(ctr.engine_events() as f64, accesses as f64),
        "ratio",
    );

    m.put("proto.txn_walks", ctr.txn_walks() as f64, "count");
    m.put("proto.txn_steps", ctr.txn_steps() as f64, "count");
    m.put(
        "proto.steps_per_walk",
        ratio(ctr.txn_steps() as f64, ctr.txn_walks() as f64),
        "ratio",
    );
    m.put(
        "proto.walk_ratio",
        ratio(ctr.txn_walks() as f64, accesses as f64),
        "ratio",
    );
    for (lvl, name) in ["FLC", "SLC", "Memory", "2Hop", "3Hop"].iter().enumerate() {
        m.put(format!("proto.reads.{name}"), reads(lvl) as f64, "count");
    }
    for (name, v) in [
        ("proto.remote_writes", p(&|r| r.proto.remote_writes)),
        ("proto.invalidations", p(&|r| r.proto.invalidations)),
        ("proto.write_backs", p(&|r| r.proto.write_backs)),
        ("proto.injections", p(&|r| r.proto.injections)),
        ("proto.page_outs", p(&|r| r.proto.page_outs)),
        ("proto.disk_faults", p(&|r| r.proto.disk_faults)),
    ] {
        m.put(name, v as f64, "count");
    }
    m.put(
        "proto.controller_util",
        ratio(
            runs.iter().map(|r| r.report.controller_util).sum(),
            runs.len() as f64,
        ),
        "ratio",
    );

    m.put("net.messages", messages as f64, "count");
    m.put("net.bytes", p(&|r| r.net.bytes) as f64, "bytes");
    m.put(
        "net.queueing_cycles",
        p(&|r| r.net.total_queueing) as f64,
        "cycles",
    );
    m.put(
        "net.link_busy_cycles",
        p(&|r| r.link_busy.0) as f64,
        "cycles",
    );
    m.put(
        "net.messages_per_access",
        ratio(messages as f64, accesses as f64),
        "ratio",
    );

    let svc = |f: &dyn Fn(&pimdsm_svc::SvcStats) -> u64| p(&|r| r.svc.as_ref().map_or(0, f));
    m.put("svc.requests", svc(&|s| s.requests) as f64, "count");
    m.put("svc.p50_cycles", latency.percentile(50.0), "cycles");
    m.put("svc.p99_cycles", latency.percentile(99.0), "cycles");
    m.put(
        "svc.queued_cycles",
        svc(&|s| s.queued_cycles) as f64,
        "cycles",
    );
}

/// The values every pass must reproduce exactly.
fn exact_values(runs: &[PointRun]) -> Vec<(String, u64)> {
    let mut exact = Vec::new();
    for r in runs {
        let key = format!("{}:{}", r.report.app, r.report.label);
        let p = &r.report.proto;
        for (name, v) in [
            ("cycles", r.report.total_cycles),
            ("ops", r.ops),
            ("accesses", r.accesses),
            ("engine events", r.counters.engine_events()),
            ("queue peak", r.counters.engine_queue_peak()),
            ("txn walks", r.counters.txn_walks()),
            ("txn steps", r.counters.txn_steps()),
            ("reads", p.total_reads()),
            ("remote writes", p.remote_writes),
            ("invalidations", p.invalidations),
            ("write backs", p.write_backs),
            ("injections", p.injections),
            ("page outs", p.page_outs),
            ("disk faults", p.disk_faults),
            ("messages", r.report.net.messages),
        ] {
            exact.push((format!("{key} {name}"), v));
        }
    }
    exact
}

/// Host time of the report and trace round trips.
#[derive(Clone, Copy, Default)]
struct ObsRun {
    render_s: f64,
    parse_s: f64,
    from_json_s: f64,
    trace_export_s: f64,
    doc_bytes: usize,
    trace_bytes: usize,
}

impl ObsRun {
    fn scale(&mut self, k: f64) {
        self.render_s *= k;
        self.parse_s *= k;
        self.from_json_s *= k;
        self.trace_export_s *= k;
    }

    /// Field-wise median over passes (the sizes repeat exactly).
    fn median(passes: &[ObsRun]) -> ObsRun {
        let med = |f: fn(&ObsRun) -> f64| median(&mut passes.iter().map(f).collect::<Vec<_>>());
        ObsRun {
            render_s: med(|o| o.render_s),
            parse_s: med(|o| o.parse_s),
            from_json_s: med(|o| o.from_json_s),
            trace_export_s: med(|o| o.trace_export_s),
            ..passes[0]
        }
    }

    fn record(&self, m: &mut Metrics) {
        let bytes = (self.doc_bytes + self.trace_bytes) as f64;
        m.put("obs.render_s", self.render_s, "s");
        m.put("obs.parse_s", self.parse_s, "s");
        m.put(
            "obs.parse_mb_per_s",
            ratio(bytes / 1e6, self.parse_s),
            "MB/s",
        );
        m.put("obs.from_json_s", self.from_json_s, "s");
        m.put("obs.trace_export_s", self.trace_export_s, "s");
        m.put("obs.doc_bytes", self.doc_bytes as f64, "bytes");
        m.put("obs.trace_bytes", self.trace_bytes as f64, "bytes");
    }
}

/// Renders `reports` as one suite document, parses it and rebuilds every
/// report; the rebuilt reports must render identically (checked outside
/// the timed spans).
fn report_round_trip(
    reports: &[&RunReport],
    spans: &mut Spans,
    o: &mut ObsRun,
) -> Result<(), String> {
    let s = spans.open("obs.render");
    let doc = JsonValue::obj([
        ("bin", JsonValue::str("simbench")),
        ("runs", JsonValue::arr(reports.iter().map(|r| r.to_json()))),
    ])
    .render_pretty();
    o.render_s += spans.close(s);
    o.doc_bytes += doc.len();

    let s = spans.open("obs.parse");
    let parsed = json::parse(&doc);
    o.parse_s += spans.close(s);
    let parsed = parsed?;
    let runs = parsed
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or("suite document has no runs")?;

    let s = spans.open("obs.from_json");
    let back: Result<Vec<RunReport>, String> = runs.iter().map(RunReport::from_json).collect();
    o.from_json_s += spans.close(s);

    // `from_json` does not restore epoch series, so those are compared
    // as parsed.
    let s = spans.open("verify");
    let back = back?;
    let without_epochs = |r: &RunReport| match r.to_json() {
        JsonValue::Obj(mut o) => {
            o.remove("epochs");
            JsonValue::Obj(o)
        }
        v => v,
    };
    let same = back.len() == reports.len()
        && runs.iter().zip(reports).all(|(p, r)| *p == r.to_json())
        && back
            .iter()
            .zip(reports)
            .all(|(b, r)| b.to_json() == without_epochs(r));
    spans.close(s);
    if same {
        Ok(())
    } else {
        Err("report round trip changed a report".into())
    }
}

/// Exports `tracer` as a Chrome trace and parses it back; the event count
/// must survive. Returns the trace text.
fn trace_round_trip(tracer: &Tracer, spans: &mut Spans, o: &mut ObsRun) -> Result<String, String> {
    let s = spans.open("obs.trace_export");
    let text = tracer.to_chrome_json();
    o.trace_export_s += spans.close(s);
    o.trace_bytes += text.len();

    let s = spans.open("obs.parse");
    let parsed = json::parse(&text);
    o.parse_s += spans.close(s);
    // The export prepends one metadata record per track group.
    let events = parsed?.as_arr().map_or(0, <[JsonValue]>::len);
    if events == tracer.len() + 3 {
        Ok(text)
    } else {
        Err(format!(
            "trace round trip: {events} events parsed, {} recorded",
            tracer.len()
        ))
    }
}

/// The committed suite document `svc-serve` is checked against with
/// seed 0.
const SVC_GOLDEN: &str = "results/fig-svc.json";

/// Compares each report with the committed run of the same app and
/// label; returns one message per mismatch.
fn check_golden(path: &str, runs: &[PointRun]) -> Vec<String> {
    let doc = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(d) => d,
        Err(e) => return vec![format!("{path}: {e}")],
    };
    let committed = doc.get("runs").and_then(JsonValue::as_arr).unwrap_or(&[]);
    let mut errors = Vec::new();
    for r in runs {
        let (app, label) = (&r.report.app, &r.report.label);
        let want = committed.iter().find(|c| {
            c.get("app").and_then(JsonValue::as_str) == Some(app.as_str())
                && c.get("label").and_then(JsonValue::as_str) == Some(label.as_str())
        });
        let got = r.report.to_json();
        match want {
            None => errors.push(format!("{app}:{label}: no committed run in {path}")),
            Some(want) if *want != got => {
                let field = match (want, &got) {
                    (JsonValue::Obj(w), JsonValue::Obj(g)) => w
                        .iter()
                        .find(|(k, v)| g.get(*k) != Some(v))
                        .map_or("?".to_string(), |(k, _)| k.clone()),
                    _ => "?".to_string(),
                };
                errors.push(format!("{app}:{label}: differs from {path} in `{field}`"));
            }
            Some(_) => {}
        }
    }
    errors
}

/// A field of `/proc/self/status` in MB: `VmHWM` is the peak resident
/// set, `VmRSS` the current one.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One run of the reference kernel.
#[derive(Clone, Copy)]
struct Sample {
    /// The factor that scales host times measured around the sample to
    /// the reference speed.
    scale: f64,
    /// Host seconds the sample took.
    secs: f64,
    /// Host seconds of each part.
    parts: [f64; 3],
}

/// Runs the reference kernel once, in a `reference` span; `None` (with a
/// message) if the kernel process failed. Each point is scaled by the
/// samples taken just before and just after it, because this host's speed
/// changes from second to second.
fn reference_sample(
    reference: &mut Reference,
    spans: &mut Spans,
    samples: &mut Vec<Sample>,
) -> Option<Sample> {
    let s = spans.open("reference");
    let parts = reference
        .sample()
        .map_err(|e| eprintln!("simbench: reference kernel: {e}"))
        .ok()?;
    let sample = Sample {
        scale: refspeed::scale(&parts),
        secs: spans.close(s),
        parts,
    };
    samples.push(sample);
    Some(sample)
}

const END_TO_END: [&str; 5] = [
    "wall_s",
    "setup_s",
    "accesses_per_s",
    "peak_rss_mb",
    "sim_cycles",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut spans) = (None, 0, 10.0, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--spans" => spans = Some(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let points = match args.workload.as_str() {
        "svc-serve" => svc_serve(),
        "report-io" => report_io(),
        w => {
            eprintln!("simbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    let io = args.workload == "report-io";
    let mut reference = match Reference::new() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simbench: reference kernel: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Every reference sample in the run.
    let mut samples = Vec::new();

    let mut spans = Spans::new();
    // Per point, its times in every pass; the first pass's runs carry the
    // counts and reports.
    let mut times: Vec<Vec<Times>> = vec![Vec::new(); points.len()];
    let mut first: Vec<PointRun> = Vec::new();
    let mut first_exact = Vec::new();
    // Per pass: wall time outside the points (the report-io documents and
    // the pass loop itself), and the round trips.
    let mut rest_s = Vec::new();
    let mut raw_pass_s = Vec::new();
    let mut obs_runs = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut measured_s = 0.0;
    // The latest sample's scale: the sample after one point is the sample
    // before the next.
    let Some(first_sample) = reference_sample(&mut reference, &mut spans, &mut samples) else {
        return ExitCode::FAILURE;
    };
    let mut last = first_sample.scale;

    loop {
        let pass = rest_s.len();
        spans.pass = pass;
        // The full coherence sweep costs about as much as the run, so it
        // runs in the first pass only; later passes must then reproduce
        // the first pass's exact values.
        let check = pass == 0;
        let mut runs = Vec::with_capacity(points.len());
        let pass_span = spans.open("pass");
        let mut untimed_s = 0.0;
        // The raw wall time of this pass's points.
        let mut points_raw_s = 0.0;
        for p in &points {
            attempted += 1;
            match catch_unwind(AssertUnwindSafe(|| {
                run_point(p, args.seed, check, &mut spans)
            })) {
                Ok(mut r) => {
                    untimed_s += r.verify_s;
                    points_raw_s += r.t.wall_s;
                    let Some(after) = reference_sample(&mut reference, &mut spans, &mut samples)
                    else {
                        return ExitCode::FAILURE;
                    };
                    untimed_s += after.secs;
                    r.t = r.t.scaled((last * after.scale).sqrt());
                    last = after.scale;
                    runs.push(r);
                }
                Err(_) => {
                    eprintln!("simbench: {} {} panicked", args.workload, p.label);
                    failed += 1;
                    break;
                }
            }
        }
        if runs.len() < points.len() {
            // A pass with a failed point measures nothing.
            spans.close(pass_span);
            break;
        }

        // On report-io the documents are part of the timed workload.
        let mut obs = ObsRun::default();
        // The scale of the time outside the points.
        let mut k = last;
        if io {
            let reports: Vec<&RunReport> = runs
                .iter()
                .filter(|r| r.tracer.is_none())
                .map(|r| &r.report)
                .collect();
            attempted += 1;
            let mut result = report_round_trip(&reports, &mut spans, &mut obs);
            for t in runs.iter().filter_map(|r| r.tracer.as_ref()) {
                attempted += 1;
                result = result.and(trace_round_trip(t, &mut spans, &mut obs).map(drop));
            }
            if let Err(e) = result {
                eprintln!("simbench: {e}");
                failed += 1;
            }
            let Some(after) = reference_sample(&mut reference, &mut spans, &mut samples) else {
                return ExitCode::FAILURE;
            };
            untimed_s += after.secs;
            k = (last * after.scale).sqrt();
            last = after.scale;
            obs.scale(k);
        }
        let pass_wall_s = spans.close(pass_span) - untimed_s;
        measured_s += pass_wall_s;
        raw_pass_s.push(pass_wall_s);
        rest_s.push((pass_wall_s - points_raw_s) * k);
        obs_runs.push(obs);
        for (t, r) in times.iter_mut().zip(&runs) {
            t.push(r.t);
        }

        let mut exact = exact_values(&runs);
        exact.push(("obs.doc_bytes".into(), obs.doc_bytes as u64));
        exact.push(("obs.trace_bytes".into(), obs.trace_bytes as u64));
        if pass == 0 {
            first = runs;
            first_exact = exact;
        } else if exact != first_exact {
            let diff = first_exact
                .iter()
                .zip(&exact)
                .find(|(a, b)| a != b)
                .map_or("?", |(a, _)| a.0.as_str());
            eprintln!("simbench: pass {pass} changed the exact value `{diff}`");
            failed += 1;
        }
        if measured_s >= args.seconds {
            break;
        }
    }
    let passes = obs_runs.len();
    let rss = status_mb("VmHWM");

    let mut out = Metrics::default();
    if passes > 0 {
        for (r, t) in first.iter_mut().zip(&times) {
            r.t = Times::median(t);
        }
        sim_metrics(&first, &mut out);
        let wall: f64 = first.iter().map(|r| r.t.wall_s).sum::<f64>() + median(&mut rest_s);
        out.put("wall_s", wall, "s");
        let setup: f64 = first
            .iter()
            .map(|r| r.t.workload_build_s + r.t.machine_build_s + if io { r.t.run_s } else { 0.0 })
            .sum();
        out.put("setup_s", setup, "s");
        ObsRun::median(&obs_runs).record(&mut out);
    }
    out.put("peak_rss_mb", rss, "MB");
    let self_times = spans.self_times(passes);
    for name in ["pass", "point"] {
        let mut v = self_times.get(name).cloned().unwrap_or_default();
        out.put(format!("span.{name}.self_s"), median(&mut v), "s");
    }
    let verify_total: f64 = self_times.get("verify").map_or(0.0, |v| v.iter().sum());
    out.put("verify.total_s", verify_total, "s");

    // The spans' host times are raw; they get the run's median scale.
    let scale = median(&mut samples.iter().map(|s| s.scale).collect::<Vec<_>>());
    for name in ["span.pass.self_s", "span.point.self_s", "verify.total_s"] {
        if let Some((v, _)) = out.0.get_mut(name) {
            *v *= scale;
        }
    }
    let ref_s = median(&mut samples.iter().map(|s| s.secs).collect::<Vec<_>>());
    out.put("host.ref_ms", ref_s * 1e3, "ms");
    for (i, part) in refspeed::PARTS.iter().enumerate() {
        let part_s = median(&mut samples.iter().map(|s| s.parts[i]).collect::<Vec<_>>());
        out.put(format!("host.ref_{part}_ms"), part_s * 1e3, "ms");
    }
    out.put("host.scale", scale, "ratio");
    out.put("host.raw_wall_ms", median(&mut raw_pass_s) * 1e3, "ms");

    if args.seed == 0 && passes > 0 && !io {
        for e in check_golden(SVC_GOLDEN, &first) {
            eprintln!("simbench: {e}");
            failed += 1;
        }
    }

    if let Some(path) = &args.spans {
        attempted += 1;
        let written = trace_round_trip(
            &spans.to_tracer(),
            &mut Spans::new(),
            &mut ObsRun::default(),
        )
        .and_then(|text| std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}")));
        if let Err(e) = written {
            eprintln!("simbench: span trace: {e}");
            failed += 1;
        }
    }

    let section = |e2e: bool| {
        JsonValue::Obj(
            out.0
                .iter()
                .filter(|(name, _)| END_TO_END.contains(&name.as_str()) == e2e)
                .map(|(name, &(v, unit))| {
                    (
                        name.clone(),
                        JsonValue::obj([
                            ("value", JsonValue::num(v)),
                            ("unit", JsonValue::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let result = JsonValue::obj([
        ("correct", JsonValue::Bool(failed == 0 && passes > 0)),
        ("attempted", JsonValue::u64(attempted)),
        ("failed", JsonValue::u64(failed)),
        ("passes", JsonValue::usize(passes)),
        ("end_to_end", section(true)),
        ("per_layer", section(false)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
