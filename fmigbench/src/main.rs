//! `fmigbench`: end-to-end and per-layer benchmark of the fmig sweep,
//! ingest and service pipelines.
//!
//! ```text
//! fmigbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --work-dir DIR
//! ```
//!
//! With `--trace 0` it sets the workload up several times, runs it
//! untraced for `S` seconds, checks every run and prints the end-to-end
//! metrics. With `--trace 1` it runs the same untraced loop, then one
//! traced run that times every layer call from this crate, and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. `run.sh` builds
//! the crate and passes the directory for scratch inputs.
//! See `README.md` for the workloads and the layer ledger.

mod forward;
mod gen;
mod ingest;
mod procfs;
mod service;
mod span;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use span::Recorder;

/// The workloads `BENCHMARK.json` lists, in its order.
const WORKLOADS: [&str; 5] = [
    "front-large",
    "matrix-open",
    "matrix-closed",
    "ingest-msr",
    "service-live",
];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("refs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that does
/// not run a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 55] = [
    ("workload.generate_s", "s"),
    ("workload.records_s", "s"),
    ("workload.records", "count"),
    ("sim.device_s", "s"),
    ("analysis.observe_s", "s"),
    ("analysis.report_s", "s"),
    ("eval.prep_s", "s"),
    ("eval.drop_s", "s"),
    ("eval.refs", "count"),
    ("eval.files", "count"),
    ("mrc.curve_s.stp1.4", "s"),
    ("mrc.curve_s.lru", "s"),
    ("mrc.curve_s.belady", "s"),
    ("mrc.curve_s.lru-mad", "s"),
    ("mrc.curve_s.stp-lat", "s"),
    ("hierarchy.cell_s.stp1.4", "s"),
    ("hierarchy.cell_s.lru", "s"),
    ("hierarchy.cell_s.belady", "s"),
    ("hierarchy.cell_s.lru-mad", "s"),
    ("hierarchy.cell_s.stp-lat", "s"),
    ("hierarchy.recalls", "count"),
    ("hierarchy.read_retries", "count"),
    ("hierarchy.outage_events", "count"),
    ("core.report_s", "s"),
    ("core.parallel_speedup", "ratio"),
    ("ingest.parse_s", "s"),
    ("store.append_s", "s"),
    ("store.finish_s", "s"),
    ("store.open_s", "s"),
    ("store.read_s", "s"),
    ("mrc.stream_s.lru", "s"),
    ("mrc.stream_s.belady", "s"),
    ("ingest.lines", "count"),
    ("ingest.records", "count"),
    ("ingest.parse_errors", "count"),
    ("ingest.accepted_ratio", "ratio"),
    ("store.bytes_written", "B"),
    ("store.bytes_read", "B"),
    ("store.bytes_per_record", "B"),
    ("serve.cell_s", "s"),
    ("serve.boot_s", "s"),
    ("serve.loadgen_s", "s"),
    ("serve.stop_s", "s"),
    ("serve.daemon_cpu_s", "s"),
    ("serve.origin_cpu_s", "s"),
    ("serve.loadgen_cpu_s", "s"),
    ("serve.cpu_busy_ratio", "ratio"),
    ("serve.origin_frames_per_ref", "ratio"),
    ("serve.recalls", "count"),
    ("serve.fetch_retries", "count"),
    ("serve.delayed_hits", "count"),
    ("serve.abandoned", "count"),
    ("ledger.traced_wall_s", "s"),
    ("ledger.unattributed_s", "s"),
    ("ledger.overhead_s", "s"),
];

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: u32 = 3;
/// Fewest measured runs, however long each takes.
const MIN_RUNS: usize = 3;
/// Most threads or connections any workload uses.
const MAX_THREADS: usize = 2;
const _: () = assert!(service::CONNECTIONS <= MAX_THREADS);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let mut take = |flag: &str| map.remove(flag).ok_or(format!("{flag} is required"));
    let workload = take("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(take("--work-dir")?),
    };
    if let Some(flag) = map.keys().next() {
        return Err(format!("unknown flag `{flag}`"));
    }
    Ok(args)
}

/// What one invocation measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// A check outside the measured runs failed (set-up or traced run).
    broken: Option<String>,
    metrics: BTreeMap<String, f64>,
    /// The traced run, when there was one.
    traced: Option<Recorder>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a measured run's verdict.
    fn tally(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            eprintln!("fmigbench: run {} failed its check: {e}", self.attempted);
            self.failed += 1;
        }
    }

    /// Layer self times, the ledger and the speed-up of a traced run
    /// whose measured part took `traced_wall` against the untraced
    /// median `wall`.
    fn ledger(&mut self, rec: Recorder, traced_wall: f64, wall: f64) {
        let total = rec.wall_s();
        let attributed = rec.attributed_s();
        for (name, secs) in rec.self_seconds_by_name() {
            self.set(&layer_metric(&name), secs);
        }
        self.set("ledger.traced_wall_s", total);
        self.set("ledger.unattributed_s", (total - attributed).max(0.0));
        self.set("ledger.overhead_s", traced_wall - wall);
        self.traced = Some(rec);
    }
}

/// `mrc.curve.lru` → `mrc.curve_s.lru`; `sim.device` → `sim.device_s`.
fn layer_metric(span: &str) -> String {
    let mut parts = span.splitn(3, '.');
    let (a, b) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    match parts.next() {
        Some(rest) => format!("{a}.{b}_s.{rest}"),
        None => format!("{a}.{b}_s"),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One measured run.
struct Run<T> {
    /// Wall seconds.
    secs: f64,
    /// This process's peak resident set during the run, MiB.
    peak_mib: f64,
    out: T,
}

/// Runs `f` until `seconds` have passed and at least [`MIN_RUNS`] runs
/// are done; returns each run's wall seconds, peak memory and output.
fn measure<T>(seconds: f64, mut f: impl FnMut(usize) -> T) -> Result<Vec<Run<T>>, String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        procfs::reset_peak_rss()?;
        let t = Instant::now();
        let out = f(runs.len());
        let secs = t.elapsed().as_secs_f64();
        let peak_mib = procfs::peak_rss_mib()?;
        eprintln!(
            "fmigbench: run {} took {secs:.4} s, peak {peak_mib:.1} MiB",
            runs.len() + 1
        );
        runs.push(Run {
            secs,
            peak_mib,
            out,
        });
    }
    Ok(runs)
}

/// The median wall seconds and median peak memory of `runs`.
fn medians<T>(runs: &[Run<T>]) -> (f64, f64) {
    let secs: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    let peaks: Vec<f64> = runs.iter().map(|r| r.peak_mib).collect();
    (median(&secs), median(&peaks))
}

fn bench_sweep(args: &Args, workers: usize) -> Result<Outcome, String> {
    let config = sweep::config(&args.workload, args.seed, workers);
    let mut o = Outcome::default();
    let mut oracle = None;
    if !args.trace {
        let mut setups = Vec::new();
        for i in 0..SETUP_REPS {
            let t = Instant::now();
            let (shards, _) = sweep::traced(&config, Vec::new(), &mut Recorder::new(i));
            setups.push(t.elapsed().as_secs_f64());
            if oracle.as_ref().is_some_and(|o| *o != shards) {
                o.broken = Some("the traced recomposition is not deterministic".into());
            }
            oracle = Some(shards);
        }
        o.set("setup_s", median(&setups));
    }
    let runs = measure(args.seconds, |_| sweep::run(&config))?;
    let (wall, peak) = medians(&runs);
    o.set("peak_rss_mib", peak);
    let first = &runs[0].out;
    if args.trace {
        let mut rec = Recorder::new(0);
        let (shards, counts) = sweep::traced(&config, first.report.winners.clone(), &mut rec);
        oracle = Some(shards);
        o.set("workload.records", counts.records as f64);
        o.set("eval.refs", counts.refs as f64);
        o.set("eval.files", counts.files as f64);
        o.set("hierarchy.recalls", counts.recalls as f64);
        o.set("hierarchy.read_retries", counts.read_retries as f64);
        o.set("hierarchy.outage_events", counts.outage_events as f64);
        o.set("core.parallel_speedup", rec.attributed_s() / wall);
        let traced_wall = rec.wall_s();
        o.ledger(rec, traced_wall, wall);
    }
    let oracle = oracle.expect("set-up or traced run built the oracle");
    for run in &runs {
        o.tally(sweep::verify(&run.out, &oracle, &first.json));
    }
    let records: u64 = oracle.iter().map(|s| s.records).sum();
    o.set("wall_s", wall);
    o.set("refs_per_s", records as f64 / wall);
    Ok(o)
}

fn bench_ingest(args: &Args, workers: usize) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let csv = args.work_dir.join("msr.csv");
    let traced_store = args.work_dir.join("store-traced");
    let run_store = args.work_dir.join("store-run");
    let config = ingest::sweep_config(&run_store, args.seed, workers);
    let mut o = Outcome::default();
    let mut oracle = None;
    let mut trace = None;
    if !args.trace {
        let mut setups = Vec::new();
        let mut replay = None;
        for i in 0..SETUP_REPS {
            drop(replay.take());
            let t = Instant::now();
            let written = ingest::write_input(args.seed, &csv)?;
            let _ = std::fs::remove_dir_all(&traced_store);
            let mut rec = Recorder::new(i);
            let (shard, _, streamed) =
                ingest::traced(&csv, &traced_store, &written, &config, Vec::new(), &mut rec)?;
            setups.push(t.elapsed().as_secs_f64());
            if trace.is_some_and(|t| t != written) || oracle.as_ref().is_some_and(|o| *o != shard) {
                o.broken = Some("set-up is not deterministic".into());
            }
            trace = Some(written);
            oracle = Some(shard);
            replay = Some(streamed);
        }
        o.set("setup_s", median(&setups));
        // Checking is not set-up work, and its in-memory rows are gone
        // before the measured runs.
        if let Err(e) = replay.expect("set-ups ran").check(&config) {
            o.broken = Some(e);
        }
    } else {
        trace = Some(ingest::write_input(args.seed, &csv)?);
    }
    let trace = trace.expect("input written");
    let runs = measure(args.seconds, |_| {
        ingest::run(&csv, &run_store, &trace, &config)
    })?;
    let (wall, peak) = medians(&runs);
    o.set("peak_rss_mib", peak);
    let first_json = match &runs[0].out {
        Ok(out) => out.json.clone(),
        Err(e) => return Err(format!("first measured import failed: {e}")),
    };
    if args.trace {
        let winners = runs[0]
            .out
            .as_ref()
            .map(|r| r.report.winners.clone())
            .unwrap_or_default();
        let _ = std::fs::remove_dir_all(&traced_store);
        let mut rec = Recorder::new(0);
        let (shard, counts, replay) =
            ingest::traced(&csv, &traced_store, &trace, &config, winners, &mut rec)?;
        if let Err(e) = replay.check(&config) {
            o.broken = Some(e);
        }
        oracle = Some(shard);
        let i = counts.ingest;
        o.set("ingest.lines", i.lines as f64);
        o.set("ingest.records", i.records as f64);
        o.set("ingest.parse_errors", i.parse_errors as f64);
        o.set("ingest.accepted_ratio", i.records as f64 / i.lines as f64);
        o.set("store.bytes_written", counts.bytes_written as f64);
        o.set("store.bytes_read", counts.bytes_read as f64);
        o.set(
            "store.bytes_per_record",
            counts.bytes_written as f64 / counts.rows as f64,
        );
        o.set("core.parallel_speedup", rec.attributed_s() / wall);
        let traced_wall = rec.wall_s();
        o.ledger(rec, traced_wall, wall);
    }
    let oracle = oracle.expect("set-up or traced run built the oracle");
    for run in &runs {
        o.tally(
            run.out
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|out| ingest::verify(out, &trace, &oracle, &first_json)),
        );
    }
    o.set("wall_s", wall);
    o.set("refs_per_s", trace.requests as f64 / wall);
    let _ = std::fs::remove_dir_all(&run_store);
    let _ = std::fs::remove_dir_all(&traced_store);
    let _ = std::fs::remove_file(&csv);
    Ok(o)
}

fn bench_service(args: &Args, workers: usize) -> Result<Outcome, String> {
    let conns = service::CONNECTIONS.min(workers);
    service::pin_to_one_cpu()?;
    let mut o = Outcome::default();
    let mut iterations = Vec::new();
    for run in measure(args.seconds, |i| {
        service::iteration(args.seed, conns, false, &mut Recorder::new(i as u32))
    })? {
        iterations.push(run.out?);
    }
    let col =
        |f: fn(&service::Iteration) -> f64| -> Vec<f64> { iterations.iter().map(f).collect() };
    let wall = median(&col(|i| i.wall_s));
    o.set("setup_s", median(&col(|i| i.setup_s)));
    o.set("wall_s", wall);
    o.set(
        "refs_per_s",
        median(&col(|i| i.report.sent as f64 / i.wall_s)),
    );
    // The first run's: every later run starts on top of heap pages
    // the allocator kept from the earlier runs' threads (tens of MiB
    // that `malloc_trim` does not return), so only the first measures
    // the service's own peak.
    o.set("peak_rss_mib", iterations[0].peak_rss_mib);
    for it in &iterations {
        // A failed or refused reference is a failed operation; a run
        // whose counters miss the oracle fails every reference it sent.
        let sent = it.report.sent;
        o.attempted += sent;
        o.failed += match &it.verdict {
            Ok(()) => service::refused(&it.report),
            Err(e) => {
                eprintln!("fmigbench: service run failed its check: {e}");
                sent
            }
        };
    }
    if args.trace {
        let mut rec = Recorder::new(0);
        let it = service::iteration(args.seed, conns, true, &mut rec)?;
        if let Err(e) = &it.verdict {
            o.broken = Some(format!("traced service run: {e}"));
        }
        let s = it.report.stats.unwrap_or_default();
        let f = it.forwarded.unwrap_or_default();
        let sent = it.report.sent as f64;
        o.set("serve.daemon_cpu_s", it.daemon_cpu_s);
        o.set("serve.origin_cpu_s", it.origin_cpu_s);
        o.set("serve.loadgen_cpu_s", it.loadgen_cpu_s);
        o.set(
            "serve.cpu_busy_ratio",
            (it.daemon_cpu_s + it.origin_cpu_s) / it.wall_s,
        );
        o.set(
            "serve.origin_frames_per_ref",
            (f.to_origin + f.to_daemon) as f64 / sent,
        );
        o.set("serve.recalls", s.recalls as f64);
        o.set("serve.fetch_retries", s.fetch_retries as f64);
        o.set("serve.delayed_hits", s.delayed_hits as f64);
        o.set("serve.abandoned", s.abandoned as f64);
        o.ledger(rec, it.wall_s, wall);
    }
    Ok(o)
}

fn run(args: &Args) -> Result<Outcome, String> {
    procfs::fix_mmap_threshold()?;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    let o = match args.workload.as_str() {
        "ingest-msr" => bench_ingest(args, workers)?,
        "service-live" => bench_service(args, workers)?,
        _ => bench_sweep(args, workers)?,
    };
    Ok(o)
}

/// The result line: every metric of the mode, by name, with its unit.
fn result_json(o: &Outcome, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = o.metrics.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = o.failed == 0 && o.broken.is_none();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// The human-readable ledger of a traced run, on standard error: each
/// layer's self time and share of the traced wall.
fn print_ledger(o: &Outcome) {
    let Some(rec) = &o.traced else { return };
    let total = rec.wall_s();
    eprintln!(
        "{:<28} {:>10} {:>7}",
        "layer (self time)", "seconds", "share"
    );
    for (name, secs) in rec.self_seconds_by_name() {
        eprintln!("{:<28} {:>10.4} {:>6.1}%", name, secs, 100.0 * secs / total);
    }
    let un = total - rec.attributed_s();
    eprintln!(
        "{:<28} {:>10.4} {:>6.1}%",
        "(unattributed)",
        un,
        100.0 * un / total
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fmigbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(o) => {
            if let Some(e) = &o.broken {
                eprintln!("fmigbench: {e}");
            }
            print_ledger(&o);
            println!("{}", result_json(&o, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fmigbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_metric_names() {
        assert_eq!(layer_metric("sim.device"), "sim.device_s");
        assert_eq!(layer_metric("mrc.curve.stp1.4"), "mrc.curve_s.stp1.4");
        assert_eq!(
            layer_metric("hierarchy.cell.lru-mad"),
            "hierarchy.cell_s.lru-mad"
        );
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        assert_eq!(section("workloads"), WORKLOADS.to_vec());
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
    }

    #[test]
    fn sweep_configs_stay_within_the_thread_cap() {
        for w in ["front-large", "matrix-open", "matrix-closed"] {
            let c = sweep::config(w, 1, MAX_THREADS);
            assert_eq!(c.workers, MAX_THREADS, "never auto (0)");
            assert_eq!(c.base_seed, 1, "inputs derive from the seed");
        }
    }
}
