//! The `ingest-msr` workload: import a seeded MSR CSV into the columnar
//! replay store, then sweep it open-loop with LRU and Belady.
//!
//! The measured run is `store::import` followed by
//! `run_sweep(SweepConfig::imported)`. The traced run splits the import
//! into its `IngestStream` → `StoreWriter::append` → `finish` calls,
//! reads the store back, and streams it through the MRC engine once per
//! policy. Afterwards [`Replay::check`] replays the `read_all` rows in
//! memory, which must give the streamed curves exactly.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use fmig_core::sweep::{CellResult, FaultScenarioId, PolicyId, PresetId, Winner};
use fmig_core::{run_sweep, ShardReport, SweepConfig, SweepReport};
use fmig_migrate::eval::{EvalConfig, PreparedRef, PreparedTrace};
use fmig_migrate::mrc::{sweep_capacities_streaming, MissRatioCurve};
use fmig_trace::ingest::store::{
    import, StoreReader, StoreRow, StoreRows, StoreWriter, CHUNK_RECORDS,
};
use fmig_trace::ingest::{FormatId, IngestConfig, IngestCounts};
use fmig_trace::DirectionStats;

use crate::gen::{write_msr_csv, MsrTrace};
use crate::span::{Interval, Recorder};

/// Well-formed request lines in the generated CSV.
pub const REQUESTS: u64 = 700_000;

/// Writes the seeded CSV to `path`.
pub fn write_input(seed: u64, path: &Path) -> Result<MsrTrace, String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    let trace = write_msr_csv(seed, REQUESTS, &mut out).map_err(|e| format!("csv: {e}"))?;
    out.flush().map_err(|e| format!("csv: {e}"))?;
    Ok(trace)
}

/// The import budget: exactly the malformed lines the generator wrote,
/// so one unexpected parse error aborts the import.
fn ingest_config(trace: &MsrTrace) -> IngestConfig {
    IngestConfig {
        error_budget: trace.malformed,
        sample: None,
    }
}

/// The sweep over the imported store.
pub fn sweep_config(store: &Path, seed: u64, workers: usize) -> SweepConfig {
    SweepConfig {
        policies: vec![PolicyId::Lru, PolicyId::Belady],
        base_seed: seed,
        workers,
        ..SweepConfig::imported(&store.to_string_lossy())
    }
}

/// One measured run's output.
pub struct RunOut {
    /// The importer's tallies.
    pub counts: IngestCounts,
    /// The report's deterministic JSON.
    pub json: String,
    /// The report itself.
    pub report: SweepReport,
}

/// One untraced, measured run: import, then sweep.
pub fn run(
    csv: &Path,
    store: &Path,
    trace: &MsrTrace,
    config: &SweepConfig,
) -> Result<RunOut, String> {
    let _ = fs::remove_dir_all(store);
    let input = BufReader::new(File::open(csv).map_err(|e| format!("{}: {e}", csv.display()))?);
    let imported = import(FormatId::Msr, input, ingest_config(trace), store, |_| {})
        .map_err(|e| format!("import: {e}"))?;
    let report = run_sweep(config);
    let json = report.to_json();
    Ok(RunOut {
        counts: imported.counts,
        json,
        report,
    })
}

/// Layer counts the traced run observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// The importer's tallies.
    pub ingest: IngestCounts,
    /// Bytes the finished store occupies.
    pub bytes_written: u64,
    /// Column-file bytes the streamed replay passes read.
    pub bytes_read: u64,
    /// Rows in the store.
    pub rows: u64,
}

/// Streams store rows as prepared references, one chunk at a time (the
/// runner's private adapter, rebuilt from public parts).
struct RowRefs {
    rows: StoreRows,
    buf: Vec<StoreRow>,
    pos: usize,
}

impl Iterator for RowRefs {
    type Item = PreparedRef;

    fn next(&mut self) -> Option<PreparedRef> {
        if self.pos == self.buf.len() {
            self.pos = 0;
            if !self
                .rows
                .next_chunk(&mut self.buf)
                .expect("store chunk reads")
            {
                return None;
            }
        }
        let row = self.buf[self.pos];
        self.pos += 1;
        Some(row_ref(row))
    }
}

fn row_ref(row: StoreRow) -> PreparedRef {
    PreparedRef {
        id: row.file,
        size: row.size,
        write: row.write,
        time: row.start,
        next_use: row.next_use,
        device: row.device,
    }
}

fn mean_latency(d: &DirectionStats) -> f64 {
    let (refs, sum) = d.by_device.iter().fold((0u64, 0.0f64), |(n, s), a| {
        (n + a.references, s + a.latency_sum_s)
    });
    if refs == 0 {
        0.0
    } else {
        sum / refs as f64
    }
}

/// Bytes of the files in `dir`; with `columns_only`, of its `*.col`
/// column files only (what one `StoreRows` pass reads).
fn dir_bytes(dir: &Path, columns_only: bool) -> Result<u64, String> {
    let mut total = 0;
    for entry in fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        if columns_only && entry.path().extension().is_none_or(|x| x != "col") {
            continue;
        }
        let meta = entry
            .metadata()
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

/// The traced, serial decomposition of one measured run into `store`,
/// which must not exist yet; returns the
/// shard every measured report must carry, the layer counts, and the
/// streamed replay for [`Replay::check`].
pub fn traced(
    csv: &Path,
    store: &Path,
    trace: &MsrTrace,
    config: &SweepConfig,
    winners: Vec<Winner>,
    rec: &mut Recorder,
) -> Result<(ShardReport, Counts, Replay), String> {
    let clock = rec.clock();
    let err = |e: fmig_trace::TraceError| e.to_string();

    // Write side: parse → append → finish.
    let budget = ingest_config(trace);
    let mut t_parse = Interval::default();
    let mut t_append = Interval::default();
    let a = clock.now();
    let mut writer = StoreWriter::create(store).map_err(err)?;
    let input = BufReader::new(File::open(csv).map_err(|e| format!("{}: {e}", csv.display()))?);
    let mut stream = FormatId::Msr.stream(input, budget);
    t_append.add(a, clock.now());
    loop {
        let a = clock.now();
        let item = stream.next();
        let b = clock.now();
        t_parse.add(a, b);
        match item {
            None => break,
            Some(Ok(r)) => {
                writer.append(&r).map_err(err)?;
                t_append.add(b, clock.now());
            }
            Some(Err(e)) if stream.counts.parse_errors > budget.error_budget => {
                return Err(format!("import: {e}"))
            }
            Some(Err(_)) => {}
        }
    }
    rec.aggregate("ingest.parse", t_parse);
    rec.aggregate("store.append", t_append);
    let manifest = rec.span("store.finish", || writer.finish()).map_err(err)?;
    let mut counts = Counts {
        ingest: stream.counts,
        bytes_written: dir_bytes(store, false)?,
        bytes_read: 0,
        rows: manifest.records,
    };

    // Read side: open → read → one streamed MRC pass per policy.
    let (reader, stats) = rec
        .span("store.open", || {
            let reader = StoreReader::open(store)?;
            let stats = reader.stats()?;
            Ok((reader, stats))
        })
        .map_err(err)?;
    let rows = rec.span("store.read", || reader.read_all()).map_err(err)?;
    let pass_bytes = dir_bytes(store, true)?;
    let capacities: Vec<u64> = config
        .cache_fractions
        .iter()
        .map(|&f| ((manifest.referenced_bytes as f64 * f) as u64).max(1))
        .collect();
    let base = EvalConfig::with_capacity(0);
    let mut cells = Vec::new();
    let mut curves = Vec::new();
    for policy in &config.policies {
        let built = policy.build();
        let curve = rec.span(&format!("mrc.stream.{}", policy.name()), || {
            let rows = reader.rows(CHUNK_RECORDS).map_err(err)?;
            Ok::<_, String>(sweep_capacities_streaming(
                RowRefs {
                    rows,
                    buf: Vec::new(),
                    pos: 0,
                },
                built.as_ref(),
                &capacities,
                &base,
            ))
        })?;
        counts.bytes_read += pass_bytes;
        curves.push(curve);
    }
    for (cache_idx, &fraction) in config.cache_fractions.iter().enumerate() {
        let eval_config = EvalConfig::with_capacity(capacities[cache_idx]);
        for (policy, curve) in config.policies.iter().zip(&curves) {
            let point = &curve.points[cache_idx];
            cells.push(CellResult {
                policy: *policy,
                fault: FaultScenarioId::None,
                cache_fraction: fraction,
                capacity_bytes: capacities[cache_idx],
                miss_ratio: point.miss_ratio(),
                byte_miss_ratio: point.byte_miss_ratio(),
                person_minutes_per_day: point
                    .stats
                    .person_minutes_per_day(eval_config.wait_s_per_miss, eval_config.trace_days),
                latency: None,
            });
        }
    }
    let shard = ShardReport {
        preset: PresetId::Imported,
        scale: config.scales[0],
        workload_seed: config.workload_seed(0, 0),
        sim_seed: config.sim_seed(0, 0),
        records: stats.raw_references,
        files: manifest.files,
        referenced_gb: manifest.referenced_bytes as f64 / 1e9,
        read_share: stats.read_reference_share(),
        mean_read_latency_s: mean_latency(&stats.reads),
        mean_write_latency_s: mean_latency(&stats.writes),
        paper_deltas: Vec::new(),
        cells,
    };
    let report = SweepReport {
        base_seed: config.base_seed,
        simulated_devices: config.simulate_devices,
        latency_mode: config.latency,
        trace_store: config.trace_store.clone(),
        fault_scenarios: config.fault_axis(),
        shards: vec![shard],
        winners,
    };
    rec.span("core.report", || {
        std::hint::black_box(report.to_json());
        std::hint::black_box(report.render());
    });
    rec.finish();
    let shard = report.shards.into_iter().next().expect("one shard");
    let replay = Replay {
        rows,
        capacities,
        curves,
    };
    Ok((shard, counts, replay))
}

/// What the traced run streamed, kept to check it against an
/// in-memory replay once the run is over.
pub struct Replay {
    rows: Vec<StoreRow>,
    capacities: Vec<u64>,
    curves: Vec<MissRatioCurve>,
}

impl Replay {
    /// Replays the `read_all` rows in memory with each policy; every
    /// curve must equal the one streamed from the store.
    pub fn check(self, config: &SweepConfig) -> Result<(), String> {
        let in_memory = PreparedTrace::from_refs(self.rows.into_iter().map(row_ref).collect());
        let base = EvalConfig::with_capacity(0);
        for (policy, streamed) in config.policies.iter().zip(&self.curves) {
            let memory =
                in_memory.miss_ratio_curve(policy.build().as_ref(), &self.capacities, &base);
            if memory != *streamed {
                return Err(format!(
                    "{}: streamed store replay differs from in-memory replay of read_all rows",
                    policy.name()
                ));
            }
        }
        Ok(())
    }
}

/// Checks one measured run against the generator and the traced run.
pub fn verify(
    out: &RunOut,
    trace: &MsrTrace,
    oracle: &ShardReport,
    first_json: &str,
) -> Result<(), String> {
    if out.counts.parse_errors != trace.malformed {
        return Err(format!(
            "import reported {} parse errors, the generator wrote {} malformed lines",
            out.counts.parse_errors, trace.malformed
        ));
    }
    if out.counts.records != trace.requests || out.counts.lines != trace.lines {
        return Err(format!(
            "import saw {} records in {} lines, the generator wrote {} in {}",
            out.counts.records, out.counts.lines, trace.requests, trace.lines
        ));
    }
    if out.report.shards.len() != 1 || out.report.shards[0] != *oracle {
        return Err("imported sweep differs from the traced store replay".into());
    }
    if out.json != first_json {
        return Err("report JSON differs between runs".into());
    }
    crate::sweep::belady_bounds(&out.report.shards)
}
