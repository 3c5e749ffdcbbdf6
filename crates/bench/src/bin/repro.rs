//! `repro` — regenerate any table or figure of Miller & Katz (1993).
//!
//! ```text
//! repro [--scale S] [--seed N] [--no-sim] <experiment>|all|list
//! repro sweep [--preset tiny|small] [--workers N] [--seed N] [--latency] [--out PATH]
//! ```
//!
//! Experiments: table1..table4, fig3..fig12, topology, policies, dedup,
//! dividing, writeback, prefetch. `all` runs everything; `list` names
//! them (see the README's "Reproducing the paper" section). Scale 1.0 reproduces the full two-year
//! trace volume (~3.5 M references); the default 0.05 keeps runtime and
//! memory modest while preserving every distribution's shape.
//!
//! `sweep` runs the parallel scenario-sweep engine and writes a
//! `BENCH_sweep.json` artifact: the deterministic [`fmig_core::sweep`]
//! report plus wall-clock timing normalized by an in-process CPU
//! calibration loop, so CI can gate on regressions across runner
//! generations.

use std::collections::HashMap;
use std::io::{BufReader, Cursor, Write as _};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use fmig_core::{
    experiment_ids, run_experiment, run_sweep, FaultScenarioId, Study, StudyConfig, SweepConfig,
};
use fmig_migrate::cache::{CacheConfig, DiskCache, EvictionMode};
use fmig_migrate::eval::{EvalConfig, TracePrep};
use fmig_migrate::policy::{Lru, Stp};
use fmig_trace::ingest::store::{import, ImportReport, StoreReader};
use fmig_trace::{FormatId, IngestConfig, Sampler, TraceStats};
use fmig_workload::{PaperTargets, Workload};

struct Args {
    scale: f64,
    seed: u64,
    simulate: bool,
    targets: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 0.05,
        seed: 0x4E43_4152,
        simulate: true,
        targets: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|e| format!("bad --scale: {e}"))?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err(format!("--scale must be in (0, 1], got {}", args.scale));
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--no-sim" => args.simulate = false,
            "-h" | "--help" => {
                args.targets.push("help".into());
            }
            other => args.targets.push(other.to_string()),
        }
    }
    if args.targets.is_empty() {
        args.targets.push("help".into());
    }
    Ok(args)
}

fn usage() -> String {
    format!(
        "usage: repro [--scale S] [--seed N] [--no-sim] <experiment>|all|list\n\
         \x20      repro sweep [--preset tiny|small|large|huge] [--workers N] [--seed N]\n\
         \x20                  [--latency] [--scaling] [--faults S1,S2,...] [--out PATH]\n\
         \x20      repro sweep --trace STORE_DIR [--workers N] [--seed N] [--out PATH]\n\
         \x20      repro ingest --format msr|clf|ibm-kv --input PATH --out STORE_DIR\n\
         \x20                  [--sample K/M] [--sample-seed N] [--error-budget N]\n\
         \x20      repro ingest-gen --out PATH [--records N] [--files N]\n\
         \x20      repro ingest-smoke [--bench PATH]\n\
         \x20      repro service-smoke [--bench PATH]\n\
         experiments: {}\n\
         fault scenarios: {}\n",
        experiment_ids().join(" "),
        FaultScenarioId::ALL
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// `repro sweep`: run the scenario-sweep engine and emit the benchmark
/// artifact the `bench-track` CI job uploads and gates on.
///
/// With `--latency` the matrix also runs latency-true: every cell goes
/// through the closed-loop hierarchy engine, the report carries measured
/// wait distributions, and the artifact gains a second, separately-gated
/// `latency_normalized_cost` score (the open-loop `normalized_cost`
/// keeps its meaning so baselines stay comparable).
///
/// The artifact always carries a third gated score,
/// `mrc_normalized_cost`: the single-pass miss-ratio-curve engine
/// (`fmig_migrate::mrc`) drawing an eight-point capacity curve on the
/// matrix's first shard — the replay hot path this repo optimizes,
/// tracked directly.
///
/// Two in-process higher-is-better ratios ride along unconditionally:
/// `scaling_speedup_vs_hashed` (dense-id replay vs the frozen hashed
/// baseline) and `kinetic_purge_speedup` (the kinetic tournament vs the
/// exact rescan on a purge-heavy STP(1.4) churn). With `--scaling` the
/// artifact also gains the refs/sec `scaling_curve` and its gated
/// `scaling_large_refs_per_sec` big-trace throughput score.
fn run_sweep_command(args: &[String]) -> Result<(), String> {
    let mut preset = "tiny".to_string();
    let mut preset_set = false;
    let mut workers = 0usize;
    let mut seed: Option<u64> = None;
    let mut latency = false;
    let mut scaling = false;
    let mut faults: Option<Vec<FaultScenarioId>> = None;
    let mut trace: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => {
                preset = it.next().ok_or("--preset needs a value")?.clone();
                preset_set = true;
            }
            "--trace" => trace = Some(it.next().ok_or("--trace needs a store dir")?.clone()),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = v.parse().map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|e| format!("bad --seed: {e}"))?);
            }
            "--latency" => latency = true,
            "--scaling" => scaling = true,
            "--faults" => {
                let v = it.next().ok_or("--faults needs a comma-separated list")?;
                let parsed: Result<Vec<FaultScenarioId>, String> = v
                    .split(',')
                    .map(|s| {
                        FaultScenarioId::parse(s.trim())
                            .ok_or_else(|| format!("unknown fault scenario `{s}`"))
                    })
                    .collect();
                faults = Some(parsed?);
            }
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            other => return Err(format!("unknown sweep flag `{other}`")),
        }
    }
    if let Some(dir) = trace {
        if preset_set || latency || scaling || faults.is_some() {
            return Err(
                "--trace replays an imported store open-loop; it takes no --preset, \
                 --latency, --scaling, or --faults"
                    .into(),
            );
        }
        return run_trace_sweep(
            &dir,
            workers,
            seed,
            &out.unwrap_or_else(|| "SWEEP_trace.json".to_string()),
        );
    }
    let out = out.unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let mut config = match preset.as_str() {
        "tiny" => SweepConfig::tiny(),
        "small" => SweepConfig::small(),
        "large" => SweepConfig::large(),
        "huge" => SweepConfig::huge(),
        other => {
            return Err(format!(
                "unknown sweep preset `{other}` (tiny|small|large|huge)"
            ))
        }
    };
    config.workers = workers;
    if let Some(s) = seed {
        config.base_seed = s;
    }
    if let Some(f) = faults {
        config.faults = f;
    }

    let calibration_ms = calibrate_ms();
    eprintln!(
        "sweep: preset {preset}, {} cells in {} shards, workers {} (0 = auto), latency {}, faults [{}], calibration {calibration_ms:.1} ms",
        config.cell_count(),
        config.shard_count(),
        config.workers,
        if latency { "on" } else { "off" },
        config
            .fault_axis()
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(","),
    );
    // Repeat the sweep until a time budget fills and keep the fastest
    // run: a single tiny-matrix execution is milliseconds, far inside
    // scheduler noise, but the minimum over a half-second of repeats is
    // a stable figure the 25% regression gate can trust. (Minimum-taking
    // also discounts the cold first pass, so no separate warm-up run.)
    // With --latency every iteration times the open-loop and the
    // closed-loop matrix back to back so both scores come off the same
    // machine state.
    let mut wall_ms = f64::INFINITY;
    let mut latency_wall_ms = f64::INFINITY;
    let mut report = None;
    let budget = Instant::now();
    let mut runs = 0u32;
    while runs < 1 || (budget.elapsed().as_secs_f64() < 0.5 && runs < 50) {
        let started = Instant::now();
        let open_report = run_sweep(&config);
        wall_ms = wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
        if latency {
            let mut closed = config.clone();
            closed.latency = true;
            let started = Instant::now();
            report = Some(run_sweep(&closed));
            latency_wall_ms = latency_wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
        } else {
            report = Some(open_report);
        }
        runs += 1;
    }
    let report = report.expect("loop runs at least once");
    let normalized_cost = wall_ms / calibration_ms;
    eprintln!(
        "sweep done: best of {runs} runs {wall_ms:.1} ms (normalized cost {normalized_cost:.3})"
    );
    if latency {
        eprintln!(
            "latency sweep: best {latency_wall_ms:.1} ms (normalized cost {:.3})",
            latency_wall_ms / calibration_ms
        );
    }

    // Third tracked score: the single-pass capacity-curve engine on the
    // matrix's first shard, timed against the naive one-replay-per-
    // capacity sweep it replaced (LRU, so the shared recency log — the
    // engine's fastest exact tier — carries the purges). The artifact
    // records both costs and the speedup.
    let (prepared, referenced) = {
        let shard_preset = config.presets[0];
        let scale = config.scales[0];
        let workload =
            Workload::generate(&shard_preset.workload(scale, config.workload_seed(0, 0)));
        let referenced: u64 = workload.files().iter().map(|f| f.size).sum();
        let mut prep = TracePrep::new();
        for rec in workload.into_records() {
            prep.observe(&rec);
        }
        (prep.finish(), referenced)
    };
    let (mrc_wall_ms, mrc_naive_wall_ms) = {
        let capacities: Vec<u64> = [0.002, 0.005, 0.01, 0.015, 0.02, 0.03, 0.05, 0.08]
            .iter()
            .map(|f| ((referenced as f64 * f) as u64).max(1))
            .collect();
        let base = EvalConfig::with_capacity(0);
        let mut best = f64::INFINITY;
        let mut naive_best = f64::INFINITY;
        let budget = Instant::now();
        let mut mrc_runs = 0u32;
        while mrc_runs < 1 || (budget.elapsed().as_secs_f64() < 0.4 && mrc_runs < 50) {
            let started = Instant::now();
            let curve = prepared.miss_ratio_curve(&Lru, &capacities, &base);
            std::hint::black_box(curve.points.len());
            best = best.min(started.elapsed().as_secs_f64() * 1e3);
            let started = Instant::now();
            let naive = prepared.capacity_sweep_naive(&Lru, &capacities, &base);
            std::hint::black_box(naive.len());
            naive_best = naive_best.min(started.elapsed().as_secs_f64() * 1e3);
            mrc_runs += 1;
        }
        eprintln!(
            "mrc: {}-point LRU capacity curve, best of {mrc_runs} runs {best:.1} ms \
             (normalized cost {:.3}); naive per-capacity sweep {naive_best:.1} ms \
             ({:.1}x speedup)",
            capacities.len(),
            best / calibration_ms,
            naive_best / best
        );
        (best, naive_best)
    };
    let mrc_normalized_cost = mrc_wall_ms / calibration_ms;
    let mrc_speedup = mrc_naive_wall_ms / mrc_wall_ms;

    // Fourth tracked score, from the dense-identity redesign: one
    // single-policy open-loop cell — the Belady next-use reverse sweep
    // plus an LRU replay at the first cache fraction — run through the
    // live FileId/arena plumbing and through the frozen hashed baseline
    // (`fmig_migrate::hashed`: `HashMap<u64, i64>` next-use sweep,
    // `HashMap<u64, Entry>` cache, per-purge ranking allocation).
    // Reported as refs/sec so the figure is comparable across presets;
    // `ci/check_bench.py` gates both the dense throughput and its
    // speedup over the baseline, so hashing can't silently creep back
    // into the replay hot path.
    let (scaling_refs_per_sec, hashed_refs_per_sec) = {
        // Quarter-capacity cache: hit-dominated, so per-reference
        // identity work (lookup + touch) is the hot path being measured
        // rather than the purge machinery both implementations share.
        // Whole-matrix cost with purges is what `normalized_cost`
        // tracks; this score isolates the id-plumbing term.
        let capacity = ((referenced as f64 * 0.25) as u64).max(1);
        let cfg = EvalConfig::with_capacity(capacity);
        let total_refs = prepared.refs().len() as f64;
        // The reverse sweep is idempotent (next_use values are fully
        // overwritten), so each leg re-runs it on its own buffer
        // without a per-iteration clone.
        let mut dense_refs = prepared.refs().to_vec();
        let mut hashed_refs = prepared.refs().to_vec();
        let mut dense_best = f64::INFINITY;
        let mut hashed_best = f64::INFINITY;
        let budget = Instant::now();
        let mut scaling_runs = 0u32;
        while scaling_runs < 1 || (budget.elapsed().as_secs_f64() < 0.4 && scaling_runs < 50) {
            let started = Instant::now();
            {
                let mut next_seen = vec![i64::MIN; prepared.file_count()];
                for r in dense_refs.iter_mut().rev() {
                    let slot = &mut next_seen[r.id.index()];
                    r.next_use = (*slot != i64::MIN).then_some(*slot);
                    *slot = r.time;
                }
                let mut cache = DiskCache::new(cfg.cache, &Lru);
                cache.reserve_files(prepared.file_count());
                cache.set_est_miss_wait_s(cfg.wait_s_per_miss);
                for r in &dense_refs {
                    if r.write {
                        cache.write(r.id, r.size, r.time, r.next_use);
                    } else {
                        cache.read(r.id, r.size, r.time, r.next_use);
                    }
                }
                std::hint::black_box(cache.stats().read_hits);
            }
            dense_best = dense_best.min(started.elapsed().as_secs_f64());
            let started = Instant::now();
            {
                let mut next_seen: HashMap<u64, i64> = HashMap::new();
                for r in hashed_refs.iter_mut().rev() {
                    let id = u64::from(r.id);
                    r.next_use = next_seen.get(&id).copied();
                    next_seen.insert(id, r.time);
                }
                let stats = fmig_migrate::hashed::replay_prepared(&hashed_refs, &Lru, &cfg);
                std::hint::black_box(stats.read_hits);
            }
            hashed_best = hashed_best.min(started.elapsed().as_secs_f64());
            scaling_runs += 1;
        }
        eprintln!(
            "scaling: {} refs over {} files, dense {:.0} refs/s vs hashed {:.0} refs/s \
             ({:.2}x), best of {scaling_runs} runs",
            prepared.refs().len(),
            prepared.file_count(),
            total_refs / dense_best,
            total_refs / hashed_best,
            hashed_best / dense_best,
        );
        (total_refs / dense_best, total_refs / hashed_best)
    };
    let scaling_speedup_vs_hashed = scaling_refs_per_sec / hashed_refs_per_sec;

    // Fifth tracked score: the kinetic-tournament purge path. A
    // purge-heavy STP(1.4) churn over a *large* resident set (~4000
    // files) in a razor-thin 0.995/0.99 watermark band — the regime the
    // tournament targets: each purge evicts a sliver, so the rescan
    // re-ranks thousands of residents for every handful of victims
    // while the tournament replays only certificate-expired subtrees
    // plus one root-to-leaf path per mutation. The ratio is the
    // victim-ranking speedup on the paper's headline (time-varying)
    // policy; being an in-process ratio it needs no calibration, and
    // `ci/check_bench.py` gates it in the higher-is-better family.
    let (kinetic_purge_indexed_ms, kinetic_purge_rescan_ms) = {
        let seq: Vec<(bool, u64, u64, i64)> = (0..30_000u64)
            .map(|i| {
                let write = i % 4 != 0;
                let id = if write { i } else { i.saturating_sub(900) };
                (write, id, 40_000 + (i % 7) * 10_000, (i * 3) as i64)
            })
            .collect();
        let cfg = CacheConfig {
            capacity: 256 << 20,
            high_watermark: 0.995,
            low_watermark: 0.99,
            eager_writeback: true,
        };
        let stp = Stp::classic();
        let replay = |mode: EvictionMode| {
            let mut cache = DiskCache::with_eviction_mode(cfg, &stp, mode);
            for &(write, id, size, now) in &seq {
                if write {
                    cache.write(id, size, now, None);
                } else {
                    cache.read(id, size, now, None);
                }
            }
            std::hint::black_box(cache.stats().evictions)
        };
        let mut indexed_best = f64::INFINITY;
        let mut rescan_best = f64::INFINITY;
        let budget = Instant::now();
        let mut kinetic_runs = 0u32;
        while kinetic_runs < 1 || (budget.elapsed().as_secs_f64() < 0.4 && kinetic_runs < 50) {
            let started = Instant::now();
            replay(EvictionMode::Indexed);
            indexed_best = indexed_best.min(started.elapsed().as_secs_f64() * 1e3);
            let started = Instant::now();
            replay(EvictionMode::Rescan);
            rescan_best = rescan_best.min(started.elapsed().as_secs_f64() * 1e3);
            kinetic_runs += 1;
        }
        eprintln!(
            "kinetic: purge-heavy STP(1.4) churn, best of {kinetic_runs} runs: \
             tournament {indexed_best:.1} ms vs rescan {rescan_best:.1} ms \
             ({:.1}x speedup)",
            rescan_best / indexed_best
        );
        (indexed_best, rescan_best)
    };
    let kinetic_purge_speedup = kinetic_purge_rescan_ms / kinetic_purge_indexed_ms;

    // `--scaling`: a refs/sec-vs-file-count curve across preset sizes,
    // dense replay only (the artifact's scaling_curve array). Kept
    // behind a flag because the larger points regenerate multi-million-
    // reference workloads.
    let mut scaling_large_refs_per_sec = None;
    let scaling_curve = if scaling {
        let mut rows = Vec::new();
        for (name, curve_config) in [
            ("tiny", SweepConfig::tiny()),
            ("large", SweepConfig::large()),
        ] {
            let shard_preset = curve_config.presets[0];
            let scale = curve_config.scales[0];
            let workload =
                Workload::generate(&shard_preset.workload(scale, curve_config.workload_seed(0, 0)));
            let bytes: u64 = workload.files().iter().map(|f| f.size).sum();
            let mut prep = TracePrep::new();
            for rec in workload.into_records() {
                prep.observe(&rec);
            }
            let point = prep.finish();
            let cfg = EvalConfig::with_capacity(
                ((bytes as f64 * curve_config.cache_fractions[0]) as u64).max(1),
            );
            let started = Instant::now();
            let outcome = point.replay(&Lru, &cfg);
            std::hint::black_box(outcome.stats.read_hits);
            let secs = started.elapsed().as_secs_f64();
            let refs_per_sec = point.refs().len() as f64 / secs;
            eprintln!(
                "scaling curve [{name}]: {} files, {} refs, {refs_per_sec:.0} refs/s",
                point.file_count(),
                point.refs().len(),
            );
            rows.push(format!(
                "{{\"preset\": \"{name}\", \"files\": {}, \"refs\": {}, \"refs_per_sec\": {refs_per_sec:?}}}",
                point.file_count(),
                point.refs().len(),
            ));
            if name == "large" {
                // Surfaced as a top-level score so `ci/check_bench.py`
                // can gate big-trace throughput directly — the tiny-cell
                // speedup alone would miss a large-preset collapse.
                scaling_large_refs_per_sec = Some(refs_per_sec);
            }
        }
        Some(rows)
    } else {
        None
    };

    eprint!("{}", report.render());

    // The report body is deterministic; only the timing envelope varies
    // run to run, which is exactly what the CI baseline compares.
    let latency_fields = if latency {
        format!(
            "  \"latency_wall_ms\": {latency_wall_ms:?},\n  \"latency_normalized_cost\": {:?},\n",
            latency_wall_ms / calibration_ms
        )
    } else {
        String::new()
    };
    let curve_field = match &scaling_curve {
        Some(rows) => {
            let large = scaling_large_refs_per_sec
                .map(|v| format!("  \"scaling_large_refs_per_sec\": {v:?},\n"))
                .unwrap_or_default();
            format!(
                "  \"scaling_curve\": [\n    {}\n  ],\n{large}",
                rows.join(",\n    ")
            )
        }
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"preset\": \"{preset}\",\n  \"cells\": {},\n  \"shards\": {},\n  \"runs\": {runs},\n  \
         \"calibration_ms\": {calibration_ms:?},\n  \"wall_ms\": {wall_ms:?},\n  \
         \"normalized_cost\": {normalized_cost:?},\n  \"mrc_wall_ms\": {mrc_wall_ms:?},\n  \
         \"mrc_naive_wall_ms\": {mrc_naive_wall_ms:?},\n  \"mrc_speedup\": {mrc_speedup:?},\n  \
         \"mrc_normalized_cost\": {mrc_normalized_cost:?},\n  \
         \"scaling_refs_per_sec\": {scaling_refs_per_sec:?},\n  \
         \"hashed_refs_per_sec\": {hashed_refs_per_sec:?},\n  \
         \"scaling_speedup_vs_hashed\": {scaling_speedup_vs_hashed:?},\n  \
         \"kinetic_purge_indexed_ms\": {kinetic_purge_indexed_ms:?},\n  \
         \"kinetic_purge_rescan_ms\": {kinetic_purge_rescan_ms:?},\n  \
         \"kinetic_purge_speedup\": {kinetic_purge_speedup:?},\n{curve_field}{latency_fields}  \"report\": {}}}\n",
        config.cell_count(),
        config.shard_count(),
        indent_json(&report.to_json()),
    );
    std::fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

/// `repro sweep --trace`: replay an imported columnar store through the
/// open-loop sweep matrix ([`SweepConfig::imported`]) and write the
/// deterministic report JSON. The store is streamed chunk by chunk, so
/// multi-GB traces replay under bounded memory; the report is
/// byte-identical at any worker count, like every other sweep.
fn run_trace_sweep(dir: &str, workers: usize, seed: Option<u64>, out: &str) -> Result<(), String> {
    // Open once up front for a friendly error and the progress line;
    // the runner re-opens per shard.
    let store = StoreReader::open(Path::new(dir)).map_err(|e| format!("trace store {dir}: {e}"))?;
    let manifest = store.manifest().clone();
    let mut config = SweepConfig::imported(dir);
    config.workers = workers;
    if let Some(s) = seed {
        config.base_seed = s;
    }
    eprintln!(
        "trace sweep: {} records over {} files ({:.2} GB referenced), {} cells, workers {} (0 = auto)",
        manifest.records,
        manifest.files,
        manifest.referenced_bytes as f64 / 1e9,
        config.cell_count(),
        config.workers,
    );
    let started = Instant::now();
    let report = run_sweep(&config);
    let wall_s = started.elapsed().as_secs_f64();
    // One streaming store pass per policy covers the whole capacity grid.
    let replayed = manifest.records as f64 * config.policies.len() as f64;
    eprintln!(
        "trace sweep done: {wall_s:.1} s ({:.0} replayed refs/s across {} policies)",
        replayed / wall_s.max(1e-9),
        config.policies.len(),
    );
    eprint!("{}", report.render());
    std::fs::write(out, report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

/// `repro ingest`: stream an external-format trace into a columnar
/// replay store and print the trace-stats verifier — the import tallies
/// plus the measured-vs-paper delta table, so the first question about
/// any real trace ("how far is this from the NCAR workload?") is
/// answered at import time.
fn run_ingest_command(args: &[String]) -> Result<(), String> {
    let mut format: Option<FormatId> = None;
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    let mut sample: Option<(u32, u32)> = None;
    let mut sample_seed = 0u64;
    let mut error_budget: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                format = Some(
                    FormatId::parse(v)
                        .ok_or_else(|| format!("unknown format `{v}` (msr|clf|ibm-kv)"))?,
                );
            }
            "--input" => input = Some(it.next().ok_or("--input needs a path")?.clone()),
            "--out" => out = Some(it.next().ok_or("--out needs a store dir")?.clone()),
            "--sample" => {
                let v = it.next().ok_or("--sample needs K/M")?;
                let (k, m) = v
                    .split_once('/')
                    .ok_or_else(|| format!("--sample wants `K/M`, got `{v}`"))?;
                let keep: u32 = k.parse().map_err(|e| format!("bad --sample: {e}"))?;
                let out_of: u32 = m.parse().map_err(|e| format!("bad --sample: {e}"))?;
                if keep == 0 || out_of == 0 || keep > out_of {
                    return Err(format!("--sample wants 0 < K <= M, got {keep}/{out_of}"));
                }
                sample = Some((keep, out_of));
            }
            "--sample-seed" => {
                let v = it.next().ok_or("--sample-seed needs a value")?;
                sample_seed = v.parse().map_err(|e| format!("bad --sample-seed: {e}"))?;
            }
            "--error-budget" => {
                let v = it.next().ok_or("--error-budget needs a value")?;
                error_budget = Some(v.parse().map_err(|e| format!("bad --error-budget: {e}"))?);
            }
            other => return Err(format!("unknown ingest flag `{other}`")),
        }
    }
    let format = format.ok_or("--format is required (msr|clf|ibm-kv)")?;
    let input = input.ok_or("--input is required")?;
    let out = out.ok_or("--out is required")?;
    let mut config = IngestConfig::default();
    if let Some(b) = error_budget {
        config.error_budget = b;
    }
    if let Some((keep, out_of)) = sample {
        config.sample = Some(Sampler::new(keep, out_of, sample_seed));
    }
    let file = std::fs::File::open(&input).map_err(|e| format!("opening {input}: {e}"))?;
    let reader = BufReader::with_capacity(1 << 20, file);
    let started = Instant::now();
    let mut shown = 0u64;
    let report = import(format, reader, config, Path::new(&out), |e| {
        if shown < 10 {
            eprintln!("ingest: {e}");
        } else if shown == 10 {
            eprintln!("ingest: further line diagnostics suppressed (totals below)");
        }
        shown += 1;
    })
    .map_err(|e| format!("import failed: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    print!(
        "{}",
        render_ingest_report(format, &input, &out, &report, secs)
    );
    Ok(())
}

/// The `repro ingest` verifier text: import tallies, store summary, and
/// the measured-vs-paper delta rows in the sweep report's format.
fn render_ingest_report(
    format: FormatId,
    input: &str,
    out: &str,
    report: &ImportReport,
    secs: f64,
) -> String {
    let c = &report.counts;
    let m = &report.manifest;
    let window_days = (m.last - m.epoch).max(0) as f64 / 86_400.0;
    let mut text = format!(
        "imported {input} ({}) -> {out} in {secs:.1} s ({:.0} lines/s)\n\
         \x20 lines {} records {} skipped {} parse-errors {} clamped {} sampled-out {}\n\
         \x20 store: {} replayable records, {} files, {:.2} GB referenced, {:.1}-day window\n",
        format.name(),
        c.lines as f64 / secs.max(1e-9),
        c.lines,
        c.records,
        c.skipped,
        c.parse_errors,
        c.clamped,
        c.sampled_out,
        m.records,
        m.files,
        m.referenced_bytes as f64 / 1e9,
        window_days,
    );
    text.push_str(&paper_delta_table(&report.stats));
    text
}

/// Measured-vs-paper rows for the shape claims computable from a
/// single-pass [`TraceStats`] census, in the sweep report's row format.
fn paper_delta_table(stats: &TraceStats) -> String {
    let targets = PaperTargets::ncar();
    let paper_byte_share = targets.gb_read / (targets.gb_read + targets.gb_written);
    let rows = [
        (
            "read_share",
            targets.read_share(),
            stats.read_reference_share(),
        ),
        (
            "error_fraction",
            targets.error_fraction(),
            stats.error_fraction(),
        ),
        ("read_byte_share", paper_byte_share, stats.read_byte_share()),
    ];
    let mut text = String::new();
    for (metric, paper, measured) in rows {
        text.push_str(&format!(
            "  paper {metric:<28} {paper:>8.3} measured {measured:>8.3}\n"
        ));
    }
    text
}

/// `repro ingest-gen`: write a synthetic MSR-format CSV trace big enough
/// to exercise the ingest path at acceptance scale (defaults: 16 M
/// records over 2^20 distinct extent-files, ≈1 GB of text). The stream
/// is deterministic in its arguments, Zipf-skewed so cache fractions
/// discriminate, and timestamp-ordered like the real extracts.
fn run_ingest_gen_command(args: &[String]) -> Result<(), String> {
    let mut out: Option<String> = None;
    let mut records: u64 = 16_000_000;
    let mut files: u64 = 1 << 20;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--records" => {
                let v = it.next().ok_or("--records needs a value")?;
                records = v.parse().map_err(|e| format!("bad --records: {e}"))?;
            }
            "--files" => {
                let v = it.next().ok_or("--files needs a value")?;
                files = v.parse().map_err(|e| format!("bad --files: {e}"))?;
            }
            other => return Err(format!("unknown ingest-gen flag `{other}`")),
        }
    }
    let out = out.ok_or("--out is required")?;
    if files == 0 || records == 0 {
        return Err("--records and --files must be positive".into());
    }
    // File identity under the MSR mapping is (host, disk, 1 MiB extent);
    // spread the requested count over 64 hosts × 4 disks.
    const HOSTS: u64 = 64;
    const DISKS: u64 = 4;
    let extents = files.div_ceil(HOSTS * DISKS).max(1);
    let file = std::fs::File::create(&out).map_err(|e| format!("creating {out}: {e}"))?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
    let mut write = |line: &str| -> Result<(), String> {
        w.write_all(line.as_bytes())
            .map_err(|e| format!("writing {out}: {e}"))
    };
    write("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n")?;
    // FILETIME ticks for 2008-01-01T00:00:00Z, advancing ~0.2 s per
    // record with sub-second jitter.
    let mut ticks: u64 = (1_199_145_600 + 11_644_473_600) * 10_000_000;
    let mut state = 0x4D53_5221_u64; // "MSR!"
                                     // Xorshift for the stream, with a murmur-style finalizer: raw
                                     // consecutive xorshift outputs are linearly related over GF(2), and
                                     // slicing (host, disk, extent) bits out of them collapses the file
                                     // population onto a subspace far smaller than the product space.
    let mut step = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mut x = state;
        x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    };
    let started = Instant::now();
    for i in 0..records {
        let r = step();
        ticks += 1_000_000 + r % 3_000_000;
        let host = r % HOSTS;
        let disk = (r >> 8) % DISKS;
        // Zipf-ish extents: half the traffic hits a hot 1/64th of the
        // extent space, the rest spreads uniformly (so every extent
        // appears given enough records).
        let e = step();
        let extent = if e.is_multiple_of(2) {
            (e >> 1) % (extents / 64).max(1)
        } else {
            (e >> 1) % extents
        };
        let write_op = step() % 10 < 3;
        let size = 4096 + (step() % 64) * 16_384;
        let resp = step() % 40_000_000; // up to 4 s of ticks
        write(&format!(
            "{ticks},src{host:02},{disk},{},{},{size},{resp}\n",
            if write_op { "Write" } else { "Read" },
            extent << 20,
        ))?;
        if i % 2_000_000 == 1_999_999 {
            eprintln!("ingest-gen: {} / {records} records...", i + 1);
        }
    }
    w.flush().map_err(|e| format!("writing {out}: {e}"))?;
    let bytes = std::fs::metadata(&out).map_err(|e| e.to_string())?.len();
    eprintln!(
        "ingest-gen: wrote {records} records ({:.2} GB) to {out} in {:.1} s",
        bytes as f64 / 1e9,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// One ingest-smoke fixture: an external-format sample plus the pinned
/// import outcome. The pins cover the full import pipeline — line
/// parsing, skip/error discipline, normalization, and the store's
/// manifest arithmetic — so a drift in any layer fails the smoke.
struct IngestFixture {
    format: FormatId,
    path: &'static str,
    records: u64,
    files: u64,
    referenced_bytes: u64,
    read_records: u64,
    skipped: u64,
    parse_errors: u64,
    error_census: u64,
}

const INGEST_FIXTURES: [IngestFixture; 3] = [
    IngestFixture {
        format: FormatId::Msr,
        path: "tests/fixtures/ingest/msr_sample.csv",
        records: 16,
        files: 7,
        referenced_bytes: 536_576,
        read_records: 11,
        skipped: 1,
        parse_errors: 2,
        error_census: 0,
    },
    IngestFixture {
        format: FormatId::Clf,
        path: "tests/fixtures/ingest/clf_sample.log",
        records: 9,
        files: 6,
        referenced_bytes: 1_208_453,
        read_records: 7,
        skipped: 3,
        parse_errors: 2,
        error_census: 3,
    },
    IngestFixture {
        format: FormatId::IbmKv,
        path: "tests/fixtures/ingest/ibmkv_sample.txt",
        records: 14,
        files: 6,
        referenced_bytes: 7_388_757,
        read_records: 10,
        skipped: 2,
        parse_errors: 2,
        error_census: 0,
    },
];

/// `repro ingest-smoke`: import the pinned fixture of every external
/// format, hold the result to its pinned stats, sweep one imported cell
/// at two worker counts, and record the import throughput as
/// `ingest_refs_per_sec` in the benchmark artifact (report-only; the CI
/// baseline keeps it ungated).
fn run_ingest_smoke_command(args: &[String]) -> Result<(), String> {
    let mut bench: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => bench = Some(it.next().ok_or("--bench needs a value")?.clone()),
            other => return Err(format!("unknown ingest-smoke flag `{other}`")),
        }
    }
    let tmp = std::env::temp_dir().join(format!("fmig-ingest-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);

    // 1. Fixture imports: every format, pinned end-to-end.
    let mut kv_store = None;
    for fx in &INGEST_FIXTURES {
        let file = std::fs::File::open(fx.path)
            .map_err(|e| format!("opening {} (run from the repo root): {e}", fx.path))?;
        let dir = tmp.join(fx.format.name());
        let report = import(
            fx.format,
            BufReader::new(file),
            IngestConfig::default(),
            &dir,
            |_| {},
        )
        .map_err(|e| format!("{}: import failed: {e}", fx.path))?;
        let m = &report.manifest;
        let got = (
            m.records,
            m.files,
            m.referenced_bytes,
            m.read_records,
            report.counts.skipped,
            report.counts.parse_errors,
            report.stats.total_errors(),
        );
        let want = (
            fx.records,
            fx.files,
            fx.referenced_bytes,
            fx.read_records,
            fx.skipped,
            fx.parse_errors,
            fx.error_census,
        );
        if got != want {
            return Err(format!(
                "{}: pinned import stats drifted\n  want (records, files, bytes, reads, \
                 skipped, errors, census) = {want:?}\n  got  {got:?}",
                fx.path
            ));
        }
        println!(
            "ingest-smoke {}: {} records, {} files, {} bytes referenced — pins hold",
            fx.format.name(),
            m.records,
            m.files,
            m.referenced_bytes
        );
        if fx.format == FormatId::IbmKv {
            kv_store = Some(dir);
        }
    }

    // 2. One imported sweep cell, byte-identical across worker counts.
    let dir = kv_store.expect("fixture table covers ibm-kv");
    let store_dir = dir.to_str().ok_or("temp dir is not UTF-8")?;
    let mut serial = SweepConfig::imported(store_dir);
    serial.policies = vec![fmig_core::PolicyId::Lru, fmig_core::PolicyId::Stp14];
    serial.cache_fractions = vec![0.25];
    serial.workers = 1;
    let mut pooled = serial.clone();
    pooled.workers = 4;
    let a = run_sweep(&serial).to_json();
    let b = run_sweep(&pooled).to_json();
    if a != b {
        return Err("imported sweep cell differs across worker counts".into());
    }
    if !a.contains("\"preset\": \"imported\"") || !a.contains("\"trace\": ") {
        return Err("imported sweep report is missing its trace schema".into());
    }
    println!("ingest-smoke sweep: imported cell byte-identical at workers 1 and 4");

    // 3. Import throughput on a synthetic in-memory MSR stream, recorded
    //    report-only. 200 k records is enough for a stable figure while
    //    keeping the smoke in CI seconds.
    let mut text = String::with_capacity(16 << 20);
    let mut ticks: u64 = (1_199_145_600 + 11_644_473_600) * 10_000_000;
    let mut state = 0x534D_4F4B_u64; // "SMOK"
    for _ in 0..200_000u32 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ticks += 1_000_000 + state % 1_000_000;
        text.push_str(&format!(
            "{ticks},h{:02},{},{},{},{},{}\n",
            state % 16,
            (state >> 8) % 4,
            if state.is_multiple_of(4) {
                "Write"
            } else {
                "Read"
            },
            ((state >> 16) % 4096) << 20,
            4096 + (state >> 24) % 500_000,
            state % 10_000_000,
        ));
    }
    let bench_dir = tmp.join("bench");
    let started = Instant::now();
    let report = import(
        FormatId::Msr,
        Cursor::new(text.as_bytes()),
        IngestConfig::default(),
        &bench_dir,
        |_| {},
    )
    .map_err(|e| format!("throughput import failed: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    let ingest_refs_per_sec = report.counts.records as f64 / secs.max(1e-9);
    println!(
        "ingest-smoke throughput: {} records in {secs:.2} s ({ingest_refs_per_sec:.0} refs/s)",
        report.counts.records
    );
    if let Some(path) = bench {
        record_bench_key(&path, "ingest_refs_per_sec", ingest_refs_per_sec)?;
        println!("ingest-smoke: recorded ingest_refs_per_sec in {path}");
    }
    std::fs::remove_dir_all(&tmp).map_err(|e| format!("cleanup: {e}"))?;
    println!(
        "ingest-smoke: OK ({} formats, pins hold)",
        INGEST_FIXTURES.len()
    );
    Ok(())
}

/// Inserts (or replaces) one top-level numeric key in the benchmark
/// artifact without disturbing its other fields — the same line-level
/// surgery the service smoke performs for its throughput figure.
fn record_bench_key(path: &str, key: &str, value: f64) -> Result<(), String> {
    let needle = format!("\"{key}\"");
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(_) => {
            let fresh = format!("{{\n  \"{key}\": {value:?}\n}}\n");
            return std::fs::write(path, fresh).map_err(|e| format!("writing {path}: {e}"));
        }
    };
    let kept: Vec<&str> = body.lines().filter(|l| !l.contains(&needle)).collect();
    let mut out = Vec::with_capacity(kept.len() + 1);
    let mut inserted = false;
    for line in kept {
        out.push(line.to_string());
        if !inserted && line.trim_start().starts_with('{') {
            out.push(format!("  \"{key}\": {value:?},"));
            inserted = true;
        }
    }
    let mut text = out.join("\n");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// Measures a fixed CPU-bound mixing loop so wall times from machines of
/// different speeds become comparable: `normalized_cost` is "sweeps per
/// calibration loop", a pure ratio of two measurements on the same box.
fn calibrate_ms() -> f64 {
    // Best of three: the first pass doubles as warm-up, and taking the
    // minimum shrugs off scheduler noise.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        let mut x: u64 = 0x9E37_79B9;
        for i in 0..20_000_000u64 {
            x ^= i;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
        }
        std::hint::black_box(x);
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    if best > 0.0 {
        best
    } else {
        1.0
    }
}

/// Re-indents the sweep report's JSON two levels deep so the artifact
/// stays readable when nested under the timing envelope.
fn indent_json(json: &str) -> String {
    json.trim_end().replace('\n', "\n  ")
}

/// `repro service-smoke`: boot the real `fmig-origin` / `fmig-served` /
/// `fmig-loadgen` binaries over loopback, replay the tiny-preset cell
/// healthy and degraded-peak, and hold the live service to the
/// simulator oracle (exact miss counters and p99 wait). The
/// healthy run's throughput is recorded as `service_refs_per_sec` in
/// the benchmark artifact (report-only; not gated).
fn run_service_smoke_command(args: &[String]) -> Result<(), String> {
    let mut bench = "BENCH_sweep.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => {
                bench = it.next().ok_or("--bench needs a value")?.clone();
            }
            other => return Err(format!("unknown service-smoke flag `{other}`")),
        }
    }
    let outcomes = fmig_serve::smoke::run_service_smoke(Some(&bench))?;
    for o in &outcomes {
        println!(
            "service-smoke {}: miss_ratio={:.4} p99 live={:.1}s oracle={:.1}s ({:.0} refs/s)",
            o.scenario, o.miss_ratio, o.live_p99_s, o.oracle_p99_s, o.refs_per_sec
        );
    }
    println!(
        "service-smoke: OK ({} scenarios, oracle-exact)",
        outcomes.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    // The sweep subcommand has its own flag set; dispatch before the
    // experiment parser sees the arguments.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("sweep") {
        return match run_sweep_command(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                ExitCode::FAILURE
            }
        };
    }
    for (name, run) in [
        (
            "ingest",
            run_ingest_command as fn(&[String]) -> Result<(), String>,
        ),
        ("ingest-gen", run_ingest_gen_command),
        ("ingest-smoke", run_ingest_smoke_command),
    ] {
        if raw.first().map(String::as_str) == Some(name) {
            return match run(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}\n{}", usage());
                    ExitCode::FAILURE
                }
            };
        }
    }
    if raw.first().map(String::as_str) == Some("service-smoke") {
        return match run_service_smoke_command(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                ExitCode::FAILURE
            }
        };
    }

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.targets.iter().any(|t| t == "help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args.targets.iter().any(|t| t == "list") {
        for id in experiment_ids() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let ids: Vec<String> = if args.targets.iter().any(|t| t == "all") {
        experiment_ids().iter().map(|s| s.to_string()).collect()
    } else {
        args.targets.clone()
    };
    for id in &ids {
        if !experiment_ids().contains(&id.as_str()) {
            eprintln!("unknown experiment `{id}`\n{}", usage());
            return ExitCode::FAILURE;
        }
    }

    let mut config = StudyConfig::at_scale(args.scale);
    config.workload.seed = args.seed;
    config.simulate_devices = args.simulate;
    eprintln!(
        "generating study: scale {}, seed {:#x}, simulation {} ...",
        args.scale,
        args.seed,
        if args.simulate { "on" } else { "off" }
    );
    let started = std::time::Instant::now();
    let output = Study::new(config).run();
    eprintln!(
        "study ready: {} records, {} files, {} dirs ({:.1} s)",
        output.records.len(),
        output.analysis.files.file_count(),
        output.analysis.dirs.dir_count(),
        started.elapsed().as_secs_f64()
    );

    for id in &ids {
        match run_experiment(id, &output) {
            Some(result) => {
                println!("{}", result.render());
                println!();
            }
            None => {
                eprintln!("unknown experiment `{id}`");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
