//! The generated-sweep workloads: `front-large`, `matrix-open` and
//! `matrix-closed`.
//!
//! The measured run is one untraced [`run_sweep`]. The traced run
//! recomposes the same report from the layers' public entry points,
//! serially on one thread, in the order the runner calls them: generate
//! → record stream → device sim → analysis and prep → one MRC curve per
//! policy or one hierarchy-engine run per closed cell → report. The
//! recomposed shards are the oracle every measured run must equal.

use fmig_analysis::Analyzer;
use fmig_core::sweep::{CellResult, FaultScenarioId, PaperDelta, PolicyId, PresetId};
use fmig_core::{run_sweep, ShardReport, SweepConfig, SweepReport};
use fmig_migrate::eval::{EvalConfig, TracePrep};
use fmig_sim::{HierarchySimulator, MssSimulator, SimConfig};
use fmig_trace::Direction;
use fmig_workload::{PaperTargets, Workload};

use crate::span::{Clock, Interval, Recorder};

/// `front-large`: generator, record stream, device sim, analysis and
/// prep dominate; replay is one cheap LRU curve.
pub const FRONT_SCALE: f64 = 0.24;
/// `matrix-open`: five policies × three cache fractions, open loop, over
/// two shards of this scale (two independent traces, so the work and
/// its cost average over two draws of the generator).
pub const OPEN_SCALE: f64 = 0.04;
/// `matrix-closed`: five policies × two fault scenarios, closed loop.
pub const CLOSED_SCALE: f64 = 0.04;

/// The sweep each workload runs, seeded by the benchmark's seed.
pub fn config(workload: &str, seed: u64, workers: usize) -> SweepConfig {
    let base = SweepConfig {
        policies: SweepConfig::tiny().policies,
        presets: vec![PresetId::Ncar],
        scales: vec![OPEN_SCALE],
        cache_fractions: vec![0.005, 0.015, 0.05],
        base_seed: seed,
        simulate_devices: true,
        latency: false,
        faults: vec![FaultScenarioId::None],
        workers,
        trace_store: None,
    };
    match workload {
        "front-large" => SweepConfig {
            policies: vec![PolicyId::Lru],
            scales: vec![FRONT_SCALE],
            cache_fractions: vec![0.015],
            ..base
        },
        "matrix-open" => SweepConfig {
            scales: vec![OPEN_SCALE, OPEN_SCALE],
            ..base
        },
        "matrix-closed" => SweepConfig {
            scales: vec![CLOSED_SCALE],
            cache_fractions: vec![0.015],
            latency: true,
            faults: vec![FaultScenarioId::None, FaultScenarioId::DegradedPeak],
            ..base
        },
        other => panic!("not a sweep workload: {other}"),
    }
}

/// Layer counts the traced run observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Trace records the generator's record stream yielded.
    pub records: u64,
    /// Prepared (replayable) references.
    pub refs: u64,
    /// Distinct files interned by prep.
    pub files: u64,
    /// Tape recalls over every closed cell.
    pub recalls: u64,
    /// Recall read retries over every closed cell.
    pub read_retries: u64,
    /// Outage windows that parked a unit, over every closed cell.
    pub outage_events: u64,
}

/// Times each `next` of the wrapped iterator into an [`Interval`].
struct Timed<'a, I> {
    inner: I,
    clock: Clock,
    iv: &'a mut Interval,
}

impl<I: Iterator> Iterator for Timed<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let start = self.clock.now();
        let item = self.inner.next();
        self.iv.add(start, self.clock.now());
        item
    }
}

/// The traced, serial recomposition of `run_sweep(config)`.
///
/// `winners` is copied into the report whose rendering the
/// `core.report` span times (the winner table is computed inside
/// `run_sweep`, so the traced run borrows it from a measured report).
pub fn traced(
    config: &SweepConfig,
    winners: Vec<fmig_core::sweep::Winner>,
    rec: &mut Recorder,
) -> (Vec<ShardReport>, Counts) {
    assert!(
        config.simulate_devices,
        "every sweep workload simulates devices"
    );
    let faults = config.fault_axis();
    let clock = rec.clock();
    let mut counts = Counts::default();
    let mut shards = Vec::new();
    for (preset_idx, &preset) in config.presets.iter().enumerate() {
        for (scale_idx, &scale) in config.scales.iter().enumerate() {
            let workload_seed = config.workload_seed(preset_idx, scale_idx);
            let sim_seed = config.sim_seed(preset_idx, scale_idx);
            let workload = rec.span("workload.generate", || {
                Workload::generate(&preset.workload(scale, workload_seed))
            });
            let files = workload.files().len() as u64;
            let referenced_bytes: u64 = workload.files().iter().map(|f| f.size).sum();

            let mut analysis = Analyzer::new();
            let mut prep = TracePrep::new();
            let (mut t_records, mut t_analysis, mut t_prep) = Default::default();
            let sim_span = rec.enter("sim.device");
            let sim = MssSimulator::new(SimConfig::default().with_seed(sim_seed));
            let stream = Timed {
                inner: workload.into_records(),
                clock,
                iv: &mut t_records,
            };
            let metrics = sim.run_streaming(stream, |r| {
                let a = clock.now();
                analysis.observe(&r);
                let b = clock.now();
                prep.observe(&r);
                let c = clock.now();
                Interval::add(&mut t_analysis, a, b);
                Interval::add(&mut t_prep, b, c);
            });
            rec.aggregate("workload.records", t_records);
            rec.aggregate("analysis.observe", t_analysis);
            rec.aggregate("eval.prep", t_prep);
            rec.exit(sim_span);
            let prepared = rec.span("eval.prep", || prep.finish());
            counts.records += metrics.requests;
            counts.refs += prepared.len() as u64;
            counts.files += prepared.file_count() as u64;

            let capacities: Vec<u64> = config
                .cache_fractions
                .iter()
                .map(|&fraction| ((referenced_bytes as f64 * fraction) as u64).max(1))
                .collect();
            let open = faults
                .iter()
                .any(|&s| !(config.latency || s != FaultScenarioId::None));
            let curves: Vec<_> = if open {
                config
                    .policies
                    .iter()
                    .map(|p| {
                        rec.span(&format!("mrc.curve.{}", p.name()), || {
                            prepared.miss_ratio_curve(
                                p.build().as_ref(),
                                &capacities,
                                &EvalConfig::with_capacity(0),
                            )
                        })
                    })
                    .collect()
            } else {
                Vec::new()
            };

            let mut cells = Vec::new();
            for (fault_idx, &scenario) in faults.iter().enumerate() {
                let closed_loop = config.latency || scenario != FaultScenarioId::None;
                for (cache_idx, &fraction) in config.cache_fractions.iter().enumerate() {
                    let eval_config = EvalConfig::with_capacity(capacities[cache_idx]);
                    for (policy_idx, &policy) in config.policies.iter().enumerate() {
                        if closed_loop {
                            let seed = config.cell_fault_seed(
                                preset_idx, scale_idx, cache_idx, policy_idx, fault_idx, scenario,
                            );
                            let outcome =
                                rec.span(&format!("hierarchy.cell.{}", policy.name()), || {
                                    HierarchySimulator::new(SimConfig::default().with_seed(seed))
                                        .evaluate_with_faults(
                                            &prepared,
                                            policy.build().as_ref(),
                                            &eval_config,
                                            &scenario.plan(),
                                        )
                                });
                            if let Some(lat) = outcome.latency {
                                counts.recalls += lat.recalls;
                                if let Some(d) = lat.degraded {
                                    counts.read_retries += d.read_retries;
                                    counts.outage_events += d.outage_events;
                                }
                            }
                            cells.push(CellResult {
                                policy,
                                fault: scenario,
                                cache_fraction: fraction,
                                capacity_bytes: capacities[cache_idx],
                                miss_ratio: outcome.miss_ratio,
                                byte_miss_ratio: outcome.byte_miss_ratio,
                                person_minutes_per_day: outcome.person_minutes_per_day,
                                latency: outcome.latency,
                            });
                        } else {
                            let point = &curves[policy_idx].points[cache_idx];
                            cells.push(CellResult {
                                policy,
                                fault: scenario,
                                cache_fraction: fraction,
                                capacity_bytes: capacities[cache_idx],
                                miss_ratio: point.miss_ratio(),
                                byte_miss_ratio: point.byte_miss_ratio(),
                                person_minutes_per_day: point.stats.person_minutes_per_day(
                                    eval_config.wait_s_per_miss,
                                    eval_config.trace_days,
                                ),
                                latency: None,
                            });
                        }
                    }
                }
            }
            rec.span("eval.drop", || drop(prepared));
            let shard = rec.span("analysis.report", || {
                let shard = ShardReport {
                    preset,
                    scale,
                    workload_seed,
                    sim_seed,
                    records: metrics.requests,
                    files,
                    referenced_gb: referenced_bytes as f64 / 1e9,
                    read_share: analysis.stats.read_reference_share(),
                    mean_read_latency_s: analysis.latency.direction_mean(Direction::Read),
                    mean_write_latency_s: analysis.latency.direction_mean(Direction::Write),
                    paper_deltas: paper_deltas(preset, &analysis),
                    cells,
                };
                drop(analysis);
                shard
            });
            shards.push(shard);
        }
    }

    let report = SweepReport {
        base_seed: config.base_seed,
        simulated_devices: config.simulate_devices,
        latency_mode: config.latency,
        trace_store: config.trace_store.clone(),
        fault_scenarios: faults,
        shards,
        winners,
    };
    rec.span("core.report", || {
        std::hint::black_box(report.to_json());
        std::hint::black_box(report.render());
    });
    rec.finish();
    (report.shards, counts)
}

/// The runner's published-vs-measured rows, from the same analysis.
fn paper_deltas(preset: PresetId, analysis: &Analyzer) -> Vec<PaperDelta> {
    if preset != PresetId::Ncar {
        return Vec::new();
    }
    let targets = PaperTargets::ncar();
    let delta = |metric: &str, paper: f64, measured: f64| PaperDelta {
        metric: metric.to_string(),
        paper,
        measured,
    };
    vec![
        delta(
            "read_share",
            targets.read_share(),
            analysis.stats.read_reference_share(),
        ),
        delta(
            "error_fraction",
            targets.error_fraction(),
            analysis.stats.error_fraction(),
        ),
        delta(
            "files_never_read",
            targets.files_never_read,
            analysis.files.never_read(),
        ),
        delta(
            "files_accessed_once",
            targets.files_accessed_once,
            analysis.files.accessed_once(),
        ),
        delta(
            "requests_within_8h",
            targets.requests_within_8h_of_same_file,
            analysis.files.repeat_within_8h_fraction(),
        ),
        delta(
            "file_gap_under_1d",
            targets.file_gap_under_1d,
            analysis.files.intervals_under_1d(),
        ),
    ]
}

/// One measured run's output.
pub struct RunOut {
    /// The report's deterministic JSON.
    pub json: String,
    /// The report itself.
    pub report: SweepReport,
}

/// One untraced, measured run.
pub fn run(config: &SweepConfig) -> RunOut {
    let report = run_sweep(config);
    let json = report.to_json();
    RunOut { json, report }
}

/// Checks one measured run: its shards equal the traced recomposition
/// exactly, its JSON equals the first run's, and Belady bounds every
/// policy in every (fault, cache) group.
pub fn verify(out: &RunOut, oracle: &[ShardReport], first_json: &str) -> Result<(), String> {
    if out.report.shards != oracle {
        return Err("run_sweep shards differ from the recomposed layers".into());
    }
    if out.json != first_json {
        return Err("report JSON differs between runs".into());
    }
    belady_bounds(&out.report.shards)
}

/// Belady's miss ratio is no worse than any policy's on the same trace,
/// cache and fault scenario.
pub fn belady_bounds(shards: &[ShardReport]) -> Result<(), String> {
    for shard in shards {
        for b in shard.cells.iter().filter(|c| c.policy == PolicyId::Belady) {
            for c in shard
                .cells
                .iter()
                .filter(|c| c.fault == b.fault && c.cache_fraction == b.cache_fraction)
            {
                if b.miss_ratio > c.miss_ratio + 1e-12 {
                    return Err(format!(
                        "belady {} beaten by {} {} at fraction {} ({})",
                        b.miss_ratio,
                        c.policy.name(),
                        c.miss_ratio,
                        c.cache_fraction,
                        c.fault.name()
                    ));
                }
            }
        }
    }
    Ok(())
}
