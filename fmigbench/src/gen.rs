//! Seeded set-up generators: the MSR Cambridge CSV the `ingest-msr`
//! workload imports, and the sweep cell plus simulator oracle the
//! `service-live` workload replays. Both are pure functions of the seed.

use std::io::{self, Write};

use fmig_core::{FaultScenarioId, PresetId, SweepConfig};
use fmig_migrate::cache::CacheConfig;
use fmig_migrate::eval::TracePrep;
use fmig_serve::loadgen::CellSetup;
use fmig_sim::event::MS;
use fmig_sim::fault::FAULT_HORIZON_SLACK_MS;
use fmig_sim::{HierarchyMetrics, HierarchySimulator, MssSimulator, SimConfig};
use fmig_trace::ingest::splitmix64;
use fmig_workload::Workload;

/// A splitmix64 stream: a small, seedable generator with a fixed output
/// sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What [`write_msr_csv`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsrTrace {
    /// Lines written, the header included.
    pub lines: u64,
    /// Well-formed request lines.
    pub requests: u64,
    /// Malformed lines; an import must report exactly this many parse
    /// errors.
    pub malformed: u64,
}

/// One malformed line in this many, at seeded positions.
pub const MALFORMED_ONE_IN: u64 = 1000;

/// Trace hosts, named after the MSR Cambridge servers.
const HOSTS: [&str; 12] = [
    "hm", "mds", "prn", "proj", "prxy", "rsrch", "src1", "src2", "stg", "ts", "usr", "web",
];
const DISKS: u64 = 4;
/// Cold extents per volume (host × disk).
const COLD_EXTENTS: u64 = 40_000;
/// Hot extents per volume.
const HOT_EXTENTS: u64 = 1_500;
/// Recently used extents kept for re-reference.
const RECENT: usize = 512;

/// Writes `requests` well-formed MSR request lines plus a header and a
/// seeded one-in-[`MALFORMED_ONE_IN`] share of malformed lines.
///
/// Accesses mix three localities so replay policies have something to
/// decide: re-references of a recently used extent (30%), a per-volume
/// hot set (40%), and a wide cold range (30%). Volumes are skewed
/// toward the first hosts. The same seed writes the same bytes.
pub fn write_msr_csv(seed: u64, requests: u64, out: &mut impl Write) -> io::Result<MsrTrace> {
    let mut rng = Rng::new(seed ^ 0x4D53_525F_4353_5631); // "MSR_CSV1"
    let mut trace = MsrTrace {
        lines: 1,
        requests: 0,
        malformed: 0,
    };
    writeln!(
        out,
        "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"
    )?;
    let volumes = HOSTS.len() as u64 * DISKS;
    let mut recent = [(0u64, 0u64); RECENT];
    let mut filled = 0usize;
    // 2007-02-22, FILETIME ticks, shifted per seed by up to a day.
    let mut ticks: u64 = 128_166_372_000_000_000 + rng.below(864_000_000_000);
    while trace.requests < requests {
        ticks += rng.below(2_000_000);
        if rng.below(MALFORMED_ONE_IN) == 0 {
            let bad = match rng.below(4) {
                0 => format!("{ticks},hm,0,Read,4096"),
                1 => format!("{ticks},hm,0,Trim,0,4096,10"),
                2 => format!("{ticks},hm,zero,Read,0,4096,10"),
                _ => format!("{ticks},h m,0,Write,0,4096,10"),
            };
            writeln!(out, "{bad}")?;
            trace.lines += 1;
            trace.malformed += 1;
            continue;
        }
        let roll = rng.below(10);
        let (volume, extent) = if roll < 3 && filled > 0 {
            recent[rng.below(filled as u64) as usize]
        } else {
            let volume = rng.below(volumes).min(rng.below(volumes));
            let extent = if roll < 7 {
                rng.below(HOT_EXTENTS)
            } else {
                HOT_EXTENTS + rng.below(COLD_EXTENTS)
            };
            (volume, extent)
        };
        let slot = if filled < RECENT {
            filled += 1;
            filled - 1
        } else {
            rng.below(RECENT as u64) as usize
        };
        recent[slot] = (volume, extent);
        let host = HOSTS[(volume / DISKS) as usize];
        let disk = volume % DISKS;
        let offset = (extent << 20) + rng.below(256) * 4096;
        let size = 4096u64 << rng.below(8);
        let kind = if rng.below(10) < 7 { "Read" } else { "Write" };
        let response = rng.below(100_000);
        writeln!(
            out,
            "{ticks},{host},{disk},{kind},{offset},{size},{response}"
        )?;
        trace.lines += 1;
        trace.requests += 1;
    }
    Ok(trace)
}

/// The sweep `service-live` draws its cell from: the `tiny` matrix's
/// policies and fault axis on the NCAR preset at `scale`, seeded by the
/// benchmark's seed.
pub fn service_config(seed: u64, scale: f64) -> SweepConfig {
    SweepConfig {
        presets: vec![PresetId::Ncar],
        scales: vec![scale],
        base_seed: seed,
        ..SweepConfig::tiny()
    }
}

/// Prepares cell (preset 0, scale 0, cache 0, policy 0) of
/// [`service_config`] for `scenario`, deriving every seed the way
/// `fmig_serve::loadgen::tiny_cell` does for the `tiny` matrix, and
/// runs the counter-noise hierarchy engine over it: the oracle the live
/// service must match counter for counter.
pub fn service_cell(
    seed: u64,
    scale: f64,
    scenario: FaultScenarioId,
) -> (CellSetup, HierarchyMetrics) {
    let config = service_config(seed, scale);
    let preset = config.presets[0];
    let workload_seed = config.workload_seed(0, 0);
    let sim_seed = config.sim_seed(0, 0);

    let workload = Workload::generate(&preset.workload(config.scales[0], workload_seed));
    let referenced_bytes: u64 = workload.files().iter().map(|f| f.size).sum();
    let mut prep = TracePrep::new();
    MssSimulator::new(SimConfig::default().with_seed(sim_seed))
        .run_streaming(workload.into_records(), |rec| prep.observe(&rec));
    let refs = prep.finish().refs().to_vec();

    let capacity = ((referenced_bytes as f64 * config.cache_fractions[0]) as u64).max(1);
    let fault_idx = config
        .fault_axis()
        .iter()
        .position(|s| *s == scenario)
        .unwrap_or(0);
    let cell_seed = config.cell_fault_seed(0, 0, 0, 0, fault_idx, scenario);
    let span_start_vms = refs.first().map_or(0, |r| r.time * MS);
    let span_end_vms = refs.last().map_or(0, |r| r.time * MS) + FAULT_HORIZON_SLACK_MS;
    let setup = CellSetup {
        scenario,
        refs,
        capacity,
        seed: cell_seed,
        span_start_vms,
        span_end_vms,
    };
    let oracle = HierarchySimulator::new(
        SimConfig::default()
            .with_seed(setup.seed)
            .with_counter_noise(true),
    )
    .run_with_faults(
        CacheConfig::with_capacity(setup.capacity),
        config.policies[0].build().as_ref(),
        &setup.refs,
        &scenario.plan(),
    );
    (setup, oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmig_serve::loadgen::tiny_cell;

    fn csv(seed: u64, requests: u64) -> (Vec<u8>, MsrTrace) {
        let mut buf = Vec::new();
        let trace = write_msr_csv(seed, requests, &mut buf).expect("in-memory write");
        (buf, trace)
    }

    #[test]
    fn msr_csv_is_byte_identical_per_seed() {
        let (a, ta) = csv(11, 20_000);
        let (b, tb) = csv(11, 20_000);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        let (c, _) = csv(12, 20_000);
        assert_ne!(a, c, "another seed writes another trace");
    }

    #[test]
    fn msr_csv_counts_match_what_the_parser_sees() {
        use fmig_trace::ingest::{FormatId, IngestConfig};
        let (bytes, trace) = csv(5, 50_000);
        assert_eq!(trace.requests, 50_000);
        assert_eq!(trace.lines, 1 + trace.requests + trace.malformed);
        // A fixed small share: one in a thousand, give or take chance.
        assert!((20..=90).contains(&trace.malformed), "{}", trace.malformed);
        let config = IngestConfig {
            error_budget: trace.malformed,
            sample: None,
        };
        let mut stream = FormatId::Msr.stream(bytes.as_slice(), config);
        let ok = stream.by_ref().filter(|r| r.is_ok()).count() as u64;
        assert_eq!(ok, trace.requests);
        assert_eq!(stream.counts.parse_errors, trace.malformed);
        assert_eq!(stream.counts.lines, trace.lines);
    }

    #[test]
    fn service_cell_is_deterministic_per_seed() {
        let (a, oa) = service_cell(3, 0.002, FaultScenarioId::None);
        let (b, ob) = service_cell(3, 0.002, FaultScenarioId::None);
        assert_eq!(a.refs, b.refs);
        assert_eq!((a.capacity, a.seed), (b.capacity, b.seed));
        assert_eq!(oa, ob);
        let (c, _) = service_cell(4, 0.002, FaultScenarioId::None);
        assert_ne!(a.refs, c.refs);
    }

    #[test]
    fn service_cell_derives_seeds_like_tiny_cell() {
        // At the tiny matrix's own seed and scale the two must agree.
        let tiny = SweepConfig::tiny();
        for scenario in [FaultScenarioId::None, FaultScenarioId::DegradedPeak] {
            let (ours, _) = service_cell(tiny.base_seed, tiny.scales[0], scenario);
            let theirs = tiny_cell(scenario);
            assert_eq!(ours.refs, theirs.refs);
            assert_eq!(ours.capacity, theirs.capacity);
            assert_eq!(ours.seed, theirs.seed);
            assert_eq!(ours.span_start_vms, theirs.span_start_vms);
            assert_eq!(ours.span_end_vms, theirs.span_end_vms);
        }
    }
}
