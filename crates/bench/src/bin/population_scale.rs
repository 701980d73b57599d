//! Millions-of-users composition discovery over a streamed segment
//! store, recorded in `BENCH_population_scale.json`.
//!
//! The paper's Table-1 pipeline at platform scale: a ≥20M-user universe
//! is generated segment-at-a-time straight to disk (never materialised
//! whole — the monolithic latent buffer alone would be ~960 MB), served
//! through a [`SegmentedPlatform`] with a bounded audience cache, and
//! audited twice with the identical candidate schedule:
//!
//! * **greedy** — [`top_compositions`], which measures every sampled
//!   candidate with seven estimate queries and then filters by the
//!   min-reach floor;
//! * **bounded** — [`top_compositions_bounded`], which prunes candidates
//!   below the floor through the [`ReachOracle`] (min-cardinality bounds
//!   and thresholded intersections) before issuing any estimate queries.
//!
//! Both searches run serially (no scheduler attached), so the reported
//! speedup is a single-thread number. Gates:
//!
//! * the two searches return **byte-identical** results;
//! * peak RSS (`VmHWM`) stays under a configured ceiling despite the
//!   20M-user universe;
//! * the bounded search issues ≤ half the estimate queries of greedy;
//! * survey throughput meets a conservative serial qps floor;
//! * at paper scale only: ≥2x single-threaded wall-clock speedup.

use std::sync::Arc;
use std::time::Instant;

use adcomp_bench::{say, Cli};
use adcomp_core::source::{ApiSource, AuditTarget, SensitiveClass};
use adcomp_core::{
    rank_individuals, survey_individuals, top_compositions, top_compositions_bounded, Direction,
    DiscoveryConfig, DEFAULT_MIN_REACH, QUERIES_PER_SPEC,
};
use adcomp_platform::{
    Catalog, CategorySpec, EstimateKind, InterfaceKind, Objective, PlatformConfig, RoundingRule,
    SegmentedPlatform, SimScale, SkewProfile,
};
use adcomp_population::{DemographicProfile, Gender, SegmentStore, UniverseConfig, SEGMENT_ALIGN};
use adcomp_targeting::Capabilities;

/// Everything that differs between the CI-sized and paper-sized runs.
struct Params {
    /// Total users; a multiple of the segment size.
    n_users: u32,
    /// Users per on-disk segment.
    segment_users: u32,
    /// Decoded-audience cache budget.
    cache_bytes: usize,
    /// Attribute popularity range (log-uniform). Chosen per scale so a
    /// realistic majority of sampled pairs falls below the reach floor —
    /// the regime the paper's 10k floor creates at real platform sizes.
    popularity: (f64, f64),
    /// Discovery min-reach floor.
    min_reach: u64,
    /// Peak-RSS ceiling in MiB.
    rss_ceiling_mib: u64,
    /// Serial survey throughput floor (queries/sec).
    survey_qps_floor: f64,
    /// Wall-clock speedup gate for bounded vs greedy (paper scale only;
    /// the query-count gate is enforced at both scales).
    wall_speedup_floor: Option<f64>,
}

impl Params {
    fn for_scale(scale: SimScale) -> Params {
        match scale {
            // 20 × 1 Mi-user segments = 20 971 520 users. At the paper's
            // 10k floor, pairs need |A∧B| ≳ 9 950, so popularities in
            // (0.0008, 0.045) leave the large majority of sampled pairs
            // prunable — the regime a 10k floor creates on a real
            // platform — while individual attributes (~17k users and up)
            // stay eligible.
            SimScale::Paper => Params {
                n_users: 20 * 16 * SEGMENT_ALIGN,
                segment_users: 16 * SEGMENT_ALIGN,
                cache_bytes: 192 << 20,
                popularity: (0.0008, 0.045),
                min_reach: DEFAULT_MIN_REACH,
                rss_ceiling_mib: 1024,
                survey_qps_floor: 10.0,
                wall_speedup_floor: Some(2.0),
            },
            // Three minimal segments; the floor and popularity range are
            // rescaled so the pass/fail mix matches the paper regime.
            SimScale::Test => Params {
                n_users: 3 * SEGMENT_ALIGN,
                segment_users: SEGMENT_ALIGN,
                cache_bytes: 4 << 20,
                popularity: (0.01, 0.3),
                min_reach: 3_000,
                rss_ceiling_mib: 512,
                survey_qps_floor: 50.0,
                wall_speedup_floor: None,
            },
        }
    }
}

/// (VmRSS, VmHWM) in MiB from `/proc/self/status`; zeros if unreadable
/// (non-Linux dev hosts — the RSS gate then passes trivially there, but
/// CI is Linux).
fn rss_mib() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb / 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

fn catalog_for(seed: u64, popularity: (f64, f64)) -> Catalog {
    let skew = |lean: f32| {
        let mut s = SkewProfile::neutral().lean_male(lean);
        s.popularity_range = popularity;
        s
    };
    Catalog::generate(
        seed,
        &[
            CategorySpec {
                name: "Interests",
                domain: "interests",
                feature: adcomp_targeting::FeatureId(0),
                count: 28,
                skew: skew(0.35),
            },
            CategorySpec {
                name: "Lifestyle",
                domain: "lifestyle",
                feature: adcomp_targeting::FeatureId(1),
                count: 28,
                skew: skew(-0.2),
            },
        ],
    )
}

fn main() {
    let cli = Cli::parse();
    let p = Params::for_scale(cli.scale);
    let dir = std::env::temp_dir().join(format!("adcomp-population-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = UniverseConfig {
        n_users: p.n_users,
        seed: cli.seed,
        scale: 1.0,
        profile: DemographicProfile::balanced(),
    };
    let catalog = catalog_for(cli.seed ^ 0x5eed, p.popularity);
    let models: Vec<_> = catalog.entries().iter().map(|e| e.model.clone()).collect();

    say!(
        "generating {} users in {}-user segments ({} attributes)...",
        p.n_users,
        p.segment_users,
        models.len()
    );
    let gen_start = Instant::now();
    let store = SegmentStore::create(&dir, &config, p.segment_users, &models, p.cache_bytes)
        .expect("create segment store");
    let gen_secs = gen_start.elapsed().as_secs_f64();
    let (rss_after_gen, _) = rss_mib();
    say!(
        "generated {} segments in {gen_secs:.1}s ({:.0} users/sec), RSS {rss_after_gen} MiB",
        store.n_segments(),
        f64::from(p.n_users) / gen_secs
    );

    let platform = Arc::new(SegmentedPlatform::new(
        PlatformConfig {
            kind: InterfaceKind::FacebookNormal,
            capabilities: Capabilities::permissive(),
            rounding: RoundingRule::facebook(),
            estimate_kind: EstimateKind::Users,
            supported_objectives: vec![Objective::Reach],
            default_objective: Objective::Reach,
        },
        store,
        catalog,
    ));
    let target = AuditTarget::direct(Arc::new(ApiSource(platform.clone())));

    // Serial survey: one estimate query per attribute plus demographics.
    let survey_start = Instant::now();
    let survey = survey_individuals(&target).expect("survey");
    let survey_secs = survey_start.elapsed().as_secs_f64();
    let survey_queries = platform.stats().estimates;
    let survey_qps = survey_queries as f64 / survey_secs;
    say!("surveyed {survey_queries} queries in {survey_secs:.2}s ({survey_qps:.0} qps)");

    let cfg = DiscoveryConfig {
        top_k: cli.top_k,
        min_reach: p.min_reach,
        arity: 2,
        seed: cli.seed,
    };
    let ranked = rank_individuals(
        &survey,
        SensitiveClass::Gender(Gender::Male),
        Direction::Toward,
        cfg.min_reach,
    );

    // Greedy first so its cold-cache penalty (if any) favours greedy,
    // then bounded over the identical candidate schedule. Both serial.
    let before = platform.stats().estimates;
    let greedy_start = Instant::now();
    let greedy = top_compositions(&target, &survey, &ranked, &cfg).expect("greedy search");
    let greedy_secs = greedy_start.elapsed().as_secs_f64();
    let greedy_queries = platform.stats().estimates - before;

    let before = platform.stats().estimates;
    let bounded_start = Instant::now();
    let bounded = top_compositions_bounded(&target, &survey, &ranked, &cfg, platform.as_ref())
        .expect("bounded search");
    let bounded_secs = bounded_start.elapsed().as_secs_f64();
    let bounded_queries = platform.stats().estimates - before;

    let identical = greedy == bounded;
    let speedup_wall = greedy_secs / bounded_secs.max(1e-9);
    let speedup_queries = greedy_queries as f64 / bounded_queries.max(1) as f64;
    let survivors = bounded_queries / QUERIES_PER_SPEC as u64;
    let (rss_now, rss_peak) = rss_mib();
    let cache = platform.store().cache_stats();

    say!(
        "greedy: {} compositions, {greedy_queries} queries, {greedy_secs:.2}s",
        greedy.len()
    );
    say!(
        "bounded: {} compositions, {bounded_queries} queries ({survivors} survivors), \
         {bounded_secs:.2}s — {speedup_wall:.1}x wall, {speedup_queries:.1}x queries",
        bounded.len()
    );
    say!(
        "RSS now {rss_now} MiB, peak {rss_peak} MiB (ceiling {} MiB)",
        p.rss_ceiling_mib
    );

    let rss_ok = rss_peak < p.rss_ceiling_mib;
    let queries_ok = speedup_queries >= 2.0;
    let qps_ok = survey_qps >= p.survey_qps_floor;
    let wall_ok = p.wall_speedup_floor.is_none_or(|f| speedup_wall >= f);
    let pass = identical && rss_ok && queries_ok && qps_ok && wall_ok;

    let scale_name = match cli.scale {
        SimScale::Paper => "paper",
        SimScale::Test => "test",
    };
    let json = format!(
        "{{\n  \"bench\": \"population_scale\",\n  \"scale\": \"{scale_name}\",\n  \
         \"n_users\": {},\n  \"segment_users\": {},\n  \"n_segments\": {},\n  \
         \"attributes\": {},\n  \"top_k\": {},\n  \"min_reach\": {},\n  \
         \"generate\": {{ \"seconds\": {gen_secs:.2}, \"users_per_sec\": {:.0} }},\n  \
         \"survey\": {{ \"queries\": {survey_queries}, \"seconds\": {survey_secs:.3}, \
         \"qps\": {survey_qps:.0}, \"qps_floor\": {} }},\n  \
         \"greedy\": {{ \"compositions\": {}, \"queries\": {greedy_queries}, \
         \"seconds\": {greedy_secs:.3} }},\n  \
         \"bounded\": {{ \"compositions\": {}, \"queries\": {bounded_queries}, \
         \"survivors\": {survivors}, \"seconds\": {bounded_secs:.3} }},\n  \
         \"speedup_wall\": {speedup_wall:.2},\n  \"speedup_queries\": {speedup_queries:.2},\n  \
         \"identical\": {identical},\n  \
         \"rss\": {{ \"peak_mib\": {rss_peak}, \"ceiling_mib\": {} }},\n  \
         \"cache\": {{ \"hits\": {}, \"misses\": {}, \"resident_bytes\": {} }},\n  \
         \"pass\": {pass}\n}}\n",
        p.n_users,
        p.segment_users,
        platform.store().n_segments(),
        platform.catalog().len(),
        cfg.top_k,
        cfg.min_reach,
        f64::from(p.n_users) / gen_secs,
        p.survey_qps_floor,
        greedy.len(),
        bounded.len(),
        p.rss_ceiling_mib,
        cache.hits,
        cache.misses,
        cache.resident_bytes,
    );
    std::fs::write("BENCH_population_scale.json", &json)
        .expect("write BENCH_population_scale.json");
    say!("{json}");

    let _ = std::fs::remove_dir_all(&dir);
    if !pass {
        adcomp_obs::error!(
            "population_scale failed: identical={identical} rss_ok={rss_ok} \
             queries_ok={queries_ok} qps_ok={qps_ok} wall_ok={wall_ok}"
        );
        std::process::exit(1);
    }
    adcomp_obs::info!(
        "population scale: {} users, bounded search {speedup_wall:.1}x wall / \
         {speedup_queries:.1}x queries vs greedy, peak RSS {rss_peak} MiB",
        p.n_users
    );
}
