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

use std::process::ExitCode;
use std::sync::Arc;

use adcomp_bench::harness::{peak_rss_mib, time, Gate, Report, ScratchDir};
use adcomp_bench::{say, Cli};
use adcomp_core::source::{AuditTarget, SensitiveClass};
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
    /// Whether the bounded-vs-greedy wall-clock floor is enforced
    /// (paper scale only; the query-count floor holds at both scales).
    wall_floor_enforced: bool,
}

/// Required bounded-vs-greedy reduction in estimate queries.
const QUERY_SPEEDUP_FLOOR: f64 = 2.0;
/// Required bounded-vs-greedy single-threaded wall-clock speedup.
const WALL_SPEEDUP_FLOOR: f64 = 2.0;

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
                wall_floor_enforced: true,
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
                wall_floor_enforced: false,
            },
        }
    }
}

fn gates(
    p: &Params,
    identical: bool,
    peak_mib: f64,
    survey_qps: f64,
    speedup_queries: f64,
    speedup_wall: f64,
) -> [Gate; 5] {
    [
        Gate::flag("identical", identical),
        Gate::new("peak_rss_mib", peak_mib, "<", p.rss_ceiling_mib as f64),
        Gate::new("survey_qps", survey_qps, ">=", p.survey_qps_floor),
        Gate::new(
            "speedup_queries",
            speedup_queries,
            ">=",
            QUERY_SPEEDUP_FLOOR,
        ),
        Gate::new("speedup_wall", speedup_wall, ">=", WALL_SPEEDUP_FLOOR)
            .enforced_if(p.wall_floor_enforced),
    ]
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

fn main() -> ExitCode {
    let cli = Cli::parse();
    let p = Params::for_scale(cli.scale);
    let scratch = ScratchDir::new("population-scale");

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
    let (store, gen_secs) = time(|| {
        SegmentStore::create(
            scratch.path(),
            &config,
            p.segment_users,
            &models,
            p.cache_bytes,
        )
        .expect("create segment store")
    });

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
    let target = AuditTarget::direct(platform.clone());
    let estimates = || platform.stats().estimates;

    // Serial survey: one estimate query per attribute plus demographics.
    let (survey, survey_secs) = time(|| survey_individuals(&target).expect("survey"));
    let survey_queries = estimates();
    let survey_qps = survey_queries as f64 / survey_secs;

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
    let before = estimates();
    let (greedy, greedy_secs) =
        time(|| top_compositions(&target, &survey, &ranked, &cfg).expect("greedy search"));
    let greedy_queries = estimates() - before;

    let before = estimates();
    let (bounded, bounded_secs) = time(|| {
        top_compositions_bounded(&target, &survey, &ranked, &cfg, platform.as_ref())
            .expect("bounded search")
    });
    let bounded_queries = estimates() - before;

    let speedup_wall = greedy_secs / bounded_secs.max(1e-9);
    let speedup_queries = greedy_queries as f64 / bounded_queries.max(1) as f64;
    let survivors = bounded_queries / QUERIES_PER_SPEC as u64;
    let cache = platform.store().cache_stats();
    let gen_rate = f64::from(p.n_users) / gen_secs;
    Report::new("population_scale")
        .value("n_users", "count", f64::from(p.n_users))
        .value("segment_users", "count", f64::from(p.segment_users))
        .value("n_segments", "count", platform.store().n_segments() as f64)
        .value("attributes", "count", platform.catalog().len() as f64)
        .value("top_k", "count", cfg.top_k as f64)
        .value("min_reach", "count", cfg.min_reach as f64)
        .value("generate_s", "s", gen_secs)
        .value("generate_users_per_s", "1/s", gen_rate)
        .value("survey_queries", "count", survey_queries as f64)
        .value("survey_s", "s", survey_secs)
        .value("greedy_compositions", "count", greedy.len() as f64)
        .value("greedy_queries", "count", greedy_queries as f64)
        .value("greedy_s", "s", greedy_secs)
        .value("bounded_compositions", "count", bounded.len() as f64)
        .value("bounded_queries", "count", bounded_queries as f64)
        .value("bounded_survivors", "count", survivors as f64)
        .value("bounded_s", "s", bounded_secs)
        .value("cache_hits", "count", cache.hits as f64)
        .value("cache_misses", "count", cache.misses as f64)
        .value("cache_resident_bytes", "bytes", cache.resident_bytes as f64)
        .gates(gates(
            &p,
            greedy == bounded,
            peak_rss_mib(),
            survey_qps,
            speedup_queries,
            speedup_wall,
        ))
        .finish("BENCH_population_scale.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_hold_at_their_bounds_and_fail_just_past() {
        let paper = Params::for_scale(SimScale::Paper);
        let pass = |p: &Params, identical, rss, qps, queries, wall| {
            gates(p, identical, rss, qps, queries, wall).map(|g| g.pass())
        };
        let committed = pass(&paper, true, 69.53, 2106.8, 7.52, 1.19);
        assert_eq!(committed, [true, true, true, true, false]);
        assert_eq!(pass(&paper, true, 1023.9, 10.0, 2.0, 2.0), [true; 5]);
        assert_eq!(pass(&paper, false, 1024.0, 9.99, 1.99, 1.99), [false; 5]);
        // At test scale the wall floor is measured but not enforced.
        let test = Params::for_scale(SimScale::Test);
        assert_eq!(pass(&test, true, 7.6, 78092.8, 3.70, 2.24), [true; 5]);
        let missed = pass(&test, true, 512.0, 49.9, 1.99, 0.5);
        assert_eq!(missed, [true, false, false, false, true]);
    }
}
