//! Ablation studies for the design choices DESIGN.md §6 calls out.
//!
//! 1. **Rounding ablation** — how much error do the platforms' rounding
//!    ladders inject into representation ratios, per platform? Uses the
//!    simulator's ground truth (exact audiences), which the audit itself
//!    never touches; quantifies why the paper's interval analysis was
//!    necessary and why it succeeds.
//! 2. **Greedy-vs-exhaustive discovery** — the paper's greedy method
//!    measures ~1 000 pairs; an exhaustive crawl of all eligible pairs
//!    measures orders of magnitude more. How much of the true top-K does
//!    greedy find, at what query cost?

use adcomp_bench::{context, finish, print_block, say, timed, Cli};
use adcomp_core::{
    compose_and_measure, measure_spec, rank_individuals, rep_ratio, rep_ratio_of,
    survey_individuals, top_compositions, Direction, DiscoveryConfig, SensitiveClass,
};
use adcomp_platform::InterfaceKind;
use adcomp_population::Gender;
use adcomp_targeting::TargetingSpec;

fn main() {
    let cli = Cli::parse();
    let ctx = context(cli);
    rounding_ablation(&ctx);
    greedy_ablation(&ctx);
    finish("ablations");
}

/// Per-platform distribution of |rounded ratio − exact ratio| / exact.
fn rounding_ablation(ctx: &adcomp_core::experiments::ExperimentContext) {
    say!("== Ablation 1: ratio error from estimate rounding ==");
    say!("(the audit sees only rounded estimates; ground truth from the simulator)");
    let male = SensitiveClass::Gender(Gender::Male);
    let mut rows = Vec::new();
    for kind in adcomp_core::experiments::INTERFACE_ORDER {
        let platform = ctx.simulation.platform(kind);
        let target = ctx.target(kind);
        let base = measure_spec(&target, &TargetingSpec::everyone()).expect("base");
        let universe = platform.universe();
        let males = universe.gender_audience(Gender::Male);
        let females = universe.gender_audience(Gender::Female);

        let mut errors: Vec<f64> = Vec::new();
        let n = platform.catalog().len().min(400);
        for id in 0..n as u32 {
            let spec = TargetingSpec::and_of([adcomp_targeting::AttributeId(id)]);
            let m = measure_spec(&target, &spec).expect("measurement");
            if m.total < 100_000 {
                continue;
            }
            let Some(rounded) = rep_ratio_of(&m, &base, male) else {
                continue;
            };
            // Ground truth from exact sets.
            let audience = platform.exact_audience(&spec).expect("exact");
            let Some(exact) = rep_ratio(
                audience.intersection_len(males),
                audience.intersection_len(females),
                males.len(),
                females.len(),
            ) else {
                continue;
            };
            if exact > 0.0 {
                errors.push(((rounded - exact) / exact).abs());
            }
        }
        let stats = adcomp_core::BoxStats::from_samples(&errors).expect("non-empty");
        say!(
            "{:<14} n={:<4} median-rel-err={:.4} p90={:.4} max={:.4}",
            platform.label(),
            stats.n,
            stats.median,
            stats.p90,
            stats.max
        );
        rows.push(format!(
            "{}\t{}\t{:.5}\t{:.5}\t{:.5}",
            platform.label(),
            stats.n,
            stats.median,
            stats.p90,
            stats.max
        ));
    }
    print_block(
        "rounding_ablation.tsv",
        "interface\tn\tmedian_rel_err\tp90\tmax",
        rows,
    );
}

/// Greedy top-K quality vs an exhaustive pairwise crawl.
fn greedy_ablation(ctx: &adcomp_core::experiments::ExperimentContext) {
    say!("\n== Ablation 2: greedy discovery vs exhaustive crawl (LinkedIn, males) ==");
    let kind = InterfaceKind::LinkedIn;
    let target = ctx.target(kind);
    let survey = timed("survey", || survey_individuals(&target)).expect("survey");
    let male = SensitiveClass::Gender(Gender::Male);
    let cfg = DiscoveryConfig {
        top_k: 100,
        ..ctx.config.discovery
    };
    let ranked = rank_individuals(&survey, male, Direction::Toward, cfg.min_reach);

    // Greedy: measure ~top_k pairs.
    let greedy = timed("greedy", || {
        top_compositions(&target, &survey, &ranked, &cfg)
    })
    .expect("greedy discovery");
    let greedy_queries = greedy.len() * 7;

    // Exhaustive crawl over the top 60 ranked individuals (ground truth
    // for "the true top pairs" within a tractable pool).
    let pool: Vec<_> = ranked
        .iter()
        .take(60)
        .map(|&i| survey.entries[i].attrs[0])
        .collect();
    let exhaustive = timed("exhaustive", || {
        let mut all = Vec::new();
        for i in 0..pool.len() {
            for j in i + 1..pool.len() {
                if !target.targeting.can_compose(pool[i], pool[j]) {
                    continue;
                }
                let mt = compose_and_measure(&target, &[pool[i], pool[j]]).expect("measure");
                if mt.measurement.total >= cfg.min_reach {
                    all.push(mt);
                }
            }
        }
        all
    });
    let exhaustive_queries = exhaustive.len() * 7;

    let ratio_of =
        |mt: &adcomp_core::MeasuredTargeting| mt.ratio(&survey.base, male).unwrap_or(0.0);
    let top_set = |set: &[adcomp_core::MeasuredTargeting], k: usize| {
        let mut sorted: Vec<_> = set.iter().collect();
        sorted.sort_by(|a, b| ratio_of(b).partial_cmp(&ratio_of(a)).expect("finite"));
        sorted
            .into_iter()
            .take(k)
            .map(|mt| mt.attrs.clone())
            .collect::<std::collections::HashSet<_>>()
    };

    for k in [10usize, 25, 50] {
        let g = top_set(&greedy, k);
        let e = top_set(&exhaustive, k);
        let hit = g.intersection(&e).count();
        println!(
            "top-{k}: greedy recovers {hit}/{k} of the exhaustive top pairs \
             ({greedy_queries} vs {exhaustive_queries} estimate queries)"
        );
    }
    let g_best = greedy.iter().map(&ratio_of).fold(0.0f64, f64::max);
    let e_best = exhaustive.iter().map(ratio_of).fold(0.0f64, f64::max);
    println!("best ratio: greedy {g_best:.2} vs exhaustive {e_best:.2}");
    say!(
        "(the paper's method finds the same extreme compositions at ~{:.0}% of the query cost)",
        100.0 * greedy_queries as f64 / exhaustive_queries.max(1) as f64
    );
}
