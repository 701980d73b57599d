//! The delivery loop: opportunity stream → relevance scoring → auction →
//! settlement, deterministic for any thread count.
//!
//! Each round is one ad opportunity: a user drawn from the traffic pool
//! by the per-unit RNG streams of [`draw_unit_rng`] (a pure function of
//! `(seed, round)` — outcomes never advance the stream). Delivery
//! proceeds in pacing windows; per window:
//!
//! 1. **Score** (parallel): the window's users are drawn and every
//!    `(round, campaign)` relevance is computed. Relevance is a pure
//!    function of the campaign creative and the user's latent vector and
//!    demographics, so this stage can be sharded across any number of
//!    threads without changing a single value.
//! 2. **Settle** (serial): each round's auction is resolved against the
//!    precomputed scores, charging budgets, counting frequency caps, and
//!    appending to the impression log in round order.
//! 3. **Pace** (serial): at the window boundary every campaign's pacing
//!    controller compares cumulative spend against its linear schedule.
//!
//! Because stage 1 is value-identical for any sharding and stages 2–3
//! are serial folds over it, [`deliver`] is byte-identical across thread
//! counts — the delivery analogue of the engine/scheduler equivalence
//! guarantees in `adcomp-core`.

use std::collections::HashMap;

use adcomp_bitset::Bitset;
use adcomp_population::Universe;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::auction::{effective_bid, resolve_auction, Bid, RESERVE_MICROS};
use crate::campaign::{CampaignId, DeliverySetup};
use crate::draw_unit_rng;
use crate::pacing::PacingController;
use crate::DRAW_UNIT;

/// Parameters of one delivery run.
#[derive(Clone, Debug)]
pub struct DeliveryConfig {
    /// Ad opportunities to run.
    pub rounds: u64,
    /// Pacing-window length in rounds (also the scoring block size).
    pub window: u64,
    /// Scoring threads. **Never** changes results, only wall time.
    pub threads: usize,
    /// Seed of the opportunity stream.
    pub seed: u64,
    /// Metric label (`platform` label on `adcomp_delivery_*` series).
    pub label: String,
}

impl DeliveryConfig {
    /// A serial run of `rounds` rounds seeded with `seed`, with a
    /// 1 000-round pacing window.
    pub fn new(rounds: u64, seed: u64) -> DeliveryConfig {
        DeliveryConfig {
            rounds,
            window: 1_000,
            threads: 1,
            seed,
            label: "delivery".to_string(),
        }
    }

    /// Sets the pacing window.
    pub fn window(mut self, window: u64) -> DeliveryConfig {
        assert!(window > 0, "pacing window must be positive");
        self.window = window;
        self
    }

    /// Sets the scoring thread count.
    pub fn threads(mut self, threads: usize) -> DeliveryConfig {
        assert!(threads > 0, "at least one scoring thread");
        self.threads = threads;
        self
    }

    /// Sets the metric label.
    pub fn label(mut self, label: impl Into<String>) -> DeliveryConfig {
        self.label = label.into();
        self
    }
}

/// One won impression.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Impression {
    /// Opportunity round.
    pub round: u64,
    /// The user who saw the ad.
    pub user: u32,
    /// The winning campaign.
    pub campaign: CampaignId,
    /// Second-price cost in micros.
    pub price_micros: u64,
}

/// Unique delivered users of one campaign, split by ground-truth
/// demographics (the simulator is the platform, so it may look).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveredTally {
    /// Impressions won (with frequency-capped repeats).
    pub impressions: u64,
    /// Unique users reached.
    pub unique_users: u64,
    /// Unique users by gender, indexed by `Gender::index`.
    pub by_gender: [u64; 2],
    /// Unique users by age bucket, indexed by `AgeBucket::index`.
    pub by_age: [u64; 4],
}

/// Everything one delivery run produced.
#[derive(Clone, Debug)]
pub struct DeliveryOutcome {
    /// The impression log, in round order.
    pub impressions: Vec<Impression>,
    /// Rounds run.
    pub rounds: u64,
    /// Rounds no campaign bid on (reserve not met, budgets exhausted,
    /// caps hit, or user outside every audience).
    pub unfilled: u64,
    /// Cumulative spend per campaign (roster order). Never exceeds the
    /// campaign's budget.
    pub spend_micros: Vec<u64>,
    /// Pacing throttles per campaign (roster order).
    pub throttles: Vec<u64>,
    /// Bids suppressed by the frequency cap, per campaign.
    pub cap_hits: Vec<u64>,
}

impl DeliveryOutcome {
    /// FNV-1a digest of the impression log and settlement state — the
    /// byte-identity witness the equivalence tests compare.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.rounds);
        eat(self.unfilled);
        for imp in &self.impressions {
            eat(imp.round);
            eat(u64::from(imp.user));
            eat(u64::from(imp.campaign.0));
            eat(imp.price_micros);
        }
        for &v in self
            .spend_micros
            .iter()
            .chain(&self.throttles)
            .chain(&self.cap_hits)
        {
            eat(v);
        }
        h
    }

    /// The unique delivered users of roster campaign `index`.
    pub fn delivered_users(&self, index: usize, setup: &DeliverySetup) -> Bitset {
        let id = setup.campaigns()[index].id;
        let mut users = Bitset::new();
        for imp in &self.impressions {
            if imp.campaign == id {
                users.insert(imp.user);
            }
        }
        users
    }

    /// Tallies who roster campaign `index` actually reached, by
    /// ground-truth demographics.
    pub fn delivered(
        &self,
        index: usize,
        setup: &DeliverySetup,
        universe: &Universe,
    ) -> DeliveredTally {
        let id = setup.campaigns()[index].id;
        let users = self.delivered_users(index, setup);
        let mut tally = DeliveredTally {
            impressions: self.impressions.iter().filter(|i| i.campaign == id).count() as u64,
            unique_users: users.len(),
            ..DeliveredTally::default()
        };
        for user in users.iter() {
            let demo = universe.demographics(user);
            tally.by_gender[demo.gender.index()] += 1;
            tally.by_age[demo.age.index()] += 1;
        }
        tally
    }
}

/// Draws the users of rounds `[start, end)` from `pool`, reproducing the
/// per-unit streams locally (see [`DRAW_UNIT`]).
fn draw_users(seed: u64, start: u64, end: u64, pool: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity((end - start) as usize);
    let mut unit = start / DRAW_UNIT;
    let mut rng = draw_unit_rng(seed, unit);
    for _ in unit * DRAW_UNIT..start {
        let _ = rng.gen_range(0..pool.len());
    }
    for round in start..end {
        if round / DRAW_UNIT != unit {
            unit = round / DRAW_UNIT;
            rng = draw_unit_rng(seed, unit);
        }
        out.push(pool[rng.gen_range(0..pool.len())]);
    }
    out
}

/// Relevance of every `(round, campaign)` pair of a window, flattened
/// row-major; `-1.0` marks a user outside the campaign's audience.
/// Sharded across `threads`, value-identical for any count.
fn score_window(
    universe: &Universe,
    setup: &DeliverySetup,
    users: &[u32],
    threads: usize,
) -> Vec<f64> {
    let n = setup.len();
    let mut scores = vec![0.0f64; users.len() * n];
    let score_rows = |rows: &mut [f64], users: &[u32]| {
        for (row, &user) in rows.chunks_mut(n).zip(users) {
            let z = universe.latent(user);
            let demo = universe.demographics(user);
            for (slot, (campaign, index)) in row.iter_mut().zip(setup.campaigns().iter().zip(0..n))
            {
                *slot = if setup.audience(index).contains(user) {
                    campaign.creative.probability(&z, demo)
                } else {
                    -1.0
                };
            }
        }
    };
    if threads <= 1 || users.len() < 2 {
        score_rows(&mut scores, users);
    } else {
        let chunk_rows = users.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (rows, chunk_users) in scores
                .chunks_mut(chunk_rows * n)
                .zip(users.chunks(chunk_rows))
            {
                scope.spawn(move || score_rows(rows, chunk_users));
            }
        });
    }
    scores
}

/// Runs one delivery: `config.rounds` opportunities drawn from `traffic`
/// are auctioned among `setup`'s campaigns. Pure function of its inputs;
/// `config.threads` changes wall time only.
pub fn deliver(
    universe: &Universe,
    traffic: &Bitset,
    setup: &DeliverySetup,
    config: &DeliveryConfig,
) -> DeliveryOutcome {
    let pool: Vec<u32> = traffic.iter().collect();
    let n = setup.len();
    let mut outcome = DeliveryOutcome {
        impressions: Vec::new(),
        rounds: config.rounds,
        unfilled: 0,
        spend_micros: vec![0; n],
        throttles: vec![0; n],
        cap_hits: vec![0; n],
    };
    if pool.is_empty() || n == 0 || config.rounds == 0 {
        outcome.unfilled = config.rounds;
        record_metrics(&outcome, config);
        return outcome;
    }

    let mut pacing: Vec<PacingController> = setup
        .campaigns()
        .iter()
        .map(|c| PacingController::new(c.budget_micros, config.rounds))
        .collect();
    // Impressions served per (campaign, user), for the frequency cap.
    let mut served: HashMap<u64, u32> = HashMap::new();
    let mut bids: Vec<Bid> = Vec::with_capacity(n);

    let mut start = 0u64;
    while start < config.rounds {
        let end = (start + config.window).min(config.rounds);
        let users = draw_users(config.seed, start, end, &pool);
        let scores = score_window(universe, setup, &users, config.threads);

        for (offset, &user) in users.iter().enumerate() {
            let round = start + offset as u64;
            let row = &scores[offset * n..(offset + 1) * n];
            bids.clear();
            for (index, campaign) in setup.campaigns().iter().enumerate() {
                let relevance = row[index];
                if relevance < 0.0 {
                    continue; // outside the campaign's audience
                }
                if outcome.spend_micros[index] >= campaign.budget_micros {
                    continue; // budget exhausted
                }
                let key = (index as u64) << 32 | u64::from(user);
                if served.get(&key).copied().unwrap_or(0) >= campaign.frequency_cap {
                    outcome.cap_hits[index] += 1;
                    continue;
                }
                if let Some(amount) = effective_bid(
                    campaign.max_bid_micros,
                    pacing[index].multiplier(),
                    relevance,
                ) {
                    bids.push(Bid {
                        amount_micros: amount,
                        campaign: index,
                    });
                }
            }
            match resolve_auction(&bids) {
                Some((winner, price)) => {
                    let campaign = &setup.campaigns()[winner];
                    // Second price, clamped to the remaining budget so
                    // spend can never overshoot it.
                    let charged = price.min(campaign.budget_micros - outcome.spend_micros[winner]);
                    outcome.spend_micros[winner] += charged;
                    *served
                        .entry((winner as u64) << 32 | u64::from(user))
                        .or_insert(0) += 1;
                    outcome.impressions.push(Impression {
                        round,
                        user,
                        campaign: campaign.id,
                        price_micros: charged,
                    });
                }
                None => outcome.unfilled += 1,
            }
        }

        for (index, controller) in pacing.iter_mut().enumerate() {
            controller.on_window(outcome.spend_micros[index], end);
        }
        start = end;
    }

    for (index, controller) in pacing.iter().enumerate() {
        outcome.throttles[index] = controller.throttles();
    }
    record_metrics(&outcome, config);
    outcome
}

/// Publishes one run's `adcomp_delivery_*` series (counters aggregated
/// once per run, keeping the per-round loop allocation- and atomic-free).
fn record_metrics(outcome: &DeliveryOutcome, config: &DeliveryConfig) {
    let registry = adcomp_obs::Registry::global();
    let labels: &[(&str, &str)] = &[("platform", config.label.as_str())];
    registry
        .counter_with("adcomp_delivery_auctions_total", labels)
        .add(outcome.rounds);
    registry
        .counter_with("adcomp_delivery_impressions_total", labels)
        .add(outcome.impressions.len() as u64);
    registry
        .counter_with("adcomp_delivery_unfilled_total", labels)
        .add(outcome.unfilled);
    registry
        .counter_with("adcomp_delivery_pacing_throttles_total", labels)
        .add(outcome.throttles.iter().sum());
    registry
        .counter_with("adcomp_delivery_cap_hits_total", labels)
        .add(outcome.cap_hits.iter().sum());
    let price = registry.histogram_with(
        "adcomp_delivery_price_micros",
        labels,
        vec![
            RESERVE_MICROS,
            5_000,
            10_000,
            25_000,
            50_000,
            100_000,
            250_000,
            1_000_000,
        ],
    );
    for imp in &outcome.impressions {
        price.observe(imp.price_micros);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use adcomp_population::{AttributeModel, DemographicProfile, UniverseConfig};
    use adcomp_targeting::TargetingSpec;
    use std::sync::OnceLock;

    fn universe() -> &'static Universe {
        static U: OnceLock<Universe> = OnceLock::new();
        U.get_or_init(|| {
            Universe::generate(&UniverseConfig {
                n_users: 4_000,
                seed: 11,
                scale: 1.0,
                profile: DemographicProfile::balanced(),
            })
        })
    }

    fn campaign(id: u32, gender_bias: f32) -> Campaign {
        Campaign {
            id: CampaignId(id),
            name: format!("c{id}"),
            targeting: TargetingSpec::everyone(),
            creative: AttributeModel::new(900 + u64::from(id))
                .popularity(0.5)
                .gender_bias(gender_bias),
            budget_micros: 80_000_000,
            max_bid_micros: 100_000,
            frequency_cap: 3,
        }
    }

    fn setup(universe: &Universe) -> DeliverySetup {
        DeliverySetup::new(
            vec![campaign(0, 1.5), campaign(1, 0.0), campaign(2, -0.6)],
            |_| universe.everyone().clone(),
        )
    }

    #[test]
    fn thread_count_never_changes_the_log() {
        let u = universe();
        let s = setup(u);
        let base = DeliveryConfig::new(6_000, 77).window(500);
        let serial = deliver(u, u.everyone(), &s, &base);
        assert!(!serial.impressions.is_empty());
        for threads in [2, 4, 7] {
            let pooled = deliver(u, u.everyone(), &s, &base.clone().threads(threads));
            assert_eq!(pooled.digest(), serial.digest(), "threads={threads}");
            assert_eq!(pooled.impressions, serial.impressions);
        }
    }

    #[test]
    fn same_seed_same_log_different_seed_different_log() {
        let u = universe();
        let s = setup(u);
        let a = deliver(u, u.everyone(), &s, &DeliveryConfig::new(3_000, 5));
        let b = deliver(u, u.everyone(), &s, &DeliveryConfig::new(3_000, 5));
        let c = deliver(u, u.everyone(), &s, &DeliveryConfig::new(3_000, 6));
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest(), "seed must matter");
    }

    #[test]
    fn male_loaded_creative_skews_delivery_male() {
        let u = universe();
        let s = setup(u);
        let outcome = deliver(
            u,
            u.everyone(),
            &s,
            &DeliveryConfig::new(8_000, 42).window(500),
        );
        let job = outcome.delivered(0, &s, u); // gender_bias +1.5
        let neutral = outcome.delivered(1, &s, u);
        assert!(job.unique_users > 0 && neutral.unique_users > 0);
        let male_share = |t: &DeliveredTally| t.by_gender[0] as f64 / t.unique_users as f64;
        assert!(
            male_share(&job) > male_share(&neutral) + 0.15,
            "job {job:?} vs neutral {neutral:?}"
        );
    }

    #[test]
    fn accounting_stays_within_budget_and_caps() {
        let u = universe();
        let mut campaigns = vec![campaign(0, 0.8), campaign(1, 0.0)];
        campaigns[0].budget_micros = 900_000; // tight: must exhaust
        let s = DeliverySetup::new(campaigns, |_| u.everyone().clone());
        let outcome = deliver(
            u,
            u.everyone(),
            &s,
            &DeliveryConfig::new(5_000, 9).window(250),
        );
        for (index, c) in s.campaigns().iter().enumerate() {
            assert!(outcome.spend_micros[index] <= c.budget_micros);
        }
        assert!(outcome.spend_micros[0] == 900_000, "tight budget exhausts");
        let mut per_user: HashMap<(u32, u32), u32> = HashMap::new();
        for imp in &outcome.impressions {
            *per_user.entry((imp.campaign.0, imp.user)).or_insert(0) += 1;
        }
        for (&(campaign, _), &count) in &per_user {
            let cap = s.campaigns()[s.index_of(CampaignId(campaign)).unwrap()].frequency_cap;
            assert!(
                count <= cap,
                "campaign {campaign} served {count} > cap {cap}"
            );
        }
        assert_eq!(
            outcome.impressions.len() as u64 + outcome.unfilled,
            outcome.rounds
        );
    }

    #[test]
    fn empty_roster_or_traffic_is_all_unfilled() {
        let u = universe();
        let empty_roster = DeliverySetup::new(Vec::new(), |_| Bitset::new());
        let outcome = deliver(u, u.everyone(), &empty_roster, &DeliveryConfig::new(10, 1));
        assert_eq!(outcome.unfilled, 10);
        let s = setup(u);
        let outcome = deliver(u, &Bitset::new(), &s, &DeliveryConfig::new(10, 1));
        assert_eq!(outcome.unfilled, 10);
        assert!(outcome.impressions.is_empty());
    }
}
