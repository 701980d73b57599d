//! The user universe: generation and attribute-audience materialisation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use adcomp_bitset::Bitset;

use crate::demographics::{AgeBucket, DemographicProfile, Demographics, Gender};
use crate::latent::{sigmoid, AttributeModel, LATENT_DIMS};
use crate::{mix, normal_f32, uniform_f64};

/// Parameters of a universe.
#[derive(Clone, Debug, PartialEq)]
pub struct UniverseConfig {
    /// Number of simulated users.
    pub n_users: u32,
    /// Master seed; two universes with equal configs are identical.
    pub seed: u64,
    /// Multiplier mapping simulated counts to platform-scale counts
    /// (applied by the platform layer's size estimators, never here).
    pub scale: f64,
    /// Demographic priors of the platform's user base.
    pub profile: DemographicProfile,
}

impl UniverseConfig {
    /// Why this config cannot be generated, if it cannot: no users, a
    /// scale that is not a positive finite number, or demographic priors
    /// that are not a distribution.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        let p = &self.profile;
        if self.n_users == 0 {
            return Err("universe must have at least one user");
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err("scale must be positive and finite");
        }
        if !(0.0..=1.0).contains(&p.male_fraction) {
            return Err("male fraction must be in [0, 1]");
        }
        let weights_ok = p.age_weights.iter().all(|w| w.is_finite() && *w >= 0.0);
        if !weights_ok || p.age_weights.iter().sum::<f64>() <= 0.0 {
            return Err("age weights must be non-negative with a positive sum");
        }
        if !(p.gender_signal.is_finite() && p.age_signal.is_finite()) {
            return Err("demographic signals must be finite");
        }
        Ok(())
    }
}

/// Domains of the per-user random streams (the `a` coordinate of
/// [`mix`]). Keeping them disjoint guarantees the demographic draw never
/// correlates with the latent noise.
mod stream {
    pub const GENDER: u64 = 0x01;
    pub const AGE: u64 = 0x02;
    pub const LATENT_BASE: u64 = 0x10; // .. LATENT_BASE + LATENT_DIMS
}

/// A fully generated synthetic user base.
///
/// Owns, per user: packed demographics (1 byte) and the latent interest
/// vector (`LATENT_DIMS` × f32); plus pre-built demographic audiences.
/// The latents are stored dimension-major, `latent[d * n_users + user]`:
/// one contiguous column per dimension, which is what the draw kernel
/// streams through. Attribute audiences are *not* stored — platforms
/// materialise what their catalogs need via
/// [`Universe::materialize_all`].
pub struct Universe {
    config: UniverseConfig,
    /// Packed [`Demographics`], one per user.
    demographics: Vec<u8>,
    /// Dimension-major `LATENT_DIMS × n_users`.
    latent: Vec<f32>,
    by_gender: [Bitset; 2],
    by_age: [Bitset; 4],
    everyone: Bitset,
}

impl Universe {
    /// Generates the universe described by `config`, in parallel.
    ///
    /// Deterministic in `config` alone — thread count does not matter,
    /// because every per-user quantity is a pure function of
    /// `(seed, user id)`.
    ///
    /// # Panics
    /// Panics when the config is invalid: no users, a scale that is not
    /// positive and finite, or demographic priors that are not a
    /// distribution.
    pub fn generate(config: &UniverseConfig) -> Universe {
        if let Err(why) = config.check() {
            panic!("{why}");
        }
        let (demographics, latent) = generate_users(config, 0, config.n_users as usize);
        let (mut by_gender, mut by_age) = demographic_audiences(0, &demographics);
        let mut everyone = Bitset::from_sorted_iter(0..config.n_users);
        // Demographic audiences are heavily clustered (everyone is one
        // contiguous run); run encoding shrinks them where it helps and
        // is a no-op where it does not.
        for b in by_gender.iter_mut().chain(by_age.iter_mut()) {
            b.run_optimize();
        }
        everyone.run_optimize();

        Universe {
            config: config.clone(),
            demographics,
            latent,
            by_gender,
            by_age,
            everyone,
        }
    }

    /// Number of simulated users.
    pub fn n_users(&self) -> u32 {
        self.config.n_users
    }

    /// The configured simulation-to-platform scale factor.
    pub fn scale(&self) -> f64 {
        self.config.scale
    }

    /// The generation config.
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// Demographics of one user.
    ///
    /// # Panics
    /// Panics when `user >= n_users`.
    pub fn demographics(&self, user: u32) -> Demographics {
        Demographics::unpack(self.demographics[user as usize])
    }

    /// Latent interest vector of one user, gathered from the
    /// dimension-major store (one value per column).
    ///
    /// # Panics
    /// Panics when `user >= n_users`.
    pub fn latent(&self, user: u32) -> [f32; LATENT_DIMS] {
        let n = self.config.n_users as usize;
        std::array::from_fn(|d| self.latent[d * n + user as usize])
    }

    /// All users of one gender.
    pub fn gender_audience(&self, gender: Gender) -> &Bitset {
        &self.by_gender[gender.index()]
    }

    /// All users in one age bucket.
    pub fn age_audience(&self, age: AgeBucket) -> &Bitset {
        &self.by_age[age.index()]
    }

    /// Every simulated user (the paper's relevant audience `RA`: all
    /// US-based users of the platform).
    pub fn everyone(&self) -> &Bitset {
        &self.everyone
    }

    /// Materialises the audience of one attribute model: the
    /// one-model case of [`materialize_all`](Self::materialize_all), drawn
    /// on the calling thread.
    pub fn materialize(&self, model: &AttributeModel) -> Bitset {
        let mut audiences = self.materialize_all(std::slice::from_ref(model));
        audiences.pop().expect("one audience per model")
    }

    /// Materialises the audiences of `models`, in order: for each, the
    /// set of users whose Bernoulli draw (log-odds from
    /// [`AttributeModel::logit`]) succeeds. Deterministic per
    /// `(universe seed, model seed, user)`, whatever the thread count.
    ///
    /// One thread scope for the whole catalog: workers claim models one
    /// at a time and the calling thread draws too; only the calling
    /// thread builds bitsets.
    pub fn materialize_all(&self, models: &[AttributeModel]) -> Vec<Bitset> {
        draw_all(
            self.config.seed,
            models,
            0,
            &self.demographics,
            &self.latent,
            parallelism(),
        )
    }

    /// Exact membership probability of one user for a model (used by tests
    /// and the calibration tooling; the platforms only see realised sets).
    pub fn membership_probability(&self, model: &AttributeModel, user: u32) -> f64 {
        model.probability(&self.latent(user), self.demographics(user))
    }
}

impl std::fmt::Debug for Universe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Universe")
            .field("n_users", &self.config.n_users)
            .field("seed", &self.config.seed)
            .field("scale", &self.config.scale)
            .field("males", &self.by_gender[0].len())
            .field("females", &self.by_gender[1].len())
            .finish_non_exhaustive()
    }
}

/// Hardware threads available to generation and materialisation.
pub(crate) fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Generates the `len` users starting at `start`, in parallel: their
/// packed demographics and their dimension-major latent slab
/// (`latent[d * len + offset]`).
///
/// Shared by the resident universe and the streamed segment generator
/// ([`crate::segment`]): every per-user quantity is a pure function of
/// `(seed, user id)`, so any partition of the id space produces
/// byte-identical users.
pub(crate) fn generate_users(
    config: &UniverseConfig,
    start: u32,
    len: usize,
) -> (Vec<u8>, Vec<f32>) {
    let mut demos = vec![0u8; len];
    let mut latent = vec![0f32; len * LATENT_DIMS];
    let chunk = len.div_ceil(parallelism()).max(1024);
    // Every column cut into the same user chunks as `demos`.
    let mut columns: Vec<Vec<&mut [f32]>> = (0..len.div_ceil(chunk))
        .map(|_| Vec::with_capacity(LATENT_DIMS))
        .collect();
    for column in latent.chunks_mut(len) {
        for (parts, part) in columns.iter_mut().zip(column.chunks_mut(chunk)) {
            parts.push(part);
        }
    }
    std::thread::scope(|scope| {
        for (idx, (dchunk, mut cols)) in demos.chunks_mut(chunk).zip(columns).enumerate() {
            let chunk_start = start + (idx * chunk) as u32;
            scope.spawn(move || fill_users(config, chunk_start, dchunk, &mut cols));
        }
    });
    (demos, latent)
}

/// Fills demographics and latent columns for the users starting at
/// `start`: every user's demographics first, then each dimension's
/// column contiguously, then the demographic shifts on the correlated
/// axes. `latent[d]` is the users' column of dimension `d`.
fn fill_users(config: &UniverseConfig, start: u32, demos: &mut [u8], latent: &mut [&mut [f32]]) {
    let age_cdf = config.profile.age_cdf();
    for (offset, packed) in demos.iter_mut().enumerate() {
        let user = start + offset as u32;
        let gender = if uniform_f64(config.seed, stream::GENDER, user as u64)
            < config.profile.male_fraction
        {
            Gender::Male
        } else {
            Gender::Female
        };
        let age_u = uniform_f64(config.seed, stream::AGE, user as u64);
        let age_idx = age_cdf.iter().position(|&c| age_u < c).unwrap_or(3);
        let age = AgeBucket::from_index(age_idx);
        *packed = Demographics { gender, age }.pack();
    }
    for (dim, column) in latent.iter_mut().enumerate() {
        for (offset, zi) in column.iter_mut().enumerate() {
            let user = start + offset as u32;
            *zi = normal_f32(config.seed, stream::LATENT_BASE + dim as u64, user as u64);
        }
    }
    // Demographic shifts on the correlated axes.
    for (offset, &packed) in demos.iter().enumerate() {
        let demo = Demographics::unpack(packed);
        latent[0][offset] += demo.gender.signal() * config.profile.gender_signal;
        latent[1][offset] += demo.age.signal() * config.profile.age_signal;
    }
}

/// The gender and age audiences of the users starting at `start`, not
/// yet run-optimised.
pub(crate) fn demographic_audiences(start: u32, demos: &[u8]) -> ([Bitset; 2], [Bitset; 4]) {
    let mut gender_ids: [Vec<u32>; 2] = Default::default();
    let mut age_ids: [Vec<u32>; 4] = Default::default();
    for (offset, &packed) in demos.iter().enumerate() {
        let d = Demographics::unpack(packed);
        let user = start + offset as u32;
        gender_ids[d.gender.index()].push(user);
        age_ids[d.age.index()].push(user);
    }
    (
        gender_ids.map(Bitset::from_sorted_iter),
        age_ids.map(Bitset::from_sorted_iter),
    )
}

/// Users per kernel tile: a tile's logits stay in L1 while its draws
/// are made.
const TILE: usize = 1024;

/// The draw kernel: one bit per user of `[start, start + demos.len())`,
/// set when the user's Bernoulli draw for `model` succeeds. Bit `i % 64`
/// of `members[i / 64]` is user `start + i`; every word is overwritten.
/// `latent` is the users' dimension-major slab.
///
/// Per tile, the logits are accumulated one dimension at a time
/// ([`AttributeModel::logits`], bit-identical to
/// [`AttributeModel::logit`]); a second pass compares each user's
/// uniform draw with the membership probability and packs the outcomes
/// into words without a branch. Attribute draws live in their own seed
/// space so they can never collide with the universe's demographic and
/// latent streams.
fn draw_members(
    seed: u64,
    model: &AttributeModel,
    start: u32,
    demos: &[u8],
    latent: &[f32],
    members: &mut [u64],
) {
    let n = demos.len();
    let draw_seed = mix(seed, 0xA77B, model.seed);
    let mut logits = [0f32; TILE];
    for (tile, words) in members.chunks_mut(TILE / 64).enumerate() {
        let first = tile * TILE;
        let logits = &mut logits[..TILE.min(n - first)];
        model.logits(&demos[first..], &latent[first..], n, logits);
        for (w, (word, xs)) in words.iter_mut().zip(logits.chunks(64)).enumerate() {
            let base = start + (first + w * 64) as u32;
            let mut bits = 0u64;
            for (bit, &x) in xs.iter().enumerate() {
                let user = base + bit as u32;
                let hit = uniform_f64(draw_seed, u64::from(user), 0) < sigmoid(f64::from(x));
                bits |= u64::from(hit) << bit;
            }
            *word = bits;
        }
    }
}

/// The audience whose members [`draw_members`] marked in `members`.
fn audience(start: u32, members: &[u64]) -> Bitset {
    Bitset::from_sorted_iter(members.iter().enumerate().flat_map(|(w, &word)| {
        let base = start + (w * 64) as u32;
        // Each step clears the lowest set bit.
        std::iter::successors((word != 0).then_some(word), |&bits| {
            let rest = bits & (bits - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |bits| base + bits.trailing_zeros())
    }))
}

/// The one materialisation driver: every model's audience over the users
/// `[start, start + demos.len())`, in model order.
///
/// One thread scope per call. `workers − 1` spawned threads and the
/// calling thread claim models from an atomic counter and draw them
/// with [`draw_members`]. Only the calling thread builds bitsets, so
/// every audience is allocated in the caller's heap (audiences built on
/// workers stay pinned in their allocator arenas after they are freed):
/// a worker hands its member words over and takes a buffer the caller
/// has read back from the spares for its next model.
pub(crate) fn draw_all(
    seed: u64,
    models: &[AttributeModel],
    start: u32,
    demos: &[u8],
    latent: &[f32],
    workers: usize,
) -> Vec<Bitset> {
    let next = AtomicUsize::new(0);
    // Relaxed: the counter only hands out indices; drawn words reach the
    // caller through the channel.
    let claim = || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        (i < models.len()).then_some(i)
    };
    let draw = |i: usize, members: &mut [u64]| {
        draw_members(seed, &models[i], start, demos, latent, members);
    };
    let words = demos.len().div_ceil(64);
    let spares = Mutex::new(Vec::<Vec<u64>>::new());
    let mut audiences = vec![Bitset::new(); models.len()];
    let (done, drawn) = mpsc::channel::<(usize, Vec<u64>)>();
    std::thread::scope(|scope| {
        for _ in 1..workers.min(models.len()) {
            let done = done.clone();
            let (claim, draw, spares) = (&claim, &draw, &spares);
            scope.spawn(move || {
                while let Some(i) = claim() {
                    let spare = spares.lock().expect("spares lock").pop();
                    let mut members = spare.unwrap_or_else(|| vec![0; words]);
                    draw(i, &mut members);
                    done.send((i, members))
                        .expect("the receiver outlives the scope");
                }
            });
        }
        // Once the workers exit, the channel closes and `drawn` drains.
        drop(done);
        let mut own = vec![0; words];
        while let Some(i) = claim() {
            draw(i, &mut own);
            audiences[i] = audience(start, &own);
            for (j, members) in drawn.try_iter() {
                audiences[j] = audience(start, &members);
                spares.lock().expect("spares lock").push(members);
            }
        }
        for (j, members) in drawn.iter() {
            audiences[j] = audience(start, &members);
        }
    });
    audiences
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Universe {
        Universe::generate(&UniverseConfig {
            n_users: 20_000,
            seed,
            scale: 100.0,
            profile: DemographicProfile::balanced(),
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(3);
        let b = small(3);
        assert_eq!(a.demographics, b.demographics);
        assert_eq!(a.latent, b.latent);
        let m = AttributeModel::new(5).popularity(0.1);
        assert_eq!(a.materialize(&m), b.materialize(&m));
    }

    #[test]
    fn different_seeds_differ() {
        let a = small(3);
        let b = small(4);
        assert_ne!(a.demographics, b.demographics);
    }

    #[test]
    fn demographic_partitions_cover_everyone() {
        let u = small(1);
        let males = u.gender_audience(Gender::Male);
        let females = u.gender_audience(Gender::Female);
        assert_eq!(males.len() + females.len(), u.n_users() as u64);
        assert!(males.is_disjoint(females));
        let age_total: u64 = AgeBucket::ALL
            .iter()
            .map(|a| u.age_audience(*a).len())
            .sum();
        assert_eq!(age_total, u.n_users() as u64);
        assert_eq!(u.everyone().len(), u.n_users() as u64);
    }

    #[test]
    fn demographic_priors_are_respected() {
        let u = Universe::generate(&UniverseConfig {
            n_users: 50_000,
            seed: 9,
            scale: 1.0,
            profile: DemographicProfile {
                male_fraction: 0.7,
                age_weights: [0.1, 0.2, 0.3, 0.4],
                gender_signal: 1.0,
                age_signal: 1.0,
            },
        });
        let male_frac = u.gender_audience(Gender::Male).len() as f64 / 50_000.0;
        assert!((male_frac - 0.7).abs() < 0.01, "male fraction {male_frac}");
        let old_frac = u.age_audience(AgeBucket::A55Plus).len() as f64 / 50_000.0;
        assert!((old_frac - 0.4).abs() < 0.01, "55+ fraction {old_frac}");
    }

    #[test]
    fn materialized_popularity_matches_target() {
        let u = small(2);
        for p in [0.02, 0.1, 0.4] {
            let m = AttributeModel::new((p * 1000.0) as u64).popularity(p);
            let audience = u.materialize(&m);
            let observed = audience.len() as f64 / u.n_users() as f64;
            // Logistic over N(0, I) latents keeps the mean near the target
            // (slight attenuation from Jensen is expected; allow 30 %).
            assert!(
                (observed - p).abs() / p < 0.3,
                "target {p} observed {observed}"
            );
        }
    }

    #[test]
    fn gender_biased_attribute_skews_and_composition_amplifies() {
        let u = small(11);
        let males = u.gender_audience(Gender::Male);
        let females = u.gender_audience(Gender::Female);
        let rate = |s: &Bitset, base: &Bitset| s.intersection_len(base) as f64 / base.len() as f64;
        let ratio = |s: &Bitset| rate(s, males) / rate(s, females);

        let a = u.materialize(&AttributeModel::new(1).popularity(0.2).gender_bias(0.8));
        let b = u.materialize(&AttributeModel::new(2).popularity(0.2).gender_bias(0.8));
        let ra = ratio(&a);
        let rb = ratio(&b);
        let rab = ratio(&a.and(&b));
        assert!(ra > 1.2 && rb > 1.2, "individual skews: {ra} {rb}");
        assert!(
            rab > ra.max(rb),
            "composition must amplify: {rab} vs {ra}, {rb}"
        );
    }

    #[test]
    fn latent_loading_composition_amplifies_via_shared_axis() {
        // Two attributes with no direct demographic bias, loading on the
        // gender-correlated axis 0: facially neutral but jointly skewed.
        let u = small(12);
        let males = u.gender_audience(Gender::Male);
        let females = u.gender_audience(Gender::Female);
        let rate = |s: &Bitset, base: &Bitset| s.intersection_len(base) as f64 / base.len() as f64;
        let ratio = |s: &Bitset| rate(s, males) / rate(s, females);

        let a = u.materialize(&AttributeModel::new(21).popularity(0.15).loading(0, 0.7));
        let b = u.materialize(&AttributeModel::new(22).popularity(0.15).loading(0, 0.7));
        let rab = ratio(&a.and(&b));
        assert!(ratio(&a) > 1.1 && ratio(&b) > 1.1);
        assert!(
            rab > ratio(&a) && rab > ratio(&b),
            "shared-axis amplification"
        );
    }

    /// The scalar materialiser the kernel replaced: one user at a time,
    /// the whole logit per user, a branch per member.
    fn reference(u: &Universe, model: &AttributeModel, start: u32, end: u32) -> Bitset {
        let draw_seed = mix(u.config.seed, 0xA77B, model.seed);
        Bitset::from_sorted_iter((start..end).filter(|&user| {
            let p = model.probability(&u.latent(user), u.demographics(user));
            uniform_f64(draw_seed, user as u64, 0) < p
        }))
    }

    /// Models with every term of the logit drawn at random.
    fn random_models(seed: u64, count: u64) -> Vec<AttributeModel> {
        (0..count)
            .map(|i| {
                let draw = |k: u64| normal_f32(seed, i, k);
                let loadings = std::array::from_fn(|d| draw(d as u64));
                let popularity = 0.01 + 0.9 * uniform_f64(seed, i, 99);
                AttributeModel::new(seed ^ i)
                    .popularity(popularity)
                    .loadings(loadings)
                    .gender_bias(draw(20))
                    .age_biases([draw(21), draw(22), draw(23), draw(24)])
            })
            .collect()
    }

    #[test]
    fn draw_all_matches_scalar_reference() {
        let models = random_models(5, 6);
        for n_users in [1, 1_023, 1_024, 1_025, 65_537] {
            let config = UniverseConfig {
                n_users,
                seed: u64::from(n_users),
                scale: 1.0,
                profile: DemographicProfile::balanced(),
            };
            let u = Universe::generate(&config);
            let expected: Vec<Bitset> = models
                .iter()
                .map(|m| reference(&u, m, 0, n_users))
                .collect();
            for workers in 1..=4 {
                let drawn = draw_all(config.seed, &models, 0, &u.demographics, &u.latent, workers);
                assert_eq!(drawn, expected, "{n_users} users, {workers} workers");
            }
            // A slab starting mid-universe, as a segment is drawn.
            let start = n_users / 3;
            let (demos, latent) = generate_users(&config, start, (n_users - start) as usize);
            let drawn = draw_all(config.seed, &models, start, &demos, &latent, 2);
            for (set, m) in drawn.iter().zip(&models) {
                assert_eq!(set, &reference(&u, m, start, n_users), "slab of {n_users}");
            }
        }
    }

    #[test]
    fn tile_logits_are_bit_identical_to_logit() {
        let u = small(15);
        let n = u.n_users() as usize;
        let mut logits = vec![0f32; n];
        for model in random_models(8, 16) {
            model.logits(&u.demographics, &u.latent, n, &mut logits);
            for (user, x) in logits.iter().enumerate() {
                let user = user as u32;
                let scalar = model.logit(&u.latent(user), u.demographics(user));
                assert_eq!(x.to_bits(), scalar.to_bits(), "user {user}");
            }
        }
    }

    #[test]
    fn slab_columns_match_the_universe() {
        let u = small(14);
        let (start, len) = (7_001, 5_000);
        let (demos, latent) = generate_users(u.config(), start, len);
        for offset in 0..len {
            let user = start + offset as u32;
            assert_eq!(demos[offset], u.demographics[user as usize]);
            let column = |d: usize| latent[d * len + offset];
            assert_eq!(std::array::from_fn(column), u.latent(user), "user {user}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_rejected() {
        let _ = Universe::generate(&UniverseConfig {
            n_users: 0,
            seed: 0,
            scale: 1.0,
            profile: DemographicProfile::balanced(),
        });
    }
}
