//! Counter-driven seeded randomness: every draw is a pure function of
//! `(seed, counter)`, never of prior outcomes, so any consumer can
//! reproduce any slice of a stream locally — the property the delivery
//! engine's opportunity streams and the discovery schedule already rely
//! on, extracted here so all three (and the bootstrap) share one
//! implementation.

/// splitmix64 finalizer — the workspace's one copy, behind `adcomp-core`'s
/// discovery schedule and probe specs, `adcomp-delivery`'s opportunity
/// streams, `adcomp-population`'s universe hash and `adcomp-platform`'s
/// retry jitter and fault plans (all of which must keep it byte-for-byte:
/// recorded runs and golden digests depend on it).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of per-unit stream `unit` in `domain`, derived from one base
/// seed. Matches the historical per-call-site formula
/// `splitmix64((seed ^ DOMAIN).wrapping_add(unit))` exactly, so callers
/// that migrate here keep their streams byte-identical.
pub fn stream_seed(seed: u64, domain: u64, unit: u64) -> u64 {
    splitmix64((seed ^ domain).wrapping_add(unit))
}

/// A counter-driven RNG: draw `i` is `splitmix64` of `state + i·γ` (the
/// canonical splitmix64 sequence). Unlike a stateful generator whose
/// position depends on how many draws happened before, the stream is a
/// pure function of `(seed, draw index)` — byte-identical for any thread
/// count or work partition.
#[derive(Clone, Debug)]
pub struct CounterRng {
    state: u64,
}

impl CounterRng {
    /// A stream starting at `seed`.
    pub fn new(seed: u64) -> CounterRng {
        CounterRng { state: seed }
    }

    /// The stream for `unit` of `domain` under one base `seed` — see
    /// [`stream_seed`].
    pub fn stream(seed: u64, domain: u64, unit: u64) -> CounterRng {
        CounterRng::new(stream_seed(seed, domain, unit))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        // Advance by the golden-ratio increment (splitmix64's γ); the
        // finalizer adds it once more internally, which keeps successive
        // inputs well separated.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `[0, 1)` with 53 bits of precision (the same `>> 11`
    /// construction `adcomp-population`'s hash streams use).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal via Box–Muller (two draws per call).
    pub fn normal_f64(&mut self) -> f64 {
        let mut u1 = self.unit_f64();
        let u2 = self.unit_f64();
        if u1 <= 0.0 {
            u1 = f64::MIN_POSITIVE;
        }
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalizer_matches_reference_vector() {
        // splitmix64(seed = 0) reference sequence (Vigna): the first
        // output is finalize(0 + γ).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn stream_seed_matches_historical_formula() {
        for (seed, domain, unit) in [(2020u64, 0x52A4Du64, 7u64), (1, 0x0DE1_17E4, 63)] {
            assert_eq!(
                stream_seed(seed, domain, unit),
                splitmix64((seed ^ domain).wrapping_add(unit))
            );
        }
    }

    #[test]
    fn counter_stream_is_position_independent() {
        let mut a = CounterRng::stream(9, 0x77, 4);
        let draws: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        // A fresh stream re-reads the same prefix regardless of how the
        // consumer batches its draws.
        let mut b = CounterRng::stream(9, 0x77, 4);
        for d in &draws {
            assert_eq!(*d, b.next_u64());
        }
        // Neighbouring units are decorrelated.
        let mut c = CounterRng::stream(9, 0x77, 5);
        assert_ne!(draws[0], c.next_u64());
    }

    #[test]
    fn unit_f64_in_range_and_normal_finite() {
        let mut rng = CounterRng::new(123);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
            let z = rng.normal_f64();
            assert!(z.is_finite());
            sum += z;
        }
        assert!((sum / 1000.0).abs() < 0.2, "normal mean far off: {sum}");
    }
}
