//! Deterministic, stateless pseudo-randomness.
//!
//! All sampling in the universe is a pure function of integer inputs so
//! that (a) generation parallelises without coordination, (b) results are
//! independent of thread scheduling, and (c) repeated audience-size queries
//! are perfectly consistent — a property of the real platforms the paper
//! verifies and that the audit pipeline's consistency probe re-checks
//! against our simulators.
//!
//! The mixer is `adcomp-infer`'s SplitMix64 (Steele et al., "Fast
//! splittable pseudorandom number generators"), which passes BigCrush when
//! used as a stream and is more than sufficient as a hash-to-uniform here.

use adcomp_infer::rng::splitmix64;

/// Combines a seed and two stream coordinates into one well-mixed word.
#[inline]
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407)) ^ b)
}

/// Uniform in `[0, 1)` from `(seed, a, b)`.
#[inline]
pub(crate) fn uniform_f64(seed: u64, a: u64, b: u64) -> f64 {
    // 53 top bits → exactly representable dyadic rationals in [0,1).
    (mix(seed, a, b) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard normal from `(seed, a, b)` via Box–Muller.
#[inline]
pub(crate) fn normal_f32(seed: u64, a: u64, b: u64) -> f32 {
    let u1 = uniform_f64(seed, a, b.wrapping_mul(2));
    let u2 = uniform_f64(seed, a, b.wrapping_mul(2).wrapping_add(1));
    // Guard u1 == 0 (probability 2⁻⁵³ but ln(0) would be -inf).
    let u1 = u1.max(f64::MIN_POSITIVE);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_eq!(uniform_f64(9, 8, 7), uniform_f64(9, 8, 7));
        assert_eq!(normal_f32(9, 8, 7), normal_f32(9, 8, 7));
    }

    #[test]
    fn distinct_inputs_decorrelate() {
        // All pairwise-distinct coordinates give distinct outputs.
        let outs = [mix(1, 0, 0), mix(2, 0, 0), mix(1, 1, 0), mix(1, 0, 1)];
        for i in 0..outs.len() {
            for j in i + 1..outs.len() {
                assert_ne!(outs[i], outs[j]);
            }
        }
    }

    #[test]
    fn uniform_range_and_mean() {
        let n = 100_000u64;
        let mut sum = 0.0;
        for i in 0..n {
            let u = uniform_f64(1234, i, 0);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} not ~0.5");
    }

    #[test]
    fn normal_moments() {
        let n = 100_000u64;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for i in 0..n {
            let z = normal_f32(77, i, 3) as f64;
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean} not ~0");
        assert!((var - 1.0).abs() < 0.05, "var {var} not ~1");
    }
}
