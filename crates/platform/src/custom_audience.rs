//! PII-based custom audiences (paper §2.1).
//!
//! All three platforms let an advertiser upload personally identifying
//! information — email addresses, names — which the platform matches
//! against its user base to form a *custom audience* ("Customer Match"
//! on Google, "Custom Audience from a Customer List" on Facebook,
//! "Contact Targeting" on LinkedIn). Activity-based audiences (site
//! visitors collected by a tracking pixel) behave identically once the
//! visitor list exists, so the same machinery models both.
//!
//! The simulation gives every user a deterministic pseudonymous *contact
//! hash* (the stand-in for a normalised, hashed email address). An
//! advertiser's list is a set of hashes; matching finds the users whose
//! hash appears in the list. Real platforms match only a fraction of any
//! list (stale addresses, users without accounts); the simulator models
//! that with a deterministic per-(platform, hash) match failure rate.
//!
//! Custom audiences matter to the discrimination study because they are
//! *seeds*: a biased customer list fed into lookalike expansion
//! (see [`crate::AdPlatform::lookalike`]) reproduces its bias at scale,
//! restricted interface or not.

use adcomp_bitset::Bitset;
use adcomp_population::hash_api;

use crate::interface::AdPlatform;

/// A pseudonymous contact identifier (hashed email stand-in).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContactHash(pub u64);

/// Result of matching an uploaded list.
#[derive(Clone, Debug)]
pub struct MatchedAudience {
    /// Users whose contact hash matched.
    pub audience: Bitset,
    /// Hashes submitted (after deduplication).
    pub submitted: usize,
    /// Hashes that matched a user account.
    pub matched: usize,
}

/// Stream tag separating contact hashes from every other per-user draw.
const CONTACT_STREAM: u64 = 0xC0417AC7;
/// Stream tag for the per-platform match-failure draw.
const MATCH_STREAM: u64 = 0x3A7C4;

/// Fraction of genuinely-present hashes that still fail to match
/// (account without that address, opted out, …). Real-world match rates
/// run 40–80 %; we model the platform-side loss at 25 %.
const MATCH_FAILURE: f64 = 0.25;

impl AdPlatform {
    /// The contact hash of one simulated user — what a *first-party data
    /// owner* would hold for that person. Deterministic per universe.
    pub fn contact_hash(&self, user: u32) -> ContactHash {
        let seed = self.universe().config().seed;
        ContactHash(
            (hash_api::uniform(seed ^ CONTACT_STREAM, user as u64, 0) * u64::MAX as f64) as u64 | 1, // never zero, so 0 can be used as a sentinel in tests
        )
    }

    /// Matches an uploaded contact list into a custom audience.
    ///
    /// Deterministic: the same list always matches the same users on the
    /// same platform. Unknown hashes and a per-hash simulated match
    /// failure reduce the match rate, as on the real platforms.
    pub fn match_customer_list(&self, hashes: &[ContactHash]) -> MatchedAudience {
        let mut submitted: Vec<ContactHash> = hashes.to_vec();
        submitted.sort_unstable();
        submitted.dedup();

        // Index the universe's hashes once per call. n is small enough
        // (10⁵–10⁶) that a rebuild beats holding a permanent index alive.
        let n = self.universe().n_users();
        let mut index: std::collections::HashMap<u64, u32> =
            std::collections::HashMap::with_capacity(n as usize);
        for user in 0..n {
            index.insert(self.contact_hash(user).0, user);
        }

        let seed = self.universe().config().seed;
        let mut members: Vec<u32> = Vec::new();
        for h in &submitted {
            let Some(&user) = index.get(&h.0) else {
                continue;
            };
            // Platform-side match failure, deterministic per (seed, hash).
            if hash_api::uniform(seed ^ MATCH_STREAM, h.0, 1) < MATCH_FAILURE {
                continue;
            }
            members.push(user);
        }
        members.sort_unstable();
        let matched = members.len();
        MatchedAudience {
            audience: Bitset::from_sorted_iter(members),
            submitted: submitted.len(),
            matched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{SimScale, Simulation};
    use adcomp_population::Gender;
    use std::sync::OnceLock;

    fn sim() -> &'static Simulation {
        static SIM: OnceLock<Simulation> = OnceLock::new();
        SIM.get_or_init(|| Simulation::build(49, SimScale::Test))
    }

    #[test]
    fn contact_hashes_are_distinct_and_stable() {
        let fb = &sim().facebook;
        let mut seen = std::collections::HashSet::new();
        for user in 0..5_000u32 {
            let h = fb.contact_hash(user);
            assert!(seen.insert(h.0), "duplicate hash for user {user}");
            assert_eq!(h, fb.contact_hash(user), "hash must be stable");
            assert_ne!(h.0, 0);
        }
    }

    #[test]
    fn matching_finds_only_submitted_users() {
        let fb = &sim().facebook;
        let users: Vec<u32> = (0..2_000).step_by(3).collect();
        let hashes: Vec<ContactHash> = users.iter().map(|&u| fb.contact_hash(u)).collect();
        let result = fb.match_customer_list(&hashes);
        assert_eq!(result.submitted, hashes.len());
        // Every matched user was in the uploaded list.
        for user in result.audience.iter() {
            assert!(users.contains(&user));
        }
        // Match rate reflects the simulated platform-side loss.
        let rate = result.matched as f64 / result.submitted as f64;
        assert!(
            (0.6..=0.9).contains(&rate),
            "match rate {rate} should be ~{}",
            1.0 - MATCH_FAILURE
        );
        assert_eq!(result.matched as u64, result.audience.len());
    }

    #[test]
    fn unknown_hashes_do_not_match() {
        let fb = &sim().facebook;
        let bogus: Vec<ContactHash> = (0..500u64).map(|i| ContactHash(i * 2 + 2)).collect();
        let result = fb.match_customer_list(&bogus);
        assert_eq!(result.matched, 0);
        assert!(result.audience.is_empty());
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let fb = &sim().facebook;
        let h = fb.contact_hash(7);
        let result = fb.match_customer_list(&[h, h, h]);
        assert_eq!(result.submitted, 1);
        assert!(result.matched <= 1);
    }

    #[test]
    fn matching_is_deterministic() {
        let fb = &sim().facebook;
        let hashes: Vec<ContactHash> = (0..1_000).map(|u| fb.contact_hash(u)).collect();
        let a = fb.match_customer_list(&hashes);
        let b = fb.match_customer_list(&hashes);
        assert_eq!(a.audience, b.audience);
        assert_eq!(a.matched, b.matched);
    }

    #[test]
    fn biased_customer_list_seeds_biased_lookalike() {
        // End-to-end §2.1 → §2.2 story: upload a male-only customer list,
        // match it, expand it — the expansion inherits the bias.
        let fb = &sim().facebook;
        let u = fb.universe();
        let male_users: Vec<u32> = u.gender_audience(Gender::Male).iter().take(2_000).collect();
        let hashes: Vec<ContactHash> = male_users
            .iter()
            .map(|&user| fb.contact_hash(user))
            .collect();
        let matched = fb.match_customer_list(&hashes);
        assert!(matched.audience.len() >= super::super::lookalike::MIN_SEED);

        let lal = fb
            .lookalike(
                &matched.audience,
                &crate::lookalike::LookalikeConfig::default(),
            )
            .unwrap();
        let males = u.gender_audience(Gender::Male);
        let male_frac = lal.intersection_len(males) as f64 / lal.len() as f64;
        let base_frac = males.len() as f64 / u.n_users() as f64;
        assert!(
            male_frac > base_frac + 0.05,
            "lookalike of a male list must be male-heavy ({male_frac:.2} vs {base_frac:.2})"
        );
    }
}
