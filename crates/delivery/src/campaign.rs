//! Advertiser campaigns and the immutable per-run delivery roster.

use adcomp_bitset::Bitset;
use adcomp_platform::{AdPlatform, PlatformError};
use adcomp_population::AttributeModel;
use adcomp_targeting::TargetingSpec;

/// Stable campaign identifier. Auction outcomes are ordered by id, never
/// by submission order, so delivery is permutation-invariant in the
/// order campaigns were handed to [`DeliverySetup::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(pub u32);

impl std::fmt::Display for CampaignId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One advertiser campaign competing in the delivery auctions.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Unique id; the auction tie-break and the roster order.
    pub id: CampaignId,
    /// Human-readable name (metric labels, tables).
    pub name: String,
    /// Who the advertiser *asked* to reach. The delivery-skew audits use
    /// a neutral spec here on purpose: any skew that remains is the
    /// platform's, not the advertiser's.
    pub targeting: TargetingSpec,
    /// The creative, as the platform's relevance model sees it: loadings
    /// are the creative vector over the latent interest dimensions,
    /// `gender_bias`/`age_biases` the demographic load the delivery
    /// optimizer has learned for this kind of ad.
    pub creative: AttributeModel,
    /// Total budget in micro-currency. Delivery never spends past it.
    pub budget_micros: u64,
    /// Maximum bid per impression in micro-currency; the effective bid is
    /// `max_bid × pacing multiplier × relevance`.
    pub max_bid_micros: u64,
    /// Maximum impressions delivered to any single user.
    pub frequency_cap: u32,
}

/// The immutable inputs of one delivery run: campaigns sorted by id plus
/// each campaign's resolved eligibility audience.
///
/// Sorting here (and tie-breaking auctions by id) is what makes delivery
/// outcomes independent of the order campaigns were submitted in.
pub struct DeliverySetup {
    campaigns: Vec<Campaign>,
    audiences: Vec<Bitset>,
}

impl DeliverySetup {
    /// Builds a roster from `campaigns`, resolving each campaign's
    /// eligibility audience with `resolve` (called in id order, after
    /// sorting).
    ///
    /// # Panics
    /// Panics when two campaigns share an id.
    pub fn new(
        mut campaigns: Vec<Campaign>,
        mut resolve: impl FnMut(&Campaign) -> Bitset,
    ) -> DeliverySetup {
        campaigns.sort_by_key(|c| c.id);
        for pair in campaigns.windows(2) {
            assert!(
                pair[0].id != pair[1].id,
                "duplicate campaign id {}",
                pair[0].id
            );
        }
        let audiences = campaigns.iter().map(&mut resolve).collect();
        DeliverySetup {
            campaigns,
            audiences,
        }
    }

    /// Builds a roster over a simulated platform: eligibility audiences
    /// are the ground-truth audiences of each campaign's targeting spec
    /// (delivery is platform-internal, so unlike the audit pipeline it
    /// legitimately sees exact memberships).
    pub fn for_platform(
        platform: &AdPlatform,
        campaigns: Vec<Campaign>,
    ) -> Result<DeliverySetup, PlatformError> {
        let mut failed = None;
        let setup =
            DeliverySetup::new(campaigns, |c| match platform.exact_audience(&c.targeting) {
                Ok(audience) => audience,
                Err(e) => {
                    failed.get_or_insert(e);
                    Bitset::new()
                }
            });
        match failed {
            Some(e) => Err(e),
            None => Ok(setup),
        }
    }

    /// The campaigns, in id order.
    pub fn campaigns(&self) -> &[Campaign] {
        &self.campaigns
    }

    /// The eligibility audience of campaign `index` (roster order).
    pub fn audience(&self, index: usize) -> &Bitset {
        &self.audiences[index]
    }

    /// Roster position of a campaign id.
    pub fn index_of(&self, id: CampaignId) -> Option<usize> {
        self.campaigns.binary_search_by_key(&id, |c| c.id).ok()
    }

    /// Number of campaigns.
    pub fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// Whether the roster is empty.
    pub fn is_empty(&self) -> bool {
        self.campaigns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(id: u32) -> Campaign {
        Campaign {
            id: CampaignId(id),
            name: format!("c{id}"),
            targeting: TargetingSpec::everyone(),
            creative: AttributeModel::new(id as u64),
            budget_micros: 1_000_000,
            max_bid_micros: 10_000,
            frequency_cap: 2,
        }
    }

    #[test]
    fn setup_sorts_by_id() {
        let setup = DeliverySetup::new(vec![campaign(7), campaign(2), campaign(5)], |_| {
            Bitset::new()
        });
        let ids: Vec<u32> = setup.campaigns().iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![2, 5, 7]);
        assert_eq!(setup.index_of(CampaignId(5)), Some(1));
        assert_eq!(setup.index_of(CampaignId(9)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate campaign id")]
    fn duplicate_ids_rejected() {
        DeliverySetup::new(vec![campaign(1), campaign(1)], |_| Bitset::new());
    }
}
