//! Golden digest of every materialised audience.
//!
//! FNV-1a over the serialised bytes of every audience of the test-scale
//! simulation (demographic audiences, then each catalog entry, per
//! interface in presentation order) and of a small three-segment store
//! (every segment's every audience). The constants were captured from
//! the row-major, per-model materialiser; any change to the draw kernel,
//! the latent layout or the parallel driver must leave them unchanged.
//!
//! CI also runs this file pinned to one CPU, so the path where the
//! calling thread draws every model alone is checked against the same
//! constants.

use std::sync::atomic::{AtomicU32, Ordering};

use adcomp_bitset::Bitset;
use adcomp_platform::{SimScale, Simulation};
use adcomp_population::{
    AgeBucket, Gender, SegmentAudience, SegmentStore, Universe, UniverseConfig, SEGMENT_ALIGN,
};

const SIMULATION_DIGEST: u64 = 0x8497_7b8c_758c_0cdc;
const SEGMENT_DIGEST: u64 = 0x12b8_a488_6dc7_72ef;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bitset(&mut self, set: &Bitset) {
        for b in set.to_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}

fn demographic_audiences(universe: &Universe, fnv: &mut Fnv) {
    fnv.bitset(universe.everyone());
    for g in [Gender::Male, Gender::Female] {
        fnv.bitset(universe.gender_audience(g));
    }
    for a in AgeBucket::ALL {
        fnv.bitset(universe.age_audience(a));
    }
}

#[test]
fn simulation_audiences_match_golden_digest() {
    let sim = Simulation::build(2020, SimScale::Test);
    let mut fnv = Fnv::new();
    for platform in sim.interfaces() {
        demographic_audiences(platform.universe(), &mut fnv);
        for idx in 0..platform.catalog().len() {
            let set = platform
                .attribute_audience_raw(idx)
                .expect("catalog entry has an audience");
            fnv.bitset(set);
        }
    }
    assert_eq!(fnv.0, SIMULATION_DIGEST, "digest {:#018x}", fnv.0);
}

#[test]
fn segment_store_audiences_match_golden_digest() {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "adcomp-golden-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // LinkedIn's test catalog over a fresh universe of three segments,
    // the last one short.
    let sim = Simulation::build(2020, SimScale::Test);
    let linkedin = &sim.linkedin;
    let models: Vec<_> = linkedin
        .catalog()
        .entries()
        .iter()
        .map(|e| e.model.clone())
        .collect();
    let config = UniverseConfig {
        n_users: 2 * SEGMENT_ALIGN + 12_345,
        ..linkedin.universe().config().clone()
    };
    let store = SegmentStore::create(&dir, &config, SEGMENT_ALIGN, &models, 1 << 20)
        .expect("segment store builds");
    let mut audiences = vec![SegmentAudience::Everyone];
    audiences.extend([Gender::Male, Gender::Female].map(SegmentAudience::Gender));
    audiences.extend(AgeBucket::ALL.map(SegmentAudience::Age));
    audiences.extend((0..models.len() as u32).map(SegmentAudience::Attribute));
    let mut fnv = Fnv::new();
    for seg in 0..store.n_segments() {
        for &audience in &audiences {
            fnv.bitset(&store.load(seg, audience).expect("audience loads"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fnv.0, SEGMENT_DIGEST, "digest {:#018x}", fnv.0);
}
