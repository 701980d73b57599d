//! Longitudinal audit: the same survey recorded in two epochs, diffed
//! entirely offline.
//!
//! The paper's audit is a snapshot; real platforms move under the
//! auditor between visits. This example records two epochs of the same
//! individual survey into crash-safe run stores — epoch one against a
//! well-behaved platform, epoch two against the *same* platform six
//! months later, when its estimate endpoint has grown noisy and its
//! audience has drifted (a [`FaultPlan`] with `Noise` and `Drift`
//! faults). Both epochs go over the wire, like the paper's crawls.
//!
//! The drift report is then computed purely from the two recordings —
//! no platform, no simulation — and flags every `(spec, class)`
//! representation ratio that crossed a four-fifths threshold between
//! epochs: audiences whose compliance class silently changed while the
//! auditor was away.
//!
//! ```text
//! cargo run --release --example longitudinal_audit
//! ```

use std::sync::Arc;

use discrimination_via_composition::audit::{
    drift_between, survey_individuals, AuditTarget, Layers,
};
use discrimination_via_composition::platform::{
    FaultKind, FaultPlan, FaultyPlatform, Schedule, SimScale, Simulation,
};
use discrimination_via_composition::store::RunStore;
use discrimination_via_composition::wire::{serve, ServerConfig};
use discrimination_via_composition::RemoteSource;

const SEED: u64 = 2020;

/// Records one epoch's survey over the wire into `dir`, returning the
/// number of surveyed attributes.
fn record_epoch(
    platform: Arc<dyn discrimination_via_composition::platform::PlatformApi>,
    dir: &std::path::Path,
) -> usize {
    let handle = serve(platform, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let remote = Arc::new(RemoteSource::connect(handle.addr()).expect("connect"));
    let store = Arc::new(RunStore::open(dir).expect("open run store"));
    let target = AuditTarget::direct(remote)
        .layered(Layers {
            recording: Some(store.clone()),
            ..Layers::default()
        })
        .expect("wrap recorder");
    let survey = survey_individuals(&target).expect("survey");
    store.save_snapshot().expect("persist snapshot");
    handle.shutdown();
    survey.entries.len()
}

fn main() {
    let root = std::env::temp_dir().join(format!("adcomp-longitudinal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir1 = root.join("epoch-1");
    let dir2 = root.join("epoch-2");
    std::fs::create_dir_all(&dir1).expect("epoch-1 dir");
    std::fs::create_dir_all(&dir2).expect("epoch-2 dir");

    // ── Epoch 1: the baseline crawl. ────────────────────────────────────
    let sim = Simulation::build(SEED, SimScale::Test);
    let n = record_epoch(sim.linkedin.clone(), &dir1);
    println!(
        "epoch 1 recorded: {n} attributes surveyed → {}",
        dir1.display()
    );

    // ── Epoch 2: the platform has moved. ────────────────────────────────
    //
    // Same simulated platform (same seed), but the estimate endpoint now
    // perturbs every other answer by up to ±35 % and inflates everything
    // by a slow monotone drift — audience growth plus an obfuscated size
    // field, the changes §3's consistency probes exist to catch.
    let sim2 = Simulation::build(SEED, SimScale::Test);
    let plan = FaultPlan::new(41)
        .with(
            FaultKind::Noise { amplitude: 0.35 },
            Schedule::EveryNth {
                period: 2,
                offset: 0,
            },
        )
        .with(
            FaultKind::Drift { rate: 0.0005 },
            Schedule::EveryNth {
                period: 1,
                offset: 0,
            },
        );
    let faulty = Arc::new(FaultyPlatform::new(sim2.linkedin.clone(), plan));
    let n2 = record_epoch(faulty.clone(), &dir2);
    println!(
        "epoch 2 recorded: {n2} attributes surveyed through {} injected perturbations → {}",
        faulty.injected().total(),
        dir2.display()
    );

    // ── The diff, computed offline from the recordings alone. ───────────
    let store1 = RunStore::open(&dir1).expect("reopen epoch 1");
    let store2 = RunStore::open(&dir2).expect("reopen epoch 2");
    let report = drift_between(&store1.snapshot(), &store2.snapshot());

    println!();
    print!("{}", report.render("epoch-1 → epoch-2"));

    let crossings: Vec<_> = report.ratio_moves.iter().filter(|m| m.crossed()).collect();
    println!(
        "\n{} of {} common specs moved; {} representation ratios compared, \
         {} crossed a four-fifths threshold",
        report.estimate_drifts.len(),
        report.common_specs,
        report.ratios_compared,
        crossings.len()
    );
    for m in crossings.iter().take(8) {
        let (before_band, after_band) = m.bands();
        println!(
            "  {}: `{}` × {} — ratio {:.2} → {:.2} ({before_band:?} → {after_band:?})",
            m.label, m.spec, m.class, m.before, m.after
        );
    }

    // The drifted epoch must actually have been flagged — an audience
    // that changed compliance class between visits is the finding a
    // longitudinal audit exists to surface.
    assert!(
        !report.identical(),
        "the drifted epoch cannot be estimate-identical"
    );
    assert!(
        report.findings() > 0,
        "noise + drift faults must surface as drift findings"
    );

    // Epoch 1 is still fully replayable on its own, platform long gone.
    let replay = AuditTarget::from_replay(&store1, "LinkedIn").expect("replay epoch 1");
    let replayed = survey_individuals(&replay).expect("offline replay");
    assert_eq!(replayed.entries.len(), n);
    println!(
        "\nepoch 1 replays offline: {} attributes, base audience {} ✓",
        replayed.entries.len(),
        replayed.base.total
    );
    let _ = std::fs::remove_dir_all(&root);
}
