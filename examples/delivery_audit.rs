//! Delivery-skew audit over a hostile wire transport.
//!
//! The Imana-style paired experiment (see
//! `adcomp_core::experiments::delivery_exp`): a job ad whose creative
//! the delivery optimizer has learned a male lean for, and a baseline ad
//! identical in every other respect, both targeted at *everyone*. The
//! advertiser-side measurement runs through a wire server that injects
//! transient errors, rate limits, and dropped connections — the
//! resilience layer absorbs all of it — while the platform-side delivery
//! simulation allocates impressions auction by auction.
//!
//! The audit separates the stages: neutral targeting clears the
//! four-fifths line, the job ad's *delivery* falls below it, and the
//! end-of-run report records the crossing as a degradation.
//!
//! ```text
//! cargo run --release --example delivery_audit
//! ```

use std::sync::Arc;
use std::time::Duration;

use adcomp_obs::RunReport;

use discrimination_via_composition::audit::experiments::delivery_exp::{
    delivery_table_tsv, paired_ad_cell_for, PairedAdConfig,
};
use discrimination_via_composition::audit::{
    AuditTarget, Layers, ResilienceConfig, FOUR_FIFTHS_THRESHOLD,
};
use discrimination_via_composition::platform::{
    FaultKind, FaultPlan, FaultyPlatform, Schedule, SimScale, Simulation,
};
use discrimination_via_composition::wire::{serve, ClientConfig, FaultPlanHook, ServerConfig};
use discrimination_via_composition::RemoteSource;

fn main() {
    let seed = 2020;
    let sim = Simulation::build(seed, SimScale::Test);
    let cfg = PairedAdConfig::for_scale(SimScale::Test);

    // A deterministic fault plan: transient rejections, rate limits with
    // a structured hint, and dropped connections — none of which may
    // move a measured byte.
    let plan = FaultPlan::new(9)
        .with(
            FaultKind::Transient,
            Schedule::EveryNth {
                period: 31,
                offset: 4,
            },
        )
        .with(
            FaultKind::RateLimit {
                retry_after: Duration::from_millis(2),
            },
            Schedule::EveryNth {
                period: 41,
                offset: 9,
            },
        )
        .with(
            FaultKind::Drop { mid_frame: false },
            Schedule::EveryNth {
                period: 53,
                offset: 2,
            },
        );
    let faulty = Arc::new(FaultyPlatform::new(sim.facebook.clone(), plan.clone()));
    let server = ServerConfig::default().with_fault_hook(Arc::new(FaultPlanHook(plan)));
    let handle = serve(faulty.clone(), "127.0.0.1:0", server).expect("bind");
    println!(
        "serving fault-injected simulated Facebook on {}",
        handle.addr()
    );

    let client = discrimination_via_composition::wire::Client::connect_with(
        handle.addr(),
        ClientConfig::fast(),
    )
    .expect("connect");
    let remote = Arc::new(RemoteSource::new(client).expect("describe"));
    let target = AuditTarget::direct(remote)
        .layered(Layers {
            resilience: Some(ResilienceConfig::standard(seed)),
            ..Layers::default()
        })
        .expect("no store to write");

    // The paired experiment: measurement over the hostile wire, delivery
    // simulated platform-side.
    let cell = paired_ad_cell_for(&target, &sim.facebook, seed, &cfg).expect("paired audit");
    println!("\n{}", delivery_table_tsv(std::slice::from_ref(&cell)));
    println!(
        "targeting stage: ratio {:.2} — the advertiser targeted everyone; nothing to flag",
        cell.targeting_ratio
    );
    println!(
        "delivery stage:  job ad {:.2} vs baseline {:.2} (paired skew {:.2}) — the
platform's relevance model decided who actually saw the job ad",
        cell.job_delivery_ratio, cell.baseline_delivery_ratio, cell.paired_skew
    );
    let injected = faulty.injected();
    println!(
        "measured through {} injected faults ({} transient, {} rate-limited)",
        injected.total(),
        injected.transient,
        injected.rate_limited
    );
    handle.shutdown();

    // Cross-check: the same audit in-process is byte-identical — faults
    // and transport cannot have moved the result.
    let local = AuditTarget::for_platform(&sim.facebook, &sim);
    let local_cell = paired_ad_cell_for(&local, &sim.facebook, seed, &cfg).expect("local audit");
    assert_eq!(
        delivery_table_tsv(std::slice::from_ref(&cell)),
        delivery_table_tsv(std::slice::from_ref(&local_cell)),
        "wire cell must be byte-identical to the in-process cell"
    );
    assert_eq!(cell.log_digest, local_cell.log_digest);
    println!("\nwire audit matches in-process audit byte-for-byte ✓");

    // The end-of-run record: four-fifths crossings are degradations.
    let mut report = RunReport::new("delivery_audit");
    if cell.targeting_ratio >= FOUR_FIFTHS_THRESHOLD
        && cell.job_delivery_ratio < FOUR_FIFTHS_THRESHOLD
    {
        report.degradation(format!(
            "delivery skew: neutral targeting (ratio {:.2}) delivered at {:.2}, \
             below the four-fifths line of {FOUR_FIFTHS_THRESHOLD}",
            cell.targeting_ratio, cell.job_delivery_ratio
        ));
    }
    report.note(format!(
        "paired skew {:.2} (job {:.2} / baseline {:.2}); {} injected faults absorbed",
        cell.paired_skew,
        cell.job_delivery_ratio,
        cell.baseline_delivery_ratio,
        injected.total()
    ));
    assert!(
        report.degraded(),
        "the loaded creative must have crossed the four-fifths line"
    );
    print!("\n{}", report.render());
}
