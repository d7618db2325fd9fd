//! Quickstart: diagnose one synthetic CT study with the ComputeCOVID19+
//! pipeline.
//!
//! ```text
//! cargo run --release -p computecovid19 --example quickstart
//! ```
//!
//! This wires the three AI stages together end-to-end (Enhancement →
//! Segmentation → Classification) on an untrained reduced framework — the
//! goal is to show the public API surface; see `low_dose_workflow` and the
//! `cc19-bench` harnesses for *trained* pipelines.

use std::time::Duration;

use cc19_data::sources::{DataSource, Modality, ScanMeta};
use cc19_data::volume::CtVolume;
use cc19_ctsim::phantom::Severity;
use computecovid19::framework::{Framework, Scratch};
use computecovid19::turnaround;

fn main() {
    // 1. Obtain a CT study. Real deployments read a scanner's output; the
    //    reproduction synthesizes one from the chest-phantom data source.
    let meta = ScanMeta {
        id: 1234,
        source: DataSource::Midrc,
        modality: Modality::Ct,
        positive: true,
        severity: Some(Severity::Moderate),
        slices: 8,
        circular_artifact: true, // BIMCV/MIDRC-style reconstruction circle
        has_projections: false,
    };
    let mut volume = CtVolume::synthesize(&meta, 64, 8).expect("synthesize study");
    println!("synthesized study {}: {}x{}x{} voxels", meta.id, volume.slices(), volume.n(), volume.n());

    // 2. Data preparation (paper §2.1): remove the circular boundary.
    cc19_data::prep::remove_circular_boundary(&mut volume);
    println!("data prep: circular reconstruction boundary removed");

    // 3. Build the framework and diagnose, one stage call at a time so
    //    each stage can be timed.
    let framework = Framework::untrained_reduced(42);
    let clock = cc19_obs::global_clock();
    let mut scratch = Scratch::new();
    let t0 = clock.now_ns();
    let enhanced = framework.run_enhance(&volume.hu, &mut scratch).expect("enhance");
    let t1 = clock.now_ns();
    let segmented = framework.run_segment(enhanced, &mut scratch).expect("segment");
    let t2 = clock.now_ns();
    let report = framework.run_classify(segmented, 0.5, &mut scratch).expect("classify");
    let t3 = clock.now_ns();
    let dt = |from: u64, to: u64| Duration::from_nanos(to.saturating_sub(from));

    println!("\n--- diagnosis report ---");
    println!("COVID-19 probability : {:.3}", report.probability);
    println!("decision @ 0.5       : {}", if report.positive { "POSITIVE" } else { "negative" });
    println!("enhancement time     : {:?}", dt(t0, t1));
    println!("segmentation time    : {:?}", dt(t1, t2));
    println!("classification time  : {:?}", dt(t2, t3));

    // 4. The turnaround story (paper §1): CT minutes vs RT-PCR days.
    let cmp = turnaround::compare(dt(t0, t3));
    println!("\n--- turnaround vs RT-PCR ---");
    println!("RT-PCR pathway       : {:.1} hours", cmp.rt_pcr_secs / 3600.0);
    println!("ComputeCOVID19+      : {:.1} minutes", cmp.cc19_secs / 60.0);
    println!("speedup              : {:.0}x", cmp.speedup);
    println!("sensitivity gain     : +{:.0} percentage points", cmp.sensitivity_gain_pp);
}
