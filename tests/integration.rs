//! Cross-crate integration tests: data sources → prep → CT simulation →
//! networks → pipeline, exercised through the public APIs.

use cc19_analysis::metrics;
use cc19_analysis::segmentation::{dice, LungSegmenter};
use cc19_ctsim::phantom::{ChestPhantom, Severity};
use cc19_data::dataset::{ClassificationDataset, EnhancementDataset};
use cc19_data::lowdose_pairs::PairConfig;
use cc19_data::prep::{filter_catalog, PrepConfig};
use cc19_data::sources::{DataSource, SourceCatalog};
use cc19_data::volume::CtVolume;
use cc19_ddnet::{Ddnet, DdnetConfig};
use computecovid19::framework::Framework;
use computecovid19::turnaround;

/// Table 1 → §2.1 → synthesis: the whole data layer holds together.
#[test]
fn data_layer_end_to_end() {
    let cat = SourceCatalog::generate(DataSource::Bimcv, 1);
    assert_eq!(cat.len(), 34, "Table 1: BIMCV has 34 patients");
    let (kept, report) = filter_catalog(&cat.scans, PrepConfig::paper());
    assert!(report.dropped_modality > 0);
    assert!(!kept.is_empty());
    // every kept study synthesizes into a clean volume
    let mut vol = CtVolume::synthesize(&kept[0], 32, 4).unwrap();
    assert!(vol.meta.circular_artifact);
    cc19_data::prep::remove_circular_boundary(&mut vol);
    assert!(vol.hu.data().iter().all(|&v| v > -1500.0));
}

/// Phantom → Siddon → Poisson → FBP → normalized pair: the §3.1.2 chain.
#[test]
fn lowdose_simulation_chain() {
    let ds = EnhancementDataset::generate(6, PairConfig::reduced(32, 3)).unwrap();
    assert_eq!(ds.train.len() + ds.val.len() + ds.test.len(), 6);
    for p in ds.train.iter().chain(&ds.val).chain(&ds.test) {
        assert_eq!(p.low.dims(), &[32, 32]);
        assert!(p.low.data().iter().all(|v| (0.0..=1.0).contains(v)));
        let m = cc19_tensor::reduce::mse(&p.low, &p.full).unwrap();
        assert!(m > 0.0 && m < 0.1, "pair quality out of range: {m}");
    }
}

/// The segmentation stand-in reaches AH-Net-like quality on phantoms.
#[test]
fn segmentation_quality_across_subjects() {
    let seg = LungSegmenter::default();
    let mut worst: f64 = 1.0;
    for seed in 0..6u64 {
        let p = ChestPhantom::subject(seed, 0.5, if seed % 2 == 0 { Some(Severity::Moderate) } else { None });
        let d = dice(&seg.segment_slice(&p.rasterize_hu(96)).unwrap(), &p.lung_mask(96)).unwrap();
        worst = worst.min(d);
    }
    assert!(worst > 0.7, "worst-case dice {worst}");
}

/// DDnet built at paper config matches the paper's structural numbers.
#[test]
fn ddnet_matches_paper_structure() {
    let net = Ddnet::new(DdnetConfig::paper(), 1);
    assert_eq!(net.conv_layer_count(), 37);
    assert_eq!(net.deconv_layer_count(), 8);
    let rows = net.layer_table(512);
    assert_eq!(rows.iter().find(|r| r.layer == "Dense Block 1").unwrap().output, (256, 256, 80));
}

/// Untrained pipeline diagnoses any well-formed study and the turnaround
/// model produces the paper's days→minutes story.
#[test]
fn pipeline_and_turnaround() {
    let ds = ClassificationDataset::generate(2, 2, 32, 4).unwrap();
    let fw = Framework::untrained_reduced(5);
    for item in &ds.test {
        let t0 = std::time::Instant::now();
        let d = fw.diagnose(&item.volume.hu, 0.5).unwrap();
        let elapsed = t0.elapsed();
        assert!((0.0..=1.0).contains(&d.probability));
        let cmp = turnaround::compare(elapsed);
        assert!(cmp.speedup > 50.0);
    }
}

/// Metrics glue: the scores produced by the pipeline feed the Eq (3)-(5)
/// metrics without shape trouble.
#[test]
fn metrics_pipeline_glue() {
    let scores = vec![0.9, 0.2, 0.7, 0.4];
    let labels = vec![true, false, true, false];
    let auc = metrics::auc_roc(&scores, &labels);
    assert_eq!(auc, 1.0);
    let cm = metrics::confusion_at(&scores, &labels, metrics::optimal_threshold(&scores, &labels));
    assert_eq!(cm.accuracy(), 1.0);
}
