//! §5.1.1: training & inference wall-times of Segmentation AI and
//! Classification AI.
//!
//! Paper (RTX 3090): Classification-AI training 4h28m (100 epochs, 305
//! scans); inference 45.88 s (segmentation) and 5.90 s (classification)
//! per study. We measure the scaled pipeline on this host and scale the
//! classification-training model to the paper's configuration.

use cc19_bench::{banner, parse_scale, Scale};
use cc19_analysis::classifier::{ClassifierConfig, DenseNet3d};
use cc19_analysis::segmentation::LungSegmenter;
use cc19_analysis::train::{train_classifier, ClassTrainConfig, Example};
use cc19_data::dataset::ClassificationDataset;
use cc19_data::prep::{normalize_for_enhancement, PrepConfig};
use computecovid19::framework::{Framework, Scratch};

fn main() {
    let scale = parse_scale();
    banner("Sec 5.1.1", "Segmentation/Classification AI train & inference times", scale);

    let (n, slices, vols, epochs) = match scale {
        Scale::Full => (64usize, 8usize, 24usize, 20usize),
        Scale::Quick => (48, 8, 12, 8),
    };

    // --- training time (measured, scaled) ---
    let ds = ClassificationDataset::generate(vols, 2, n, slices).unwrap();
    let prep = PrepConfig::scaled(1);
    let seg = LungSegmenter::default();
    let examples: Vec<Example> = ds
        .train
        .iter()
        .map(|item| {
            let unit = normalize_for_enhancement(&item.volume.hu, prep);
            let mask = seg.segment_volume(&item.volume.hu).unwrap();
            let masked = cc19_analysis::segmentation::apply_mask(&unit, &mask).unwrap();
            Example { volume: masked, label: item.label }
        })
        .collect();
    let cls = DenseNet3d::new(ClassifierConfig::tiny(), 5);
    let t0 = std::time::Instant::now();
    train_classifier(&cls, &examples, ClassTrainConfig::quick(epochs)).unwrap();
    let train_secs = t0.elapsed().as_secs_f64();
    println!(
        "classification training (measured, {vols} volumes x {epochs} epochs @ {n}^2x{slices}): {train_secs:.1} s"
    );
    println!("  paper: 4h28m for 305 scans x 100 epochs at 512^2 on an RTX 3090");

    // --- inference time (measured per study) ---
    let fw = Framework {
        enhancer: None,
        segmenter: seg,
        classifier: cls,
        prep,
    };
    let test_vol = &ds.test[0].volume.hu;
    let mut scratch = Scratch::new();
    let t0 = std::time::Instant::now();
    let enh = fw.run_enhance(test_vol, &mut scratch).unwrap();
    let t1 = std::time::Instant::now();
    let seg = fw.run_segment(enh, &mut scratch).unwrap();
    let t2 = std::time::Instant::now();
    fw.run_classify(seg, 0.5, &mut scratch).unwrap();
    let t3 = std::time::Instant::now();
    let (seg_secs, class_secs) = ((t2 - t1).as_secs_f64(), (t3 - t2).as_secs_f64());
    let total = (t3 - t0).as_secs_f64();
    println!("\ninference per study (measured, {n}^2x{slices} volume):");
    println!("  segmentation  : {seg_secs:.3} s   (paper: 45.88 s at 512^2 x full stacks)");
    println!("  classification: {class_secs:.3} s   (paper:  5.90 s)");
    println!("  total         : {total:.3} s");
    println!("\nshape check: segmentation dominates classification, as in the paper ({}).",
        if seg_secs > class_secs { "holds" } else { "differs at this scale" });

    let csv = format!(
        "metric,measured_s,paper_s\nclass_training,{train_secs},16080\nsegmentation_inference,{seg_secs},45.88\nclassification_inference,{class_secs},5.90\n"
    );
    cc19_bench::write_result("sec511.csv", &csv);
}
