//! End-to-end pipeline latency per study (the "<1 second inference" claim
//! of §2, measured at reduced scale, broken down per AI stage).

use criterion::{criterion_group, criterion_main, Criterion};

use cc19_data::sources::{DataSource, Modality, ScanMeta};
use cc19_data::volume::CtVolume;
use computecovid19::framework::Framework;

fn bench_pipeline(c: &mut Criterion) {
    let fw = Framework::untrained_reduced(1);
    let meta = ScanMeta {
        id: 9,
        source: DataSource::Midrc,
        modality: Modality::Ct,
        positive: true,
        severity: Some(cc19_ctsim::phantom::Severity::Moderate),
        slices: 8,
        circular_artifact: false,
        has_projections: false,
    };
    let vol = CtVolume::synthesize(&meta, 48, 8).unwrap();

    let mut group = c.benchmark_group("pipeline");
    group.bench_function("diagnose_48x48x8", |b| {
        b.iter(|| fw.diagnose(&vol.hu, 0.5).unwrap())
    });

    let mut fw_no_enh = Framework::untrained_reduced(1);
    fw_no_enh.enhancer = None;
    group.bench_function("diagnose_no_enhancement", |b| {
        b.iter(|| fw_no_enh.diagnose(&vol.hu, 0.5).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);
