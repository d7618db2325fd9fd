//! End-to-end longitudinal monitoring (the PR's acceptance test):
//! a seeded 4-timestep progression phantom series through
//! [`PatientSeries`] yields monotone burden deltas matching the
//! phantom's programmed progression; resubmitting any scan is a cache
//! hit with a bit-identical `Diagnosis` and mask; and the serve-path
//! variants (single-node broker, sharded cluster) match the
//! direct-path report bit for bit.

use std::sync::Arc;

use cc19_ctsim::phantom::Severity;
use cc19_data::progression::{progression_series, progression_volume, ProgressionCourse};
use cc19_data::volume::CtVolume;
use cc19_monitor::{PatientSeries, Provenance};
use cc19_obs::Registry;
use cc19_serve::{BatchPolicy, ClusterCfg, ClusterMetrics, ServeCluster, Server, ServerCfg};
use computecovid19::framework::Framework;
use computecovid19::monitoring::Trend;

const PATIENT: u64 = 0x5E_2126;
const N: usize = 32;
const SLICES: usize = 4;
const STEPS: usize = 4;
const THRESHOLD: f64 = 0.5;
const CACHE_BYTES: usize = 64 << 20;

fn course() -> ProgressionCourse {
    ProgressionCourse::worsening(STEPS)
}

fn scans() -> Vec<CtVolume> {
    progression_series(PATIENT, &course(), N, SLICES, Severity::Moderate)
        .expect("progression series")
}

fn fresh_series() -> PatientSeries {
    let fw = Framework::untrained_reduced(PATIENT);
    PatientSeries::with_registry(fw, THRESHOLD, CACHE_BYTES, Arc::new(Registry::new()))
}

#[test]
fn four_timestep_series_tracks_the_programmed_progression() {
    let mut series = fresh_series();
    let mut measured = Vec::new();
    for (t, vol) in scans().iter().enumerate() {
        let report = series.add_scan(format!("t{t}"), vol).expect("add_scan");
        assert_eq!(report.provenance, Provenance::Computed);
        measured.push(report.burden.lesion_ml);
        if t > 0 {
            assert_eq!(
                report.trend,
                Some(Trend::Progressing),
                "worsening course must report progression at t{t}"
            );
            assert!(report.delta_ml() > 0.0);
        }
    }
    // measured burden ordering matches the programmed course ordering
    let programmed: Vec<f64> = (0..STEPS)
        .map(|t| course().programmed_burden(PATIENT, t, SLICES, Severity::Moderate))
        .collect();
    for w in programmed.windows(2) {
        assert!(w[1] > w[0], "programmed course must be monotone: {programmed:?}");
    }
    for (i, w) in measured.windows(2).enumerate() {
        assert!(
            w[1] > w[0],
            "measured burden not monotone at step {}: {measured:?}",
            i + 1
        );
    }
}

#[test]
fn resubmission_is_a_cache_hit_with_bit_identical_results() {
    let mut series = fresh_series();
    let all = scans();
    let mut firsts = Vec::new();
    for (t, vol) in all.iter().enumerate() {
        firsts.push(series.add_scan(format!("t{t}"), vol).expect("first pass"));
    }
    assert_eq!(series.cache().stats(), (0, STEPS as u64, 0));

    // resubmit every scan (reordered) — all hits, all bit-identical
    for (t, vol) in all.iter().enumerate().rev() {
        let replay = series.add_scan(format!("t{t}-replay"), vol).expect("replay");
        assert_eq!(replay.provenance, Provenance::CacheHit);
        assert_eq!(
            replay.probability.to_bits(),
            firsts[t].probability.to_bits(),
            "t{t}: cached Diagnosis probability must be bit-identical"
        );
        assert_eq!(replay.positive, firsts[t].positive);
        assert_eq!(replay.burden.lesion_ml.to_bits(), firsts[t].burden.lesion_ml.to_bits());
        assert_eq!(replay.burden.lung_ml.to_bits(), firsts[t].burden.lung_ml.to_bits());
    }
    let (hits, misses, _) = series.cache().stats();
    assert_eq!((hits, misses), (STEPS as u64, STEPS as u64));

    // the memoized mask itself is bit-identical to a fresh computation
    let record = &series.records()[1];
    let key = record.key;
    let mut cache_probe = fresh_series();
    let fresh = cache_probe.add_scan("probe", &all[1]).expect("probe");
    assert_eq!(fresh.burden.lesion_ml.to_bits(), firsts[1].burden.lesion_ml.to_bits());
    assert_eq!(
        cache_probe.records()[0].key,
        key,
        "same scan + same weights + same config must address identically"
    );
}

/// Serve worker config that keeps the monitoring submissions strictly
/// sequential and deterministic.
fn worker_cfg() -> ServerCfg {
    ServerCfg {
        batch: BatchPolicy { max_batch: 1 },
        threshold: THRESHOLD,
        ..ServerCfg::default()
    }
}

#[test]
fn serve_path_reports_match_the_direct_path_bit_for_bit() {
    let all = scans();

    // direct path
    let mut direct = fresh_series();
    for (t, vol) in all.iter().enumerate() {
        direct.add_scan(format!("t{t}"), vol).expect("direct");
    }
    direct.add_scan("t1-replay", &all[1]).expect("direct replay");

    // served path: same framework seed behind a single-node broker
    let server = Server::start(worker_cfg(), || Framework::untrained_reduced(PATIENT))
        .expect("server starts");
    let client = server.client();
    let mut served = fresh_series();
    for (t, vol) in all.iter().enumerate() {
        let r = served.add_scan_served(format!("t{t}"), vol, &client).expect("served");
        assert_eq!(r.provenance, Provenance::Computed);
    }
    let replay = served.add_scan_served("t1-replay", &all[1], &client).expect("served replay");
    assert_eq!(replay.provenance, Provenance::CacheHit);
    server.shutdown();

    assert_eq!(direct.to_csv(), served.to_csv(), "serve-path CSV must match direct bit-for-bit");
    assert_eq!(direct.to_json(), served.to_json());
    for (d, s) in direct.reports().iter().zip(served.reports()) {
        assert_eq!(d.probability.to_bits(), s.probability.to_bits());
        assert_eq!(d.burden.lesion_ml.to_bits(), s.burden.lesion_ml.to_bits());
    }
}

#[test]
fn cluster_path_reports_match_the_direct_path_bit_for_bit() {
    let all = scans();

    let mut direct = fresh_series();
    for (t, vol) in all.iter().enumerate() {
        direct.add_scan(format!("t{t}"), vol).expect("direct");
    }

    let cfg = ClusterCfg { workers: 2, worker: worker_cfg(), ..ClusterCfg::default() };
    let cluster = ServeCluster::start_with_metrics(
        cfg,
        || Framework::untrained_reduced(PATIENT),
        ClusterMetrics::new(),
    )
    .expect("cluster starts");
    let client = cluster.client();

    let mut clustered = fresh_series();
    for (t, vol) in all.iter().enumerate() {
        clustered.add_scan_clustered(format!("t{t}"), vol, &client).expect("clustered");
    }
    // resubmission through the cluster path is a local cache hit — the
    // broker is never consulted for a content-addressed replay
    let replay =
        clustered.add_scan_clustered("t2-replay", &all[2], &client).expect("cluster replay");
    assert_eq!(replay.provenance, Provenance::CacheHit);
    cluster.shutdown();

    for (d, c) in direct.reports().iter().zip(clustered.reports()) {
        assert_eq!(d.probability.to_bits(), c.probability.to_bits());
        assert_eq!(d.burden.lesion_ml.to_bits(), c.burden.lesion_ml.to_bits());
        assert_eq!(d.burden.lung_ml.to_bits(), c.burden.lung_ml.to_bits());
    }
}

#[test]
fn recovery_course_reports_improvement() {
    let mut series = fresh_series();
    let rec = ProgressionCourse::recovering(STEPS);
    for t in 0..STEPS {
        let vol = progression_volume(PATIENT, t, &rec, N, SLICES, Severity::Moderate)
            .expect("recovering scan");
        let report = series.add_scan(format!("t{t}"), &vol).expect("add_scan");
        if t > 0 {
            assert_eq!(report.trend, Some(Trend::Improving), "t{t} must improve");
            assert!(report.delta_ml() < 0.0);
        }
    }
}
