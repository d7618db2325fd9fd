//! A warm `Framework::diagnose` gives the same probability bits on the
//! rayon pool as under `rayon::serial` — enhancement, segmentation and
//! classification together — at 4×16² to 4×112²: two pooled calls and
//! one serial call per study.

use cc19_data::dataset::ClassificationDataset;
use computecovid19::framework::Framework;

#[test]
fn diagnose_is_the_same_on_the_pool() {
    let fw = Framework::untrained_reduced(31);
    for extent in [16, 32, 64, 112] {
        let ds = ClassificationDataset::generate(1, 1, extent, 4).expect("dataset");
        let vol = &ds.test[0].volume.hu;
        let run = || fw.diagnose(vol, 0.5).expect("diagnose").probability.to_bits();
        let before = rayon::fork_count();
        let (a, b) = (run(), run());
        let forked = rayon::fork_count() > before;
        let serial = rayon::serial(run);
        assert_eq!((a, b), (serial, serial), "4×{extent}²: pooled vs serial probability bits");
        assert!(forked || extent < 64 || rayon::current_num_threads() == 1, "4×{extent}²: no op forked");
    }
}
