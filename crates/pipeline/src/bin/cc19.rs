//! `cc19` — command-line interface to the ComputeCOVID19+ pipeline.
//!
//! ```text
//! cc19 simulate         --seed 7 --n 64 --slices 8 --positive --out out/
//! cc19 train-enhancer   --pairs 24 --epochs 15 --n 48 --out ddnet.ckpt
//! cc19 enhance          --model ddnet.ckpt --seed 9 --out out/
//! cc19 train-classifier --volumes 20 --epochs 20 --n 48 --slices 8 --out cls.ckpt
//! cc19 diagnose         --seed 11 [--enhancer ddnet.ckpt] [--classifier cls.ckpt]
//! ```
//!
//! Everything runs on synthetic studies (see DESIGN.md §2 on data
//! substitution); the commands exercise the same public APIs a DICOM-fed
//! deployment would.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use cc19_analysis::classifier::{ClassifierConfig, DenseNet3d};
use cc19_analysis::segmentation::LungSegmenter;
use cc19_analysis::train::{train_classifier, ClassTrainConfig, Example};
use cc19_ctsim::io::write_pgm;
use cc19_ctsim::phantom::Severity;
use cc19_data::dataset::{ClassificationDataset, EnhancementDataset};
use cc19_data::lowdose_pairs::{make_pair_from_hu, PairConfig};
use cc19_data::prep::{normalize_for_enhancement, PrepConfig};
use cc19_data::sources::{DataSource, Modality, ScanMeta};
use cc19_data::volume::CtVolume;
use cc19_ddnet::trainer::{evaluate_pairs, train_enhancement, TrainConfig};
use cc19_ddnet::{Ddnet, DdnetConfig};
use computecovid19::framework::{Framework, Scratch};

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    flags.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    switches.push(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { flags, switches }
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.flags.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    fn path(&self, key: &str) -> Option<PathBuf> {
        self.flags.get(key).map(PathBuf::from)
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

fn synth_meta(seed: u64, positive: bool, slices: usize) -> ScanMeta {
    ScanMeta {
        id: seed,
        source: if positive { DataSource::Midrc } else { DataSource::Lidc },
        modality: Modality::Ct,
        positive,
        severity: if positive { Some(Severity::Moderate) } else { None },
        slices,
        circular_artifact: false,
        has_projections: false,
    }
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get("seed", 7);
    let n: usize = args.get("n", 64);
    let slices: usize = args.get("slices", 8);
    let positive = args.has("positive");
    let out = args.path("out").unwrap_or_else(|| PathBuf::from("out"));
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    let vol = CtVolume::synthesize(&synth_meta(seed, positive, slices), n, slices)
        .map_err(|e| e.to_string())?;
    for s in 0..vol.slices() {
        let img = vol.slice(s);
        write_pgm(&img, -1000.0, 400.0, &out.join(format!("slice_{s:03}.pgm")))
            .map_err(|e| e.to_string())?;
    }
    if let Some(save) = args.path("save") {
        cc19_data::io::save_volume(&vol, &save).map_err(|e| e.to_string())?;
        println!("saved volume container to {}", save.display());
    }
    println!(
        "wrote {} slices of a {} study (seed {seed}) to {}",
        vol.slices(),
        if positive { "COVID-positive" } else { "healthy" },
        out.display()
    );
    Ok(())
}

fn cmd_train_enhancer(args: &Args) -> Result<(), String> {
    let pairs: usize = args.get("pairs", 24);
    let epochs: usize = args.get("epochs", 15);
    let n: usize = args.get("n", 48);
    let views: usize = args.get("views", n / 2);
    let out = args.path("out").unwrap_or_else(|| PathBuf::from("ddnet.ckpt"));

    let mut pc = PairConfig::reduced(n, args.get("seed", 2021u64));
    pc.views = views;
    pc.dose.blank_scan = args.get("blank-scan", 3.0e4);
    println!("generating {pairs} training pairs at {n}x{n}, {views} views ...");
    let ds = EnhancementDataset::generate(pairs, pc).map_err(|e| e.to_string())?;

    let net = Ddnet::new(DdnetConfig::reduced(), args.get("seed", 2021u64));
    let mut tc = TrainConfig::quick(epochs);
    tc.lr = args.get("lr", 2e-3f32);
    println!("training DDnet ({} params) for {epochs} epochs ...", net.num_params());
    let stats = train_enhancement(&net, &ds.train, &ds.val, tc).map_err(|e| e.to_string())?;
    for s in stats.iter().step_by((epochs / 5).max(1)) {
        println!("  epoch {:>3}: train {:.5}  val {:.5}  ms-ssim {:.2}%", s.epoch, s.train_loss, s.val_loss, s.val_ms_ssim);
    }
    let (raw, enh) = evaluate_pairs(&net, &ds.test).map_err(|e| e.to_string())?;
    println!(
        "test: raw mse {:.5}/ms-ssim {:.1}% -> enhanced mse {:.5}/ms-ssim {:.1}%",
        raw.mse,
        raw.ms_ssim * 100.0,
        enh.mse,
        enh.ms_ssim * 100.0
    );
    net.save(&out).map_err(|e| e.to_string())?;
    println!("saved checkpoint to {}", out.display());
    Ok(())
}

fn load_enhancer(path: &Path) -> Result<Ddnet, String> {
    let net = Ddnet::new(DdnetConfig::reduced(), 0);
    net.load(path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    Ok(net)
}

fn cmd_enhance(args: &Args) -> Result<(), String> {
    let model = args.path("model").ok_or("--model <ckpt> is required")?;
    let seed: u64 = args.get("seed", 9);
    let n: usize = args.get("n", 48);
    let out = args.path("out").unwrap_or_else(|| PathBuf::from("out"));
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    let net = load_enhancer(&model)?;
    let phantom = cc19_ctsim::phantom::ChestPhantom::subject(seed, 0.5, Some(Severity::Moderate));
    let hu = phantom.rasterize_hu(n);
    let mut pc = PairConfig::reduced(n, seed);
    pc.views = args.get("views", n / 2);
    pc.dose.blank_scan = args.get("blank-scan", 3.0e4);
    let pair = make_pair_from_hu(&hu, seed, pc).map_err(|e| e.to_string())?;
    let enhanced = net.enhance(&pair.low).map_err(|e| e.to_string())?;

    write_pgm(&pair.low, 0.0, 1.0, &out.join("lowdose.pgm")).map_err(|e| e.to_string())?;
    write_pgm(&enhanced, 0.0, 1.0, &out.join("enhanced.pgm")).map_err(|e| e.to_string())?;
    write_pgm(&pair.full, 0.0, 1.0, &out.join("target.pgm")).map_err(|e| e.to_string())?;
    let mse_before = cc19_tensor::reduce::mse(&pair.low, &pair.full).map_err(|e| e.to_string())?;
    let mse_after = cc19_tensor::reduce::mse(&enhanced, &pair.full).map_err(|e| e.to_string())?;
    println!("mse {mse_before:.5} -> {mse_after:.5}; panels written to {}", out.display());
    Ok(())
}

fn cmd_train_classifier(args: &Args) -> Result<(), String> {
    let volumes: usize = args.get("volumes", 20);
    let epochs: usize = args.get("epochs", 20);
    let n: usize = args.get("n", 48);
    let slices: usize = args.get("slices", 8);
    let out = args.path("out").unwrap_or_else(|| PathBuf::from("cls.ckpt"));

    println!("generating {volumes} training volumes at {n}x{n}x{slices} ...");
    let ds = ClassificationDataset::generate(volumes, 2, n, slices).map_err(|e| e.to_string())?;
    let seg = LungSegmenter::default();
    let prep = PrepConfig::scaled(1);
    let examples: Vec<Example> = ds
        .train
        .iter()
        .map(|item| {
            let unit = normalize_for_enhancement(&item.volume.hu, prep);
            let mask = seg.segment_volume(&item.volume.hu).expect("segment");
            let masked = cc19_analysis::segmentation::apply_mask(&unit, &mask).expect("mask");
            Example { volume: masked, label: item.label }
        })
        .collect();
    let net = DenseNet3d::new(ClassifierConfig::tiny(), args.get("seed", 5u64));
    let mut cfg = ClassTrainConfig::quick(epochs);
    cfg.lr = args.get("lr", 1e-2f32);
    cfg.augment = None;
    let stats = train_classifier(&net, &examples, cfg).map_err(|e| e.to_string())?;
    println!(
        "trained: loss {:.4} -> {:.4}",
        stats[0].train_loss,
        stats.last().unwrap().train_loss
    );
    net.save(&out).map_err(|e| e.to_string())?;
    println!("saved checkpoint to {}", out.display());
    Ok(())
}

fn cmd_diagnose(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get("seed", 11);
    let n: usize = args.get("n", 48);
    let slices: usize = args.get("slices", 8);
    let positive = args.has("positive");
    let threshold: f64 = args.get("threshold", 0.5);

    let vol = match args.path("input") {
        Some(p) => cc19_data::io::load_volume(&p).map_err(|e| format!("loading {}: {e}", p.display()))?,
        None => CtVolume::synthesize(&synth_meta(seed, positive, slices), n, slices)
            .map_err(|e| e.to_string())?,
    };

    let enhancer = match args.path("enhancer") {
        Some(p) => Some(load_enhancer(&p)?),
        None => None,
    };
    let classifier = match args.path("classifier") {
        Some(p) => {
            let net = DenseNet3d::new(ClassifierConfig::tiny(), 0);
            net.load(&p).map_err(|e| format!("loading {}: {e}", p.display()))?;
            net
        }
        None => {
            println!("(no --classifier checkpoint: using an untrained classifier)");
            DenseNet3d::new(ClassifierConfig::tiny(), 0)
        }
    };
    let fw = Framework {
        enhancer,
        segmenter: LungSegmenter::default(),
        classifier,
        prep: PrepConfig::scaled(1),
    };
    // Run the three stages one call at a time, timing each call.
    let clock = cc19_obs::global_clock();
    let mut scratch = Scratch::new();
    let t0 = clock.now_ns();
    let enh = fw.run_enhance(&vol.hu, &mut scratch).map_err(|e| e.to_string())?;
    let t1 = clock.now_ns();
    let seg = fw.run_segment(enh, &mut scratch).map_err(|e| e.to_string())?;
    let t2 = clock.now_ns();
    let d = fw.run_classify(seg, threshold, &mut scratch).map_err(|e| e.to_string())?;
    let t3 = clock.now_ns();
    let dt = |from: u64, to: u64| Duration::from_nanos(to.saturating_sub(from));
    println!(
        "study {} (ground truth: {}):",
        vol.meta.id,
        if vol.meta.positive { "positive" } else { "healthy" }
    );
    println!("  p(COVID-19) = {:.4}", d.probability);
    println!("  decision @ {threshold}: {}", if d.positive { "POSITIVE" } else { "negative" });
    println!(
        "  stage times: enhance {:?}, segment {:?}, classify {:?} (total {:?})",
        dt(t0, t1),
        dt(t1, t2),
        dt(t2, t3),
        dt(t0, t3)
    );
    Ok(())
}

fn usage() -> &'static str {
    "usage: cc19 <command> [--flag value ...]\n\
     commands:\n\
       simulate          --seed N --n 64 --slices 8 [--positive] --out DIR [--save F.cc19v]\n\
       train-enhancer    --pairs 24 --epochs 15 --n 48 --out ddnet.ckpt\n\
       enhance           --model ddnet.ckpt --seed 9 --out DIR\n\
       train-classifier  --volumes 20 --epochs 20 --n 48 --slices 8 --out cls.ckpt\n\
       diagnose          --seed 11 [--positive] [--input F.cc19v] [--enhancer CKPT] [--classifier CKPT]"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&argv[1..]);
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(&args),
        "train-enhancer" => cmd_train_enhancer(&args),
        "enhance" => cmd_enhance(&args),
        "train-classifier" => cmd_train_classifier(&args),
        "diagnose" => cmd_diagnose(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_and_switches() {
        let a = parse(&["--seed", "42", "--positive", "--out", "dir"]);
        assert_eq!(a.get::<u64>("seed", 0), 42);
        assert!(a.has("positive"));
        assert_eq!(a.path("out").unwrap().to_str().unwrap(), "dir");
        assert!(!a.has("missing"));
        assert_eq!(a.get::<usize>("n", 64), 64);
    }

    #[test]
    fn trailing_switch_is_a_switch() {
        let a = parse(&["--n", "32", "--positive"]);
        assert_eq!(a.get::<usize>("n", 0), 32);
        assert!(a.has("positive"));
    }

    #[test]
    fn unparsable_values_fall_back_to_default() {
        let a = parse(&["--seed", "notanumber"]);
        assert_eq!(a.get::<u64>("seed", 7), 7);
    }

    #[test]
    fn scientific_notation_parses() {
        let a = parse(&["--blank-scan", "3.0e4"]);
        assert_eq!(a.get::<f64>("blank-scan", 0.0), 3.0e4);
    }

    #[test]
    fn synth_meta_labels() {
        let m = synth_meta(5, true, 8);
        assert!(m.positive && m.severity.is_some());
        let m = synth_meta(5, false, 8);
        assert!(!m.positive && m.severity.is_none());
    }
}
