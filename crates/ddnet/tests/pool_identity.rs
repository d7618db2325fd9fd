//! `Ddnet::enhance` gives the same bits on the rayon pool as under
//! `rayon::serial`: two pooled calls and one serial call on the same
//! slice, compared by `to_bits`, from 16² (below the pool's grain: no
//! op forks) to 512² (every plan op large enough forks). The 512² slice
//! runs in the release-build stage of `scripts/tier1.sh`.

use std::sync::{Mutex, PoisonError};

use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_tensor::rng::Xorshift;

/// One test at a time: a pooled call must find the pool free to fork.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A tiny DDnet with every weight nudged off its zero-initialised last
/// layer, which would make the network the identity.
fn nudged() -> Ddnet {
    let net = Ddnet::new(DdnetConfig::tiny(), 3);
    for p in net.store.params() {
        for v in p.borrow_mut().value.data_mut() {
            *v += 0.01;
        }
    }
    net
}

/// Two pooled `enhance` calls and a serial one on an `n²` slice agree
/// bit for bit; whether the pooled calls forked.
fn pooled_matches_serial(net: &Ddnet, n: usize) -> bool {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let slice = Xorshift::new(n as u64).uniform_tensor([n, n], 0.0, 1.0);
    let run = || net.enhance(&slice).expect("enhance").data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let before = rayon::fork_count();
    let (a, b) = (run(), run());
    let forked = rayon::fork_count() > before;
    let serial = rayon::serial(run);
    assert_eq!(a, serial, "{n}²: first pooled call");
    assert_eq!(b, serial, "{n}²: second pooled call");
    forked
}

#[test]
fn enhance_is_the_same_on_the_pool_from_16_to_128() {
    let net = nudged();
    for n in [16, 32, 64, 112, 128] {
        let forked = pooled_matches_serial(&net, n);
        assert!(forked || n < 64 || rayon::current_num_threads() == 1, "{n}²: no op forked");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the 512² slice runs in the release-build stage of scripts/tier1.sh")]
fn enhance_is_the_same_on_the_pool_at_512() {
    let forked = pooled_matches_serial(&nudged(), 512);
    assert!(forked || rayon::current_num_threads() == 1, "512²: no op forked");
}
