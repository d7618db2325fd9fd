//! Keeps every core of the machine from halting while a pass runs.
//!
//! On a shared host a halted virtual core is handed to another tenant,
//! and waking it again costs anything from 50 µs to several ms: a served
//! request, which crosses six sleeping threads, then measures the host's
//! scheduler and not the program (`served_open` read 16 to 27 ms at the
//! median from pass to pass; with the cores kept awake, 11.6 to 13.3).
//! One process per core therefore spins on the `pause` instruction under
//! the `SCHED_IDLE` policy, which the kernel runs only on a core that has
//! nothing else to run and preempts at once when a program thread wakes,
//! so it takes no time from the program under test. It does what
//! `idle=poll` does on a machine of one's own.
//!
//! The spinners are processes, not threads: a thread shares the address
//! space of the program under test, so every `munmap` of a tensor buffer
//! would have to interrupt the spinner's core to flush its TLB, which
//! doubled `slice_512`.

use std::os::unix::process::parent_id;
use std::process::{Child, Command, ExitCode, Stdio};
use std::thread;

/// First argument of a spinner process: `--keep-awake <core> <pass pid>`.
pub const FLAG: &str = "--keep-awake";

const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// Bit mask of cores as `sched_setaffinity` takes it: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The spinner processes, killed and waited for on drop.
pub struct KeepAwake(Vec<Child>);

impl KeepAwake {
    /// One idle-priority spinner of this executable pinned to each core.
    /// A spinner that cannot start is reported and done without.
    pub fn start() -> KeepAwake {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        let spawn = |core: usize| {
            Command::new(std::env::current_exe()?)
                .args([FLAG, &core.to_string(), &std::process::id().to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
        };
        KeepAwake(
            (0..cores.min(1024))
                .filter_map(|core| {
                    spawn(core)
                        .map_err(|e| eprintln!("keep-awake: core {core} may halt: {e}"))
                        .ok()
                })
                .collect(),
        )
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Body of a spinner process: spin at idle priority on `core` until the
/// pass kills it, or until process `pass` is no longer its parent (the
/// pass was killed itself, so that its `Drop` never ran). Where the
/// kernel refuses the policy the spinner ends at once: at normal priority
/// it would compete with the program.
pub fn spin(core: usize, pass: u32) -> ExitCode {
    let mut mask: CpuSet = [0; 16];
    let Some(word) = mask.get_mut(core / 64) else {
        eprintln!("keep-awake: no core {core}");
        return ExitCode::FAILURE;
    };
    *word = 1 << (core % 64);
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: both calls read a live, correctly sized argument and act on
    // the calling thread (pid 0), the only one of this process.
    let idle = unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask);
        sched_setscheduler(0, SCHED_IDLE, &param) == 0
    };
    if !idle {
        eprintln!("keep-awake: SCHED_IDLE refused, core {core} may halt");
        return ExitCode::FAILURE;
    }
    while parent_id() == pass {
        for _ in 0..4096 {
            std::hint::spin_loop();
        }
    }
    ExitCode::SUCCESS
}
