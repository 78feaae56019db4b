//! Thread placement for `refine_vnr`: the calling thread's CPU set, and
//! pinning it to one CPU of that set.
//!
//! On a virtual machine whose vCPUs share physical cores with other
//! guests, one vCPU can run the same code markedly faster than another
//! for minutes at a time. An unpinned thread stays where the scheduler
//! put it, so a run's timings follow that placement. Moving the thread
//! round-robin over its CPUs gives every run the same share of each.

/// A Linux `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// The CPUs the calling thread may run on, restored on drop.
pub struct Placement {
    original: Option<CpuSet>,
    cpus: Vec<usize>,
}

impl Placement {
    /// Records the calling thread's CPU set.
    pub fn current() -> Placement {
        let original = get();
        let cpus = original.map_or_else(Vec::new, |s| {
            (0..1024)
                .filter(|&c| s[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        });
        Placement { original, cpus }
    }

    /// Number of CPUs in the recorded set.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// Pins the calling thread to the `k`-th CPU of the set, counting
    /// round-robin. Does nothing where the set has one CPU or could
    /// not be read.
    pub fn pin_round_robin(&self, k: usize) {
        if self.cpus.len() > 1 {
            let c = self.cpus[k % self.cpus.len()];
            let mut one: CpuSet = [0; 16];
            one[c / 64] = 1 << (c % 64);
            set(&one);
        }
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        if let Some(original) = &self.original {
            set(original);
        }
    }
}
