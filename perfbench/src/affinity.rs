//! Spreads the benchmark's single-threaded calls over every CPU the
//! process may use.
//!
//! On a shared host one vCPU can run at half the speed of another for
//! seconds at a time, and the two trade places. A single-threaded call
//! (set-up, a read pass, a level-2 pass) left to the scheduler keeps
//! waking on the same CPU, so its rate follows that one CPU's state.
//! [`CpuHopper::pin_next`] pins the calling thread to the next CPU in
//! turn before each such call, so a run samples every CPU equally.
//! [`CpuHopper::release`] restores the original mask before a write
//! cycle, so the campaign's worker threads, which inherit the mask, may
//! use every CPU.
//!
//! Where the affinity calls are unavailable, both do nothing.

/// Words of a `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

type CpuSet = [u64; WORDS];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<CpuSet> {
        let mut set = [0u64; super::WORDS];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Sets the calling thread's CPU mask; false if the kernel refused.
    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// Pins the calling thread to one CPU after another, and releases it.
#[derive(Debug)]
pub struct CpuHopper {
    all: CpuSet,
    cpus: Vec<usize>,
    next: usize,
}

impl CpuHopper {
    /// A hopper over the calling thread's current CPU mask.
    pub fn new() -> Self {
        let all = sys::get().unwrap_or([0; WORDS]);
        let cpus = (0..WORDS * 64)
            .filter(|&c| all[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        CpuHopper { all, cpus, next: 0 }
    }

    /// Pins the calling thread to the next CPU in turn.
    pub fn pin_next(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next];
        self.next = (self.next + 1) % self.cpus.len();
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        sys::set(&one);
    }

    /// Lets the calling thread run on every CPU of the original mask.
    pub fn release(&self) {
        if self.cpus.len() >= 2 {
            sys::set(&self.all);
        }
    }
}

impl Default for CpuHopper {
    fn default() -> Self {
        Self::new()
    }
}
