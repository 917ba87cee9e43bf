//! Pinning measurement threads to host CPUs.
//!
//! On a shared host one CPU can run far slower than another for minutes at
//! a time (a busy sibling hyperthread shows up as neither steal nor load),
//! and the scheduler keeps a single-threaded process, and the threads it
//! spawns, on the CPU where it started. Rotating rounds over every allowed
//! CPU lets a run's median sample all of them.

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a glibc `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        if cpu >= WORDS * 64 {
            return;
        }
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread, so only its affinity changes.
        // A failure leaves the thread unpinned, which only costs precision.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}

/// The host CPUs this process may run on (empty where unknown).
pub fn cpus() -> Vec<usize> {
    sys::cpus()
}

/// Runs `f` on a fresh thread pinned to `cpu` (unpinned for `None`) and
/// waits for it; a panic in `f` resumes on the caller.
pub fn run_on<T: Send>(cpu: Option<usize>, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(|| {
            if let Some(cpu) = cpu {
                sys::pin(cpu);
            }
            f()
        })
        .join()
    })
    .unwrap_or_else(|e| std::panic::resume_unwind(e))
}
