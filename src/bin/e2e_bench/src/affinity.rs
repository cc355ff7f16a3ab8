//! Pins the benchmark to one CPU.
//!
//! On the shared 2-vCPU machine this benchmark is judged on, the second
//! vCPU is there only part of the time: every path of the product that
//! fans out by `available_parallelism()` (batch sender recovery,
//! parallel storage folds) became bimodal — `chain_pipeline` read 850
//! tx/s in one complete run and 1 092 tx/s in the next, tight within
//! each. A ruler that flips by 28 % on the hypervisor's mood cannot
//! gate anything, so the process restricts itself to the first CPU it
//! is allowed on before any workload runs; `available_parallelism()`
//! then answers 1 and the product takes its serial paths. The cost is
//! stated plainly: this ruler makes no claim about parallel speed-up
//! (with one dependable core none could be made anyway).

/// Restricts this process — and every thread it spawns afterwards — to
/// the lowest-numbered CPU of its current affinity mask. Returns false
/// (and changes nothing) where the call is unavailable or refused.
pub fn pin_to_one_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        // glibc's `cpu_set_t`: 1024 bits.
        const WORDS: usize = 16;
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
        // bytes, which is the size passed; pid 0 names the calling
        // thread. The kernel writes at most `bytes` bytes into it.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return false;
        }
        let Some(word) = mask.iter().position(|&w| w != 0) else {
            return false;
        };
        let lowest = mask[word] & mask[word].wrapping_neg();
        mask = [0u64; WORDS];
        mask[word] = lowest;
        // SAFETY: `mask` is a live buffer of `bytes` bytes that the
        // kernel only reads; pid 0 names the calling thread, which at
        // this point is the only thread of the process.
        unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn pinning_leaves_one_cpu() {
        // Runs on its own test thread, so other tests keep their CPUs.
        let pinned = std::thread::spawn(|| {
            super::pin_to_one_cpu()
                .then(|| std::thread::available_parallelism().map_or(0, |n| n.get()))
        })
        .join()
        .expect("the pinning thread does not panic");
        // A sandbox may refuse the call; where it is allowed, exactly
        // one CPU is left.
        assert!(matches!(pinned, None | Some(1)), "{pinned:?}");
    }
}
