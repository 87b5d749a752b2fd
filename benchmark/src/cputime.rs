//! CPU time of the calling thread, for the host-time metrics.
//!
//! The reference host is a VM whose hypervisor at times takes the CPU away
//! for a quarter of a ten-minute stretch (`steal` in `/proc/stat`); wall
//! time then reads 40 % slow. The kernel keeps stolen time (and time spent
//! waiting behind other guest processes) out of a thread's CPU time, so the
//! end-to-end host metrics are taken on this clock. The benchmark runs the
//! engine on one thread (`engine.threads = 1`), so on a quiet host the
//! thread's CPU time and the wall time of a phase are the same thing.

use std::time::Duration;

/// CPU time the calling thread has used so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_time() -> Duration {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std links it); it writes
    // one `timespec` through the pointer, which points at a live, properly
    // laid-out value, and keeps nothing.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux has had a thread CPU clock since 2.6.12");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere there is no portable thread CPU clock: fall back to wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_time() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let start = thread_cpu_time();
        let mut x = 1u64;
        while thread_cpu_time() - start < Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let worked = thread_cpu_time();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_time() - worked;
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(
                slept < Duration::from_millis(25),
                "sleep cost {slept:?} of CPU"
            );
        }
    }
}
