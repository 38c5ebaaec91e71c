//! The two clocks a workload can be timed on.
//!
//! Five of the six workloads are timed on the wall clock: one thread
//! computes from start to end, and what it takes is what a user waits.
//! `service_session` also waits for the disk, and the sandbox's disk
//! writes the same 1 MB snapshot in 30 ms one minute and 90 ms the next. That
//! wait is not the program's doing and no run of ten seconds averages it
//! out, so `service_session` is timed on its thread's processor time; its
//! disk waits are reported from the wall-clock spans of the traced run,
//! ungated.

use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    ThreadCpu,
}

impl Clock {
    /// Nanoseconds on this clock; `epoch` is the wall clock's zero.
    pub fn now_ns(self, epoch: Instant) -> u64 {
        match self {
            Clock::Wall => epoch.elapsed().as_nanos() as u64,
            Clock::ThreadCpu => thread_cpu_ns(),
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Nanoseconds of processor time the calling thread has used so far.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only platform this benchmark builds for,
    // see `compile_error!` below) and `clock_gettime` writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "the thread's CPU-time clock is readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux's per-thread CPU clock and /proc/self/status");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computing_advances_the_clock_and_sleeping_does_not() {
        let start = thread_cpu_ns();
        let mut x = 1u64;
        while thread_cpu_ns() - start < 2_000_000 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        let computed = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns() - computed;
        assert!(
            slept < 10_000_000,
            "slept 30 ms, the clock moved {slept} ns"
        );
    }
}
