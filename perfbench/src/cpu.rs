//! The process CPU clock, for the CPU-time rate printed beside
//! `work_per_s`.
//!
//! Every metric is read from the wall clock, so losses from scaling,
//! waiting, imbalance or preemption show in it. The CPU-time rate (units
//! per CPU-second per worker) is printed as a fact beside it: when the
//! wall rate drops and the CPU rate does not, the time went to waiting
//! rather than to computing.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
#[cfg(test)]
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) and `clock_gettime` writes only through the pointer
    // it is given; both clock ids are valid for the calling process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU clock is non-negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds fit in u32"),
    )
}

/// CPU time consumed by the calling thread.
#[cfg(test)]
fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of the process.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let t0 = thread();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005) ^ i);
        }
        let busy = thread() - t0;
        assert!(busy > Duration::from_micros(100), "{busy:?}");
        let t1 = thread();
        std::thread::sleep(Duration::from_millis(30));
        assert!(thread() - t1 < Duration::from_millis(10));
        assert!(process() >= thread());
    }
}
