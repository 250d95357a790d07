//! Confines a workload run to one CPU.
//!
//! The serving workloads run the server and its load generator in one
//! process. Spread over two CPUs, a round trip can also wait for the host
//! to wake the other CPU, and threads that run at the same time make the
//! allocator open more heap arenas. Over five runs of each serving
//! workload on a 2-vCPU virtual machine, median latency spread 13–23 %
//! and peak memory 8–11 % on two CPUs, against 6–10 % and 2–10 % on one.

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order.
fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(format!(
            "reading the CPU affinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..16 * 64)
        .filter(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()?.last().ok_or("no CPU is allowed")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "pinning to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_may_run_on_exactly_one_cpu() {
        // On a thread of its own: the affinity is per thread and inherited.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinning");
            assert_eq!(allowed_cpus(), Ok(vec![cpu]));
        })
        .join()
        .expect("the pinned thread");
    }
}
