//! Pinning the benchmark's threads to one CPU for a measured phase.
//!
//! A workload whose op is a microsecond ping-pong between the client
//! thread and a server thread pays, on a virtual machine, a wake-up of
//! the other virtual CPU at every handoff when the two threads sit on
//! different CPUs; how long that takes depends on the host, and it made
//! runs of identical code differ by 2–3× on a 2-vCPU VM. Such workloads
//! run every thread of the process on one CPU while they measure, and
//! only then: set-up keeps every CPU, so the program's own fan-out still
//! shows in `setup_s`.

use std::io;

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

/// `ESRCH`: the thread has exited.
const ESRCH: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPU mask of thread `tid` (0: the calling thread).
fn get(tid: i32) -> io::Result<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc == 0 {
        Ok(mask)
    } else {
        Err(io::Error::last_os_error())
    }
}

fn set(tid: i32, mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The ids of the process's threads now.
fn threads() -> io::Result<Vec<i32>> {
    let mut tids = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task")? {
        if let Some(tid) = entry?.file_name().to_str().and_then(|s| s.parse().ok()) {
            tids.push(tid);
        }
    }
    Ok(tids)
}

/// Sets every thread of the process to `mask`, listing the threads
/// again until no new one appears; a thread that exits meanwhile is
/// skipped.
fn set_all(mask: &CpuSet) -> io::Result<()> {
    let mut done = Vec::new();
    loop {
        let fresh: Vec<i32> = threads()?
            .into_iter()
            .filter(|t| !done.contains(t))
            .collect();
        if fresh.is_empty() {
            return Ok(());
        }
        for tid in fresh {
            match set(tid, mask) {
                Err(e) if e.raw_os_error() == Some(ESRCH) => {}
                r => r?,
            }
            done.push(tid);
        }
    }
}

/// While this lives, every thread of the process runs on the first CPU
/// the calling thread was allowed, and threads they spawn inherit that;
/// dropping it gives every thread the calling thread's previous mask.
pub struct OneCpu {
    previous: CpuSet,
}

impl OneCpu {
    /// Pins every thread of the process to one CPU.
    pub fn pin_all() -> Result<OneCpu, String> {
        let previous = get(0).map_err(|e| format!("sched_getaffinity: {e}"))?;
        let word = previous
            .iter()
            .position(|&w| w != 0)
            .ok_or("no CPU allowed")?;
        let mut one: CpuSet = [0; 16];
        one[word] = previous[word] & previous[word].wrapping_neg();
        set_all(&one).map_err(|e| format!("sched_setaffinity: {e}"))?;
        Ok(OneCpu { previous })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let _ = set_all(&self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn cpus(mask: CpuSet) -> u32 {
        mask.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn pinning_covers_threads_already_running_and_drop_restores_them() {
        let before = get(0).unwrap();
        // A thread started before the pin reports its own mask on request.
        let (ask, asked) = mpsc::channel::<()>();
        let (answer, answered) = mpsc::channel::<u32>();
        let peer = std::thread::spawn(move || {
            for () in asked {
                answer.send(cpus(get(0).unwrap())).unwrap();
            }
        });
        let pinned = OneCpu::pin_all().unwrap();
        ask.send(()).unwrap();
        assert_eq!(answered.recv().unwrap(), 1);
        assert_eq!(cpus(get(0).unwrap()), 1);
        let child = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
        assert_eq!(child.join().unwrap(), 1);
        drop(pinned);
        ask.send(()).unwrap();
        assert_eq!(answered.recv().unwrap(), cpus(before));
        assert_eq!(get(0).unwrap(), before);
        drop(ask);
        peer.join().unwrap();
    }
}
