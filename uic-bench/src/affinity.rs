//! CPU placement for the serve workloads: the load generator's threads
//! share the first CPU the harness may use, and the `uic-serve` child
//! gets the others, so the generator's wake-ups never compete with the
//! server for a core. Left to the scheduler, the placement of four busy
//! threads on two cores changed from run to run and moved the warm p50
//! by a quarter between otherwise identical runs.

use std::os::raw::{c_int, c_ulong};

/// A CPU mask in the kernel's `cpu_set_t` layout (1024 CPUs).
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([c_ulong; 16]);

const BITS: usize = 8 * std::mem::size_of::<c_ulong>();

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// The CPUs the calling thread may run on.
fn allowed() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its exact size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..16 * BITS)
        .filter(|&cpu| set.0[cpu / BITS] & (1 << (cpu % BITS)) != 0)
        .collect()
}

fn mask(cpus: &[usize]) -> CpuSet {
    let mut set = CpuSet([0; 16]);
    for &cpu in cpus {
        set.0[cpu / BITS] |= 1 << (cpu % BITS);
    }
    set
}

/// How the harness splits its CPUs between load generator and server.
#[derive(Debug, Clone)]
pub struct Split {
    generator: Vec<usize>,
    server: Vec<usize>,
}

impl Split {
    /// The first allowed CPU for the generator, the rest for the server;
    /// `None` with fewer than two CPUs (nothing to separate).
    pub fn detect() -> Option<Split> {
        let cpus = allowed();
        let (first, rest) = cpus.split_first()?;
        (!rest.is_empty()).then(|| Split {
            generator: vec![*first],
            server: rest.to_vec(),
        })
    }

    /// Pins the calling thread to the generator's CPU.
    pub fn pin_generator(&self) {
        pin(&self.generator);
    }

    /// Applies the server's CPU set to `cmd`'s child before it runs, so
    /// every thread it starts inherits the set.
    pub fn confine_server(&self, cmd: &mut std::process::Command) {
        use std::os::unix::process::CommandExt;
        let set = mask(&self.server);
        // SAFETY: the hook runs in the forked child before `exec`, where
        // only async-signal-safe calls are allowed; `sched_setaffinity`
        // is a plain system call on a mask built before the fork.
        unsafe {
            cmd.pre_exec(move || {
                if sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
    }
}

/// Restricts the calling thread to `cpus` (best effort: a refused mask
/// leaves the thread where the scheduler put it).
fn pin(cpus: &[usize]) {
    let set = mask(cpus);
    // SAFETY: `set` is a valid `cpu_set_t`-sized mask and the size passed
    // is its exact size; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_round_trip_through_the_kernel() {
        let before = allowed();
        assert!(!before.is_empty(), "a thread may always run somewhere");
        std::thread::spawn(move || {
            pin(&before[..1]);
            assert_eq!(allowed(), before[..1].to_vec());
        })
        .join()
        .unwrap();
    }
}
