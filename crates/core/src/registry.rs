//! Process-identifier allocation.
//!
//! The paper's algorithms name processes by PIDs drawn from a finite set
//! (`X ∈ PID ∪ {true}` in Fig. 2, `W-token ∈ PID ∪ {false} ∪ {0,1}` in
//! Fig. 4). The typed lock front end hands each participating thread a
//! [`Pid`] from a fixed-capacity [`PidRegistry`]; the registry capacity is
//! the `n` of the theorems ("O(n) shared variables", Anderson-lock slots).

use rmr_mutex::mem::{Backend, Native, Ordering, SharedBool};
use std::fmt;

/// A process identifier: a small dense integer in `0..capacity`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// The integer value of the pid.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a pid from a raw index. Intended for the simulator and tests;
    /// the typed API always allocates pids through [`PidRegistry`].
    pub fn from_index(index: usize) -> Self {
        Pid(u32::try_from(index).expect("pid out of range"))
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Error returned when a lock already has `capacity` registered processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryFull {
    capacity: usize,
}

impl RegistryFull {
    /// The capacity that was exhausted.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl fmt::Display for RegistryFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all {} process slots are registered", self.capacity)
    }
}

impl std::error::Error for RegistryFull {}

/// Fixed-capacity pid allocator, generic over the memory backend
/// (`Native` by default).
///
/// Allocation is O(capacity) (a scan with one CAS per probed slot). Pids
/// are allocated at registration time and at a thread's first leased
/// acquisition, which the lease cache then amortizes. Two paths do
/// allocate per passage: a nested leased acquisition (its guard takes a
/// transient pid) and any acquisition during thread teardown, once the
/// thread's lease table is destroyed.
///
/// The registry holds only the `in_use` flags. A structure that keeps
/// per-pid state of its own (the `rmr-swap` snapshot's reader epoch
/// table) indexes it by these pids, so a reserved pid keeps its state
/// reserved too.
///
/// # Example
///
/// ```
/// use rmr_core::registry::PidRegistry;
///
/// let reg = PidRegistry::new(2);
/// let a = reg.allocate().unwrap();
/// let b = reg.allocate().unwrap();
/// assert!(reg.allocate().is_err());
/// reg.release(a);
/// assert!(reg.allocate().is_ok());
/// # let _ = b;
/// ```
pub struct PidRegistry<B: Backend = Native> {
    in_use: Box<[B::Bool]>,
}

impl PidRegistry {
    /// Creates a registry with `capacity` pids (`0..capacity`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `u32::MAX`.
    pub fn new(capacity: usize) -> Self {
        Self::new_in(capacity, Native)
    }
}

impl<B: Backend> PidRegistry<B> {
    /// Creates a registry with `capacity` pids over the given memory
    /// backend (same contract as [`PidRegistry::new`]).
    pub fn new_in(capacity: usize, _backend: B) -> Self {
        assert!(capacity > 0, "registry capacity must be positive");
        assert!(u32::try_from(capacity).is_ok(), "registry capacity too large");
        Self { in_use: (0..capacity).map(|_| B::Bool::new(false)).collect() }
    }

    /// Number of pids this registry manages.
    pub fn capacity(&self) -> usize {
        self.in_use.len()
    }

    /// Number of pids currently allocated (approximate under concurrency).
    pub fn allocated(&self) -> usize {
        // Diagnostic snapshot only; no synchronization rides on it.
        self.in_use.iter().filter(|b| b.load(Ordering::Relaxed)).count()
    }

    /// Claims a free pid.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryFull`] if every pid is in use.
    pub fn allocate(&self) -> Result<Pid, RegistryFull> {
        for (i, slot) in self.in_use.iter().enumerate() {
            // Acquire on success: taking the slot synchronizes with the
            // previous holder's Release in `release`, so the new holder
            // inherits a quiesced pid (whatever per-pid state it cleared
            // is seen cleared). Relaxed on failure: a taken slot is just
            // skipped.
            if slot.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok() {
                return Ok(Pid(i as u32));
            }
        }
        Err(RegistryFull { capacity: self.capacity() })
    }

    /// Returns a pid to the free pool.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the pid was not allocated, which indicates
    /// a double release.
    pub fn release(&self, pid: Pid) {
        // Release: publishes everything this holder did under the pid
        // (e.g. a snapshot guard's epoch-slot clear) to the next allocator's
        // Acquire CAS. A swap rather than a store only to return the old
        // value for the double-release debug check.
        let was = self.in_use[pid.index()].swap(false, Ordering::Release);
        debug_assert!(was, "released pid {pid} that was not allocated");
    }
}

impl<B: Backend> fmt::Debug for PidRegistry<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PidRegistry")
            .field("capacity", &self.capacity())
            .field("allocated", &self.allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn allocates_dense_pids() {
        let reg = PidRegistry::new(3);
        let a = reg.allocate().unwrap();
        let b = reg.allocate().unwrap();
        let c = reg.allocate().unwrap();
        let mut ids = vec![a.index(), b.index(), c.index()];
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn exhaustion_reports_capacity() {
        let reg = PidRegistry::new(1);
        let _a = reg.allocate().unwrap();
        let err = reg.allocate().unwrap_err();
        assert_eq!(err.capacity(), 1);
        assert_eq!(err.to_string(), "all 1 process slots are registered");
    }

    #[test]
    fn release_recycles() {
        let reg = PidRegistry::new(2);
        let a = reg.allocate().unwrap();
        reg.release(a);
        let again = reg.allocate().unwrap();
        assert_eq!(again, a);
    }

    #[test]
    fn concurrent_allocation_is_unique() {
        let reg = Arc::new(PidRegistry::new(16));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || reg.allocate().unwrap()));
        }
        let mut pids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap().index()).collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids.len(), 16, "duplicate pid handed out");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Pid::from_index(7).to_string(), "p7");
        assert_eq!(format!("{:?}", Pid::from_index(7)), "p7");
    }

    #[test]
    fn concurrent_register_drop_cycles_reuse_without_duplication() {
        // Thread-local leasing churns allocate/release far harder than the
        // old register()-once pattern: every short-lived thread allocates
        // and returns a pid. 8 threads cycle through a 4-slot registry;
        // at no instant may two live holders share a pid.
        use std::sync::atomic::{AtomicU32, Ordering};
        let reg = Arc::new(PidRegistry::new(4));
        let holders: Arc<[AtomicU32; 4]> = Arc::new(Default::default());
        let mut threads = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            let holders = Arc::clone(&holders);
            threads.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    if let Ok(pid) = reg.allocate() {
                        let prev = holders[pid.index()].fetch_add(1, Ordering::SeqCst);
                        assert_eq!(prev, 0, "pid {pid} double-issued");
                        holders[pid.index()].fetch_sub(1, Ordering::SeqCst);
                        reg.release(pid);
                    }
                    // RegistryFull under contention is legal: 8 threads, 4
                    // slots. The next loop iteration retries.
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.allocated(), 0, "every cycle returned its pid");
    }

    #[test]
    fn exhaustion_is_exact_under_concurrency() {
        // 16 threads race for 8 slots; exactly 8 must win, the rest must
        // see RegistryFull (no spurious success past capacity).
        let reg = Arc::new(PidRegistry::new(8));
        let mut threads = Vec::new();
        for _ in 0..16 {
            let reg = Arc::clone(&reg);
            threads.push(std::thread::spawn(move || reg.allocate().ok()));
        }
        let wins: Vec<_> = threads.into_iter().filter_map(|t| t.join().unwrap()).collect();
        assert_eq!(wins.len(), 8);
        assert_eq!(reg.allocated(), 8);
        assert!(reg.allocate().is_err());
        let mut ids: Vec<_> = wins.iter().map(|p| p.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "duplicate pid among winners");
    }

    #[test]
    fn allocates_only_in_use() {
        // One boxed slice of flags and nothing else: a lock's registry
        // carries no per-pid table it never touches.
        assert_eq!(
            std::mem::size_of::<PidRegistry>(),
            std::mem::size_of::<Box<[<Native as Backend>::Bool]>>()
        );
    }
}
