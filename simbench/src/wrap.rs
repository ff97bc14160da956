//! Wrappers over the public `Workload`/`ThreadGen` traits: the seeded
//! thread-to-node permutation and the op/access tally at the workload
//! boundary.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use pimdsm_workloads::{Op, PreloadRegion, ThreadGen, Workload};

/// A permutation of `0..n` drawn from `seed` (Fisher-Yates over a
/// splitmix64 stream). Seed 0 is the identity.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    if seed == 0 {
        return p;
    }
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// Work counted at the workload boundary, shared by every generator of
/// the point being run.
#[derive(Default)]
pub struct Tally {
    pub ops: Cell<u64>,
    pub accesses: Cell<u64>,
    /// Host nanoseconds inside `next_op` (traced build only).
    pub next_op_ns: Cell<u64>,
}

impl Tally {
    pub fn reset(&self) {
        self.ops.set(0);
        self.accesses.set(0);
        self.next_op_ns.set(0);
    }
}

/// Memory accesses an op issues: Load/Store count 1, strided batches
/// their `count`, Gather/Scatter their length.
fn accesses(op: &Op) -> u64 {
    match op {
        Op::Load(_) | Op::Store(_) => 1,
        Op::LoadBatch { count, .. } | Op::StoreBatch { count, .. } => u64::from(*count),
        Op::Gather(b) | Op::Scatter(b) => b.len() as u64,
        _ => 0,
    }
}

/// A workload whose thread `tid` runs the inner workload's thread
/// `perm[tid]`. The machine places threads on compute nodes in `tid`
/// order, so this moves each inner thread to another node; preload owners
/// move with their thread.
pub struct Permuted {
    inner: Box<dyn Workload>,
    perm: Vec<usize>,
    inverse: Vec<usize>,
    tally: Rc<Tally>,
}

impl Permuted {
    pub fn new(inner: Box<dyn Workload>, seed: u64, tally: Rc<Tally>) -> Self {
        let perm = permutation(inner.threads(), seed);
        let mut inverse = vec![0; perm.len()];
        for (tid, &inner_tid) in perm.iter().enumerate() {
            inverse[inner_tid] = tid;
        }
        Permuted {
            inner,
            perm,
            inverse,
            tally,
        }
    }
}

impl Workload for Permuted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn threads(&self) -> usize {
        self.inner.threads()
    }
    fn spawn(&self, tid: usize) -> Box<dyn ThreadGen> {
        Box::new(Counted {
            inner: self.inner.spawn(self.perm[tid]),
            tally: Rc::clone(&self.tally),
        })
    }
    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
    fn l1_kb(&self) -> u64 {
        self.inner.l1_kb()
    }
    fn l2_kb(&self) -> u64 {
        self.inner.l2_kb()
    }
    fn reconfig_barrier(&self) -> Option<u32> {
        self.inner.reconfig_barrier()
    }
    fn barrier_width(&self, id: u32) -> usize {
        self.inner.barrier_width(id)
    }
    fn delayed_start(&self, tid: usize) -> bool {
        self.inner.delayed_start(self.perm[tid])
    }
    fn preload_regions(&self) -> Vec<PreloadRegion> {
        let mut regions = self.inner.preload_regions();
        for r in &mut regions {
            // Owners outside the thread range keep the machine's fallback.
            if let Some(&tid) = self.inverse.get(r.owner_tid) {
                r.owner_tid = tid;
            }
        }
        regions
    }
}

/// Counts ops and accesses; the traced build also times each call.
struct Counted {
    inner: Box<dyn ThreadGen>,
    tally: Rc<Tally>,
}

impl ThreadGen for Counted {
    fn next_op(&mut self) -> Option<Op> {
        let op = if cfg!(feature = "traced") {
            let t0 = Instant::now();
            let op = self.inner.next_op();
            let ns = t0.elapsed().as_nanos() as u64;
            self.tally.next_op_ns.set(self.tally.next_op_ns.get() + ns);
            op
        } else {
            self.inner.next_op()
        };
        if let Some(op) = &op {
            self.tally.ops.set(self.tally.ops.get() + 1);
            self.tally
                .accesses
                .set(self.tally.accesses.get() + accesses(op));
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::permutation;

    #[test]
    fn seed_zero_is_identity_and_others_permute() {
        assert_eq!(permutation(5, 0), vec![0, 1, 2, 3, 4]);
        let mut p = permutation(32, 7);
        assert_ne!(p, (0..32).collect::<Vec<_>>());
        assert_eq!(p, permutation(32, 7));
        p.sort_unstable();
        assert_eq!(p, (0..32).collect::<Vec<_>>());
    }
}
