//! Hierarchical wall-clock phase timers.
//!
//! A phase is a named scope entered via [`crate::phase!`]. Scopes nest:
//! entering a child remembers the parent and restores it on drop, and a
//! phase's recorded wall time is *inclusive* of its children (the
//! timer runs for the whole scope). Per phase, the crate accumulates an
//! **enter count** (deterministic) and **wall nanoseconds**
//! (non-deterministic, explicitly so-named); with the `count-alloc`
//! feature, allocations made while a phase is active on a thread are
//! attributed to it (see [`crate::alloc`]).
//!
//! Phase names are a closed vocabulary: [`registry::PHASES`]. The table
//! is what makes the allocator's attribution allocation-free (a
//! fixed-size atomic array indexed by phase slot) and what gives bench
//! reports a stable schema. `phase!` resolves its name to a slot at
//! compile time, so an unregistered name does not compile:
//!
//! ```compile_fail,E0080
//! fn f() {
//!     pimdsm_prof::phase!("no.such.phase");
//! }
//! ```
//!
//! To add a phase: add the name to `PHASES` (sorted), then use it from
//! exactly one subsystem.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The canonical registry of profiler phase names.
pub mod registry {
    /// Every phase name `phase!` may use, sorted.
    pub const PHASES: &[&str] = &[
        "bench.measure",
        "cache.load",
        "cache.store",
        "point.build",
        "point.run",
        "suite.points",
        "suite.render",
        "svc.build",
    ];
}

/// The attribution slot of a registered phase. Only [`slot_of`] makes
/// one, so every `Slot` indexes the per-phase tables in bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// The attribution slot of a registered phase name. A `const fn`, so
/// [`crate::phase!`] evaluates it at compile time.
///
/// # Panics
///
/// Panics (at compile time, inside `phase!`) if `name` is not in
/// [`registry::PHASES`].
pub const fn slot_of(name: &str) -> Slot {
    let mut i = 0;
    while i < registry::PHASES.len() {
        if str_eq(registry::PHASES[i], name) {
            return Slot(i + 1);
        }
        i += 1;
    }
    panic!("pimdsm-prof: phase name is not in phase::registry::PHASES")
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Attribution slots: one per registered phase plus slot 0 for code
/// running outside any phase.
pub(crate) const SLOTS: usize = registry::PHASES.len() + 1;

/// Display name of an attribution slot.
pub(crate) fn slot_name(slot: usize) -> &'static str {
    if slot == 0 {
        "(unphased)"
    } else {
        registry::PHASES[slot - 1]
    }
}

std::thread_local! {
    /// The active phase slot of this thread (0 = no phase). Const-init
    /// `Cell` so the allocator may read it with no lazy initialization
    /// and no destructor.
    static CURRENT: Cell<usize> = const { Cell::new(0) };
}

/// The current thread's active attribution slot (for the allocator).
#[cfg_attr(
    not(feature = "count-alloc"),
    allow(dead_code, reason = "only the counting allocator reads the slot")
)]
#[inline]
pub(crate) fn current_slot() -> usize {
    CURRENT.try_with(Cell::get).unwrap_or(0)
}

/// Times each phase was entered, by slot. Deterministic.
static ENTERS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
/// Inclusive wall nanoseconds per phase, by slot. NON-deterministic.
static WALL_NS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

/// An active phase scope; records on drop and restores the parent phase.
#[derive(Debug)]
pub struct PhaseGuard {
    slot: usize,
    prev: usize,
    start: Instant,
}

/// Enters the phase at `slot` on the current thread. Use the
/// [`crate::phase!`] macro, which resolves the slot at compile time.
#[allow(
    clippy::disallowed_methods,
    reason = "phase wall time lands only in the non-deterministic PhaseStats::wall_ns"
)]
pub fn enter(Slot(slot): Slot) -> PhaseGuard {
    let prev = CURRENT.with(|c| c.replace(slot));
    PhaseGuard {
        slot,
        prev,
        start: Instant::now(),
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        ENTERS[self.slot].fetch_add(1, Relaxed);
        WALL_NS[self.slot].fetch_add(ns, Relaxed);
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Aggregate statistics of one phase (or of the `(unphased)` slot 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Registered phase name, or `"(unphased)"`.
    pub name: &'static str,
    /// Times the phase was entered. **Deterministic.**
    pub enters: u64,
    /// Inclusive wall nanoseconds inside the phase. **Non-deterministic.**
    pub wall_ns: u64,
    /// Allocations attributed while active (0 without `count-alloc`).
    /// **Deterministic** for a deterministic program.
    pub allocs: u64,
    /// Bytes requested by those allocations. **Deterministic.**
    pub alloc_bytes: u64,
}

/// Snapshot of every slot's aggregates, `(unphased)` first, then the
/// registered phases in registry order.
pub fn stats() -> Vec<PhaseStats> {
    (0..SLOTS)
        .map(|slot| {
            let (allocs, alloc_bytes) = crate::alloc::phase_allocs(slot);
            PhaseStats {
                name: slot_name(slot),
                enters: ENTERS[slot].load(Relaxed),
                wall_ns: WALL_NS[slot].load(Relaxed),
                allocs,
                alloc_bytes,
            }
        })
        .collect()
}

/// Zeroes every slot's enter count and wall time.
pub(crate) fn reset() {
    for slot in 0..SLOTS {
        ENTERS[slot].store(0, Relaxed);
        WALL_NS[slot].store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_lookup_works() {
        assert!(
            registry::PHASES.windows(2).all(|w| w[0] < w[1]),
            "sorted, no dups"
        );
        for (i, name) in registry::PHASES.iter().enumerate() {
            assert_eq!(slot_of(name), Slot(i + 1));
            assert_eq!(slot_name(i + 1), *name);
        }
    }

    #[test]
    fn scopes_nest_and_restore() {
        // Tests share the process-global table, so assert deltas only on
        // this thread's CURRENT slot, which is test-local.
        assert_eq!(current_slot(), 0);
        {
            crate::phase!("point.build");
            let outer = current_slot();
            assert_eq!(slot_name(outer), "point.build");
            {
                crate::phase!("point.run");
                assert_eq!(slot_name(current_slot()), "point.run");
            }
            assert_eq!(current_slot(), outer, "child restores parent");
        }
        assert_eq!(current_slot(), 0, "outermost scope restores unphased");
    }

    #[test]
    fn stats_cover_every_slot_in_order() {
        let st = stats();
        assert_eq!(st.len(), registry::PHASES.len() + 1);
        assert_eq!(st[0].name, "(unphased)");
        for (s, name) in st[1..].iter().zip(registry::PHASES) {
            assert_eq!(&s.name, name);
        }
    }

    #[test]
    #[should_panic(expected = "not in phase::registry::PHASES")]
    fn unregistered_name_has_no_slot() {
        // `phase!` turns this panic into a compile error (module docs);
        // called at run time it still refuses the name.
        let name = String::from("point.rnu");
        slot_of(&name);
    }
}
