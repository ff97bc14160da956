//! One direct use of every type and method the workspace `clippy.toml`
//! bans, and one reasonless `#[allow]`. Each offending line ends in an
//! `expect:` marker naming the clippy lint that must report it; the
//! `clippy` test in `crates/lint/tests` checks the reports against the
//! markers, both ways.

use std::collections::BinaryHeap; // expect: clippy::disallowed_types
use std::collections::HashMap; // expect: clippy::disallowed_types
use std::collections::HashSet; // expect: clippy::disallowed_types
use std::hash::RandomState; // expect: clippy::disallowed_types

/// D001: unordered collections.
pub fn d001() -> usize {
    let map: HashMap<u32, u32> = HashMap::new(); // expect: clippy::disallowed_types
    let set: HashSet<u32> = HashSet::new(); // expect: clippy::disallowed_types
    map.len() + set.len()
}

/// D002: wall clock and per-process hash seeds.
pub fn d002() -> bool {
    let t = std::time::Instant::now(); // expect: clippy::disallowed_methods
    let s = std::time::SystemTime::now(); // expect: clippy::disallowed_methods
    let _seed: RandomState = RandomState::new(); // expect: clippy::disallowed_types
    t.elapsed() > s.elapsed().unwrap_or_default()
}

/// D003: heap-shape pop order on equal keys.
pub fn d003() -> Option<u32> {
    let mut heap: BinaryHeap<u32> = BinaryHeap::new(); // expect: clippy::disallowed_types
    heap.push(1);
    heap.pop()
}

/// D004's direct sources: environment and thread identity.
pub fn d004() -> usize {
    let var = std::env::var("PIMDSM_FIXTURE").is_ok(); // expect: clippy::disallowed_methods
    let var_os = std::env::var_os("PIMDSM_FIXTURE").is_some(); // expect: clippy::disallowed_methods
    let vars = std::env::vars().count(); // expect: clippy::disallowed_methods
    let args = std::env::args().count(); // expect: clippy::disallowed_methods
    let named = std::thread::current().name().is_some(); // expect: clippy::disallowed_methods
    usize::from(var) + usize::from(var_os) + vars + args + usize::from(named)
}

/// L000: an exemption without a reason.
#[allow(dead_code)] // expect: clippy::allow_attributes_without_reason
fn unreasoned() {}
