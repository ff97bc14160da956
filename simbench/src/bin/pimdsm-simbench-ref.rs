//! `pimdsm-simbench-ref`: the fixed reference kernel that measures how
//! fast the host runs right now, so that the benchmark can scale its host
//! times to a reference speed.
//!
//! ```text
//! pimdsm-simbench-ref    (one sample per line read from stdin)
//! ```
//!
//! For every line read from standard input it runs the kernel once and
//! writes one line: the host seconds of each part, in the order below.
//! It exits at the end of its input.
//!
//! The kernel is a program of its own, not part of the benchmark binary,
//! because its speed must not depend on the simulator. Linked with the
//! simulator, its loops move whenever the simulator's code changes size,
//! and on the host of the steadiness record (in the README) that alone
//! changed the sample by 13%. This program links nothing but the standard
//! library, so it compiles to the same code whatever the simulator does.
//!
//! It has three parts, each timed on its own:
//!
//! - `map`: an ordered map updated in a sliding window (branches, pointer
//!   walks within the caches, allocation), as the simulator's machine and
//!   event queue do;
//! - `utf8`: UTF-8 validation of a long run of JSON-like text, as the
//!   JSON parser does per string;
//! - `chase`: a dependent pointer chase through a 32 MB random cycle,
//!   which waits on the memory hierarchy beyond the core's own caches, as
//!   the simulator does when it walks its large tag, directory and page
//!   tables.
//!
//! The first two follow the core's speed and the third the memory's. One
//! sample takes about 25 ms.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, Write};
use std::time::Instant;

/// Ordered-map inserts and removals per sample.
const MAP_OPS: u64 = 1 << 17;
/// Keys the map holds: a window of pending keys, as an event queue or a
/// directory holds them.
const MAP_WINDOW: usize = 4096;
/// Bytes of JSON-like text. Each sample validates it from `TEXT_STARTS`
/// offsets to its end.
const TEXT_BYTES: usize = 1 << 20;
const TEXT_STARTS: usize = 1 << 8;
/// Entries of the pointer-chase cycle (4 bytes each: 32 MB), and the
/// dependent loads per sample.
const CHASE_LEN: usize = 8 << 20;
const CHASE_STEPS: usize = 1 << 16;

struct Kernel {
    text: Vec<u8>,
    chase: Vec<u32>,
    /// Where the next chase starts: where the last one ended.
    at: u32,
}

/// A splitmix64 step.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Kernel {
    fn new() -> Self {
        let text = b"{\"cycles\": 1234567, \"label\": \"COMA75 kv-0.9\", \"reads\": [12, 0.5]},\n"
            .iter()
            .copied()
            .cycle()
            .take(TEXT_BYTES)
            .collect();
        // One random cycle through every entry (Sattolo's algorithm), so a
        // chase never settles into a short loop that fits in a cache.
        let mut chase: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            let j = (mix(i as u64) % i as u64) as usize;
            chase.swap(i, j);
        }
        Kernel { text, chase, at: 0 }
    }

    /// Runs every part once; returns their host seconds.
    fn sample(&mut self) -> [f64; 3] {
        [self.map(), self.utf8(), self.pointer_chase()]
    }

    fn map(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut map = BTreeMap::new();
        let mut key = 0x5EED_u64;
        for i in 0..MAP_OPS {
            key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            map.insert(key >> 40, i);
            if map.len() > MAP_WINDOW {
                map.pop_first();
            }
        }
        black_box(&map);
        t0.elapsed().as_secs_f64()
    }

    fn utf8(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut valid = 0;
        for start in (0..TEXT_BYTES).step_by(TEXT_BYTES / TEXT_STARTS) {
            valid += std::str::from_utf8(black_box(&self.text[start..])).map_or(0, str::len);
        }
        black_box(valid);
        t0.elapsed().as_secs_f64()
    }

    fn pointer_chase(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut p = self.at;
        for _ in 0..CHASE_STEPS {
            p = self.chase[p as usize];
        }
        self.at = black_box(p);
        t0.elapsed().as_secs_f64()
    }
}

fn main() -> std::io::Result<()> {
    let mut kernel = Kernel::new();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        line?;
        let [map, utf8, chase] = kernel.sample();
        writeln!(out, "{map:e} {utf8:e} {chase:e}")?;
        out.flush()?;
    }
    Ok(())
}
