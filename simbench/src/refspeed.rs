//! Host-speed samples from the reference kernel, and the factor that
//! scales host times to the reference speed.
//!
//! The kernel runs in a process of its own, `pimdsm-simbench-ref` (next
//! to this binary, from `src/bin/pimdsm-simbench-ref.rs`), so that its code does
//! not move with the simulator's. The two processes never run at once:
//! this one asks for a sample and waits for the answer.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The parts' names, in the order the kernel reports them.
pub const PARTS: [&str; 3] = ["map", "utf8", "chase"];

/// Host seconds of each part at the reference speed: about the median
/// sample of each on the host of the steadiness record in the README.
const NOMINAL_S: [f64; 3] = [0.0075, 0.0052, 0.012];

/// The running kernel process.
pub struct Reference {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl Reference {
    /// Starts the kernel process.
    pub fn new() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let path = exe.with_file_name("pimdsm-simbench-ref");
        let mut child = Command::new(&path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let input = child.stdin.take();
        let output = BufReader::new(child.stdout.take().ok_or("no kernel output")?);
        Ok(Reference {
            child,
            input,
            output,
        })
    }

    /// Runs the kernel once; returns each part's host seconds, in the
    /// order of `PARTS`.
    pub fn sample(&mut self) -> Result<[f64; 3], String> {
        let input = self.input.as_mut().ok_or("kernel closed")?;
        input
            .write_all(b"\n")
            .and_then(|()| input.flush())
            .map_err(|e| format!("kernel: {e}"))?;
        let mut line = String::new();
        self.output
            .read_line(&mut line)
            .map_err(|e| format!("kernel: {e}"))?;
        let parts: Vec<f64> = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("kernel answered {line:?}: {e}"))?;
        parts
            .try_into()
            .map_err(|_| format!("kernel answered {line:?}"))
    }
}

impl Drop for Reference {
    /// Closes the kernel's input, which ends it, and waits for it.
    fn drop(&mut self) {
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// The factor that scales host times measured around a sample to the
/// reference speed (1 on a host running at it, below 1 on a slower one):
/// the geometric mean of each part's nominal time over its measured time,
/// so that no part outweighs the others.
pub fn scale(parts: &[f64; 3]) -> f64 {
    let log_mean = parts
        .iter()
        .zip(NOMINAL_S)
        .map(|(s, nominal)| (nominal / s).ln())
        .sum::<f64>()
        / parts.len() as f64;
    log_mean.exp()
}
