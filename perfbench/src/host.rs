//! How fast the host runs at the moment: a fixed reference computation,
//! timed between episodes.
//!
//! On a shared host the same episode's wall time swings by half within
//! minutes while the process is on the CPU the whole time (its CPU time
//! equals its wall time), so the swing is the host running slower, not
//! the benchmark waiting. A run lasts well under a minute, and no median
//! within it removes a slowdown that lasts longer. The reference below
//! slows down with the host but never changes with the program, so run
//! phases are scaled by how long it took next to them (`BASELINE.md` has
//! the figures).

use std::hint::black_box;
use std::time::Instant;

/// [`reference_s`] on the 2-vCPU virtual machine the first baseline was
/// measured on, at its median over ten `hot-commit` runs. Scaling by
/// `REFERENCE_NOMINAL_S / reference_s()` expresses a wall time in that
/// host's seconds.
pub const REFERENCE_NOMINAL_S: f64 = 0.043;

/// Words in the buffer, 36 MiB: larger than the caches, and above the
/// size from which the allocator always maps fresh pages, so every call
/// faults them in again.
const BUFFER_WORDS: usize = 36 << 17;

/// Dependent random reads through the buffer.
const CHASE_STEPS: usize = 100_000;

/// Runs the reference computation and returns its wall seconds: a fresh
/// 36 MiB buffer is faulted in and filled with scattered indices, then
/// chased through with dependent reads. It exercises what slows down
/// with the host (page faults, memory bandwidth and memory latency); a
/// reference of pure arithmetic tracked the program's slowdowns worse.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let buf: Vec<u64> = (0..BUFFER_WORDS as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % BUFFER_WORDS as u64)
        .collect();
    let mut at = 0usize;
    for k in 0..CHASE_STEPS {
        // Mixing in the step keeps the chase off short cycles, which
        // would settle in the caches.
        at = (buf[at] as usize ^ k) % BUFFER_WORDS;
    }
    black_box(at);
    start.elapsed().as_secs_f64()
}
