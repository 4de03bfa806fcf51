//! A host-speed reference that shares no code with the simulator.
//!
//! The benchmark's host is a shared VM. Other tenants slow every program
//! on it by up to 2x, in phases that last from seconds to minutes, so two
//! runs minutes apart differ by more than any bound a regression gate could
//! use. The reference is a fixed piece of work that runs in short slices
//! after every simulation run of a pass, about 2% of the run's host time.
//! It sees the same phases, so the ratio of its nominal to its measured
//! time says how fast the host was during that pass. Host times are reported at [`NOMINAL_SLICE_S`], the
//! slice time of an uncontended core of the reference host.
//!
//! The work is four independent xorshift streams, each folding lookups in
//! a 32 KiB table. Among the kernels tried (a dependent L1
//! read-modify-write, a branchy bytecode loop, hash-map and ring-buffer
//! traffic, the same streams over 256 KiB to 4 MiB tables), this mix
//! tracked the simulator's slowdowns most closely. It calls no simulator
//! code, so a change to the simulator cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Host time the reference takes beside the work it follows: enough
/// slices to sample every phase of a pass, few enough to stay out of the
/// way.
const SHARE: f64 = 0.02;
/// Iterations of one slice (four stream steps each).
const SLICE_ITERS: u64 = 400_000;
/// Seconds one slice takes on an uncontended core of the host the
/// benchmark was calibrated on (a 2-vCPU KVM guest on an Intel Xeon,
/// family 6 model 207): the fastest slices seen over several minutes.
pub const NOMINAL_SLICE_S: f64 = 1.8e-3;

/// The reference's state and its accumulated measurements.
pub struct HostRef {
    table: Vec<u64>,
    streams: [u64; 4],
    slices: u64,
    seconds: f64,
}

impl HostRef {
    /// A fresh reference with no measurements.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let table = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        HostRef {
            table,
            streams: [1, 2, 3, 4],
            slices: 0,
            seconds: 0.0,
        }
    }

    /// Follows `busy` host seconds of measured work with slices worth
    /// [`SHARE`] of it, and at least one.
    pub fn follow(&mut self, busy: f64) {
        let slices = (busy * SHARE / NOMINAL_SLICE_S).round().max(1.0) as u64;
        for _ in 0..slices {
            self.slice();
        }
    }

    /// Runs one slice and accounts its host time.
    fn slice(&mut self) {
        let t = Instant::now();
        let mut s = self.streams;
        let mut acc = [0u64; 4];
        for _ in 0..SLICE_ITERS {
            for j in 0..4 {
                let mut y = s[j] | 1;
                y ^= y << 13;
                y ^= y >> 7;
                y ^= y << 17;
                s[j] = y;
                acc[j] = acc[j].wrapping_add(self.table[(y as usize) & 4095] ^ y);
            }
        }
        self.streams = black_box([s[0] ^ acc[1], s[1] ^ acc[2], s[2] ^ acc[3], s[3] ^ acc[0]]);
        self.seconds += t.elapsed().as_secs_f64();
        self.slices += 1;
    }

    /// Host seconds spent in slices so far.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// The factor that turns host seconds measured since `mark` into
    /// seconds at the nominal host speed: nominal over measured slice time.
    pub fn scale_since(&self, mark: &HostRefMark) -> f64 {
        let slices = self.slices - mark.slices;
        let seconds = self.seconds - mark.seconds;
        if slices == 0 || seconds <= 0.0 {
            1.0
        } else {
            NOMINAL_SLICE_S * slices as f64 / seconds
        }
    }

    /// A mark to measure the host speed from.
    pub fn mark(&self) -> HostRefMark {
        HostRefMark {
            slices: self.slices,
            seconds: self.seconds,
        }
    }
}

/// A point in a [`HostRef`]'s measurements.
pub struct HostRefMark {
    slices: u64,
    seconds: f64,
}

impl HostRefMark {
    /// Host seconds the reference had spent in slices at the mark.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }
}
