//! Per-host CPU calibration for the accelerator cost model.
//!
//! [`calibrate`] times the *selected* kernel backend on the running host
//! and derives the [`CpuParams`] roofline the accelerator model compares
//! against, so modeled accelerator speedups are relative to this machine
//! rather than a documented reference container:
//!
//! * **popcount throughput** — a timed [`hamming_distance_batch`] over a
//!   10240-dim binarized grid, reported as bits reduced per second;
//! * **flop throughput** — a timed dense [`cosine_similarity_batch`]
//!   (2 flops per element: multiply + add), reported as flops per second;
//! * **streaming bandwidth** — an 8-accumulator sum over an `f64` buffer
//!   far larger than L2, reported as bytes per second;
//! * **clock estimate** — a dependent xorshift64 chain (three shifts and
//!   three xors per iteration, ≈6 latency-bound cycles on current cores),
//!   used only to express the throughputs per cycle in reports. It is an
//!   estimate, not a measurement of the actual clock.
//!
//! The roofline consumed by the model is
//! `CpuParams { flops_per_sec, bytes_per_sec }`; popcount throughput and
//! the per-cycle figures are reported alongside it in [`CpuCalibration`].
//! [`CpuParams::calibrated`] guards against
//! degenerate measurements by falling back to the documented defaults
//! field-wise.

use crate::CpuParams;
use hdc_core::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Measured throughputs of the selected kernel backend on this host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCalibration {
    /// Name of the kernel backend the measurements ran on.
    pub backend: &'static str,
    /// Estimated core clock (Hz) from the xorshift latency chain.
    pub clock_hz_estimate: f64,
    /// Sustained XOR/popcount reduction throughput (operand bits/s).
    pub popcount_bits_per_sec: f64,
    /// Sustained dense multiply-add throughput (flops/s).
    pub flops_per_sec: f64,
    /// Sustained streaming read bandwidth (bytes/s).
    pub stream_bytes_per_sec: f64,
}

impl CpuCalibration {
    /// Popcount bits reduced per estimated cycle.
    pub fn popcount_bits_per_cycle(&self) -> f64 {
        self.popcount_bits_per_sec / self.clock_hz_estimate
    }

    /// Flops per estimated cycle.
    pub fn flops_per_cycle(&self) -> f64 {
        self.flops_per_sec / self.clock_hz_estimate
    }

    /// The [`CpuParams`] roofline these measurements imply (guarded against
    /// degenerate values by [`CpuParams::calibrated`]).
    pub fn cpu_params(&self) -> CpuParams {
        CpuParams::calibrated(self.flops_per_sec, self.stream_bytes_per_sec)
    }
}

/// Median-of-runs timing: `runs` timed invocations of `body`, returning
/// the median elapsed seconds (robust to a stray scheduler hiccup).
fn median_seconds(runs: usize, mut body: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Estimate the core clock from a latency-bound xorshift64 chain. Each
/// iteration is three shift+xor pairs with a strict data dependency —
/// about 6 cycles on current out-of-order cores.
fn estimate_clock_hz(iters: u64) -> f64 {
    let mut x: u64 = 0x9E3779B97F4A7C15;
    let secs = median_seconds(3, || {
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    });
    const CYCLES_PER_ITER: f64 = 6.0;
    iters as f64 * CYCLES_PER_ITER / secs
}

/// A deterministic bit-packed bipolar matrix.
fn bit_matrix(seed: u64, rows: usize, cols: usize) -> BitMatrix {
    let mut rng = HdcRng::seed_from_u64(seed);
    BitMatrix::from_dense(&hdc_core::random::bipolar_hypermatrix::<f32>(
        rows, cols, &mut rng,
    ))
}

/// Time the binarized Hamming grid and report operand bits reduced per
/// second (`queries x classes x dim` XOR+popcount bits per call).
fn measure_popcount_bits_per_sec(dim: usize, classes: usize, queries: usize, runs: usize) -> f64 {
    let q = bit_matrix(11, queries, dim);
    let c = bit_matrix(12, classes, dim);
    let secs = median_seconds(runs, || {
        black_box(hamming_distance_batch(&q, &c, Perforation::NONE).unwrap());
    });
    (queries * classes * dim) as f64 / secs
}

/// Time the dense cosine grid and report flops per second (2 flops per
/// element pair: multiply + add into the chain).
fn measure_flops_per_sec(dim: usize, classes: usize, queries: usize, runs: usize) -> f64 {
    let mut rng = HdcRng::seed_from_u64(13);
    let q: HyperMatrix<f64> = hdc_core::random::random_hypermatrix(queries, dim, &mut rng);
    let c: HyperMatrix<f64> = hdc_core::random::random_hypermatrix(classes, dim, &mut rng);
    let secs = median_seconds(runs, || {
        black_box(cosine_similarity_batch(&q, &c, Perforation::NONE).unwrap());
    });
    (2 * queries * classes * dim) as f64 / secs
}

/// Time a streaming sum over a large `f64` buffer (8 independent
/// accumulators so the reads, not the add chain, are the bottleneck) and
/// report bytes read per second.
fn measure_stream_bytes_per_sec(elems: usize, runs: usize) -> f64 {
    let buf: Vec<f64> = (0..elems).map(|i| (i % 509) as f64 * 0.25).collect();
    let secs = median_seconds(runs, || {
        let mut acc = [0.0f64; 8];
        for chunk in buf.chunks_exact(8) {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += v;
            }
        }
        black_box(acc);
    });
    (elems * std::mem::size_of::<f64>()) as f64 / secs
}

/// Calibrate the selected kernel backend on this host. `quick` shrinks the
/// problem sizes and run counts (well under a second);
/// the full pass sizes the grids to amortize timer noise.
pub fn calibrate(quick: bool) -> CpuCalibration {
    let (dim, classes, queries, stream_elems, runs) = if quick {
        (2048, 26, 64, 1 << 20, 3)
    } else {
        (10240, 100, 256, 1 << 23, 5)
    };
    CpuCalibration {
        backend: hdc_core::simd::selected().name(),
        clock_hz_estimate: estimate_clock_hz(if quick { 2_000_000 } else { 20_000_000 }),
        popcount_bits_per_sec: measure_popcount_bits_per_sec(dim, classes, queries, runs),
        flops_per_sec: measure_flops_per_sec(dim, classes, queries / 4, runs),
        stream_bytes_per_sec: measure_stream_bytes_per_sec(stream_elems, runs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_calibration_is_sane() {
        let cal = calibrate(true);
        assert_eq!(cal.backend, hdc_core::simd::selected().name());
        // Any real machine lands well inside these brackets; the point is
        // catching unit slips (ms vs s, bits vs bytes), not precision.
        assert!(cal.clock_hz_estimate > 1.0e8 && cal.clock_hz_estimate < 2.0e10);
        assert!(cal.popcount_bits_per_sec > 1.0e7);
        assert!(cal.flops_per_sec > 1.0e6);
        assert!(cal.stream_bytes_per_sec > 1.0e7);
        assert!(cal.popcount_bits_per_cycle() > 0.0);
        assert!(cal.flops_per_cycle() > 0.0);
        let params = cal.cpu_params();
        assert!(params.flops_per_sec > 0.0 && params.bytes_per_sec > 0.0);
    }
}
