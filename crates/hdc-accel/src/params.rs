//! Hardware parameters for the modeled devices.
//!
//! Every number the cost model uses is a named field here, so swapping in a
//! different device (or recalibrating an existing one) never touches the
//! cost equations in [`crate::model`]. The defaults are *representative*
//! parameters for the paper's two fixed-function HDC accelerators — a
//! taped-out 40 nm digital ASIC and a ReRAM processing-in-memory design —
//! chosen to expose their structural trade-off: the ASIC has a fast host
//! link and a moderate-width datapath, the ReRAM part computes whole
//! reductions in-array but pays dearly to program its cell resistances.
//! `docs/accelerator-model.md` documents each parameter and the equations
//! they feed.

use hdc_ir::Target;

/// Analytical parameters for one fixed-function HDC accelerator.
///
/// # Examples
///
/// ```
/// use hdc_accel::AccelParams;
/// use hdc_ir::Target;
///
/// let asic = AccelParams::digital_asic();
/// let reram = AccelParams::reram();
/// assert_eq!(asic.target, Target::DigitalAsic);
/// // The ReRAM part programs its persistent memories much more slowly.
/// assert!(reram.program_bits_per_sec < asic.program_bits_per_sec);
/// // ...but its in-array reduction throughput is far wider.
/// assert!(reram.reduce_lane_bits > asic.reduce_lane_bits);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccelParams {
    /// Which [`Target`] these parameters model.
    pub target: Target,
    /// Datapath clock frequency (Hz).
    pub clock_hz: f64,
    /// Reduction throughput: operand bits consumed per cycle by the
    /// compare-accumulate datapath (Hamming / dot-product trees, matmul
    /// accumulators). The digital ASIC processes one lane-width slice per
    /// cycle; the ReRAM part evaluates an entire array of rows at once.
    pub reduce_lane_bits: u64,
    /// Element-wise ("map") throughput: operand bits consumed per cycle by
    /// non-reduction ops (`sign`, element-wise add, shifts).
    pub map_lane_bits: u64,
    /// Host-link bandwidth for per-sample streaming (bits/s).
    pub stream_bits_per_sec: f64,
    /// Bandwidth for programming persistent device memories — the class
    /// memory and projection base memory the data-movement pass hoists out
    /// of the stage loop (bits/s). ReRAM cell writes make this far slower
    /// than the streaming link on that device.
    pub program_bits_per_sec: f64,
    /// Energy per datapath cycle (J).
    pub energy_per_cycle_j: f64,
    /// Energy per bit moved over the host link or programmed (J).
    pub energy_per_bit_j: f64,
    /// Persistent-memory capacity of one device (bits). A class memory
    /// larger than this tiles across `ceil(bits / array_bits)` chips, each
    /// holding a contiguous row-block — the hardware mirror of the
    /// runtime's class-memory sharding.
    pub array_bits: u64,
    /// Chip-to-chip interconnect bandwidth for multi-chip tilings (bits/s):
    /// the query broadcast to every extra chip plus the 64-bit partial
    /// arg-min/arg-max result each merges back.
    pub interconnect_bits_per_sec: f64,
    /// Energy per bit moved over the chip-to-chip interconnect (J).
    pub interconnect_energy_per_bit_j: f64,
}

impl AccelParams {
    /// Representative parameters for the taped-out 40 nm digital HDC ASIC:
    /// a 500 MHz, 8192-bit-per-cycle compare-accumulate datapath behind a
    /// 16 Gbit/s host link (programming and streaming share the link).
    pub fn digital_asic() -> Self {
        AccelParams {
            target: Target::DigitalAsic,
            clock_hz: 500.0e6,
            reduce_lane_bits: 8192,
            map_lane_bits: 8192,
            stream_bits_per_sec: 16.0e9,
            program_bits_per_sec: 16.0e9,
            energy_per_cycle_j: 40.0e-12,
            energy_per_bit_j: 5.0e-12,
            array_bits: 16 * 1024 * 1024,
            interconnect_bits_per_sec: 32.0e9,
            interconnect_energy_per_bit_j: 2.0e-12,
        }
    }

    /// Representative parameters for the ReRAM processing-in-memory
    /// accelerator: a 100 MHz array that evaluates 128 rows × 2048 columns
    /// of a reduction in one cycle (262 144 operand bits), but programs its
    /// persistent memories at only 1 Gbit/s because cell writes are slow.
    pub fn reram() -> Self {
        AccelParams {
            target: Target::ReRamAccelerator,
            clock_hz: 100.0e6,
            reduce_lane_bits: 262_144,
            map_lane_bits: 2048,
            stream_bits_per_sec: 8.0e9,
            program_bits_per_sec: 1.0e9,
            energy_per_cycle_j: 10.0e-12,
            energy_per_bit_j: 8.0e-12,
            array_bits: 64 * 1024 * 1024,
            interconnect_bits_per_sec: 16.0e9,
            interconnect_energy_per_bit_j: 4.0e-12,
        }
    }
}

/// Roofline parameters for the modeled CPU baseline the accelerator is
/// compared against.
///
/// The CPU side of a modeled speedup uses a two-term roofline over the same
/// lowering nests the accelerator model consumes:
/// `t = max(flops / flops_per_sec, bytes / bytes_per_sec)` per sample.
/// The defaults approximate the sustained throughput of the batched
/// `hdc-core` kernels on one reference container core — deliberately the
/// *optimized* CPU path, so modeled speedups are conservative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuParams {
    /// Sustained floating-point (or popcount-equivalent) throughput
    /// (ops/s).
    pub flops_per_sec: f64,
    /// Sustained operand bandwidth (bytes/s), cache-resident.
    pub bytes_per_sec: f64,
}

impl CpuParams {
    /// Calibrated parameters measured on the running host (see
    /// [`calibrate`](crate::calibrate::calibrate)): sustained
    /// kernel throughput and streaming bandwidth of the *selected* kernel
    /// backend on *this* machine, replacing the documented defaults so
    /// modeled accelerator speedups are relative to the CPU the benchmarks
    /// actually ran on.
    ///
    /// Non-finite or non-positive measurements fall back to the matching
    /// default field — a failed calibration must never produce a degenerate
    /// roofline (zero or infinite CPU time).
    pub fn calibrated(flops_per_sec: f64, bytes_per_sec: f64) -> Self {
        let default = CpuParams::default();
        let sane = |v: f64, fallback: f64| {
            if v.is_finite() && v > 0.0 {
                v
            } else {
                fallback
            }
        };
        CpuParams {
            flops_per_sec: sane(flops_per_sec, default.flops_per_sec),
            bytes_per_sec: sane(bytes_per_sec, default.bytes_per_sec),
        }
    }
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            flops_per_sec: 2.0e9,
            bytes_per_sec: 2.0e10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_distinct() {
        for p in [AccelParams::digital_asic(), AccelParams::reram()] {
            assert!(p.clock_hz > 0.0);
            assert!(p.reduce_lane_bits > 0 && p.map_lane_bits > 0);
            assert!(p.stream_bits_per_sec > 0.0 && p.program_bits_per_sec > 0.0);
            assert!(p.energy_per_cycle_j > 0.0 && p.energy_per_bit_j > 0.0);
            assert!(p.array_bits > 0);
            assert!(p.interconnect_bits_per_sec > 0.0);
            assert!(p.interconnect_energy_per_bit_j > 0.0);
        }
        assert_ne!(AccelParams::digital_asic(), AccelParams::reram());
        let cpu = CpuParams::default();
        assert!(cpu.flops_per_sec > 0.0 && cpu.bytes_per_sec > 0.0);
    }
}
