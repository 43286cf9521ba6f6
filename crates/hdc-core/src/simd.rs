//! Runtime-dispatched SIMD kernel backend for the batched inner loops.
//!
//! The two primitive loops every committed speedup rests on — XOR/popcount
//! over bit-packed words and the dense `f64` dot-product panels — have
//! `std::arch` variants here: AVX2 and AVX-512 (`vpopcntdq`) on `x86_64`
//! and NEON on `aarch64`. A [`KernelBackend`] is selected **once per
//! process** by runtime feature detection (no compile-time `target-cpu`
//! flags needed) and every batched kernel call fetches a small dispatch
//! table from it:
//!
//! ```text
//!            HDC_KERNEL_BACKEND env ──┐  (scalar | avx2 | avx512 | neon)
//!                                     ▼
//!   is_x86_feature_detected! ──► selected(): KernelBackend   (once, atomic)
//!   is_aarch64_feature_detected!      │
//!                                     ▼
//!        batch kernel call ──► bit_kernels() / dot_panel_kernel()
//!                                     │
//!         ┌───────────────┬───────────┴───────────┬───────────────┐
//!         ▼               ▼                       ▼               ▼
//!   Scalar (oracle)      Avx2                  Avx512            Neon
//!   lane-blocked u64   pshufb popcount    vpopcntq __m512i   vcntq_u8 pop
//!   one row per pass   4 rows × 2 __m256d 8 rows × __m512d   (scalar panel)
//! ```
//!
//! **Equivalence contract.** Every SIMD variant is bit-identical to the
//! scalar oracle kept verbatim in the private `scalar` submodule:
//!
//! * popcounts are exact integers, so any correct popcount implementation
//!   produces the same count;
//! * the `f64` panel kernel keeps one independent accumulator chain per
//!   output (streamed row × panel lane) and sums the element axis in
//!   ascending order with separate multiply and add (**no FMA** — fused
//!   rounding would diverge from the scalar chain), so every partial sum is
//!   the same IEEE value the scalar kernel computes. The contract fixes each
//!   output's chain, not how many outputs are in flight: the SIMD legs run
//!   the chains of several streamed rows side by side, which is where their
//!   speed comes from.
//!
//! The `kernel_equivalence` integration suite fuzzes dims/classes/
//! perforation across backends to pin this. Because outputs are
//! bit-identical, backend selection is invisible to everything above the
//! kernels — the batched==sequential oracle suites pass unchanged on either
//! path.
//!
//! Set `HDC_KERNEL_BACKEND=scalar` (or `avx2` / `avx512` / `neon`) to force
//! a backend; an unsupported forced SIMD backend falls back to scalar.
//! Tests and benchmarks can switch at runtime with [`set_backend`].

use crate::error::{HdcError, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The kernel backend the batched inner loops dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// The portable scalar kernels — the always-available reference oracle.
    Scalar,
    /// `std::arch` AVX2 kernels (`x86_64`, runtime-detected).
    Avx2,
    /// `std::arch` AVX-512 kernels (`x86_64` with `avx512f` +
    /// `avx512vpopcntdq`, runtime-detected): native 64-bit-lane popcount
    /// over 512-bit registers for the XOR/popcount family, and an `f64`
    /// panel kernel holding a whole 8-lane panel row in one register.
    Avx512,
    /// `std::arch` NEON kernels (`aarch64`, runtime-detected).
    Neon,
}

impl KernelBackend {
    /// Stable lowercase name (`scalar` / `avx2` / `avx512` / `neon`), as
    /// accepted by the `HDC_KERNEL_BACKEND` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Neon => "neon",
        }
    }

    /// Whether this backend uses SIMD intrinsics (everything but scalar).
    pub fn is_simd(self) -> bool {
        !matches!(self, KernelBackend::Scalar)
    }

    fn to_code(self) -> u8 {
        match self {
            KernelBackend::Scalar => 1,
            KernelBackend::Avx2 => 2,
            KernelBackend::Neon => 3,
            KernelBackend::Avx512 => 4,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(KernelBackend::Scalar),
            2 => Some(KernelBackend::Avx2),
            3 => Some(KernelBackend::Neon),
            4 => Some(KernelBackend::Avx512),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// 0 = not yet resolved; otherwise a `KernelBackend::to_code` value.
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// Count of batched kernel launches that took a SIMD path (one per
/// dispatch-table fetch or panel call, not per inner-loop iteration).
static SIMD_DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// The backend runtime feature detection picks on this host, ignoring the
/// environment override: AVX-512 then AVX2 on a capable `x86_64`, NEON on
/// a capable `aarch64`, scalar everywhere else.
pub fn detected() -> KernelBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if supported(KernelBackend::Avx512) {
            return KernelBackend::Avx512;
        }
        if supported(KernelBackend::Avx2) {
            return KernelBackend::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if supported(KernelBackend::Neon) {
            return KernelBackend::Neon;
        }
    }
    KernelBackend::Scalar
}

/// Whether `backend` can run on this host (scalar always can). This is a
/// per-backend feature check, not equality with [`detected`]: an AVX-512
/// host supports `avx2` too, so forcing the narrower backend still works.
pub fn supported(backend: KernelBackend) -> bool {
    match backend {
        KernelBackend::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt")
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => {
            // `add_signs` dispatches to the AVX2 kernel, so the AVX-512
            // backend requires the AVX2 features as well.
            supported(KernelBackend::Avx2)
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        }
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Resolve an `HDC_KERNEL_BACKEND` value to a backend: a recognized name
/// forces that backend (falling back to scalar when the host lacks the
/// SIMD features); anything else defers to [`detected`].
fn resolve(env: Option<&str>) -> KernelBackend {
    match env.map(str::trim) {
        Some("scalar") => KernelBackend::Scalar,
        Some("avx2") => {
            if supported(KernelBackend::Avx2) {
                KernelBackend::Avx2
            } else {
                KernelBackend::Scalar
            }
        }
        Some("avx512") => {
            if supported(KernelBackend::Avx512) {
                KernelBackend::Avx512
            } else {
                KernelBackend::Scalar
            }
        }
        Some("neon") => {
            if supported(KernelBackend::Neon) {
                KernelBackend::Neon
            } else {
                KernelBackend::Scalar
            }
        }
        Some(other) if !other.is_empty() => {
            eprintln!("hdc-core: unknown HDC_KERNEL_BACKEND `{other}`, using detection");
            detected()
        }
        _ => detected(),
    }
}

/// The backend the process dispatches to, resolved once on first call from
/// the `HDC_KERNEL_BACKEND` environment variable and runtime feature
/// detection, then cached.
pub fn selected() -> KernelBackend {
    if let Some(backend) = KernelBackend::from_code(BACKEND.load(Ordering::Relaxed)) {
        return backend;
    }
    let backend = resolve(std::env::var("HDC_KERNEL_BACKEND").ok().as_deref());
    // A concurrent first call resolves to the same value; last store wins.
    BACKEND.store(backend.to_code(), Ordering::Relaxed);
    backend
}

/// Force the dispatch backend for the rest of the process (overriding both
/// detection and the environment variable). Intended for equivalence tests
/// and benchmarks that compare backends within one process.
///
/// # Errors
///
/// Returns [`HdcError::UnsupportedBackend`] when this host cannot run the
/// requested backend; the previous selection is left unchanged.
pub fn set_backend(backend: KernelBackend) -> Result<()> {
    if !supported(backend) {
        return Err(HdcError::UnsupportedBackend {
            requested: backend.name(),
        });
    }
    BACKEND.store(backend.to_code(), Ordering::Relaxed);
    Ok(())
}

/// Number of batched kernel launches that took a SIMD path so far in this
/// process. Stays at zero when the scalar backend is selected — pinned by
/// the `kernel_equivalence` regression suite.
pub fn simd_dispatch_count() -> u64 {
    SIMD_DISPATCHES.load(Ordering::Relaxed)
}

#[inline]
fn note_simd_dispatch() {
    SIMD_DISPATCHES.fetch_add(1, Ordering::Relaxed);
}

/// ±1.0 lookup for a nibble of packed sign bits: lane `k` of entry `n` is
/// `-1.0` when bit `k` of `n` is set (a set bit encodes the bipolar value
/// `-1`, matching [`crate::BitVector::to_dense`]).
static SIGN_LUT4: [[f64; 4]; 16] = {
    let mut table = [[0.0; 4]; 16];
    let mut n = 0;
    while n < 16 {
        let mut k = 0;
        while k < 4 {
            table[n][k] = if (n >> k) & 1 != 0 { -1.0 } else { 1.0 };
            k += 1;
        }
        n += 1;
    }
    table
};

/// Function-pointer table for the XOR/popcount kernel family, fetched once
/// per batched kernel call (never per row) so the hot loops pay no
/// per-iteration dispatch cost.
#[derive(Clone, Copy)]
pub(crate) struct BitKernels {
    /// `popcount(a ^ b)` over two packed word slices.
    pub xor_popcount: fn(&[u64], &[u64]) -> u64,
    /// `popcount((a ^ b) & mask)` — perforated reductions.
    pub xor_popcount_masked: fn(&[u64], &[u64], &[u64]) -> u64,
    /// Add the ±1 signs packed in `words` into the `f64` accumulator slots
    /// (`acc.len()` columns), one add per column in ascending order.
    pub add_signs: fn(&mut [f64], &[u64]),
}

const SCALAR_BIT_KERNELS: BitKernels = BitKernels {
    xor_popcount: scalar::xor_popcount,
    xor_popcount_masked: scalar::xor_popcount_masked,
    add_signs: scalar::add_signs,
};

/// The XOR/popcount dispatch table for the selected backend.
pub(crate) fn bit_kernels() -> BitKernels {
    match selected() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => {
            note_simd_dispatch();
            BitKernels {
                xor_popcount: avx2::xor_popcount,
                xor_popcount_masked: avx2::xor_popcount_masked,
                add_signs: avx2::add_signs,
            }
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => {
            note_simd_dispatch();
            BitKernels {
                xor_popcount: avx512::xor_popcount,
                xor_popcount_masked: avx512::xor_popcount_masked,
                // No 512-bit win for the 4-lane sign LUT; Avx512 implies
                // the AVX2 features (see `supported`).
                add_signs: avx2::add_signs,
            }
        }
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => {
            note_simd_dispatch();
            BitKernels {
                xor_popcount: neon::xor_popcount,
                xor_popcount_masked: neon::xor_popcount_masked,
                add_signs: neon::add_signs,
            }
        }
        _ => SCALAR_BIT_KERNELS,
    }
}

/// Query rows packed side by side in one `f64` panel
/// ([`crate::batch::pack_panel`]): a panel element is one 512-bit register,
/// or two 256-bit ones. A block of fewer rows is zero-padded to this width
/// and its padding lanes are never read back.
pub(crate) const PANEL_LANES: usize = 8;

/// The `f64` panel kernel: `kernel(rows, stride, panel, out)` sets
/// `out[j][k]` to the dot product of streamed row `rows[j]` with lane `k`
/// of the column-major `panel`, where panel element `i` meets
/// `rows[j][i * stride]` — a strided reduction streams its rows in place
/// (`stride` 1 is the dense walk) — over the first
/// `min(row.len().div_ceil(stride), panel.len() / PANEL_LANES)` elements.
/// Every output is its own chain: starting from `0.0`, each product is
/// multiplied and then added separately, in ascending element order.
///
/// # Panics
///
/// Panics if `rows` and `out` differ in length or `stride` is zero.
pub(crate) type DotPanel = fn(&[&[f64]], usize, &[f64], &mut [[f64; PANEL_LANES]]);

/// The [`DotPanel`] kernel of the selected backend, fetched once per
/// batched kernel call. Bit-identical to the scalar oracle on every
/// backend.
pub(crate) fn dot_panel_kernel() -> DotPanel {
    match selected() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => {
            note_simd_dispatch();
            avx2::dot_panel
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => {
            note_simd_dispatch();
            avx512::dot_panel
        }
        // NEON keeps the scalar panel: its 2-lane registers are what the
        // compiler already vectorizes the oracle's lane loop into.
        _ => scalar::dot_panel,
    }
}

/// Streamed rows per pass of the fused ±1 panel leg
/// ([`signed_dot_panel_kernel`]) on AVX-512: one accumulator each, so 16
/// fused chains are in flight. A caller hands that kernel tiles of this
/// many rows.
pub(crate) const FUSED_ROWS: usize = 16;

/// The [`DotPanel`] kernel for streamed rows whose every element is exactly
/// `1.0` or `-1.0`. Each product `x·(±1.0)` is exact, so a fused
/// multiply-add rounds every step of a chain as the separate multiply and
/// add do, for half the floating-point operations. The outputs are those
/// of [`dot_panel_kernel`], bit for bit, except which payload a NaN output
/// carries: `fma` keeps the multiplicand's where the mul+add leg keeps
/// whichever operand its compiled add takes first. The caller stores every
/// NaN output as the canonical one ([`crate::element::canonical_nan`]), so
/// that difference never reaches a result. AVX-512 runs the fused leg; the
/// other backends run their [`DotPanel`] as is.
pub(crate) fn signed_dot_panel_kernel() -> DotPanel {
    match selected() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => {
            note_simd_dispatch();
            avx512::signed_dot_panel
        }
        _ => dot_panel_kernel(),
    }
}

/// Query rows one [`SignDots`] call carries at most: each feature's sign
/// masks are built once and shared by all of them.
pub(crate) const SIGN_ROWS: usize = 8;

/// Output dims per sign lane group: one 512-bit register of `f64`.
const SIGN_LANES: usize = 8;

/// The sign-projection kernel: `kernel(signs, span, stride, queries, out)`
/// sets `out[q * signs.len() + r]` to the dot product of `queries[q]` with
/// the ±1 row `signs[r]` (bit `c` of the packed words set = `-1.0`, as in
/// [`crate::BitVector`]) over the features `span.step_by(stride)`. Lanes
/// run across output dims: a lane group is 8 projection rows, and the
/// lane mask for feature `c` is bit `c` of those rows' words, so the
/// row-major bit matrix is read as is. Every output is its own chain:
/// starting from `0.0`, each feature's `x·(±1.0)` is multiplied and then
/// added separately, in ascending feature order — the operation sequence
/// of [`DotPanel`] on the unpacked ±1 matrix, so both give the same bits.
///
/// # Panics
///
/// Panics if `queries` holds more than [`SIGN_ROWS`] rows, `out` is not
/// `queries.len() * signs.len()` long, `stride` is zero, or a row is
/// shorter than `span.end`.
pub(crate) type SignDots = fn(&[&[u64]], Range<usize>, usize, &[&[f64]], &mut [f64]);

/// The [`SignDots`] kernel of the selected backend, fetched once per
/// batched kernel call. Bit-identical to the scalar oracle on every
/// backend.
pub(crate) fn sign_dots_kernel() -> SignDots {
    match selected() {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => {
            note_simd_dispatch();
            avx2::sign_dots
        }
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => {
            note_simd_dispatch();
            avx512::sign_dots
        }
        _ => scalar::sign_dots,
    }
}

/// The argument checks every [`SignDots`] leg makes before it runs.
fn check_sign_dots(
    signs: &[&[u64]],
    span: &Range<usize>,
    stride: usize,
    queries: &[&[f64]],
    out: &[f64],
) {
    assert!(
        queries.len() <= SIGN_ROWS,
        "a call carries {SIGN_ROWS} rows"
    );
    assert_eq!(
        out.len(),
        queries.len() * signs.len(),
        "one output per pair"
    );
    assert!(stride > 0, "a reduction needs a non-zero stride");
    assert!(
        queries.iter().all(|q| q.len() >= span.end),
        "query rows cover the span"
    );
    assert!(
        signs.iter().all(|s| s.len() * 64 >= span.end),
        "sign rows cover the span"
    );
}

/// The [`SIGN_LANES`] rows of lane group `group`, the last real row
/// repeated past the end of `signs` (its lanes are never stored).
fn lane_group<'a>(signs: &[&'a [u64]], group: usize) -> [&'a [u64]; SIGN_LANES] {
    let last = signs.len() - 1;
    std::array::from_fn(|k| signs[(group * SIGN_LANES + k).min(last)])
}

/// Store the lanes of group `group` for query `q`, dropping padding lanes.
fn store_lanes(out: &mut [f64], dims: usize, q: usize, group: usize, lanes: &[f64; SIGN_LANES]) {
    let first = group * SIGN_LANES;
    let valid = dims.saturating_sub(first).min(SIGN_LANES);
    out[q * dims + first..q * dims + first + valid].copy_from_slice(&lanes[..valid]);
}

/// Walk `rows` `R` at a time through `tile`, which returns the dot products
/// of its `R` rows; a short last tile repeats its last row, and the repeats'
/// dot products are dropped. Shared by the SIMD legs, whose `R` is sized to
/// their register file.
#[cfg(target_arch = "x86_64")]
fn for_each_tile<const R: usize>(
    rows: &[&[f64]],
    stride: usize,
    out: &mut [[f64; PANEL_LANES]],
    mut tile: impl FnMut(&[&[f64]; R]) -> [[f64; PANEL_LANES]; R],
) {
    assert_eq!(rows.len(), out.len(), "one output per streamed row");
    assert!(stride > 0, "a streamed row needs a non-zero stride");
    for (chunk, dots) in rows.chunks(R).zip(out.chunks_mut(R)) {
        let mut full = [chunk[chunk.len() - 1]; R];
        full[..chunk.len()].copy_from_slice(chunk);
        dots.copy_from_slice(&tile(&full)[..chunk.len()]);
    }
}

/// How many panel elements a tile of streamed rows meets: every row of the
/// tile stays in bounds at its last streamed index, and so does the panel.
#[cfg(target_arch = "x86_64")]
fn tile_len(rows: &[&[f64]], stride: usize, panel: &[f64]) -> usize {
    rows.iter()
        .map(|row| row.len().div_ceil(stride))
        .fold(panel.len() / PANEL_LANES, usize::min)
}

/// The scalar reference kernels — the PR-5 inner loops kept verbatim. Every
/// SIMD variant in this module is fuzzed bit-identical against these.
pub(crate) mod scalar {
    use super::PANEL_LANES;
    use super::{check_sign_dots, lane_group, store_lanes, SIGN_LANES, SIGN_ROWS};
    use std::ops::Range;

    /// Inner-loop block width (in 64-bit words) for the XOR/popcount
    /// kernels. Accumulating into independent lanes keeps the popcounts
    /// flowing even on a single core.
    const BLOCK_WORDS: usize = 4;

    /// Word-blocked XOR + popcount over two packed word slices.
    pub(crate) fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
        let mut lanes = [0u64; BLOCK_WORDS];
        let blocks = a.len() / BLOCK_WORDS;
        for blk in 0..blocks {
            let base = blk * BLOCK_WORDS;
            for (lane, acc) in lanes.iter_mut().enumerate() {
                *acc += (a[base + lane] ^ b[base + lane]).count_ones() as u64;
            }
        }
        let mut total: u64 = lanes.iter().sum();
        for i in blocks * BLOCK_WORDS..a.len() {
            total += (a[i] ^ b[i]).count_ones() as u64;
        }
        total
    }

    /// Word-blocked masked XOR + popcount (perforated reductions).
    pub(crate) fn xor_popcount_masked(a: &[u64], b: &[u64], mask: &[u64]) -> u64 {
        let mut lanes = [0u64; BLOCK_WORDS];
        let blocks = a.len() / BLOCK_WORDS;
        for blk in 0..blocks {
            let base = blk * BLOCK_WORDS;
            for (lane, acc) in lanes.iter_mut().enumerate() {
                let i = base + lane;
                *acc += ((a[i] ^ b[i]) & mask[i]).count_ones() as u64;
            }
        }
        let mut total: u64 = lanes.iter().sum();
        for i in blocks * BLOCK_WORDS..a.len() {
            total += ((a[i] ^ b[i]) & mask[i]).count_ones() as u64;
        }
        total
    }

    /// Unpack the ±1 signs in `words` and add them into the accumulator
    /// slots, one column at a time in ascending order.
    pub(crate) fn add_signs(acc: &mut [f64], words: &[u64]) {
        for (c, slot) in acc.iter_mut().enumerate() {
            let bit = (words[c / 64] >> (c % 64)) & 1;
            // bit set = negative element.
            *slot += 1.0 - 2.0 * bit as f64;
        }
    }

    /// ±1.0 lanes for a lane mask: lane `k` of entry `m` is `-1.0` when
    /// bit `k` of `m` is set.
    static SIGN_LUT8: [[f64; SIGN_LANES]; 256] = {
        let mut table = [[0.0; SIGN_LANES]; 256];
        let mut m = 0;
        while m < 256 {
            let mut k = 0;
            while k < SIGN_LANES {
                table[m][k] = if (m >> k) & 1 != 0 { -1.0 } else { 1.0 };
                k += 1;
            }
            m += 1;
        }
        table
    };

    /// Transpose an 8 × 8 bit matrix held one row per byte: bit `i` of
    /// byte `k` moves to bit `k` of byte `i`.
    fn transpose8(mut x: u64) -> u64 {
        let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
        x ^= t ^ (t << 7);
        let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
        x ^= t ^ (t << 14);
        let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
        x ^ t ^ (t << 28)
    }

    /// The lane masks of the 64 features in one word of 8 sign rows: bit
    /// `k` of `masks[b]` is bit `b` of `words[k]`.
    pub(super) fn lane_masks(words: [u64; SIGN_LANES]) -> [u8; 64] {
        let mut masks = [0u8; 64];
        for (j, chunk) in masks.chunks_exact_mut(8).enumerate() {
            let rows = words
                .iter()
                .enumerate()
                .fold(0u64, |x, (k, w)| x | ((w >> (8 * j)) & 0xff) << (8 * k));
            chunk.copy_from_slice(&transpose8(rows).to_le_bytes());
        }
        masks
    }

    /// The [`super::SignDots`] oracle: one lane group of 8 output dims per
    /// pass, every query row's 8 chains side by side; per feature, the lane
    /// mask selects the ±1.0 lanes, then each chain multiplies and adds.
    pub(crate) fn sign_dots(
        signs: &[&[u64]],
        span: Range<usize>,
        stride: usize,
        queries: &[&[f64]],
        out: &mut [f64],
    ) {
        check_sign_dots(signs, &span, stride, queries, out);
        let dims = signs.len();
        for group in 0..dims.div_ceil(SIGN_LANES) {
            let rows = lane_group(signs, group);
            let mut acc = [[0.0f64; SIGN_LANES]; SIGN_ROWS];
            let mut masks = [0u8; 64];
            let mut word = usize::MAX;
            for c in span.clone().step_by(stride) {
                if c / 64 != word {
                    word = c / 64;
                    masks = lane_masks(rows.map(|r| r[word]));
                }
                let signs = &SIGN_LUT8[usize::from(masks[c % 64])];
                for (chains, q) in acc.iter_mut().zip(queries) {
                    let x = q[c];
                    for k in 0..SIGN_LANES {
                        chains[k] += signs[k] * x;
                    }
                }
            }
            for (q, lanes) in acc.iter().take(queries.len()).enumerate() {
                store_lanes(out, dims, q, group, lanes);
            }
        }
    }

    /// The [`super::DotPanel`] oracle: one streamed row per pass, its
    /// `PANEL_LANES` chains side by side, ascending element order,
    /// separate multiply and add.
    pub(crate) fn dot_panel(
        rows: &[&[f64]],
        stride: usize,
        panel: &[f64],
        out: &mut [[f64; PANEL_LANES]],
    ) {
        assert_eq!(rows.len(), out.len(), "one output per streamed row");
        assert!(stride > 0, "a streamed row needs a non-zero stride");
        for (row, dots) in rows.iter().zip(out.iter_mut()) {
            let mut acc = [0.0f64; PANEL_LANES];
            // Every `stride`-th element is the head of a `stride`-long
            // chunk (an indexed `step_by` walk vectorizes worse).
            for (lanes, chunk) in panel.chunks_exact(PANEL_LANES).zip(row.chunks(stride)) {
                let qv = chunk[0];
                for k in 0..PANEL_LANES {
                    acc[k] += qv * lanes[k];
                }
            }
            *dots = acc;
        }
    }
}

/// AVX2 kernels. Every `unsafe` block's only obligation is the `avx2` (and
/// `popcnt`) target features, guaranteed by construction: these functions
/// are reachable only through the dispatch tables, which select them only
/// when [`detected`] confirmed the features at runtime.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{check_sign_dots, for_each_tile, lane_group, store_lanes, tile_len};
    use super::{PANEL_LANES, SIGN_LANES, SIGN_LUT4};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Streamed rows per panel pass: each holds its 8 lanes in two 256-bit
    /// accumulators, so 4 rows keep 8 add chains in flight and leave room
    /// in the 16 registers for the panel element and the broadcast.
    const ROWS: usize = 4;

    #[allow(unsafe_code)]
    pub(super) fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: only dispatched on hosts where avx2+popcnt are detected.
        unsafe { xor_popcount_impl(a, b) }
    }

    #[allow(unsafe_code)]
    pub(super) fn xor_popcount_masked(a: &[u64], b: &[u64], mask: &[u64]) -> u64 {
        // SAFETY: only dispatched on hosts where avx2+popcnt are detected.
        unsafe { xor_popcount_masked_impl(a, b, mask) }
    }

    #[allow(unsafe_code)]
    pub(super) fn add_signs(acc: &mut [f64], words: &[u64]) {
        // SAFETY: only dispatched on hosts where avx2+popcnt are detected.
        unsafe { add_signs_impl(acc, words) }
    }

    #[allow(unsafe_code)]
    pub(super) fn dot_panel(
        rows: &[&[f64]],
        stride: usize,
        panel: &[f64],
        out: &mut [[f64; PANEL_LANES]],
    ) {
        for_each_tile::<ROWS>(rows, stride, out, |tile| {
            // SAFETY: only dispatched on hosts where avx2+popcnt are detected.
            unsafe { dot_tile_impl(tile, stride, panel) }
        });
    }

    /// Popcount of each byte of `v` via the classic nibble-LUT `pshufb`
    /// (counts per byte, summed into the four 64-bit lanes by `psadbw`).
    ///
    /// Must carry `target_feature(avx2)` itself: without it the intrinsics
    /// are compiled for the baseline target whenever the call is not
    /// inlined, and LLVM legalizes the 256-bit ops into a scalar expansion
    /// an order of magnitude slower than the plain `count_ones` loop.
    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `avx2`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_bytes(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
        let counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `avx2`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horizontal_sum_u64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes.iter().sum()
    }

    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `avx2,popcnt`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn xor_popcount_impl(a: &[u64], b: &[u64]) -> u64 {
        let blocks = a.len() / 4;
        let mut total = _mm256_setzero_si256();
        for blk in 0..blocks {
            let pa = _mm256_loadu_si256(a.as_ptr().add(blk * 4) as *const __m256i);
            let pb = _mm256_loadu_si256(b.as_ptr().add(blk * 4) as *const __m256i);
            total = _mm256_add_epi64(total, popcount_bytes(_mm256_xor_si256(pa, pb)));
        }
        let mut count = horizontal_sum_u64(total);
        for i in blocks * 4..a.len() {
            count += (a[i] ^ b[i]).count_ones() as u64;
        }
        count
    }

    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `avx2,popcnt`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn xor_popcount_masked_impl(a: &[u64], b: &[u64], mask: &[u64]) -> u64 {
        let blocks = a.len() / 4;
        let mut total = _mm256_setzero_si256();
        for blk in 0..blocks {
            let pa = _mm256_loadu_si256(a.as_ptr().add(blk * 4) as *const __m256i);
            let pb = _mm256_loadu_si256(b.as_ptr().add(blk * 4) as *const __m256i);
            let pm = _mm256_loadu_si256(mask.as_ptr().add(blk * 4) as *const __m256i);
            let masked = _mm256_and_si256(_mm256_xor_si256(pa, pb), pm);
            total = _mm256_add_epi64(total, popcount_bytes(masked));
        }
        let mut count = horizontal_sum_u64(total);
        for i in blocks * 4..a.len() {
            count += ((a[i] ^ b[i]) & mask[i]).count_ones() as u64;
        }
        count
    }

    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `avx2`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2")]
    unsafe fn add_signs_impl(acc: &mut [f64], words: &[u64]) {
        let cols = acc.len();
        let chunks = cols / 4;
        for i in 0..chunks {
            // Columns 4i..4i+4 share one nibble (64 % 4 == 0, so a nibble
            // never straddles a word boundary).
            let bit = i * 4;
            let nibble = ((words[bit / 64] >> (bit % 64)) & 0xf) as usize;
            let slots = acc.as_mut_ptr().add(bit);
            let sum = _mm256_add_pd(
                _mm256_loadu_pd(slots),
                _mm256_loadu_pd(SIGN_LUT4[nibble].as_ptr()),
            );
            _mm256_storeu_pd(slots, sum);
        }
        for c in chunks * 4..cols {
            let bit = (words[c / 64] >> (c % 64)) & 1;
            acc[c] += 1.0 - 2.0 * bit as f64;
        }
    }

    #[allow(unsafe_code)]
    pub(super) fn sign_dots(
        signs: &[&[u64]],
        span: Range<usize>,
        stride: usize,
        queries: &[&[f64]],
        out: &mut [f64],
    ) {
        check_sign_dots(signs, &span, stride, queries, out);
        if signs.is_empty() {
            return;
        }
        // Each row holds a lane group in two registers, so at most 4 rows
        // share a pass; one row takes two groups to keep 4 chains going.
        for (pass, rows) in queries.chunks(4).enumerate() {
            let out = &mut out[pass * 4 * signs.len()..][..rows.len() * signs.len()];
            let span = span.clone();
            // SAFETY: (every arm) only dispatched on hosts where avx2 is
            // detected.
            unsafe {
                match rows.len() {
                    1 => sign_dots_impl::<1, 2>(signs, span, stride, rows, out),
                    2 => sign_dots_impl::<2, 1>(signs, span, stride, rows, out),
                    3 => sign_dots_impl::<3, 1>(signs, span, stride, rows, out),
                    _ => sign_dots_impl::<4, 1>(signs, span, stride, rows, out),
                }
            }
        }
    }

    /// `Q` query rows against `G` lane groups of 8 output dims at a time,
    /// each group in two 256-bit halves. Per feature, a half's 4 sign
    /// words are masked with the feature's bit and compared back to it
    /// (all-ones lanes where the bit is set), which blends the ±1.0 lanes;
    /// every row's feature is broadcast, multiplied and added into its
    /// chains.
    // SAFETY: `unsafe` is solely the `target_feature` contract — `avx2` was
    // confirmed by runtime detection before `sign_dots` (the only caller)
    // was dispatched. No pointer arithmetic: every slice access is
    // bounds-checked, and `check_sign_dots` has checked the shapes.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2")]
    unsafe fn sign_dots_impl<const Q: usize, const G: usize>(
        signs: &[&[u64]],
        span: Range<usize>,
        stride: usize,
        queries: &[&[f64]],
        out: &mut [f64],
    ) {
        let dims = signs.len();
        let plus = _mm256_set1_pd(1.0);
        let minus = _mm256_set1_pd(-1.0);
        let groups = dims.div_ceil(SIGN_LANES);
        for first in (0..groups).step_by(G) {
            let mut rows = [[signs[0]; SIGN_LANES]; G];
            for (g, group_rows) in rows.iter_mut().enumerate() {
                // A pass past the last group repeats it; nothing is stored.
                *group_rows = lane_group(signs, (first + g).min(groups - 1));
            }
            let mut acc = [[[_mm256_setzero_pd(); 2]; Q]; G];
            let mut words = [[_mm256_setzero_si256(); 2]; G];
            let mut word = usize::MAX;
            for c in span.clone().step_by(stride) {
                if c / 64 != word {
                    word = c / 64;
                    for (halves, group_rows) in words.iter_mut().zip(&rows) {
                        let lanes = group_rows.map(|r| r[word]);
                        halves[0] = _mm256_loadu_si256(lanes.as_ptr().cast());
                        halves[1] = _mm256_loadu_si256(lanes[4..].as_ptr().cast());
                    }
                }
                let bit = _mm256_set1_epi64x(1 << (c % 64));
                let mut xs = [_mm256_setzero_pd(); Q];
                for (x, q) in xs.iter_mut().zip(queries) {
                    *x = _mm256_set1_pd(q[c]);
                }
                for (chains, halves) in acc.iter_mut().zip(&words) {
                    let mut s = [plus; 2];
                    for (lanes, w) in s.iter_mut().zip(halves) {
                        let set = _mm256_cmpeq_epi64(_mm256_and_si256(*w, bit), bit);
                        *lanes = _mm256_blendv_pd(plus, minus, _mm256_castsi256_pd(set));
                    }
                    for (chain, x) in chains.iter_mut().zip(&xs) {
                        chain[0] = _mm256_add_pd(chain[0], _mm256_mul_pd(s[0], *x));
                        chain[1] = _mm256_add_pd(chain[1], _mm256_mul_pd(s[1], *x));
                    }
                }
            }
            for (g, chains) in acc.iter().enumerate() {
                if first + g >= groups {
                    break;
                }
                for (q, chain) in chains.iter().enumerate() {
                    let mut lanes = [0.0f64; SIGN_LANES];
                    _mm256_storeu_pd(lanes.as_mut_ptr(), chain[0]);
                    _mm256_storeu_pd(lanes[4..].as_mut_ptr(), chain[1]);
                    store_lanes(out, dims, q, first + g, &lanes);
                }
            }
        }
    }

    /// `ROWS` streamed rows against one panel: per panel element, the two
    /// lane halves are loaded once and every row's element is broadcast
    /// into both of its chains.
    // SAFETY: `unsafe` is solely the `target_feature` contract — `avx2` was
    // confirmed by runtime detection before `dot_panel` (the only caller)
    // was dispatched. Pointer arithmetic stays within the argument slices:
    // `i < n` keeps the panel read below `panel.len()` and, as `tile_len`
    // bounds `n` by `row.len().div_ceil(stride)` for every row of the
    // tile, each streamed index `i * stride` below its row's length.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_tile_impl(
        rows: &[&[f64]; ROWS],
        stride: usize,
        panel: &[f64],
    ) -> [[f64; PANEL_LANES]; ROWS] {
        let n = tile_len(rows, stride, panel);
        let heads = rows.map(<[f64]>::as_ptr);
        let mut acc = [[_mm256_setzero_pd(); 2]; ROWS];
        for i in 0..n {
            let lanes = panel.as_ptr().add(i * PANEL_LANES);
            let (lo, hi) = (_mm256_loadu_pd(lanes), _mm256_loadu_pd(lanes.add(4)));
            for (chains, head) in acc.iter_mut().zip(heads) {
                let qv = _mm256_set1_pd(*head.add(i * stride));
                chains[0] = _mm256_add_pd(chains[0], _mm256_mul_pd(qv, lo));
                chains[1] = _mm256_add_pd(chains[1], _mm256_mul_pd(qv, hi));
            }
        }
        let mut out = [[0.0f64; PANEL_LANES]; ROWS];
        for (dots, chains) in out.iter_mut().zip(acc) {
            _mm256_storeu_pd(dots.as_mut_ptr(), chains[0]);
            _mm256_storeu_pd(dots.as_mut_ptr().add(4), chains[1]);
        }
        out
    }
}

/// AVX-512 kernels: the XOR/popcount family on 512-bit lanes with the
/// native per-64-bit-lane popcount of `avx512vpopcntdq`, replacing the
/// AVX2 `pshufb` nibble LUT, and the `f64` panel kernel with one 8-lane
/// panel element per register. Popcounts are exact integers, so the counts
/// are trivially bit-identical to the scalar oracle; the panel keeps one
/// ascending chain per output, and the 32 registers hold the chains of
/// more streamed rows at once than AVX2's 16 can. Same safety argument as
/// `avx2`: reachable only through the dispatch tables after runtime
/// detection confirmed `avx512f` + `avx512vpopcntdq`. `add_signs` stays on
/// the AVX2 kernel: its 4-lane sign lookup gains nothing from 512 bits.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{check_sign_dots, for_each_tile, lane_group, store_lanes, tile_len};
    use super::{FUSED_ROWS, PANEL_LANES, SIGN_LANES};
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Streamed rows per panel pass: one 512-bit accumulator each, so 8
    /// rows keep 8 add chains in flight beside the panel element and the
    /// broadcast.
    const ROWS: usize = 8;

    #[allow(unsafe_code)]
    pub(super) fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: only dispatched on hosts where avx512f+avx512vpopcntdq
        // are detected.
        unsafe { xor_popcount_impl(a, b) }
    }

    #[allow(unsafe_code)]
    pub(super) fn xor_popcount_masked(a: &[u64], b: &[u64], mask: &[u64]) -> u64 {
        // SAFETY: only dispatched on hosts where avx512f+avx512vpopcntdq
        // are detected.
        unsafe { xor_popcount_masked_impl(a, b, mask) }
    }

    #[allow(unsafe_code)]
    pub(super) fn dot_panel(
        rows: &[&[f64]],
        stride: usize,
        panel: &[f64],
        out: &mut [[f64; PANEL_LANES]],
    ) {
        for_each_tile::<ROWS>(rows, stride, out, |tile| {
            // SAFETY: only dispatched on hosts where avx512f is detected.
            unsafe { dot_tile_impl(tile, stride, panel) }
        });
    }

    /// The fused ±1 leg of [`super::signed_dot_panel_kernel`]: tiles of
    /// [`FUSED_ROWS`] rows.
    #[allow(unsafe_code)]
    pub(super) fn signed_dot_panel(
        rows: &[&[f64]],
        stride: usize,
        panel: &[f64],
        out: &mut [[f64; PANEL_LANES]],
    ) {
        for_each_tile::<FUSED_ROWS>(rows, stride, out, |tile| {
            // SAFETY: only dispatched on hosts where avx512f is detected.
            unsafe { fused_tile_impl(tile, stride, panel) }
        });
    }

    #[allow(unsafe_code)]
    pub(super) fn sign_dots(
        signs: &[&[u64]],
        span: Range<usize>,
        stride: usize,
        queries: &[&[f64]],
        out: &mut [f64],
    ) {
        check_sign_dots(signs, &span, stride, queries, out);
        if signs.is_empty() {
            return;
        }
        // Lane groups per pass, so that `rows x groups` chains are in
        // flight: enough to hide the add latency, few enough to stay in
        // the 32 registers.
        // SAFETY: (every arm) only dispatched on hosts where avx512f is
        // detected.
        unsafe {
            match queries.len() {
                0 => {}
                1 => sign_dots_impl::<1, 8>(signs, span, stride, queries, out),
                2 => sign_dots_impl::<2, 4>(signs, span, stride, queries, out),
                3 => sign_dots_impl::<3, 2>(signs, span, stride, queries, out),
                4 => sign_dots_impl::<4, 2>(signs, span, stride, queries, out),
                5 => sign_dots_impl::<5, 2>(signs, span, stride, queries, out),
                6 => sign_dots_impl::<6, 2>(signs, span, stride, queries, out),
                7 => sign_dots_impl::<7, 2>(signs, span, stride, queries, out),
                _ => sign_dots_impl::<8, 2>(signs, span, stride, queries, out),
            }
        }
    }

    /// `Q` query rows against `G` lane groups of 8 output dims at a time.
    /// Per feature, each group's 8 sign words are tested against the
    /// feature's bit (`vptestmq`: the lane mask), the mask blends the
    /// ±1.0 lanes, and every row's feature is broadcast, multiplied and
    /// added into its chain.
    // SAFETY: `unsafe` is solely the `target_feature` contract — `avx512f`
    // was confirmed by runtime detection before `sign_dots` (the only
    // caller) was dispatched. No pointer arithmetic: every slice access is
    // bounds-checked, and `check_sign_dots` has checked the shapes.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f")]
    unsafe fn sign_dots_impl<const Q: usize, const G: usize>(
        signs: &[&[u64]],
        span: Range<usize>,
        stride: usize,
        queries: &[&[f64]],
        out: &mut [f64],
    ) {
        let dims = signs.len();
        let plus = _mm512_set1_pd(1.0);
        let minus = _mm512_set1_pd(-1.0);
        let groups = dims.div_ceil(SIGN_LANES);
        for first in (0..groups).step_by(G) {
            let mut rows = [[signs[0]; SIGN_LANES]; G];
            for (g, group_rows) in rows.iter_mut().enumerate() {
                // A pass past the last group repeats it; nothing is stored.
                *group_rows = lane_group(signs, (first + g).min(groups - 1));
            }
            let mut acc = [[_mm512_setzero_pd(); Q]; G];
            let mut words = [_mm512_setzero_si512(); G];
            let mut word = usize::MAX;
            for c in span.clone().step_by(stride) {
                if c / 64 != word {
                    word = c / 64;
                    for (w, group_rows) in words.iter_mut().zip(&rows) {
                        let lanes = group_rows.map(|r| r[word]);
                        *w = _mm512_loadu_si512(lanes.as_ptr().cast());
                    }
                }
                let bit = _mm512_set1_epi64(1 << (c % 64));
                if Q == 1 {
                    // One row: form both products once per feature and let
                    // each group's mask pick per lane, a blend where the
                    // general path multiplies per group. `black_box` is for
                    // speed: without it the compiler folds the pick back
                    // into that slower per-group multiply.
                    let x = _mm512_set1_pd(queries[0][c]);
                    let [up, down] =
                        std::hint::black_box([_mm512_mul_pd(plus, x), _mm512_mul_pd(minus, x)]);
                    for (chains, w) in acc.iter_mut().zip(&words) {
                        let negative = _mm512_test_epi64_mask(*w, bit);
                        chains[0] =
                            _mm512_add_pd(chains[0], _mm512_mask_blend_pd(negative, up, down));
                    }
                    continue;
                }
                let mut xs = [_mm512_setzero_pd(); Q];
                for (x, q) in xs.iter_mut().zip(queries) {
                    *x = _mm512_set1_pd(q[c]);
                }
                for (chains, w) in acc.iter_mut().zip(&words) {
                    let s = _mm512_mask_blend_pd(_mm512_test_epi64_mask(*w, bit), plus, minus);
                    for (chain, x) in chains.iter_mut().zip(&xs) {
                        *chain = _mm512_add_pd(*chain, _mm512_mul_pd(s, *x));
                    }
                }
            }
            for (g, chains) in acc.iter().enumerate() {
                if first + g >= groups {
                    break;
                }
                for (q, chain) in chains.iter().enumerate() {
                    let mut lanes = [0.0f64; SIGN_LANES];
                    _mm512_storeu_pd(lanes.as_mut_ptr(), *chain);
                    store_lanes(out, dims, q, first + g, &lanes);
                }
            }
        }
    }

    /// `ROWS` streamed rows against one panel: per panel element, the lanes
    /// are loaded once and every row's element is broadcast into its chain.
    // SAFETY: `unsafe` is solely the `target_feature` contract — `avx512f`
    // was confirmed by runtime detection before `dot_panel` (the only
    // caller) was dispatched. Pointer arithmetic stays within the argument
    // slices: `i < n` keeps the panel read below `panel.len()` and, as
    // `tile_len` bounds `n` by `row.len().div_ceil(stride)` for every row
    // of the tile, each streamed index `i * stride` below its row's length.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f")]
    unsafe fn dot_tile_impl(
        rows: &[&[f64]; ROWS],
        stride: usize,
        panel: &[f64],
    ) -> [[f64; PANEL_LANES]; ROWS] {
        let n = tile_len(rows, stride, panel);
        let heads = rows.map(<[f64]>::as_ptr);
        let mut acc = [_mm512_setzero_pd(); ROWS];
        for i in 0..n {
            let lanes = _mm512_loadu_pd(panel.as_ptr().add(i * PANEL_LANES));
            for (chain, head) in acc.iter_mut().zip(heads) {
                let qv = _mm512_set1_pd(*head.add(i * stride));
                *chain = _mm512_add_pd(*chain, _mm512_mul_pd(qv, lanes));
            }
        }
        let mut out = [[0.0f64; PANEL_LANES]; ROWS];
        for (dots, chain) in out.iter_mut().zip(acc) {
            _mm512_storeu_pd(dots.as_mut_ptr(), chain);
        }
        out
    }

    /// [`FUSED_ROWS`] streamed ±1 rows against one panel, as
    /// `dot_tile_impl` walks them, with one `vfmadd` per row and panel
    /// element in place of its multiply and add.
    // SAFETY: as for `dot_tile_impl`: `avx512f` was detected before
    // `signed_dot_panel` (the only caller) was dispatched, and `tile_len`
    // keeps every panel read and streamed index `i * stride` in bounds.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f")]
    unsafe fn fused_tile_impl(
        rows: &[&[f64]; FUSED_ROWS],
        stride: usize,
        panel: &[f64],
    ) -> [[f64; PANEL_LANES]; FUSED_ROWS] {
        let n = tile_len(rows, stride, panel);
        let heads = rows.map(<[f64]>::as_ptr);
        let mut acc = [_mm512_setzero_pd(); FUSED_ROWS];
        for i in 0..n {
            let lanes = _mm512_loadu_pd(panel.as_ptr().add(i * PANEL_LANES));
            for (chain, head) in acc.iter_mut().zip(heads) {
                let sign = _mm512_set1_pd(*head.add(i * stride));
                *chain = _mm512_fmadd_pd(sign, lanes, *chain);
            }
        }
        let mut out = [[0.0f64; PANEL_LANES]; FUSED_ROWS];
        for (dots, chain) in out.iter_mut().zip(acc) {
            _mm512_storeu_pd(dots.as_mut_ptr(), chain);
        }
        out
    }

    /// Same `target_feature` obligation as the AVX2 helpers: without it a
    /// non-inlined call compiles the 512-bit ops for the baseline target
    /// and LLVM legalizes them into a slow scalar expansion.
    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `avx512f`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn horizontal_sum_u64(v: __m512i) -> u64 {
        let mut lanes = [0u64; 8];
        _mm512_storeu_si512(lanes.as_mut_ptr() as *mut _, v);
        lanes.iter().sum()
    }

    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `avx512f,avx512vpopcntdq,popcnt`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    unsafe fn xor_popcount_impl(a: &[u64], b: &[u64]) -> u64 {
        let blocks = a.len() / 8;
        let mut total = _mm512_setzero_si512();
        for blk in 0..blocks {
            let pa = _mm512_loadu_si512(a.as_ptr().add(blk * 8) as *const _);
            let pb = _mm512_loadu_si512(b.as_ptr().add(blk * 8) as *const _);
            total = _mm512_add_epi64(total, _mm512_popcnt_epi64(_mm512_xor_si512(pa, pb)));
        }
        let mut count = horizontal_sum_u64(total);
        for i in blocks * 8..a.len() {
            count += (a[i] ^ b[i]).count_ones() as u64;
        }
        count
    }

    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `avx512f,avx512vpopcntdq,popcnt`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    unsafe fn xor_popcount_masked_impl(a: &[u64], b: &[u64], mask: &[u64]) -> u64 {
        let blocks = a.len() / 8;
        let mut total = _mm512_setzero_si512();
        for blk in 0..blocks {
            let pa = _mm512_loadu_si512(a.as_ptr().add(blk * 8) as *const _);
            let pb = _mm512_loadu_si512(b.as_ptr().add(blk * 8) as *const _);
            let pm = _mm512_loadu_si512(mask.as_ptr().add(blk * 8) as *const _);
            let masked = _mm512_and_si512(_mm512_xor_si512(pa, pb), pm);
            total = _mm512_add_epi64(total, _mm512_popcnt_epi64(masked));
        }
        let mut count = horizontal_sum_u64(total);
        for i in blocks * 8..a.len() {
            count += ((a[i] ^ b[i]) & mask[i]).count_ones() as u64;
        }
        count
    }
}

/// NEON kernels for the XOR/popcount family and `add_signs` (the `f64`
/// panel runs the scalar oracle). Same safety argument as `avx2`:
/// reachable only through the dispatch tables after runtime detection.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::SIGN_LUT4;
    use std::arch::aarch64::*;

    #[allow(unsafe_code)]
    pub(super) fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
        // SAFETY: only dispatched on hosts where neon is detected.
        unsafe { xor_popcount_impl(a, b) }
    }

    #[allow(unsafe_code)]
    pub(super) fn xor_popcount_masked(a: &[u64], b: &[u64], mask: &[u64]) -> u64 {
        // SAFETY: only dispatched on hosts where neon is detected.
        unsafe { xor_popcount_masked_impl(a, b, mask) }
    }

    #[allow(unsafe_code)]
    pub(super) fn add_signs(acc: &mut [f64], words: &[u64]) {
        // SAFETY: only dispatched on hosts where neon is detected.
        unsafe { add_signs_impl(acc, words) }
    }

    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `neon`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[target_feature(enable = "neon")]
    unsafe fn xor_popcount_impl(a: &[u64], b: &[u64]) -> u64 {
        let blocks = a.len() / 2;
        let mut count: u64 = 0;
        for blk in 0..blocks {
            let va = vld1q_u64(a.as_ptr().add(blk * 2));
            let vb = vld1q_u64(b.as_ptr().add(blk * 2));
            let bytes = vcntq_u8(vreinterpretq_u8_u64(veorq_u64(va, vb)));
            // 16 byte-counts of at most 8 each: the horizontal sum fits u8.
            count += vaddvq_u8(bytes) as u64;
        }
        for i in blocks * 2..a.len() {
            count += (a[i] ^ b[i]).count_ones() as u64;
        }
        count
    }

    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `neon`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[target_feature(enable = "neon")]
    unsafe fn xor_popcount_masked_impl(a: &[u64], b: &[u64], mask: &[u64]) -> u64 {
        let blocks = a.len() / 2;
        let mut count: u64 = 0;
        for blk in 0..blocks {
            let va = vld1q_u64(a.as_ptr().add(blk * 2));
            let vb = vld1q_u64(b.as_ptr().add(blk * 2));
            let vm = vld1q_u64(mask.as_ptr().add(blk * 2));
            let masked = vandq_u64(veorq_u64(va, vb), vm);
            count += vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(masked))) as u64;
        }
        for i in blocks * 2..a.len() {
            count += ((a[i] ^ b[i]) & mask[i]).count_ones() as u64;
        }
        count
    }

    // SAFETY: `unsafe` is solely the `target_feature` contract — callers
    // must reach this only after runtime detection confirmed `neon`
    // (the dispatch tables above are the only callers). All pointer
    // arithmetic stays within the argument slices; tails use safe indexing.
    #[allow(unsafe_code)]
    #[target_feature(enable = "neon")]
    unsafe fn add_signs_impl(acc: &mut [f64], words: &[u64]) {
        let cols = acc.len();
        let chunks = cols / 4;
        for i in 0..chunks {
            let bit = i * 4;
            let nibble = ((words[bit / 64] >> (bit % 64)) & 0xf) as usize;
            let signs = SIGN_LUT4[nibble].as_ptr();
            let slots = acc.as_mut_ptr().add(bit);
            vst1q_f64(slots, vaddq_f64(vld1q_f64(slots), vld1q_f64(signs)));
            vst1q_f64(
                slots.add(2),
                vaddq_f64(vld1q_f64(slots.add(2)), vld1q_f64(signs.add(2))),
            );
        }
        for c in chunks * 4..cols {
            let bit = (words[c / 64] >> (c % 64)) & 1;
            acc[c] += 1.0 - 2.0 * bit as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_resolution_is_pure_and_forced() {
        assert_eq!(resolve(Some("scalar")), KernelBackend::Scalar);
        assert_eq!(resolve(Some(" scalar ")), KernelBackend::Scalar);
        // Forcing a SIMD backend falls back to scalar when unsupported,
        // returns it verbatim when supported.
        for (name, backend) in [
            ("avx2", KernelBackend::Avx2),
            ("avx512", KernelBackend::Avx512),
            ("neon", KernelBackend::Neon),
        ] {
            let resolved = resolve(Some(name));
            if supported(backend) {
                assert_eq!(resolved, backend);
            } else {
                assert_eq!(resolved, KernelBackend::Scalar);
            }
        }
        // Unset / unknown defer to detection.
        assert_eq!(resolve(None), detected());
        assert_eq!(resolve(Some("vector9000")), detected());
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [
            KernelBackend::Scalar,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
            KernelBackend::Neon,
        ] {
            assert_eq!(resolve(Some(b.name())) == b, supported(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert!(!KernelBackend::Scalar.is_simd());
        assert!(KernelBackend::Avx2.is_simd() && KernelBackend::Neon.is_simd());
        assert!(KernelBackend::Avx512.is_simd());
    }

    #[test]
    fn avx512_support_implies_avx2_support() {
        // The AVX-512 backend delegates add_signs to AVX2, so the feature
        // lattice must be monotone.
        if supported(KernelBackend::Avx512) {
            assert!(supported(KernelBackend::Avx2));
            assert_eq!(detected(), KernelBackend::Avx512);
        }
    }

    #[test]
    fn unsupported_backend_is_rejected() {
        assert!(supported(KernelBackend::Scalar));
        for b in [
            KernelBackend::Avx2,
            KernelBackend::Avx512,
            KernelBackend::Neon,
        ] {
            if !supported(b) {
                assert_eq!(
                    set_backend(b),
                    Err(HdcError::UnsupportedBackend {
                        requested: b.name()
                    })
                );
            }
        }
        // The detected backend is always settable.
        set_backend(detected()).unwrap();
    }

    #[test]
    fn sign_lut_matches_bit_convention() {
        for (n, entry) in SIGN_LUT4.iter().enumerate() {
            for (k, &v) in entry.iter().enumerate() {
                let expect = if (n >> k) & 1 != 0 { -1.0 } else { 1.0 };
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn lane_masks_transpose_the_sign_words() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let words: [u64; SIGN_LANES] = std::array::from_fn(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        });
        let masks = scalar::lane_masks(words);
        for (b, mask) in masks.iter().enumerate() {
            for (k, word) in words.iter().enumerate() {
                assert_eq!(
                    u64::from((mask >> k) & 1),
                    (word >> b) & 1,
                    "bit {b} row {k}"
                );
            }
        }
    }

    #[test]
    fn scalar_popcount_handles_tails() {
        let a = [u64::MAX, 0, 0b1011, u64::MAX, 0xF0F0];
        let b = [0u64, 0, 0b0001, u64::MAX, 0x0F0F];
        // Per-word distances: 64, 0, 2, 0, 16.
        assert_eq!(scalar::xor_popcount(&a, &b), 82, "blocked path + tail");
        let mask = [u64::MAX; 5];
        assert_eq!(
            scalar::xor_popcount_masked(&a, &b, &mask),
            scalar::xor_popcount(&a, &b)
        );
    }
}
