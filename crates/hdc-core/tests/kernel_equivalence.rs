//! Backend equivalence suite: every SIMD kernel must be **bit-identical**
//! to the scalar oracle.
//!
//! The suite fuzzes dimensions (including odd tails that don't divide the
//! vector width), class/query counts, and perforation descriptors across
//! backends, comparing outputs with exact `assert_eq!` on the `f64` bits —
//! popcounts are exact integers and the panel kernels keep per-chain
//! accumulation order, so *any* difference is a backend bug.
//!
//! Tests that flip the process-global backend serialize on a mutex; the
//! `HDC_KERNEL_BACKEND=scalar` regression re-runs itself in a child process
//! so the environment override is exercised on a fresh backend cache.

use hdc_core::batch::{accumulate_by_segment_bits, score_rows_sharded, SimilarityMetric};
use hdc_core::matmul::{matmul_batch, matmul_signs, matvec, matvec_signs};
use hdc_core::prelude::*;
use hdc_core::random::{bipolar_hypermatrix, gaussian_hypermatrix, random_hypermatrix};
use hdc_core::shard::ShardPlan;
use hdc_core::simd::{self, KernelBackend};
use hdc_core::{cosine_similarity_batch_sharded, hamming_distance_batch_sharded};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes tests that mutate the process-global backend selection.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock_backend() -> MutexGuard<'static, ()> {
    // A poisoned lock only means another test failed while holding it.
    BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every backend this host can run, scalar first.
fn supported_backends() -> Vec<KernelBackend> {
    [
        KernelBackend::Scalar,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
        KernelBackend::Neon,
    ]
    .into_iter()
    .filter(|&b| simd::supported(b))
    .collect()
}

/// Run `body` once under the scalar backend and once under every SIMD
/// backend this host supports (so an AVX-512 host runs its AVX2 leg too),
/// returning the scalar result and each SIMD result with its backend. On a
/// host without SIMD support the list is empty.
fn on_every_backend<R>(mut body: impl FnMut() -> R) -> (R, Vec<(KernelBackend, R)>) {
    let _guard = lock_backend();
    simd::set_backend(KernelBackend::Scalar).unwrap();
    let scalar = body();
    let simd_results = supported_backends()
        .into_iter()
        .filter(|b| b.is_simd())
        .map(|backend| {
            simd::set_backend(backend).unwrap();
            (backend, body())
        })
        .collect();
    simd::set_backend(simd::detected()).unwrap();
    (scalar, simd_results)
}

/// Exact equality of the `f64` bits (`assert_eq!` on floats would let
/// `-0.0 == 0.0` through).
fn assert_bits_eq(actual: &[f64], expected: &[f64], context: &str) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(actual), bits(expected), "{context}");
}

fn bit_matrix(rows: usize, cols: usize, seed: u64) -> BitMatrix {
    let mut rng = HdcRng::seed_from_u64(seed);
    BitMatrix::from_dense(&bipolar_hypermatrix::<f64>(rows, cols, &mut rng))
}

fn dense_matrix(rows: usize, cols: usize, seed: u64) -> HyperMatrix<f64> {
    let mut rng = HdcRng::seed_from_u64(seed);
    random_hypermatrix(rows, cols, &mut rng)
}

/// Dims chosen to hit every tail case: below one word, exact word/block
/// multiples, one past them, and odd primes.
const FUZZ_DIMS: &[usize] = &[
    1, 7, 63, 64, 65, 127, 128, 129, 130, 191, 193, 256, 333, 1027,
];

fn fuzz_perforations(dim: usize) -> Vec<Perforation> {
    let mut ps = vec![
        Perforation::NONE,
        Perforation::strided(0, usize::MAX, 2),
        Perforation::strided(0, usize::MAX, 3),
    ];
    if dim > 8 {
        ps.push(Perforation::segment(1, dim - 1));
        ps.push(Perforation::strided(3, dim - 2, 7));
    }
    ps
}

#[test]
fn hamming_batch_matches_scalar_across_backends() {
    for &dim in FUZZ_DIMS {
        let queries = bit_matrix(5, dim, 0xA11CE ^ dim as u64);
        let classes = bit_matrix(9, dim, 0xB0B ^ dim as u64);
        for perf in fuzz_perforations(dim) {
            let (scalar, simd_outs) =
                on_every_backend(|| hamming_distance_batch(&queries, &classes, perf).unwrap());
            for (backend, simd_out) in simd_outs {
                assert_eq!(
                    scalar.as_slice(),
                    simd_out.as_slice(),
                    "hamming {backend} dim={dim} perf={perf:?}"
                );
            }
        }
    }
}

#[test]
fn cosine_batch_matches_scalar_across_backends() {
    for &dim in FUZZ_DIMS {
        let queries = dense_matrix(5, dim, 0xC051 ^ dim as u64);
        let classes = dense_matrix(9, dim, 0x51AB ^ dim as u64);
        for perf in fuzz_perforations(dim) {
            let (scalar, simd_outs) =
                on_every_backend(|| cosine_similarity_batch(&queries, &classes, perf).unwrap());
            // Exact bit equality, not approximate: the SIMD panels must
            // reproduce the scalar accumulation chains.
            for (backend, simd_out) in simd_outs {
                let context = format!("cosine {backend} dim={dim} perf={perf:?}");
                assert_bits_eq(simd_out.as_slice(), scalar.as_slice(), &context);
            }
        }
    }
}

#[test]
fn matmul_batch_matches_scalar_across_backends() {
    for &dim in &[1usize, 63, 64, 65, 130, 193, 333] {
        let queries = dense_matrix(11, dim, 0x44AA ^ dim as u64);
        let proj = dense_matrix(17, dim, 0x77EE ^ dim as u64);
        for perf in fuzz_perforations(dim) {
            let (scalar, simd_outs) =
                on_every_backend(|| matmul_batch(&queries, &proj, perf).unwrap());
            for (backend, simd_out) in simd_outs {
                let context = format!("matmul {backend} dim={dim} perf={perf:?}");
                assert_bits_eq(simd_out.as_slice(), scalar.as_slice(), &context);
            }
        }
    }
}

/// Query counts around the 8-row panel and the 64-row work item.
const PANEL_QUERY_ROWS: &[usize] = &[0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 129];

/// Streamed-row counts around the 4- and 8-row tiles of the SIMD legs.
const PANEL_STREAMED_ROWS: &[usize] = &[1, 7, 8, 9, 17, 65];

/// Feature dims for the panel suites: tails below and past a register,
/// and the 617 features of the ISOLET-shaped workloads.
const PANEL_DIMS: &[usize] = &[1, 7, 65, 130, 617];

/// A ±1 and a Gaussian matrix of `rows` streamed rows: the kernel may not
/// lean on ±1 entries to stay bit-identical.
fn streamed_matrices(rows: usize, dim: usize, seed: u64) -> [(&'static str, HyperMatrix<f64>); 2] {
    let mut rng = HdcRng::seed_from_u64(seed);
    [
        ("bipolar", bipolar_hypermatrix(rows, dim, &mut rng)),
        ("gaussian", gaussian_hypermatrix(rows, dim, &mut rng)),
    ]
}

/// `reference(streamed, perf, query)` is the per-sample output for one
/// query row; `batch(queries, streamed, perf)` over a query matrix must
/// reproduce it row by row, bit for bit, on every backend. Query counts
/// sweep [`PANEL_QUERY_ROWS`] against 17 streamed rows (two 8-row tiles and
/// one row over), and streamed counts sweep [`PANEL_STREAMED_ROWS`] against
/// 9 query rows (one panel and one row over) — each sweep straddles its own
/// blocking while the other axis straddles too.
fn panel_suite(
    name: &str,
    reference: impl Fn(&HyperMatrix<f64>, Perforation, &HyperVector<f64>) -> Vec<f64>,
    batch: impl Fn(&HyperMatrix<f64>, &HyperMatrix<f64>, Perforation) -> HyperMatrix<f64>,
) {
    let _guard = lock_backend();
    let shapes = PANEL_QUERY_ROWS
        .iter()
        .map(|&rows| (rows, 17))
        .chain(PANEL_STREAMED_ROWS.iter().map(|&streamed| (9, streamed)));
    for (rows, streamed_rows) in shapes {
        for &dim in PANEL_DIMS {
            let seed = (dim * 131 + rows * 17 + streamed_rows) as u64;
            let mut rng = HdcRng::seed_from_u64(seed);
            let queries: HyperMatrix<f64> = gaussian_hypermatrix(rows, dim, &mut rng);
            for (kind, streamed) in streamed_matrices(streamed_rows, dim, seed) {
                for perf in fuzz_perforations(dim) {
                    let expected: Vec<Vec<f64>> = (0..rows)
                        .map(|r| reference(&streamed, perf, &queries.row_vector(r).unwrap()))
                        .collect();
                    for backend in supported_backends() {
                        simd::set_backend(backend).unwrap();
                        let out = batch(&queries, &streamed, perf);
                        assert_eq!((out.rows(), out.cols()), (rows, streamed_rows));
                        for (r, expect) in expected.iter().enumerate() {
                            let context = format!(
                                "{name} {backend} dim={dim} {kind} streamed={streamed_rows} \
                                 rows={rows} row={r} perf={perf:?}"
                            );
                            assert_bits_eq(out.row(r).unwrap(), expect, &context);
                        }
                    }
                }
            }
        }
    }
    simd::set_backend(simd::detected()).unwrap();
}

/// `matmul_batch` (projection rows streamed against query panels) equals
/// the per-sample `matvec` row by row, exactly, on every backend.
#[test]
fn matmul_batch_matches_matvec_on_every_backend() {
    panel_suite(
        "matmul",
        |projection, perf, query| matvec(projection, query, perf).unwrap().as_slice().to_vec(),
        |queries, projection, perf| matmul_batch(queries, projection, perf).unwrap(),
    );
}

/// The dense cosine batch (class rows streamed against query panels)
/// equals the per-sample `cosine_similarity_matrix` row by row, exactly,
/// on every backend.
#[test]
fn dense_cosine_batch_matches_per_sample_on_every_backend() {
    panel_suite(
        "cosine",
        |classes, perf, query| {
            cosine_similarity_matrix(query, classes, perf)
                .unwrap()
                .as_slice()
                .to_vec()
        },
        |queries, classes, perf| cosine_similarity_batch(queries, classes, perf).unwrap(),
    );
}

#[test]
fn segment_accumulation_matches_scalar_across_backends() {
    for &dim in FUZZ_DIMS {
        let rows = bit_matrix(13, dim, 0x5E6 ^ dim as u64);
        let segments: Vec<usize> = (0..13).map(|i| i % 3).collect();
        let init = dense_matrix(3, dim, 0x111 ^ dim as u64);
        let (scalar, simd_outs) =
            on_every_backend(|| accumulate_by_segment_bits(&rows, &segments, &init).unwrap());
        for (backend, simd_out) in simd_outs {
            let context = format!("segments {backend} dim={dim}");
            assert_bits_eq(simd_out.as_slice(), scalar.as_slice(), &context);
        }
    }
}

#[test]
fn batched_matches_sequential_oracle_on_simd_backend() {
    // The per-sample kernels stay scalar by design; the batched kernels on
    // the SIMD backend must still match them row by row.
    let _guard = lock_backend();
    simd::set_backend(simd::detected()).unwrap();
    let dim = 193;
    let queries = bit_matrix(6, dim, 42);
    let classes = bit_matrix(7, dim, 43);
    for perf in fuzz_perforations(dim) {
        let batched = hamming_distance_batch(&queries, &classes, perf).unwrap();
        for (q, query) in queries.iter().enumerate() {
            let seq = classes.hamming_distances(query, perf).unwrap();
            assert_eq!(
                batched.row(q).unwrap(),
                seq.as_slice(),
                "row {q} perf={perf:?}"
            );
        }
    }
}

/// The cosine kernel packs the query columns a perforation visits and
/// streams the class rows strided in place through the dispatched panel
/// kernel. Every row must equal the per-sample reference
/// (`cosine_similarity_matrix`, which walks `perforation.indices()` one pair
/// at a time) exactly, on the scalar backend and on every SIMD backend this
/// host supports, for query counts that leave zero-padded panel lanes and
/// spans whose length the stride does not divide.
#[test]
fn perforated_cosine_matches_per_sample_on_every_backend() {
    let _guard = lock_backend();
    for backend in supported_backends() {
        simd::set_backend(backend).unwrap();
        for &dim in &[7usize, 64, 65, 130, 333, 1027] {
            let classes = dense_matrix(9, dim, 0x51AB ^ dim as u64);
            for query_rows in [1usize, 3, 8, 15] {
                let queries = dense_matrix(query_rows, dim, 0xC051 ^ dim as u64);
                for perf in fuzz_perforations(dim) {
                    let batched = cosine_similarity_batch(&queries, &classes, perf).unwrap();
                    for r in 0..query_rows {
                        let reference = cosine_similarity_matrix(
                            &queries.row_vector(r).unwrap(),
                            &classes,
                            perf,
                        )
                        .unwrap();
                        assert_eq!(
                            batched.row(r).unwrap(),
                            reference.as_slice(),
                            "backend={} dim={dim} rows={query_rows} row={r} perf={perf:?}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }
    simd::set_backend(simd::detected()).unwrap();
}

#[test]
fn whole_range_scores_match_scalar_across_backends() {
    for &dim in &[64usize, 130, 333] {
        let queries = dense_matrix(6, dim, 0x9A9 ^ dim as u64);
        let classes = dense_matrix(5, dim, 0x7C7 ^ dim as u64);
        let (scalar, simd_outs) = on_every_backend(|| {
            score_rows_sharded(
                &queries,
                0..6,
                &classes,
                SimilarityMetric::Cosine,
                Perforation::NONE,
                &ShardPlan::single(5),
            )
            .unwrap()
        });
        for (backend, simd_out) in simd_outs {
            let context = format!("score_rows_sharded {backend} dim={dim}");
            assert_bits_eq(simd_out.as_slice(), scalar.as_slice(), &context);
        }
    }
}

#[test]
fn unsupported_backend_rejected_supported_accepted() {
    let _guard = lock_backend();
    for backend in [KernelBackend::Avx2, KernelBackend::Neon] {
        if simd::supported(backend) {
            simd::set_backend(backend).unwrap();
            assert_eq!(simd::selected(), backend);
        } else {
            assert_eq!(
                simd::set_backend(backend),
                Err(HdcError::UnsupportedBackend {
                    requested: backend.name()
                })
            );
        }
    }
    simd::set_backend(simd::detected()).unwrap();
}

#[test]
fn scalar_backend_makes_zero_simd_dispatches() {
    let _guard = lock_backend();
    simd::set_backend(KernelBackend::Scalar).unwrap();
    let before = simd::simd_dispatch_count();
    let queries = bit_matrix(4, 256, 1);
    let classes = bit_matrix(4, 256, 2);
    hamming_distance_batch(&queries, &classes, Perforation::NONE).unwrap();
    let dq = dense_matrix(4, 256, 3);
    let dc = dense_matrix(4, 256, 4);
    cosine_similarity_batch(&dq, &dc, Perforation::NONE).unwrap();
    accumulate_by_segment_bits(&queries, &[0, 1, 0, 1], &dense_matrix(2, 256, 5)).unwrap();
    assert_eq!(
        simd::simd_dispatch_count(),
        before,
        "scalar backend must never enter a SIMD path"
    );
    simd::set_backend(simd::detected()).unwrap();
}

#[test]
fn simd_backend_registers_dispatches_when_available() {
    if !simd::detected().is_simd() {
        return; // nothing to observe on a scalar-only host
    }
    let _guard = lock_backend();
    simd::set_backend(simd::detected()).unwrap();
    let before = simd::simd_dispatch_count();
    let queries = bit_matrix(2, 256, 6);
    let classes = bit_matrix(2, 256, 7);
    hamming_distance_batch(&queries, &classes, Perforation::NONE).unwrap();
    assert!(simd::simd_dispatch_count() > before);
}

/// Regression for the `HDC_KERNEL_BACKEND=scalar` environment override: the
/// selection is cached once per process, so the override is exercised in a
/// child process (this same test binary, re-running only this test) with
/// the variable set, asserting a scalar selection and zero SIMD dispatches.
#[test]
fn scalar_env_override_forces_scalar_with_zero_dispatches() {
    if std::env::var("HDC_KE_CHILD").is_ok() {
        assert_eq!(simd::selected(), KernelBackend::Scalar);
        let queries = bit_matrix(4, 300, 8);
        let classes = bit_matrix(4, 300, 9);
        hamming_distance_batch(&queries, &classes, Perforation::NONE).unwrap();
        let dq = dense_matrix(4, 300, 10);
        cosine_similarity_batch(&dq, &dq, Perforation::NONE).unwrap();
        assert_eq!(simd::simd_dispatch_count(), 0);
        return;
    }
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "scalar_env_override_forces_scalar_with_zero_dispatches",
            "--exact",
            "--nocapture",
        ])
        .env("HDC_KE_CHILD", "1")
        .env("HDC_KERNEL_BACKEND", "scalar")
        .status()
        .expect("spawn child test process");
    assert!(
        status.success(),
        "child process with scalar override failed"
    );
}

// ---------------------------------------------------------------------------
// class-memory sharding fuzz: sharded kernels and reduction-tree merges must
// be bit-identical to the unsharded kernels for every shard count, dimension,
// perforation mask, and score edge case — on every backend.
// ---------------------------------------------------------------------------

/// Shard counts crossing every interesting boundary: trivial, even/odd splits,
/// counts that don't divide the row count, and counts above it (clamped).
const FUZZ_SHARDS: &[usize] = &[1, 2, 3, 7, 16];

#[test]
fn sharded_kernels_match_unsharded_across_backends() {
    let score = |metric, dq: &HyperMatrix<f64>, dc: &HyperMatrix<f64>, perf, plan: &ShardPlan| {
        score_rows_sharded(dq, 0..dq.rows(), dc, metric, perf, plan).unwrap()
    };
    for &dim in &[1usize, 63, 65, 130, 193, 333] {
        let bq = bit_matrix(5, dim, 0x5AAD ^ dim as u64);
        let bc = bit_matrix(11, dim, 0xC1A5 ^ dim as u64);
        let dq = dense_matrix(5, dim, 0xD0D0 ^ dim as u64);
        let dc = dense_matrix(11, dim, 0xACED ^ dim as u64);
        for perf in fuzz_perforations(dim) {
            for &shards in FUZZ_SHARDS {
                let plan = ShardPlan::split(11, shards);
                let (scalar, simd_outs) = on_every_backend(|| {
                    (
                        hamming_distance_batch_sharded(&bq, &bc, perf, &plan).unwrap(),
                        cosine_similarity_batch_sharded(&dq, &dc, perf, &plan).unwrap(),
                        score(SimilarityMetric::Hamming, &dq, &dc, perf, &plan),
                        score(SimilarityMetric::Cosine, &dq, &dc, perf, &plan),
                    )
                });
                // Bit-identical across backends...
                for (backend, simd_out) in &simd_outs {
                    assert_eq!(
                        scalar.0.as_slice(),
                        simd_out.0.as_slice(),
                        "sharded hamming {backend} dim={dim} shards={shards} perf={perf:?}"
                    );
                    assert_eq!(scalar.1.as_slice(), simd_out.1.as_slice());
                    assert_eq!(scalar.2.as_slice(), simd_out.2.as_slice());
                    assert_eq!(scalar.3.as_slice(), simd_out.3.as_slice());
                }
                // ...and to the unsharded kernels on the current backend.
                let _guard = lock_backend();
                assert_eq!(
                    scalar.0.as_slice(),
                    hamming_distance_batch(&bq, &bc, perf).unwrap().as_slice(),
                    "sharded vs unsharded hamming dim={dim} shards={shards}"
                );
                assert_eq!(
                    scalar.1.as_slice(),
                    cosine_similarity_batch(&dq, &dc, perf).unwrap().as_slice()
                );
                let single = ShardPlan::single(11);
                assert_eq!(
                    scalar.2.as_slice(),
                    score(SimilarityMetric::Hamming, &dq, &dc, perf, &single).as_slice()
                );
                assert_eq!(
                    scalar.3.as_slice(),
                    score(SimilarityMetric::Cosine, &dq, &dc, perf, &single).as_slice()
                );
            }
        }
    }
}

#[test]
fn sharded_selection_merges_match_global_ops_on_edge_cases() {
    use hdc_core::ops::{arg_max, arg_min, arg_top_k};
    use hdc_core::shard::{row_arg_max_sharded, row_arg_min_sharded, row_arg_top_k_sharded};
    // Score rows engineered so every shard boundary can split a tie, a NaN
    // run, or a -0.0/0.0 pair: the merge tree must reproduce the global
    // skip-NaN, total-order, first-occurrence semantics exactly.
    let rows: Vec<Vec<f64>> = vec![
        vec![f64::NAN; 9], // all-NaN -> None
        vec![3.0, f64::NAN, -1.0, -1.0, f64::NAN, -1.0, 2.0, 0.5, -0.25],
        vec![-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0], // -0.0 < 0.0
        vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],      // global tie
        vec![
            f64::NAN,
            f64::NAN,
            5.0,
            f64::NAN,
            f64::NAN,
            f64::NAN,
            5.0,
            f64::NAN,
            4.0,
        ],
        vec![
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            f64::NAN,
            -0.0,
            7.0,
            7.0,
            -3.5,
            1.0,
        ],
    ];
    for row in &rows {
        let expect_min = arg_min(row);
        let expect_max = arg_max(row);
        for &shards in FUZZ_SHARDS {
            let plan = ShardPlan::split(row.len(), shards);
            let merged_min = row_arg_min_sharded(row, &plan);
            let merged_max = row_arg_max_sharded(row, &plan);
            assert_eq!(
                merged_min.value, expect_min,
                "min row={row:?} shards={shards}"
            );
            assert_eq!(
                merged_max.value, expect_max,
                "max row={row:?} shards={shards}"
            );
            assert_eq!(merged_min.merge_ops, plan.shard_count() - 1);
            for k in [1, 3, row.len()] {
                let merged = row_arg_top_k_sharded(row, k, &plan);
                assert_eq!(
                    merged.value,
                    arg_top_k(row, k),
                    "top-{k} row={row:?} shards={shards}"
                );
            }
        }
    }
}

/// Regression for the `HDC_NUM_THREADS` override: thread-count resolution is
/// read from the environment inside the rayon compat layer, so a child
/// process (this same binary, re-running only this test) with the variable
/// set must observe exactly that many threads and still produce sharded
/// results bit-identical to unsharded.
#[test]
fn num_threads_env_override_controls_pool_width() {
    if std::env::var("HDC_KE_THREADS_CHILD").is_ok() {
        assert_eq!(rayon::current_num_threads(), 3);
        let queries = bit_matrix(6, 300, 11);
        let classes = bit_matrix(10, 300, 12);
        let plan = ShardPlan::split(10, 4);
        let sharded =
            hamming_distance_batch_sharded(&queries, &classes, Perforation::NONE, &plan).unwrap();
        let unsharded = hamming_distance_batch(&queries, &classes, Perforation::NONE).unwrap();
        assert_eq!(sharded.as_slice(), unsharded.as_slice());
        return;
    }
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "num_threads_env_override_controls_pool_width",
            "--exact",
            "--nocapture",
        ])
        .env("HDC_KE_THREADS_CHILD", "1")
        .env("HDC_NUM_THREADS", "3")
        .status()
        .expect("spawn child test process");
    assert!(
        status.success(),
        "child process with HDC_NUM_THREADS override failed"
    );
}

/// Query rows the sign-encode suite sweeps: every count up to one panel
/// and one row past it (the sign-bit leg ends at 7 rows), and around the
/// 16-, 32- and 64-row blocks of the fused leg.
const SIGN_QUERY_ROWS: &[usize] = &[
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
];

/// Output dims the sign-encode suite sweeps: below one 8-lane group, one
/// past it, and around the fused leg's 16-row tile.
const SIGN_DIMS: &[usize] = &[1, 7, 9, 15, 16, 17];

/// Features that are not ordinary finite numbers: signed zeros, infinities,
/// NaNs of either sign, subnormals and values whose sums overflow.
const SPECIALS: [f64; 10] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    5e-324,
    -2.5e-308,
    1e308,
    -1e308,
];

/// Two NaNs with distinct payloads (and signs), planted in one row. Which
/// one a chain that meets both keeps is the kernel's choice: a fused
/// multiply-add keeps the multiplicand's, and a mul+add whichever operand
/// its compiled add takes first. Every path must still store the one
/// canonical NaN, `f64::NAN`, for such an output.
const NAN_PAYLOADS: [u64; 2] = [0x7ff8_0000_0000_0a0a, 0xfff8_0000_0000_0b0b];

/// Gaussian queries with special values planted: every fourth row is all
/// `-0.0` (its encode is exactly zero, whatever the signs), every seventh
/// row from row 2 meets both [`NAN_PAYLOADS`] (when it has two features),
/// and each other row holds the next of [`SPECIALS`], in turn, at one
/// feature. So 17 rows plant every special once, at any feature count.
fn sign_queries(rows: usize, features: usize, seed: u64) -> HyperMatrix<f64> {
    let mut rng = HdcRng::seed_from_u64(seed);
    let mut queries: HyperMatrix<f64> = gaussian_hypermatrix(rows, features, &mut rng);
    let mut specials = SPECIALS.iter().cycle();
    for r in 0..rows {
        if r % 4 == 3 {
            for c in 0..features {
                queries.set(r, c, -0.0).unwrap();
            }
        } else if r % 7 == 2 && features >= 2 {
            let first = (r * 3) % (features - 1);
            let second = first + 1 + r % (features - first - 1);
            for (c, bits) in [first, second].into_iter().zip(NAN_PAYLOADS) {
                queries.set(r, c, f64::from_bits(bits)).unwrap();
            }
        } else {
            let special = *specials.next().unwrap();
            queries.set(r, (r * 7) % features, special).unwrap();
        }
    }
    queries
}

#[test]
fn sign_queries_plant_every_special_and_both_nan_payloads() {
    for features in [1, 2, 65, 617] {
        let queries = sign_queries(17, features, 7);
        let planted = |bits: u64| queries.as_slice().iter().any(|x| x.to_bits() == bits);
        for special in SPECIALS {
            assert!(
                planted(special.to_bits()),
                "{special} at {features} features"
            );
        }
        if features >= 2 {
            assert!((0..17).any(|r| meets_two_nans(&queries, r)));
        }
    }
}

/// Whether query row `r` holds both [`NAN_PAYLOADS`].
fn meets_two_nans(queries: &HyperMatrix<f64>, r: usize) -> bool {
    let row = queries.row(r).unwrap();
    NAN_PAYLOADS
        .iter()
        .all(|&bits| row.iter().any(|x| x.to_bits() == bits))
}

/// `matmul_signs` must equal `matmul_batch` on the unpacked ±1 matrix
/// under the same backend, `matvec_signs` must equal `matvec`, and every
/// row of `matmul_signs` must equal `matvec_signs`, bit for bit (NaN bits
/// and the sign of zero included), on every backend and under every
/// perforation of `perfs` (all of [`fuzz_perforations`] when `None`).
fn check_sign_encode(rows: usize, dims: usize, features: usize, perfs: Option<&[Perforation]>) {
    let seed = (rows * 1_000_003 + dims * 1009 + features) as u64;
    let signs = bit_matrix(dims, features, seed);
    let dense: HyperMatrix<f64> = signs.to_dense();
    let queries = sign_queries(rows, features, seed ^ 0x5167);
    let perfs = perfs.map_or_else(|| fuzz_perforations(features), <[_]>::to_vec);
    for perf in perfs {
        let sequential: Vec<HyperVector<f64>> = (0..rows)
            .map(|r| {
                let query = queries.row_vector(r).unwrap();
                let context =
                    format!("matvec_signs dims={dims} features={features} row={r} perf={perf:?}");
                let sequential = matvec_signs(&signs, &query, perf).unwrap();
                let reference = matvec(&dense, &query, perf).unwrap();
                assert_bits_eq(sequential.as_slice(), reference.as_slice(), &context);
                sequential
            })
            .collect();
        for backend in supported_backends() {
            simd::set_backend(backend).unwrap();
            let expected = matmul_batch(&queries, &dense, perf).unwrap();
            let out = matmul_signs(&queries, &signs, perf).unwrap();
            assert_eq!((out.rows(), out.cols()), (rows, dims));
            let context = format!(
                "matmul_signs {backend} rows={rows} dims={dims} features={features} perf={perf:?}"
            );
            assert_bits_eq(out.as_slice(), expected.as_slice(), &context);
            for (r, row) in sequential.iter().enumerate() {
                assert_bits_eq(row.as_slice(), out.row(r).unwrap(), &context);
            }
        }
    }
}

/// [`sign_queries`] with one more row holding `+inf` at feature 0 and
/// `-inf` at the last feature: a chain that meets both with one sign is an
/// invalid `inf - inf`, whose NaN x86 makes negative (`0xfff8…`).
fn nan_queries(rows: usize, features: usize, seed: u64) -> HyperMatrix<f64> {
    let mut flat = sign_queries(rows, features, seed).into_vec();
    let mut inf_row = vec![0.5; features];
    inf_row[0] = f64::INFINITY;
    inf_row[features - 1] = f64::NEG_INFINITY;
    flat.extend(inf_row);
    HyperMatrix::from_flat(rows + 1, features, flat).unwrap()
}

/// Every NaN in `values` is the canonical `f64::NAN`; returns how many
/// NaNs there were.
fn assert_nans_canonical(values: &[f64], context: &str) -> usize {
    let nans: Vec<u64> = values
        .iter()
        .filter(|x| x.is_nan())
        .map(|x| x.to_bits())
        .collect();
    assert!(
        nans.iter().all(|&bits| bits == f64::NAN.to_bits()),
        "{context}: NaN bits {nans:x?}"
    );
    nans.len()
}

/// On rows that make a reduction NaN ([`nan_queries`]: both
/// [`NAN_PAYLOADS`] on one chain, `+inf` and `-inf` on one chain, and every
/// special), `matmul_batch` equals the per-row `matvec`, and the sharded
/// cosine kernels equal the per-row `cosine_similarity_matrix`, bit for
/// bit, on every backend; and every NaN output is `f64::NAN`.
#[test]
fn nan_outputs_are_canonical_and_batched_equals_sequential() {
    let _guard = lock_backend();
    let (mut encode_nans, mut score_nans) = (0, 0);
    for features in [2, 65, 617] {
        let seed = 0x4A4 ^ features as u64;
        let queries = nan_queries(17, features, seed);
        let rows = queries.rows();
        for (kind, streamed) in streamed_matrices(17, features, seed) {
            for perf in fuzz_perforations(features) {
                let context = format!("{kind} features={features} perf={perf:?}");
                let query = |r| queries.row_vector(r).unwrap();
                let encodes: Vec<HyperVector<f64>> = (0..rows)
                    .map(|r| matvec(&streamed, &query(r), perf).unwrap())
                    .collect();
                let scores: Vec<HyperVector<f64>> = (0..rows)
                    .map(|r| cosine_similarity_matrix(&query(r), &streamed, perf).unwrap())
                    .collect();
                for (encode, score) in encodes.iter().zip(&scores) {
                    encode_nans += assert_nans_canonical(encode.as_slice(), &context);
                    score_nans += assert_nans_canonical(score.as_slice(), &context);
                }
                for backend in supported_backends() {
                    simd::set_backend(backend).unwrap();
                    let context = format!("{backend} {context}");
                    let encoded = matmul_batch(&queries, &streamed, perf).unwrap();
                    let mut batches = vec![("matmul_batch", encoded, &encodes)];
                    for &shards in FUZZ_SHARDS {
                        let plan = ShardPlan::split(17, shards);
                        let sharded =
                            cosine_similarity_batch_sharded(&queries, &streamed, perf, &plan);
                        batches.push(("cosine_batch_sharded", sharded.unwrap(), &scores));
                        let cosine = SimilarityMetric::Cosine;
                        let scored =
                            score_rows_sharded(&queries, 0..rows, &streamed, cosine, perf, &plan);
                        batches.push(("score_rows_sharded", scored.unwrap(), &scores));
                    }
                    for (name, batch, expected) in batches {
                        for (r, expect) in expected.iter().enumerate() {
                            let context = format!("{name} {context} row={r}");
                            assert_bits_eq(batch.row(r).unwrap(), expect.as_slice(), &context);
                        }
                    }
                }
            }
        }
        // Some streamed row has one sign at both of the inf row's
        // features, so its dense encode meets `inf - inf`.
        let last = queries.row_vector(rows - 1).unwrap();
        for (kind, streamed) in streamed_matrices(17, features, seed) {
            let encode = matvec(&streamed, &last, Perforation::NONE).unwrap();
            assert!(encode.iter().any(|x| x.is_nan()), "{kind} {features}");
        }
    }
    assert!(
        encode_nans > 0 && score_nans > 0,
        "{encode_nans} {score_nans}"
    );
    simd::set_backend(simd::detected()).unwrap();
}

/// Dense and strided: the perforations the 2048-dim cases run, which
/// are the costly ones.
const WIDE_PERFS: &[Perforation] = &[
    Perforation::NONE,
    Perforation {
        begin: 0,
        end: usize::MAX,
        stride: 2,
    },
];

#[test]
fn sign_encode_matches_unpacked_encode_across_rows_and_dims() {
    let _guard = lock_backend();
    for &rows in SIGN_QUERY_ROWS {
        for &dims in SIGN_DIMS {
            for features in [1, 64, 65, 130] {
                check_sign_encode(rows, dims, features, None);
            }
        }
    }
    for rows in [0, 1, 2, 7, 8, 9, 16, 17, 33, 64] {
        check_sign_encode(rows, 2048, 65, Some(WIDE_PERFS));
    }
    simd::set_backend(simd::detected()).unwrap();
}

#[test]
fn sign_encode_matches_unpacked_encode_across_feature_counts() {
    let _guard = lock_backend();
    for features in (1..=130).chain([617]) {
        for &dims in SIGN_DIMS {
            for rows in [3, 9, 17] {
                check_sign_encode(rows, dims, features, None);
            }
        }
    }
    check_sign_encode(1, 2048, 617, Some(WIDE_PERFS));
    check_sign_encode(7, 2048, 617, Some(&WIDE_PERFS[..1]));
    check_sign_encode(9, 2048, 617, Some(WIDE_PERFS));
    simd::set_backend(simd::detected()).unwrap();
}

/// A ±1 matrix gives its signs back exactly; one entry off ±1 (a zero,
/// a Gaussian value) gives none, since the bits would not unpack to it.
#[test]
fn bipolar_matrices_and_only_they_have_sign_bits() {
    let mut rng = HdcRng::seed_from_u64(0xB1B0);
    let bipolar: HyperMatrix<f64> = bipolar_hypermatrix(9, 70, &mut rng);
    let bipolar = Arc::new(bipolar);
    let signs = BitMatrix::from_bipolar(&bipolar).expect("a ±1 matrix has sign bits");
    assert_eq!(&signs.to_dense::<f64>(), bipolar.as_ref());
    let mut zeroed = bipolar.as_ref().clone();
    zeroed.set(4, 33, 0.0).unwrap();
    assert!(BitMatrix::from_bipolar(&Arc::new(zeroed)).is_none());
    let gaussian: HyperMatrix<f64> = gaussian_hypermatrix(9, 70, &mut rng);
    assert!(BitMatrix::from_bipolar(&Arc::new(gaussian)).is_none());
}

/// The sequential oracle's chains start from `+0.0`, like the batched
/// kernels': a projection `[1, -1, 1]` against `[-0.0, 0.0, -0.0]` sums
/// three products of `-0.0` to `+0.0` on both paths, so does a cosine
/// between orthogonal vectors whose products are all `-0.0`, and the norm
/// of an empty vector is `+0.0`.
#[test]
fn sequential_chains_start_from_positive_zero() {
    let projection = HyperMatrix::from_flat(1, 3, vec![1.0, -1.0, 1.0]).unwrap();
    let query = HyperVector::from_vec(vec![-0.0, 0.0, -0.0]);
    let queries = HyperMatrix::from_flat(1, 3, query.as_slice().to_vec()).unwrap();
    for perf in [Perforation::NONE, Perforation::strided(0, 3, 2)] {
        let sequential = matvec(&projection, &query, perf).unwrap();
        let batched = matmul_batch(&queries, &projection, perf).unwrap();
        assert_bits_eq(sequential.as_slice(), &[0.0], &format!("matvec {perf}"));
        assert_bits_eq(batched.as_slice(), &[0.0], &format!("matmul_batch {perf}"));
        let signs = BitMatrix::from_bipolar(&Arc::new(projection.clone())).unwrap();
        let sequential = matvec_signs(&signs, &query, perf).unwrap();
        assert_bits_eq(
            sequential.as_slice(),
            &[0.0],
            &format!("matvec_signs {perf}"),
        );
    }
    let a = HyperVector::from_vec(vec![1.0, 0.0]);
    let b = HyperVector::from_vec(vec![-0.0, -1.0]);
    let classes = HyperMatrix::from_flat(1, 2, b.as_slice().to_vec()).unwrap();
    let batch_queries = HyperMatrix::from_flat(1, 2, a.as_slice().to_vec()).unwrap();
    for perf in [Perforation::NONE, Perforation::segment(0, 2)] {
        let sequential = cosine_similarity(&a, &b, perf).unwrap();
        let batched = cosine_similarity_batch(&batch_queries, &classes, perf).unwrap();
        assert_bits_eq(&[sequential], batched.as_slice(), &format!("cosine {perf}"));
        assert_bits_eq(&[sequential], &[0.0], &format!("cosine {perf}"));
    }
    let empty = HyperVector::<f64>::zeros(0);
    for perf in [Perforation::NONE, Perforation::strided(0, usize::MAX, 2)] {
        let norm = hdc_core::matmul::l2norm_perforated(&empty, perf).unwrap();
        assert_bits_eq(&[norm], &[0.0], &format!("l2norm {perf}"));
    }
}

/// A projection with no columns encodes every query to `d` zeros on every
/// path (the sequential oracle used to return an empty vector).
#[test]
fn zero_column_projection_encodes_to_zeros() {
    let projection = HyperMatrix::<f64>::zeros(5, 0);
    let signs = BitMatrix::zeros(5, 0);
    let query = HyperVector::<f64>::zeros(0);
    let queries = HyperMatrix::<f64>::zeros(2, 0);
    assert_bits_eq(
        matvec(&projection, &query, Perforation::NONE)
            .unwrap()
            .as_slice(),
        &[0.0; 5],
        "matvec",
    );
    assert_bits_eq(
        matvec_signs(&signs, &query, Perforation::NONE)
            .unwrap()
            .as_slice(),
        &[0.0; 5],
        "matvec_signs",
    );
    assert_bits_eq(
        matmul_batch(&queries, &projection, Perforation::NONE)
            .unwrap()
            .as_slice(),
        &[0.0; 10],
        "matmul_batch",
    );
    assert_bits_eq(
        matmul_signs(&queries, &signs, Perforation::NONE)
            .unwrap()
            .as_slice(),
        &[0.0; 10],
        "matmul_signs",
    );
}
