//! Exact cost accounting on the Listing-1 kernel.
//!
//! The worked example of `docs/accelerator-model.md`: the paper's Listing-1
//! inference (2048-dim hypervectors, 26 classes) expressed as a binarized
//! `inference_loop` stage. Every integer the model reports — programming
//! bits, per-sample stream bits, datapath cycles — is pinned against the
//! hand-computed equations, the derived seconds/energy are pinned against
//! the parameter arithmetic, and the runtime's extended `ExecStats`
//! accounting (`accelerated_stage_samples`) is pinned against the workload
//! shape. Functional outputs are asserted bit-identical to the sequential
//! oracle before anything else.

use hdc_accel::{AccelParams, AcceleratedExecutor, AcceleratorModel};
use hdc_core::element::ElementKind;
use hdc_core::prelude::*;
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::Program;
use hdc_ir::stage::ScorePolarity;
use hdc_ir::Target;
use hdc_runtime::{ExecMode, Executor, Value};

const DIM: usize = 2048;
const CLASSES: usize = 26;
const QUERIES: usize = 100;

fn listing1_kernel() -> Program {
    let mut b = ProgramBuilder::new("listing1_kernel");
    let q = b.input_matrix("queries", ElementKind::Bit, QUERIES, DIM);
    let c = b.input_matrix("classes", ElementKind::Bit, CLASSES, DIM);
    let preds = b.inference_loop("infer", q, c, ScorePolarity::Distance, |b, s| {
        b.hamming_distance(s, c)
    });
    b.mark_output(preds);
    b.finish()
}

fn workload() -> (Value, Value) {
    let mut rng = HdcRng::seed_from_u64(0x11571);
    let classes: HyperMatrix<f64> = hdc_core::random::bipolar_hypermatrix(CLASSES, DIM, &mut rng);
    let queries = HyperMatrix::from_rows(
        (0..QUERIES)
            .map(|i| {
                let mut v = classes.row_vector(i % CLASSES).unwrap();
                for k in 0..DIM / 10 {
                    let idx = (k * 11 + i * 17) % DIM;
                    let flipped = -v.get(idx).unwrap();
                    v.set(idx, flipped).unwrap();
                }
                v
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    (
        Value::bit_matrix(BitMatrix::from_dense(&queries)),
        Value::bit_matrix(BitMatrix::from_dense(&classes)),
    )
}

#[test]
fn listing1_accounting_is_exact() {
    let program = listing1_kernel();
    let (queries, classes) = workload();

    // The sequential per-sample oracle.
    let mut oracle = Executor::new(&program).unwrap();
    oracle.set_mode(ExecMode::Sequential);
    oracle.bind("queries", queries.clone()).unwrap();
    oracle.bind("classes", classes.clone()).unwrap();
    let expected = oracle.run().unwrap();
    assert_eq!(
        oracle.stats().accelerated_stage_samples,
        0,
        "no stage is accelerator-placed in the un-retargeted program"
    );

    let model = AcceleratorModel::default();
    let ax = AcceleratedExecutor::new(&program, Target::DigitalAsic, model.clone());
    let run = ax
        .run_with(|exec| {
            exec.bind("queries", queries.clone())?;
            exec.bind("classes", classes.clone())?;
            Ok(())
        })
        .unwrap();

    // Functional equivalence first: the model never touches outputs.
    let preds = expected.iter().next().unwrap().0;
    assert_eq!(
        run.outputs.get(preds).unwrap(),
        expected.get(preds).unwrap()
    );

    // Extended ExecStats: every per-sample body execution of the
    // accelerator-placed stage is counted.
    assert_eq!(run.stats.exec.accelerated_stage_samples, QUERIES);
    assert_eq!(run.stats.exec.stage_samples, QUERIES);

    // The modeled stage, against the hand-derived equations.
    assert_eq!(run.stats.modeled.accelerated_stages(), 1);
    let stage = &run.stats.modeled.stages[0];
    let p = AccelParams::digital_asic();

    // Programming: the hoisted 26x2048-bit class memory, once.
    let programming_bits = (CLASSES * DIM) as u64;
    assert_eq!(stage.programming_bits, programming_bits);
    // Streaming: a 2048-bit query row in, a 32-bit label out, per sample.
    let stream_bits = (DIM + 32) as u64;
    assert_eq!(stage.stream_bits_per_sample, stream_bits);
    assert_eq!(stage.readback_bits, 0);
    // Compute: ceil(26 * 2048 * 1 bit / 8192 lane bits) = 7 cycles/sample.
    let cycles = ((CLASSES * DIM) as u64).div_ceil(p.reduce_lane_bits);
    assert_eq!(cycles, 7);
    assert_eq!(stage.cycles_per_sample, cycles);
    assert_eq!(stage.samples, QUERIES);

    // Derived seconds are exactly the integers over the parameter rates.
    let n = QUERIES as f64;
    assert_eq!(
        stage.programming_seconds,
        programming_bits as f64 / p.program_bits_per_sec
    );
    assert_eq!(
        stage.streaming_seconds,
        n * stream_bits as f64 / p.stream_bits_per_sec
    );
    assert_eq!(stage.compute_seconds, n * cycles as f64 / p.clock_hz);
    assert_eq!(
        stage.accel_seconds(),
        stage.programming_seconds + stage.streaming_seconds + stage.compute_seconds
    );

    // Energy: every moved bit plus every datapath cycle.
    let moved_bits = programming_bits as f64 + n * stream_bits as f64;
    assert_eq!(
        stage.energy_joules,
        moved_bits * p.energy_per_bit_j + n * cycles as f64 * p.energy_per_cycle_j
    );

    // CPU roofline over the same nest: 26*2048 popcount-amortized
    // iterations at 2/64 flop-equivalents and 2/8 bytes each.
    let iters = (CLASSES * DIM) as f64;
    let cpu_per_sample = (iters * (2.0 / 64.0) / model.cpu.flops_per_sec)
        .max(iters * 0.25 / model.cpu.bytes_per_sec);
    assert_eq!(stage.cpu_seconds, n * cpu_per_sample);
    assert!(
        stage.speedup() > 1.0,
        "the modeled ASIC must beat the modeled CPU on Listing 1: {}",
        stage.speedup()
    );
}

#[test]
fn listing1_reram_accounting_is_exact() {
    let program = listing1_kernel();
    let (queries, classes) = workload();
    let ax = AcceleratedExecutor::new(
        &program,
        Target::ReRamAccelerator,
        AcceleratorModel::default(),
    );
    let run = ax
        .run_with(|exec| {
            exec.bind("queries", queries)?;
            exec.bind("classes", classes)?;
            Ok(())
        })
        .unwrap();
    let stage = &run.stats.modeled.stages[0];
    let p = AccelParams::reram();
    // The whole 26x2048 reduction fits one in-array evaluation.
    assert_eq!(stage.cycles_per_sample, 1);
    assert_eq!(
        stage.programming_seconds,
        (CLASSES * DIM) as f64 / p.program_bits_per_sec
    );
    // Programming the ReRAM cells costs more time than the ASIC's link.
    assert!(
        stage.programming_seconds
            > (CLASSES * DIM) as f64 / AccelParams::digital_asic().program_bits_per_sec
    );
}
