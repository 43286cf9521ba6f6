//! End-to-end test of the compile→execute spine on the paper's Listing 1:
//! random-projection encode → Hamming distance scoring → arg-min, built with
//! the HDC++ builder DSL, compiled through `compile()` (binarize →
//! perforate → hoist → target-assign → DCE), executed on
//! `hdc-runtime`, and checked against the direct `hdc-core` reference path.

use hpvm_hdc::core::prelude::*;
use hpvm_hdc::ir::prelude::*;
use hpvm_hdc::passes::{compile, CompileOptions, PerforationConfig};
use hpvm_hdc::runtime::{Executor, Value};

const FEATURES: usize = 617;
const DIM: usize = 2048;
const CLASSES: usize = 26;

struct Listing1 {
    program: hpvm_hdc::ir::Program,
    label: ValueId,
}

/// Build Listing 1 with explicit `sign` binarization points, the form the
/// automatic-binarization pass recognizes (Table 3 configuration III).
fn build_listing1() -> Listing1 {
    let mut b = ProgramBuilder::new("listing1");
    let features = b.input_vector("features", ElementKind::F32, FEATURES);
    let rp = b.input_matrix("rp", ElementKind::F32, DIM, FEATURES);
    let classes = b.input_matrix("classes", ElementKind::F32, CLASSES, DIM);
    let encoded = b.matmul(features, rp);
    let encoded_b = b.sign(encoded);
    let classes_b = b.sign(classes);
    let dists = b.hamming_distance(encoded_b, classes_b);
    let label = b.arg_min(dists);
    // A dead computation the DCE pass must remove.
    let dead = b.sign_flip(encoded);
    let _dead2 = b.absolute_value(dead);
    b.mark_output(label);
    Listing1 {
        program: b.finish(),
        label,
    }
}

struct Fixture {
    features: HyperVector<f64>,
    rp: HyperMatrix<f64>,
    classes: HyperMatrix<f64>,
}

/// Deterministic inputs: a bipolar projection, Gaussian features, and class
/// hypervectors built so that class 13 is the true nearest neighbour.
fn fixture() -> Fixture {
    let mut rng = HdcRng::seed_from_u64(0xC1A55);
    let proj = RandomProjection::<f64>::bipolar(DIM, FEATURES, &mut rng);
    let features: HyperVector<f64> =
        hpvm_hdc::core::random::gaussian_hypervector(FEATURES, &mut rng);
    let target = proj.encode(&features).sign();
    let class_rows: Vec<HyperVector<f64>> = (0..CLASSES)
        .map(|c| {
            if c == 13 {
                // Near-copy of the encoded query: flip a handful of elements.
                let mut v = target.clone();
                for i in 0..40 {
                    let idx = (i * 53) % DIM;
                    v.set(idx, -v.get(idx).unwrap()).unwrap();
                }
                v
            } else {
                hpvm_hdc::core::random::bipolar_hypervector(DIM, &mut rng)
            }
        })
        .collect();
    Fixture {
        features,
        rp: proj.matrix().clone(),
        classes: HyperMatrix::from_rows(class_rows).unwrap(),
    }
}

/// The direct hdc-core reference path for the same computation, using the
/// bit-packed kernels explicitly.
fn reference_label(fx: &Fixture) -> usize {
    let encoded = hpvm_hdc::core::matmul::matvec(&fx.rp, &fx.features, Perforation::NONE).unwrap();
    let query = BitVector::from_dense(&encoded.sign());
    let classes = BitMatrix::from_dense(&fx.classes.sign());
    let dists = classes
        .hamming_distances(&query, Perforation::NONE)
        .unwrap();
    arg_min(dists.as_slice()).unwrap()
}

fn run_compiled(
    program: &hpvm_hdc::ir::Program,
    label: ValueId,
    fx: &Fixture,
) -> (usize, hpvm_hdc::runtime::ExecStats) {
    let mut exec = Executor::new(program).unwrap();
    exec.bind("features", Value::vector(fx.features.clone()))
        .unwrap();
    exec.bind("rp", Value::matrix(fx.rp.clone())).unwrap();
    exec.bind("classes", Value::matrix(fx.classes.clone()))
        .unwrap();
    let outputs = exec.run().unwrap();
    (outputs.scalar(label).unwrap() as usize, exec.stats())
}

#[test]
fn listing1_binarized_pipeline_matches_reference() {
    let Listing1 { mut program, label } = build_listing1();
    let fx = fixture();

    // Default options: binarize → hoist → target-assign → dce.
    let report = compile(&mut program, &CompileOptions::default()).unwrap();

    // The pipeline did real work: values were binarized and the dead
    // instructions removed.
    let binarize = report.binarize().unwrap();
    assert!(binarize.binarized_values >= 2);
    assert!(binarize.reduction_factor() > 1.0);
    assert_eq!(report.dce.removed_instrs, 2);

    let (compiled_label, stats) = run_compiled(&program, label, &fx);
    assert!(
        stats.bit_kernel_ops >= 1,
        "binarized program must use the popcount kernels"
    );
    assert_eq!(compiled_label, 13, "constructed nearest class");
    assert_eq!(compiled_label, reference_label(&fx));
}

#[test]
fn listing1_unbinarized_and_binarized_agree() {
    let fx = fixture();

    // Unbinarized: the paper's baseline configuration.
    let Listing1 { mut program, label } = build_listing1();
    compile(&mut program, &CompileOptions::baseline()).unwrap();
    let (plain_label, plain_stats) = run_compiled(&program, label, &fx);
    assert_eq!(plain_stats.bit_kernel_ops, 0, "dense path stays dense");

    // Binarized: the default options.
    let Listing1 { mut program, label } = build_listing1();
    compile(&mut program, &CompileOptions::default()).unwrap();
    let (bin_label, _) = run_compiled(&program, label, &fx);

    // Binarization is exact for this program (the sign points are explicit),
    // so the classification must agree, not merely approximate.
    assert_eq!(plain_label, bin_label);
    assert_eq!(plain_label, reference_label(&fx));
}

#[test]
fn listing1_perforated_pipeline_still_classifies() {
    let Listing1 { mut program, label } = build_listing1();
    let fx = fixture();
    let options = CompileOptions {
        perforation: PerforationConfig::strided_similarity(2),
        ..Default::default()
    };
    compile(&mut program, &options).unwrap();
    // Half the positions still overwhelmingly favour the constructed class.
    let (label_value, _) = run_compiled(&program, label, &fx);
    assert_eq!(label_value, 13);
}
