//! The paper's Listing 1, end to end: build with the HDC++ builder DSL,
//! compile through the full pass pipeline, execute on the reference
//! interpreter.
//!
//! This is the canonical minimal program — `README.md` and
//! `docs/architecture.md` both point here instead of embedding a snippet
//! that could drift. Run it with:
//!
//! ```text
//! cargo run --release --example listing1
//! ```

use hpvm_hdc::core::prelude::*;
use hpvm_hdc::ir::prelude::*;
use hpvm_hdc::passes::{compile, CompileOptions};
use hpvm_hdc::runtime::{Executor, Value};

const FEATURES: usize = 617;
const DIM: usize = 2048;
const CLASSES: usize = 26;

fn main() {
    // ---- Build: encode → score → classify (Listing 1). --------------------
    let mut b = ProgramBuilder::new("classify_one");
    let features = b.input_vector("features", ElementKind::F32, FEATURES);
    let rp = b.input_matrix("rp", ElementKind::F32, DIM, FEATURES);
    let classes = b.input_matrix("classes", ElementKind::F32, CLASSES, DIM);
    let encoded = b.matmul(features, rp);
    let signed = b.sign(encoded);
    let classes_b = b.sign(classes);
    let dists = b.hamming_distance(signed, classes_b);
    let label = b.arg_min(dists);
    b.mark_output(label);
    let mut program = b.finish();

    // ---- Compile: binarize → hoist → target-assign → dce. ------------------
    // The IR is re-verified after every pass; the report prints one line per
    // pass.
    let report = compile(&mut program, &CompileOptions::default()).expect("pipeline accepts IR");
    println!("== compile report ==");
    print!("{report}");
    println!("\n== binarized IR ==");
    print!("{}", hpvm_hdc::ir::printer::print_program(&program));

    // ---- Execute on the reference interpreter. -----------------------------
    // Deterministic inputs: a bipolar projection, Gaussian features, and
    // class hypervectors constructed so class 13 is the nearest neighbour.
    let mut rng = HdcRng::seed_from_u64(0xC1A55);
    let proj = RandomProjection::<f64>::bipolar(DIM, FEATURES, &mut rng);
    let x: HyperVector<f64> = hpvm_hdc::core::random::gaussian_hypervector(FEATURES, &mut rng);
    let target = proj.encode(&x).sign();
    let class_rows: Vec<HyperVector<f64>> = (0..CLASSES)
        .map(|c| {
            if c == 13 {
                target.clone()
            } else {
                hpvm_hdc::core::random::bipolar_hypervector(DIM, &mut rng)
            }
        })
        .collect();

    let mut exec = Executor::new(&program).expect("program verifies");
    exec.bind("features", Value::vector(x)).expect("shape ok");
    exec.bind("rp", Value::matrix(proj.matrix().clone()))
        .expect("shape ok");
    exec.bind(
        "classes",
        Value::matrix(HyperMatrix::from_rows(class_rows).expect("equal dims")),
    )
    .expect("shape ok");
    let outputs = exec.run().expect("program executes");

    let predicted = outputs.scalar(label).expect("label output") as usize;
    println!("== execution ==");
    println!("predicted class: {predicted} (expected 13)");
    println!("stats: {:?}", exec.stats());
    assert_eq!(predicted, 13);
}
