//! Hoisting of loop-invariant device data movement out of stage loops.
//!
//! Listing 6 of the paper shows the code HPVM-HDC emits for the digital
//! ASIC: the random-projection base memory and the class memory are
//! programmed *once* before the training / inference loops, and only the
//! per-sample feature vector is transferred inside the loop. Without this
//! optimization every iteration would re-program the device, which over a
//! 10 kbps link dominates end-to-end time.
//!
//! The pass computes, for every stage node, the set of values it reads that
//! are not modified per sample and records them as `persistent_values`. The
//! runtime and the accelerator back ends charge one transfer per persistent
//! value per stage instead of one per iteration.

use hdc_ir::program::{NodeBody, Program, ValueId};

/// Statistics reported by [`hoist_data_movement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataMovementReport {
    /// Number of stage nodes examined.
    pub stages: usize,
    /// Number of values marked persistent across all stages.
    pub hoisted_values: usize,
    /// Total bytes that now move once per stage instead of once per sample.
    pub hoisted_bytes_per_iteration: usize,
}

/// Mark loop-invariant stage inputs as device-persistent.
pub fn hoist_data_movement(program: &mut Program) -> DataMovementReport {
    let mut report = DataMovementReport::default();
    // Collect the byte sizes first to avoid borrowing issues while mutating.
    let value_bytes: Vec<usize> = program
        .values()
        .iter()
        .map(|v| v.ty.storage_bytes())
        .collect();
    for node in program.nodes_mut() {
        if let NodeBody::Stage(stage) = &mut node.body {
            report.stages += 1;
            let written: Vec<ValueId> =
                stage.body.iter().flat_map(|i| i.written_values()).collect();
            let mut persistent: Vec<ValueId> = Vec::new();
            // Candidates: everything the body reads plus the class matrix,
            // minus anything written per sample and minus the per-sample
            // query slot.
            let mut candidates: Vec<ValueId> = stage
                .body
                .iter()
                .flat_map(|i| i.read_values().collect::<Vec<_>>())
                .collect();
            if let Some(c) = stage.interface.classes {
                candidates.push(c);
            }
            candidates.sort_unstable();
            candidates.dedup();
            for v in candidates {
                if v == stage.body_query || written.contains(&v) {
                    continue;
                }
                persistent.push(v);
            }
            report.hoisted_values += persistent.len();
            report.hoisted_bytes_per_iteration += persistent
                .iter()
                .map(|v| value_bytes.get(v.index()).copied().unwrap_or(0))
                .sum::<usize>();
            stage.persistent_values = persistent;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::element::ElementKind;
    use hdc_ir::builder::ProgramBuilder;
    use hdc_ir::stage::ScorePolarity;

    fn classification_stages() -> Program {
        let mut b = ProgramBuilder::new("dm");
        let features = b.input_matrix("features", ElementKind::F32, 100, 617);
        let rp = b.input_matrix("rp", ElementKind::F32, 2048, 617);
        let classes = b.input_matrix("classes", ElementKind::F32, 26, 2048);
        let labels = b.input_indices("labels", 100);
        let encoded = b.encoding_loop("encode", features, 2048, |b, q| b.matmul(q, rp));
        b.training_loop(
            "train",
            encoded,
            labels,
            classes,
            2,
            ScorePolarity::Distance,
            |b, q| b.hamming_distance(q, classes),
        );
        let preds = b.inference_loop(
            "infer",
            encoded,
            classes,
            ScorePolarity::Distance,
            |b, q| b.hamming_distance(q, classes),
        );
        b.mark_output(preds);
        b.finish()
    }

    #[test]
    fn stage_invariants_become_persistent() {
        let mut p = classification_stages();
        let report = hoist_data_movement(&mut p);
        assert_eq!(report.stages, 3);
        assert!(
            report.hoisted_values >= 3,
            "rp + classes (x2 stages) at least"
        );
        assert!(report.hoisted_bytes_per_iteration > 0);
        for node in p.nodes() {
            if let NodeBody::Stage(stage) = &node.body {
                assert!(
                    !stage.persistent_values.contains(&stage.body_query),
                    "per-sample query must not be persistent"
                );
                match node.name.as_str() {
                    "encode" => {
                        // the projection matrix is loop invariant
                        assert_eq!(stage.persistent_values.len(), 1);
                    }
                    "train" | "infer" => {
                        assert!(stage
                            .persistent_values
                            .iter()
                            .any(|v| p.value(*v).name == "classes"));
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn values_written_in_body_are_not_hoisted() {
        let mut b = ProgramBuilder::new("written");
        let features = b.input_matrix("features", ElementKind::F32, 10, 32);
        let scratch = b.input_matrix("scratch", ElementKind::F32, 1, 64);
        let encoded = b.encoding_loop("encode", features, 64, |b, q| {
            let rp = b.random_bipolar_matrix(ElementKind::F32, 64, 32);
            let e = b.matmul(q, rp);
            b.set_matrix_row(scratch, e, 0);
            e
        });
        b.mark_output(encoded);
        let mut p = b.finish();
        hoist_data_movement(&mut p);
        for node in p.nodes() {
            if let NodeBody::Stage(stage) = &node.body {
                assert!(
                    !stage.persistent_values.contains(&scratch),
                    "scratch is written per sample and must be re-transferred"
                );
            }
        }
    }

    #[test]
    fn idempotent() {
        let mut p = classification_stages();
        let first = hoist_data_movement(&mut p);
        let second = hoist_data_movement(&mut p);
        assert_eq!(first, second);
    }
}
