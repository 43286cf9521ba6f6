//! Def-use chains over the IR and the one worklist engine every dataflow
//! problem over it is solved with.
//!
//! An instruction reads its value operands and writes its result (and, for
//! `set_matrix_row` / `accumulate_row`, its first operand in place). A
//! stage also moves data *structurally*: the executor copies one row of
//! `interface.queries` into `body_query` before each body run, and the
//! stage semantics consume `body_result` to produce `interface.output`.
//! [`DefUse`] models those structural flows as explicit sites alongside the
//! per-instruction ones, so facts propagate *through* stage interfaces
//! instead of stopping at the node boundary.
//!
//! Three clients pose their problems as seeds plus a transfer function
//! over [`solve`]: automatic binarization (`hdc-passes`, both directions),
//! dead-code elimination and the analyzer's liveness (both through
//! [`live_values`]), and the analyzer's bit-taint (`hdc-analyze`, forward).

use crate::program::{NodeBody, NodeId, Program, ValueId};
use std::collections::VecDeque;

/// What kind of dataflow site this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// One instruction inside a node body; `index` is its position there.
    Instr {
        /// The containing node.
        node: NodeId,
        /// Position within the node's instruction list.
        index: usize,
    },
    /// The structural stage flow `interface.queries → body_query`: the
    /// executor writes one query row into the body-query slot per
    /// iteration.
    StageQueryFlow {
        /// The stage node.
        node: NodeId,
    },
    /// The structural stage flow `body_result (+ classes/labels) →
    /// interface.output`: the stage semantics consume the per-sample result
    /// to build the stage output.
    StageResultFlow {
        /// The stage node.
        node: NodeId,
    },
    /// The structural definition of a `ParallelFor` instance index.
    ParallelForIndex {
        /// The loop node.
        node: NodeId,
    },
}

impl SiteKind {
    /// The node this site belongs to.
    pub fn node(self) -> NodeId {
        match self {
            SiteKind::Instr { node, .. }
            | SiteKind::StageQueryFlow { node }
            | SiteKind::StageResultFlow { node }
            | SiteKind::ParallelForIndex { node } => node,
        }
    }
}

/// One dataflow site: something that reads values and writes values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// The site kind (and IR position).
    pub kind: SiteKind,
    /// Values this site reads.
    pub reads: Vec<ValueId>,
    /// Values this site writes.
    pub writes: Vec<ValueId>,
}

/// Def-use chains for a whole program: every site, plus per-value indices
/// of the sites that define and use it.
#[derive(Debug, Clone)]
pub struct DefUse {
    /// All sites, in program order.
    pub sites: Vec<Site>,
    /// For each value (by index), the sites writing it.
    pub defs: Vec<Vec<usize>>,
    /// For each value (by index), the sites reading it.
    pub uses: Vec<Vec<usize>>,
}

impl DefUse {
    /// Build the def-use chains of `program`, including the structural
    /// stage and parallel-for flows.
    pub fn new(program: &Program) -> Self {
        let mut sites = Vec::new();
        for (ni, node) in program.nodes().iter().enumerate() {
            let node_id = NodeId::new(ni);
            match &node.body {
                NodeBody::Leaf { .. } => {}
                NodeBody::ParallelFor { index, .. } => sites.push(Site {
                    kind: SiteKind::ParallelForIndex { node: node_id },
                    reads: Vec::new(),
                    writes: vec![*index],
                }),
                NodeBody::Stage(stage) => sites.push(Site {
                    kind: SiteKind::StageQueryFlow { node: node_id },
                    reads: vec![stage.interface.queries],
                    writes: vec![stage.body_query],
                }),
            }
            for (ii, instr) in node.instrs().iter().enumerate() {
                sites.push(Site {
                    kind: SiteKind::Instr {
                        node: node_id,
                        index: ii,
                    },
                    reads: instr.read_values().collect(),
                    writes: instr.written_values(),
                });
            }
            if let NodeBody::Stage(stage) = &node.body {
                let mut reads = vec![stage.body_result];
                reads.extend(stage.interface.classes);
                reads.extend(stage.interface.labels);
                sites.push(Site {
                    kind: SiteKind::StageResultFlow { node: node_id },
                    reads,
                    writes: vec![stage.interface.output],
                });
            }
        }
        let n = program.values().len();
        let mut defs = vec![Vec::new(); n];
        let mut uses = vec![Vec::new(); n];
        for (si, site) in sites.iter().enumerate() {
            for w in &site.writes {
                defs[w.index()].push(si);
            }
            for r in &site.reads {
                uses[r.index()].push(si);
            }
        }
        DefUse { sites, defs, uses }
    }
}

/// Which way facts flow through sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Reads feed writes (taint, shapes).
    Forward,
    /// Writes feed reads (liveness).
    Backward,
    /// Each side feeds the other (binarization: a later use can taint an
    /// earlier def through an element-wise op).
    Both,
}

/// A join-semilattice fact attached to each value.
pub trait Fact: Clone + Default {
    /// Join `other` into `self`, returning whether `self` changed. The
    /// worklist engine terminates because facts only ever grow.
    fn join(&mut self, other: &Self) -> bool;
}

impl Fact for bool {
    fn join(&mut self, other: &bool) -> bool {
        let changed = *other && !*self;
        *self |= *other;
        changed
    }
}

/// Solve a per-value dataflow problem to fixpoint with a worklist.
///
/// `facts` starts from `seeds`; every site is visited at least once, and
/// `transfer` returns `(value, fact)` updates the engine joins in. When a
/// value's fact grows, the sites that depend on it (its uses for
/// [`Direction::Forward`], its defs for [`Direction::Backward`], both for
/// [`Direction::Both`]) are re-queued. Monotone transfer functions make
/// this terminate at the least fixpoint.
pub fn solve<F: Fact>(
    du: &DefUse,
    value_count: usize,
    seeds: &[(ValueId, F)],
    direction: Direction,
    mut transfer: impl FnMut(&Site, &[F]) -> Vec<(ValueId, F)>,
) -> Vec<F> {
    let mut facts: Vec<F> = vec![F::default(); value_count];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut queued = vec![false; du.sites.len()];
    let enqueue_dependents = |v: ValueId, queue: &mut VecDeque<usize>, queued: &mut Vec<bool>| {
        let (uses, defs) = (&du.uses[v.index()], &du.defs[v.index()]);
        let dependents: &[&Vec<usize>] = match direction {
            Direction::Forward => &[uses],
            Direction::Backward => &[defs],
            Direction::Both => &[uses, defs],
        };
        for &si in dependents.iter().copied().flatten() {
            if !queued[si] {
                queued[si] = true;
                queue.push_back(si);
            }
        }
    };
    for (v, f) in seeds {
        if facts[v.index()].join(f) {
            enqueue_dependents(*v, &mut queue, &mut queued);
        }
    }
    // Every site runs at least once: a transfer may produce facts from
    // site structure alone (e.g. an instruction whose op seeds taint).
    for (si, seen) in queued.iter_mut().enumerate() {
        if !*seen {
            *seen = true;
            queue.push_back(si);
        }
    }
    while let Some(si) = queue.pop_front() {
        queued[si] = false;
        let updates = transfer(&du.sites[si], &facts);
        for (v, f) in updates {
            if facts[v.index()].join(&f) {
                enqueue_dependents(v, &mut queue, &mut queued);
            }
        }
    }
    facts
}

/// Backward liveness from `roots`: `live[v]` is true when `v` is a root or
/// a site that reads `v` writes a live value.
pub fn live_values(
    program: &Program,
    du: &DefUse,
    roots: impl IntoIterator<Item = ValueId>,
) -> Vec<bool> {
    let seeds: Vec<(ValueId, bool)> = roots.into_iter().map(|v| (v, true)).collect();
    solve(
        du,
        program.values().len(),
        &seeds,
        Direction::Backward,
        |site, live| {
            if site.writes.iter().any(|w| live[w.index()]) {
                site.reads.iter().map(|r| (*r, true)).collect()
            } else {
                Vec::new()
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use hdc_core::element::ElementKind;

    fn chain_program() -> (Program, ValueId, ValueId, ValueId) {
        let mut b = ProgramBuilder::new("chain");
        let a = b.input_vector("a", ElementKind::F64, 16);
        let x = b.sign(a);
        let y = b.sign_flip(x);
        b.mark_output(y);
        (b.finish(), a, x, y)
    }

    #[test]
    fn def_use_links_instruction_chain() {
        let (p, a, x, y) = chain_program();
        let du = DefUse::new(&p);
        assert_eq!(du.sites.len(), 2);
        assert_eq!(du.defs[x.index()].len(), 1);
        assert_eq!(du.uses[x.index()].len(), 1);
        assert_eq!(du.uses[a.index()].len(), 1);
        assert!(du.defs[a.index()].is_empty(), "inputs have no def site");
        assert_eq!(du.defs[y.index()].len(), 1);
    }

    #[test]
    fn forward_reachability_via_worklist() {
        let (p, a, x, y) = chain_program();
        let du = DefUse::new(&p);
        let facts = solve(
            &du,
            p.values().len(),
            &[(a, true)],
            Direction::Forward,
            |site, facts| {
                let any_read = site.reads.iter().any(|r| facts[r.index()]);
                site.writes.iter().map(|w| (*w, any_read)).collect()
            },
        );
        assert!(facts[a.index()] && facts[x.index()] && facts[y.index()]);
    }

    #[test]
    fn backward_liveness_via_worklist() {
        let (p, a, x, y) = chain_program();
        let du = DefUse::new(&p);
        let live = live_values(&p, &du, [y]);
        assert!(live[y.index()] && live[x.index()] && live[a.index()]);
        let live = live_values(&p, &du, [x]);
        assert!(!live[y.index()] && live[x.index()] && live[a.index()]);
    }

    #[test]
    fn both_directions_reach_an_earlier_def_through_a_later_use() {
        // `y = flip(a)` runs before the fact reaches `y` through the later
        // `z = y + t`. Only re-queueing y's defs carries it back to `a`.
        let mut b = ProgramBuilder::new("both");
        let a = b.input_vector("a", ElementKind::F64, 16);
        let c = b.input_vector("c", ElementKind::F64, 16);
        let y = b.sign_flip(a);
        let seed = b.sign_flip(c);
        let t = b.absolute_value(seed);
        let z = b.add(y, t);
        b.mark_output(z);
        let p = b.finish();
        let du = DefUse::new(&p);
        let spread = |direction| {
            solve(
                &du,
                p.values().len(),
                &[(seed, true)],
                direction,
                |site, f| {
                    let touched = || site.reads.iter().chain(&site.writes);
                    let any = touched().any(|v| f[v.index()]);
                    touched().map(|v| (*v, any)).collect()
                },
            )
        };
        let both = spread(Direction::Both);
        assert!(both[a.index()] && both[y.index()] && both[z.index()]);
        let forward = spread(Direction::Forward);
        assert!(forward[y.index()] && !forward[a.index()]);
    }

    #[test]
    fn stage_sites_model_structural_flow() {
        let mut b = ProgramBuilder::new("stage");
        let queries = b.input_matrix("q", ElementKind::F64, 4, 32);
        let classes = b.input_matrix("c", ElementKind::F64, 3, 32);
        b.inference_loop(
            "infer",
            queries,
            classes,
            crate::stage::ScorePolarity::Distance,
            |body, sample| body.hamming_distance(sample, classes),
        );
        let p = b.finish();
        let du = DefUse::new(&p);
        let kinds: Vec<_> = du.sites.iter().map(|s| s.kind).collect();
        assert!(matches!(kinds[0], SiteKind::StageQueryFlow { .. }));
        assert!(matches!(kinds[1], SiteKind::Instr { index: 0, .. }));
        assert!(matches!(kinds[2], SiteKind::StageResultFlow { .. }));
    }
}
