//! Class-memory sharding: row-block plans and the deterministic
//! reduction-tree merge of per-shard selection results.
//!
//! The batched kernels in [`crate::batch`] parallelize over *query rows*
//! only, so a workload with few queries and a large class memory cannot
//! scale past the query count. Sharding adds the second parallel axis: the
//! class matrix is split into contiguous row-blocks ([`ShardPlan`]), every
//! `(query row, shard)` pair is scored independently, and the per-shard
//! partial `arg_min` / `arg_max` / top-`k` results are merged back through
//! a reduction tree. This mirrors the source paper's banked associative
//! memory, where each bank scores its slice of the class memory and a
//! merge network selects the winner — and it is the same row-block split
//! the accelerator model's multi-chip tiling term accounts for.
//!
//! # Bit-exactness contract
//!
//! Everything here is bit-identical to the unsharded path:
//!
//! * **Scores** — each `(query, class)` score is produced by the same
//!   accumulation chain regardless of which shard the class row lands in:
//!   popcounts are exact integers, and the dense panel kernels keep one
//!   independent accumulator per class row in ascending element order, so
//!   panel grouping (which sharding changes) cannot change any value.
//! * **Selection** — the merge is a reduction tree over shard partials in
//!   ascending shard order. Each pairwise merge keeps the left (lower
//!   global index) candidate on a total-order tie, NaN-only shards yield
//!   no candidate and are skipped, and scores compare under
//!   [`TotalOrd`] (`-0.0 < 0.0`), exactly matching
//!   [`crate::ops::arg_min`] / [`arg_max`](crate::ops::arg_max) /
//!   [`arg_top_k`](crate::ops::arg_top_k) first-occurrence semantics.

use std::cmp::Ordering;
use std::ops::Range;

use crate::ops::TotalOrd;

/// Class matrices smaller than this many rows per shard are not worth
/// splitting: the per-shard panel repacking and merge overhead exceeds the
/// win from the extra parallel axis.
pub const MIN_ROWS_PER_SHARD: usize = 8;

/// Calls that score fewer `(query row, class row)` pairs than this run on
/// one shard: a one-row call against a 26-class memory is a few µs of
/// work, less than the thread hand-off a second shard costs (on a 2-vCPU
/// AVX-512 host, a one-row window or feedback at 2 threads took 1.5–2×
/// its one-shard time). Every 64-row serve window and training block, and
/// one query against 512 or more classes, stays sharded.
pub const MIN_PAIRS_TO_SHARD: usize = 512;

/// How many class-memory shards a call that scores `query_rows` queries
/// against `class_rows` class rows uses on `threads` worker threads: one
/// when the call scores fewer than [`MIN_PAIRS_TO_SHARD`] pairs, else one
/// shard per thread, capped so every shard keeps at least
/// [`MIN_ROWS_PER_SHARD`] rows, and never zero. With one thread, a small
/// class memory or a small call this returns 1 and the unsharded kernels
/// run unchanged.
pub fn default_shard_count(query_rows: usize, class_rows: usize, threads: usize) -> usize {
    if query_rows.saturating_mul(class_rows) < MIN_PAIRS_TO_SHARD {
        return 1;
    }
    threads.min(class_rows / MIN_ROWS_PER_SHARD).max(1)
}

/// A partition of `0..rows` into contiguous, ascending row-block ranges —
/// the unit of work of the class-memory axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    rows: usize,
    ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Split `rows` class rows into `shards` balanced contiguous blocks
    /// (sizes differ by at most one row; earlier shards take the extra).
    /// `shards` is clamped to `1..=rows` (a zero-row matrix gets one empty
    /// shard), so any requested count yields a valid plan.
    pub fn split(rows: usize, shards: usize) -> ShardPlan {
        let shards = shards.clamp(1, rows.max(1));
        let base = rows / shards;
        let extra = rows % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            ranges.push(start..start + len);
            start += len;
        }
        ShardPlan { rows, ranges }
    }

    /// The single-shard plan: the whole class memory in one block.
    pub fn single(rows: usize) -> ShardPlan {
        ShardPlan::split(rows, 1)
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total class rows the plan covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The contiguous row ranges, in ascending order.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }
}

/// A per-shard selection candidate: the **global** class-row index and its
/// score. Shards report candidates in global index space so the merge tree
/// never needs to re-offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardCandidate {
    /// Global class-row index of the candidate.
    pub index: usize,
    /// The candidate's score.
    pub score: f64,
}

/// `arg_min` over one shard's score block. `offset` is the shard's first
/// global row index; NaN-only (or empty) blocks yield `None`.
pub fn partial_arg_min(scores: &[f64], offset: usize) -> Option<ShardCandidate> {
    crate::ops::arg_min(scores).map(|i| ShardCandidate {
        index: offset + i,
        score: scores[i],
    })
}

/// `arg_max` over one shard's score block, as [`partial_arg_min`].
pub fn partial_arg_max(scores: &[f64], offset: usize) -> Option<ShardCandidate> {
    crate::ops::arg_max(scores).map(|i| ShardCandidate {
        index: offset + i,
        score: scores[i],
    })
}

/// Top-`k` over one shard's score block: descending score under the total
/// order, ties to the lower index, NaN skipped. May return fewer than `k`
/// candidates when the shard has fewer comparable scores.
pub fn partial_top_k(scores: &[f64], offset: usize, k: usize) -> Vec<ShardCandidate> {
    crate::ops::arg_top_k(scores, k)
        .into_iter()
        .map(|i| ShardCandidate {
            index: offset + i,
            score: scores[i],
        })
        .collect()
}

/// Result of a reduction-tree merge: the merged value plus how many
/// pairwise merge operations the tree performed (an [`ExecStats`]-style
/// accounting hook; `shards - 1` for non-trivial min/max merges).
///
/// [`ExecStats`]: ../../hdc_runtime/struct.ExecStats.html
#[derive(Debug, Clone, PartialEq)]
pub struct Merged<T> {
    /// The merged selection result.
    pub value: T,
    /// Pairwise merge operations performed by the tree.
    pub merge_ops: usize,
}

/// Reduce adjacent pairs until one value remains, preserving left-to-right
/// (ascending shard) order so every tie resolves toward the lower global
/// index. Returns the survivor and the number of pairwise merges.
fn reduction_tree<T>(mut level: Vec<T>, mut merge: impl FnMut(T, T) -> T) -> Merged<Option<T>> {
    let mut merge_ops = 0;
    if level.is_empty() {
        return Merged {
            value: None,
            merge_ops,
        };
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(left) = it.next() {
            match it.next() {
                Some(right) => {
                    next.push(merge(left, right));
                    merge_ops += 1;
                }
                None => next.push(left),
            }
        }
        level = next;
    }
    Merged {
        value: level.pop(),
        merge_ops,
    }
}

/// Merge two optional candidates, preferring `left` unless `right` is
/// strictly better under `wins` — the sharded form of the strict-improvement
/// comparison in [`crate::ops::arg_min`] / `arg_max`: because shard ranges
/// ascend, "prefer left on a non-strict win" is exactly the
/// first-occurrence tie-break.
fn merge_pair(
    left: Option<ShardCandidate>,
    right: Option<ShardCandidate>,
    wins: impl Fn(f64, f64) -> bool,
) -> Option<ShardCandidate> {
    match (left, right) {
        (None, r) => r,
        (l, None) => l,
        (Some(l), Some(r)) => {
            if wins(r.score, l.score) {
                Some(r)
            } else {
                Some(l)
            }
        }
    }
}

/// Merge per-shard `arg_min` partials (ascending shard order) through the
/// reduction tree. Bit-identical to [`crate::ops::arg_min`] on the
/// concatenated scores: `None` partials (NaN-only shards) are skipped and
/// total-order ties keep the lower global index.
pub fn merge_arg_min(partials: Vec<Option<ShardCandidate>>) -> Merged<Option<ShardCandidate>> {
    let merged = reduction_tree(partials, |l, r| {
        merge_pair(l, r, |new, best| new.total_order(best) == Ordering::Less)
    });
    Merged {
        value: merged.value.flatten(),
        merge_ops: merged.merge_ops,
    }
}

/// Merge per-shard `arg_max` partials, as [`merge_arg_min`].
pub fn merge_arg_max(partials: Vec<Option<ShardCandidate>>) -> Merged<Option<ShardCandidate>> {
    let merged = reduction_tree(partials, |l, r| {
        merge_pair(l, r, |new, best| new.total_order(best) == Ordering::Greater)
    });
    Merged {
        value: merged.value.flatten(),
        merge_ops: merged.merge_ops,
    }
}

/// Merge per-shard top-`k` candidate lists (each sorted descending by the
/// total order, ties to the lower index) through the reduction tree,
/// truncating every intermediate list to `k`. Truncation is lossless: any
/// global top-`k` candidate is within the top `k` of every sublist that
/// contains it. Bit-identical to [`crate::ops::arg_top_k`] on the
/// concatenated scores.
pub fn merge_top_k(partials: Vec<Vec<ShardCandidate>>, k: usize) -> Merged<Vec<ShardCandidate>> {
    reduction_tree(partials, |left, right| {
        let mut out = Vec::with_capacity((left.len() + right.len()).min(k));
        let (mut i, mut j) = (0, 0);
        while out.len() < k && (i < left.len() || j < right.len()) {
            let take_left = match (left.get(i), right.get(j)) {
                (Some(l), Some(r)) => match r.score.total_order(l.score) {
                    // Descending score; on a total-order tie the lower
                    // global index goes first. Shard ranges are disjoint,
                    // so indices never collide.
                    Ordering::Greater => false,
                    Ordering::Less => true,
                    Ordering::Equal => l.index < r.index,
                },
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_left {
                out.push(left[i]);
                i += 1;
            } else {
                out.push(right[j]);
                j += 1;
            }
        }
        out
    })
    .map_value(|v| v.unwrap_or_default())
}

impl<T> Merged<T> {
    fn map_value<U>(self, f: impl FnOnce(T) -> U) -> Merged<U> {
        Merged {
            value: f(self.value),
            merge_ops: self.merge_ops,
        }
    }
}

/// Sharded `arg_min` over one score row: per-shard partials merged through
/// the reduction tree. Returns the winning global index (or `None` for an
/// all-NaN/empty row) and the merge-op count.
pub fn row_arg_min_sharded(row: &[f64], plan: &ShardPlan) -> Merged<Option<usize>> {
    let partials = plan
        .ranges()
        .iter()
        .map(|r| partial_arg_min(&row[r.clone()], r.start))
        .collect();
    merge_arg_min(partials).map_value(|v| v.map(|c| c.index))
}

/// Sharded `arg_max` over one score row, as [`row_arg_min_sharded`].
pub fn row_arg_max_sharded(row: &[f64], plan: &ShardPlan) -> Merged<Option<usize>> {
    let partials = plan
        .ranges()
        .iter()
        .map(|r| partial_arg_max(&row[r.clone()], r.start))
        .collect();
    merge_arg_max(partials).map_value(|v| v.map(|c| c.index))
}

/// Sharded top-`k` over one score row: per-shard partial lists merged
/// through the reduction tree. The result may be shorter than `k` when the
/// row has fewer than `k` comparable scores, exactly like
/// [`crate::ops::arg_top_k`].
pub fn row_arg_top_k_sharded(row: &[f64], k: usize, plan: &ShardPlan) -> Merged<Vec<usize>> {
    let partials = plan
        .ranges()
        .iter()
        .map(|r| partial_top_k(&row[r.clone()], r.start, k))
        .collect();
    merge_top_k(partials, k).map_value(|v| v.into_iter().map(|c| c.index).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_balanced_contiguous_and_covering() {
        for (rows, shards) in [(10, 3), (7, 7), (7, 16), (1, 4), (64, 4), (0, 3)] {
            let plan = ShardPlan::split(rows, shards);
            assert!(plan.shard_count() >= 1);
            assert!(plan.shard_count() <= rows.max(1));
            let mut next = 0;
            let mut sizes: Vec<usize> = Vec::new();
            for r in plan.ranges() {
                assert_eq!(r.start, next, "contiguous");
                next = r.end;
                sizes.push(r.len());
            }
            assert_eq!(next, rows, "covers all rows");
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    fn default_shard_count_heuristic() {
        assert_eq!(default_shard_count(64, 100, 1), 1);
        assert_eq!(default_shard_count(64, 100, 4), 4);
        assert_eq!(default_shard_count(64, 100, 64), 12, "8-row floor");
        assert_eq!(default_shard_count(64, 7, 8), 1, "small class memory");
        assert_eq!(default_shard_count(64, 0, 8), 1);
    }

    #[test]
    fn default_shard_count_follows_the_call_size() {
        assert_eq!(default_shard_count(1, 26, 2), 1, "one row, 26 classes");
        assert_eq!(default_shard_count(64, 26, 2), 2, "64-row window");
        assert_eq!(
            default_shard_count(1, 4096, 4),
            4,
            "a large class memory shards for one query"
        );
        assert_eq!(default_shard_count(0, 4096, 4), 1, "no rows, no work");
        assert_eq!(default_shard_count(1, MIN_PAIRS_TO_SHARD - 1, 4), 1);
        assert_eq!(default_shard_count(1, MIN_PAIRS_TO_SHARD, 4), 4);
    }

    #[test]
    fn sharded_selection_matches_unsharded_for_all_shard_counts() {
        let row = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.5, 1.0];
        for shards in [1, 2, 3, 7, 16] {
            let plan = ShardPlan::split(row.len(), shards);
            let min = row_arg_min_sharded(&row, &plan);
            let max = row_arg_max_sharded(&row, &plan);
            assert_eq!(min.value, crate::ops::arg_min(&row), "shards {shards}");
            assert_eq!(max.value, crate::ops::arg_max(&row), "shards {shards}");
            if plan.shard_count() > 1 {
                assert_eq!(min.merge_ops, plan.shard_count() - 1);
            }
            for k in [1, 3, row.len()] {
                let top = row_arg_top_k_sharded(&row, k, &plan);
                assert_eq!(top.value, crate::ops::arg_top_k(&row, k), "k {k}");
            }
        }
    }

    #[test]
    fn nan_and_signed_zero_cross_shard_semantics() {
        // NaN-only shards must be skipped; -0.0 < 0.0 under the total
        // order must hold across a shard boundary.
        let row = [f64::NAN, f64::NAN, 0.0, -0.0, f64::NAN, 0.0];
        for shards in [1, 2, 3, 6] {
            let plan = ShardPlan::split(row.len(), shards);
            assert_eq!(
                row_arg_min_sharded(&row, &plan).value,
                crate::ops::arg_min(&row),
                "shards {shards}"
            );
            assert_eq!(
                row_arg_max_sharded(&row, &plan).value,
                crate::ops::arg_max(&row)
            );
            assert_eq!(
                row_arg_top_k_sharded(&row, 3, &plan).value,
                crate::ops::arg_top_k(&row, 3)
            );
        }
        // All-NaN rows select nothing, sharded or not.
        let nans = [f64::NAN; 5];
        let plan = ShardPlan::split(5, 3);
        assert_eq!(row_arg_min_sharded(&nans, &plan).value, None);
        assert!(row_arg_top_k_sharded(&nans, 2, &plan).value.is_empty());
    }

    #[test]
    fn tie_break_keeps_lowest_global_index_across_shards() {
        // The best score appears in three different shards; the global
        // first occurrence (index 1) must win for every shard count.
        let row = [5.0, 1.0, 7.0, 1.0, 8.0, 1.0];
        for shards in [1, 2, 3, 6] {
            let plan = ShardPlan::split(row.len(), shards);
            assert_eq!(row_arg_min_sharded(&row, &plan).value, Some(1));
            assert_eq!(
                row_arg_top_k_sharded(&row, 3, &plan).value,
                vec![4, 2, 0],
                "descending with deterministic order"
            );
        }
    }

    #[test]
    fn top_k_merge_counts_and_short_rows() {
        let row = [1.0, f64::NAN, 2.0, f64::NAN];
        let plan = ShardPlan::split(4, 4);
        let merged = row_arg_top_k_sharded(&row, 3, &plan);
        // Only two comparable scores exist; result is short, like
        // ops::arg_top_k.
        assert_eq!(merged.value, vec![2, 0]);
        assert_eq!(merged.merge_ops, 3, "tree merges all four shards");
    }
}
