//! The online phase's rank slab: a [`SearchIndex`] copied once into the
//! tiled layout of [`EncodingSlab`], ordered by callee count, with an
//! exact callee-count bound and a bounded top-k.
//!
//! Every score is the bits of [`function_similarity`] with the query as
//! `a`, and every ranking is the order of a stable sort by
//! [`rank_order`] over the index. DESIGN.md §14 gives the argument for
//! each step.
//!
//! [`SearchIndex`]: crate::search::SearchIndex
//! [`function_similarity`]: asteria_core::function_similarity

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use asteria_core::{callee_similarity, EncodingSlab, QueryScorer, SLAB_TILE};

use crate::search::{IndexedFunction, SearchHit};

/// Descending-score ordering that is total: NaN ranks **last** (a
/// degenerate encoding must sink to the bottom of the ranking, not panic
/// the sort or float to the top as `total_cmp`'s `NaN > ∞` would).
pub(crate) fn rank_order(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.total_cmp(&a),
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

/// The index's encodings in callee-count order.
#[derive(Debug)]
pub(crate) struct RankSlab {
    /// Vectors, in slab order.
    encodings: EncodingSlab,
    /// Slab position → index position.
    origin: Vec<usize>,
    /// Slab position → callee bucket (non-decreasing).
    bucket: Vec<usize>,
    /// Bucket → its callee count (strictly increasing).
    callees: Vec<usize>,
}

impl RankSlab {
    /// Copies `functions` into a slab of `hidden`-sized entries.
    ///
    /// # Panics
    ///
    /// Panics if an encoding does not have `hidden` components.
    pub(crate) fn new(functions: &[IndexedFunction], hidden: usize) -> RankSlab {
        // A counting sort by callee count, stable, so each bucket keeps
        // index order. The index is read once, in order, and each
        // bucket's writes advance through its own panels.
        let mut sizes: BTreeMap<usize, usize> = BTreeMap::new();
        for f in functions {
            *sizes.entry(f.encoding.callee_count).or_default() += 1;
        }
        let callees: Vec<usize> = sizes.keys().copied().collect();
        let mut next: Vec<usize> = sizes
            .values()
            .scan(0, |start, &size| {
                *start += size;
                Some(*start - size)
            })
            .collect();
        let n = functions.len();
        let mut encodings = EncodingSlab::zeroed(hidden, n);
        let mut origin = vec![0; n];
        let mut bucket = vec![0; n];
        for (i, f) in functions.iter().enumerate() {
            let b = callees
                .binary_search(&f.encoding.callee_count)
                .expect("every callee count has a bucket");
            let pos = next[b];
            next[b] += 1;
            encodings.set(pos, &f.encoding.vector);
            origin[pos] = i;
            bucket[pos] = b;
        }
        RankSlab {
            encodings,
            origin,
            bucket,
            callees,
        }
    }

    fn len(&self) -> usize {
        self.origin.len()
    }

    /// Workers one query uses: `threads` (`0` = auto), at most one per
    /// panel, and just the calling thread below [`MIN_PARALLEL_PANELS`].
    fn workers(&self, threads: usize) -> usize {
        let tiles = self.encodings.tiles();
        if tiles < MIN_PARALLEL_PANELS {
            1
        } else {
            asteria_exec::resolve_threads(threads).min(tiles)
        }
    }

    /// Per bucket, `callee_similarity(callee_count, c)`: the same call,
    /// so the same bits, as the per-pair path.
    fn factors(&self, callee_count: usize) -> Vec<f64> {
        self.callees
            .iter()
            .map(|&c| callee_similarity(callee_count, c))
            .collect()
    }

    /// The calibrated score ℱ of every entry, in index order, over
    /// [`RankSlab::workers`] workers.
    pub(crate) fn scores(
        &self,
        scorer: &QueryScorer,
        callee_count: usize,
        threads: usize,
    ) -> Vec<f64> {
        let factor = self.factors(callee_count);
        let tiles: Vec<usize> = (0..self.encodings.tiles()).collect();
        let per_tile = asteria_exec::par_map_chunked(self.workers(threads), 0, &tiles, |&tile| {
            scorer.score_tile(&self.encodings, tile)
        });
        let mut scores = vec![0.0; self.len()];
        for (pos, &m) in per_tile.iter().flatten().take(self.len()).enumerate() {
            scores[self.origin[pos]] = m as f64 * factor[self.bucket[pos]];
        }
        scores
    }

    /// The first `k` hits of the full ranking, for `0 < k < len`, over
    /// [`RankSlab::workers`] workers.
    ///
    /// Worker `p` of `w` owns the panels `t` with `t % w == p`. Each keeps
    /// its own top k, and the merge sorts their union, so the result
    /// does not depend on `w`.
    pub(crate) fn top_k(
        &self,
        scorer: &QueryScorer,
        callee_count: usize,
        k: usize,
        threads: usize,
    ) -> Vec<SearchHit> {
        assert!(0 < k && k < self.len(), "top_k covers 1..len");
        let factor = self.factors(callee_count);
        // Bounds on ℱ for everything at or left (`left`) or at or right
        // (`right`) of a bucket: running maxima, so no monotonicity of
        // `exp` is assumed.
        let mut left = factor.clone();
        for b in 1..left.len() {
            left[b] = left[b].max(left[b - 1]);
        }
        let mut right = factor.clone();
        for b in (0..right.len().saturating_sub(1)).rev() {
            right[b] = right[b].max(right[b + 1]);
        }
        let first = self
            .bucket
            .partition_point(|&b| self.callees[b] < callee_count);
        let search = Search {
            slab: self,
            scorer,
            factor: &factor,
            left: &left,
            right: &right,
            k,
            start: first.min(self.len() - 1) / SLAB_TILE,
        };
        let workers = self.workers(threads);
        let parts: Vec<usize> = (0..workers).collect();
        let mut kept: Vec<Ranked> =
            asteria_exec::par_map_threads(workers, &parts, |&p| search.run(p, workers))
                .into_iter()
                .flatten()
                .collect();
        kept.sort_unstable();
        kept.truncate(k);
        kept.into_iter()
            .map(|r| SearchHit {
                function: r.index,
                score: r.score,
            })
            .collect()
    }
}

/// Slabs with fewer panels than this are ranked on the calling thread. A
/// panel scores in about 0.5 µs and starting two workers costs about
/// 60 µs; on 2 cores a full ranking broke even with one worker at 1,024
/// panels, and a top-10 search was still faster on one.
const MIN_PARALLEL_PANELS: usize = 1024;

/// One query's bounded top-k search over the slab.
struct Search<'a> {
    slab: &'a RankSlab,
    scorer: &'a QueryScorer,
    /// Per bucket: the callee factor.
    factor: &'a [f64],
    /// Per bucket: the largest factor at or left of it.
    left: &'a [f64],
    /// Per bucket: the largest factor at or right of it.
    right: &'a [f64],
    k: usize,
    /// The panel holding the first entry whose callee count is at least
    /// the query's (or the last panel).
    start: usize,
}

impl Search<'_> {
    /// The top k of the panels worker `part` of `parts` owns.
    ///
    /// Panels are visited outward from the query's callee count, each
    /// step taking the side with the larger bound. With the
    /// classification head ℱ ≤ factor, so a side stops once its bound is
    /// strictly below the k-th best score kept: nothing beyond can enter
    /// the top k, not even on a tie.
    fn run(&self, part: usize, parts: usize) -> Vec<Ranked> {
        let slab = self.slab;
        let n = slab.len();
        let tiles = slab.encodings.tiles();
        let prune = self.scorer.at_most_one();
        let mut kept = TopK::new(self.k);
        // The next panel left is `lo - 1`, the next right is `hi`.
        let (mut lo, mut hi) = (self.start, self.start);
        loop {
            let kth = kept.threshold();
            let live = |bound: f64| !(prune && kth.is_some_and(|kth| bound < kth));
            let go_left = (lo > 0).then(|| self.left[slab.bucket[lo * SLAB_TILE - 1]]);
            let go_right = (hi < tiles).then(|| self.right[slab.bucket[hi * SLAB_TILE]]);
            let tile = match (go_left.filter(|&b| live(b)), go_right.filter(|&b| live(b))) {
                (None, None) => break,
                (Some(l), r) if r.is_none_or(|r| l >= r) => {
                    lo -= 1;
                    lo
                }
                _ => {
                    hi += 1;
                    hi - 1
                }
            };
            if tile % parts != part {
                continue;
            }
            let m = self.scorer.score_tile(&slab.encodings, tile);
            let base = tile * SLAB_TILE;
            for (pos, &m) in (base..n).zip(&m) {
                kept.push(Ranked {
                    score: m as f64 * self.factor[slab.bucket[pos]],
                    index: slab.origin[pos],
                });
            }
        }
        kept.heap.into_vec()
    }
}

/// A scored entry, ordered best first: by [`rank_order`], then by index
/// (the order a stable sort leaves ties in).
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: f64,
    index: usize,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> Ordering {
        rank_order(self.score, other.score).then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Ranked) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The best `k` entries pushed so far, in a max-heap whose top is the
/// worst one kept.
struct TopK {
    k: usize,
    heap: BinaryHeap<Ranked>,
}

impl TopK {
    fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k),
        }
    }

    fn push(&mut self, entry: Ranked) {
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if entry < *worst {
                *worst = entry;
            }
        }
    }

    /// The k-th best score, once k entries are kept.
    fn threshold(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|worst| worst.score)
    }
}
