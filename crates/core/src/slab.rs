//! Tiled scoring of one query encoding against many cached encodings:
//! the online phase the paper measures at ~10⁻⁸ s/pair (Fig. 10c).
//!
//! [`EncodingSlab`] lays `n` encodings of size `h` out as an `h × n`
//! matrix, cut into panels of [`SLAB_TILE`] entries. Each panel is
//! column-major (component `i` of all its entries is contiguous), so
//! [`QueryScorer::score_tile`] runs its inner loop across entries, each
//! in its own accumulator, and vectorizes the way [`asteria_nn::ColMajor`]
//! does. Every entry's score is bit-identical to
//! [`SiameseHead::similarity_from_vecs`] on the same pair: each
//! accumulator starts from the same value and adds the same terms, in
//! the same order, with the same association.
//!
//! [`SiameseHead::similarity_from_vecs`]: crate::SiameseHead::similarity_from_vecs

/// Entries per panel of an [`EncodingSlab`], and lanes per
/// [`QueryScorer::score_tile`] call.
pub const SLAB_TILE: usize = 16;

/// Cached encodings laid out for [`QueryScorer::score_tile`]: an `h × n`
/// slab in column-major panels of [`SLAB_TILE`] entries. The last panel
/// is padded with zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodingSlab {
    hidden: usize,
    len: usize,
    data: Vec<f32>,
}

impl EncodingSlab {
    /// Copies `vectors`, in order, into a slab of `hidden`-sized entries.
    ///
    /// # Panics
    ///
    /// Panics if a vector does not have `hidden` components.
    pub fn new<'a, I>(hidden: usize, vectors: I) -> EncodingSlab
    where
        I: IntoIterator<Item = &'a [f32]>,
        I::IntoIter: ExactSizeIterator,
    {
        let vectors = vectors.into_iter();
        let mut slab = EncodingSlab::zeroed(hidden, vectors.len());
        for (j, v) in vectors.enumerate() {
            slab.set(j, v);
        }
        slab
    }

    /// A slab of `len` all-zero entries of size `hidden`, to be filled
    /// with [`EncodingSlab::set`] in any order.
    pub fn zeroed(hidden: usize, len: usize) -> EncodingSlab {
        EncodingSlab {
            hidden,
            len,
            data: vec![0.0; len.div_ceil(SLAB_TILE) * hidden * SLAB_TILE],
        }
    }

    /// Overwrites entry `j` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not have `hidden` components, or `j` is out of
    /// range.
    pub fn set(&mut self, j: usize, v: &[f32]) {
        assert_eq!(v.len(), self.hidden, "encoding size mismatch at entry {j}");
        assert!(j < self.len, "entry {j} out of range");
        let panel = self.hidden * SLAB_TILE;
        let rows = self.data[j / SLAB_TILE * panel..][..panel].chunks_exact_mut(SLAB_TILE);
        for (row, &x) in rows.zip(v) {
            row[j % SLAB_TILE] = x;
        }
    }

    /// Number of panels, `len / SLAB_TILE` rounded up.
    pub fn tiles(&self) -> usize {
        self.len.div_ceil(SLAB_TILE)
    }

    fn panel(&self, tile: usize) -> &[f32] {
        let size = self.hidden * SLAB_TILE;
        &self.data[tile * size..(tile + 1) * size]
    }
}

/// One query encoding prepared for [`QueryScorer::score_tile`], built by
/// [`AsteriaModel::query_scorer`](crate::AsteriaModel::query_scorer).
///
/// It holds whatever the head's arithmetic lets it compute once per
/// query instead of once per pair: for the classification head, the
/// products `wm[i] * a[i]` (Rust evaluates `wm[i] * a[i] * b[i]` as
/// `(wm[i] * a[i]) * b[i]`); for the regression head, the query norm.
#[derive(Debug, Clone)]
pub struct QueryScorer {
    head: Prepared,
}

#[derive(Debug, Clone)]
enum Prepared {
    /// Per component `i`: `[a[i], wa0[i], wm0[i]·a[i], wa1[i], wm1[i]·a[i]]`.
    Classification(Vec<[f32; 5]>),
    /// The query and its norm.
    Regression { a: Vec<f32>, norm: f32 },
}

impl QueryScorer {
    /// Prepares the classification head (`w` is its `2 × 2h` weight,
    /// row-major) for query `a`.
    pub(crate) fn classification(w: &[f32], a: &[f32]) -> QueryScorer {
        let h = a.len();
        assert_eq!(w.len(), 4 * h, "head weight size mismatch");
        let (w0, w1) = w.split_at(2 * h);
        let (wa0, wm0) = w0.split_at(h);
        let (wa1, wm1) = w1.split_at(h);
        let coef = (0..h)
            .map(|i| [a[i], wa0[i], wm0[i] * a[i], wa1[i], wm1[i] * a[i]])
            .collect();
        QueryScorer {
            head: Prepared::Classification(coef),
        }
    }

    /// Prepares the regression head for query `a`.
    pub(crate) fn regression(a: &[f32]) -> QueryScorer {
        let norm = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        QueryScorer {
            head: Prepared::Regression {
                a: a.to_vec(),
                norm,
            },
        }
    }

    fn hidden(&self) -> usize {
        match &self.head {
            Prepared::Classification(coef) => coef.len(),
            Prepared::Regression { a, .. } => a.len(),
        }
    }

    /// True when every score is in `[0, 1]` or NaN. The classification
    /// head's `e1 / (e0 + e1)` with `e0, e1 ≥ 0` cannot round above 1.
    /// The regression head's `0.5·cos + 0.5` has no such bound: rounding
    /// can push `cos` past 1, and the `1e-7` norm floor can scale it
    /// further.
    pub fn at_most_one(&self) -> bool {
        matches!(self.head, Prepared::Classification(_))
    }

    /// The head similarity 𝓜 of the query and each entry of panel
    /// `tile`, bit-identical to
    /// [`SiameseHead::similarity_from_vecs`](crate::SiameseHead::similarity_from_vecs).
    /// Lanes past the slab's last entry score the zero padding.
    ///
    /// # Panics
    ///
    /// Panics if the slab's entries are not the query's size, or `tile`
    /// is out of range.
    pub fn score_tile(&self, slab: &EncodingSlab, tile: usize) -> [f32; SLAB_TILE] {
        assert_eq!(slab.hidden, self.hidden(), "encoding size mismatch");
        let rows = slab.panel(tile).chunks_exact(SLAB_TILE);
        let mut out = [0.0f32; SLAB_TILE];
        match &self.head {
            Prepared::Classification(coef) => {
                let mut l0 = [0.0f32; SLAB_TILE];
                let mut l1 = [0.0f32; SLAB_TILE];
                for (&[a, wa0, wma0, wa1, wma1], b) in coef.iter().zip(rows) {
                    let b: &[f32; SLAB_TILE] = b.try_into().expect("panel row");
                    for lane in 0..SLAB_TILE {
                        let d = (a - b[lane]).abs();
                        l0[lane] += wa0 * d + wma0 * b[lane];
                        l1[lane] += wa1 * d + wma1 * b[lane];
                    }
                }
                for lane in 0..SLAB_TILE {
                    out[lane] = crate::siamese::softmax_similarity(l0[lane], l1[lane]);
                }
            }
            Prepared::Regression { a, norm } => {
                // `Iterator::sum`'s starting value, whatever the toolchain
                // makes it, so each lane folds exactly like the reference.
                let zero: f32 = std::iter::empty::<f32>().sum();
                let mut dot = [zero; SLAB_TILE];
                let mut sq = [zero; SLAB_TILE];
                for (&a, b) in a.iter().zip(rows) {
                    let b: &[f32; SLAB_TILE] = b.try_into().expect("panel row");
                    for lane in 0..SLAB_TILE {
                        dot[lane] += a * b[lane];
                        sq[lane] += b[lane] * b[lane];
                    }
                }
                for lane in 0..SLAB_TILE {
                    out[lane] =
                        crate::siamese::cosine_similarity(dot[lane], *norm, sq[lane].sqrt());
                }
            }
        }
        out
    }
}
