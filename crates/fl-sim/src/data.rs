//! Synthetic image-analog datasets.
//!
//! The paper's pre-experiments and evaluation (Figs. 2, 12-15) train on
//! CIFAR-10, FMNIST, SVHN and EuroSat. Those corpora (and GPU training)
//! are out of scope for a pure-Rust laptop reproduction, so we
//! substitute seeded Gaussian-mixture classification datasets of
//! matching class counts and increasing difficulty (DESIGN.md §2):
//! TradeFL only relies on accuracy growing concavely in the amount of
//! training data, which these datasets reproduce measurably.

use crate::linalg::Matrix;
use tradefl_runtime::rng::{Rng, SeedableRng, StdRng};
use tradefl_runtime::sync::pool::Pool;

/// The four benchmark dataset analogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// CIFAR-10 analog: 10 classes, 64 features, hard (low separation).
    Cifar10Like,
    /// Fashion-MNIST analog: 10 classes, 49 features, medium.
    FmnistLike,
    /// SVHN analog: 10 classes, 64 features, hard + label noise.
    SvhnLike,
    /// EuroSat analog: 10 classes, 36 features, easy.
    EurosatLike,
}

impl DatasetKind {
    /// All four analogs, in the paper's order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Cifar10Like,
        DatasetKind::FmnistLike,
        DatasetKind::SvhnLike,
        DatasetKind::EurosatLike,
    ];

    /// Display label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Cifar10Like => "CIFAR-10",
            DatasetKind::FmnistLike => "FMNIST",
            DatasetKind::SvhnLike => "SVHN",
            DatasetKind::EurosatLike => "EuroSat",
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        match self {
            DatasetKind::Cifar10Like | DatasetKind::SvhnLike => 64,
            DatasetKind::FmnistLike => 49,
            DatasetKind::EurosatLike => 36,
        }
    }

    /// Number of classes (all analogs use 10, like their originals).
    pub fn classes(&self) -> usize {
        10
    }

    /// Class-mean separation (higher = easier).
    fn separation(&self) -> f32 {
        match self {
            DatasetKind::Cifar10Like => 1.1,
            DatasetKind::FmnistLike => 1.6,
            DatasetKind::SvhnLike => 1.0,
            DatasetKind::EurosatLike => 2.2,
        }
    }

    /// Per-sample noise standard deviation.
    fn noise(&self) -> f32 {
        match self {
            DatasetKind::Cifar10Like => 1.4,
            DatasetKind::FmnistLike => 1.1,
            DatasetKind::SvhnLike => 1.5,
            DatasetKind::EurosatLike => 0.9,
        }
    }

    /// Fraction of labels flipped uniformly at random.
    fn label_noise(&self) -> f64 {
        match self {
            DatasetKind::SvhnLike => 0.08,
            DatasetKind::Cifar10Like => 0.04,
            _ => 0.0,
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A labelled classification dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix, one sample per row.
    pub features: Matrix,
    /// Class labels, `labels[i] < classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// The first `n` samples as a new dataset (used to train on a
    /// `d_i` fraction of a shard).
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn take(&self, n: usize) -> Dataset {
        assert!(n <= self.len());
        let mut features = Matrix::zeros(n, self.dim());
        for r in 0..n {
            features.row_mut(r).copy_from_slice(self.features.row(r));
        }
        Dataset { features, labels: self.labels[..n].to_vec(), classes: self.classes }
    }

    /// Splits into shards of the given sizes (cross-silo partition,
    /// i.i.d. per the paper's footnote 4 — the generator already
    /// shuffles class order).
    ///
    /// # Panics
    ///
    /// Panics if the sizes exceed the dataset length.
    pub fn shard(&self, sizes: &[usize]) -> Vec<Dataset> {
        let total: usize = sizes.iter().sum();
        assert!(total <= self.len(), "shard sizes exceed dataset length");
        let mut out = Vec::with_capacity(sizes.len());
        let mut offset = 0;
        for &size in sizes {
            let mut features = Matrix::zeros(size, self.dim());
            for r in 0..size {
                features.row_mut(r).copy_from_slice(self.features.row(offset + r));
            }
            out.push(Dataset {
                features,
                labels: self.labels[offset..offset + size].to_vec(),
                classes: self.classes,
            });
            offset += size;
        }
        out
    }
}

/// A reusable mini-batch staging buffer for the training hot loops.
///
/// [`MiniBatch::gather`] copies the selected rows of a dataset into
/// buffers that are reused across batches (capacity never shrinks), so
/// the per-step batch assembly in `fed`/`async_fed`/`personalize`
/// allocates nothing once warm.
#[derive(Debug, Default, Clone)]
pub struct MiniBatch {
    /// Staged feature rows, one gathered sample per row.
    pub features: Matrix,
    /// Staged labels, parallel to `features` rows.
    pub labels: Vec<usize>,
}

impl MiniBatch {
    /// An empty staging buffer; grows on first [`MiniBatch::gather`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies rows `idx` of `data` into the staging buffers.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather(&mut self, data: &Dataset, idx: &[usize]) {
        self.features.resize(idx.len(), data.dim());
        for (r, &i) in idx.iter().enumerate() {
            self.features.row_mut(r).copy_from_slice(data.features.row(i));
        }
        self.labels.clear();
        self.labels.extend(idx.iter().map(|&i| data.labels[i]));
    }
}

/// The fewest rows in a pooled chunk of [`generate_with`]: a dataset
/// under `2 × POOLED_GEN_MIN_ROWS` rows is drawn in one sequential
/// pass. Like every pool gate it reads the instance alone, and the
/// chunk boundaries move no bit (see [`generate`]).
pub const POOLED_GEN_MIN_ROWS: usize = 4096;

/// Deterministically generates `n` samples of a dataset analog on
/// [`Pool::global`]; see [`generate_with`].
///
/// Class means sit on a seeded random simplex scaled by the analog's
/// separation; samples add isotropic Gaussian noise; SVHN/CIFAR analogs
/// flip a small fraction of labels (their originals are noisy corpora).
///
/// Every sample is drawn from one seeded stream, in row order. With at
/// least `2 × POOLED_GEN_MIN_ROWS` rows and two or more workers, the
/// rows are split into `min(workers, n / POOLED_GEN_MIN_ROWS)`
/// contiguous chunks, filled in two passes. Pass 1, on the calling
/// thread, walks the stream through every row before the last chunk,
/// making each row's uniform draws but skipping the Box–Muller
/// transforms, and snapshots the generator at each chunk start. Pass 2
/// runs one pool task per chunk, which replays the same per-row body
/// from its snapshot into its own rows. Both passes share that body, so
/// each row sees the generator state the one-pass loop would give it:
/// the output is bit-identical for every `TRADEFL_THREADS`.
pub fn generate(kind: DatasetKind, n: usize, seed: u64) -> Dataset {
    generate_with(kind, n, seed, Pool::global())
}

/// [`generate`] on an explicit pool.
pub fn generate_with(kind: DatasetKind, n: usize, seed: u64, pool: &Pool) -> Dataset {
    let dim = kind.dim();
    let classes = kind.classes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7261_6465_666c_0001);
    // Class means. Scaling by 1/sqrt(dim) keeps the expected distance
    // between two class means equal to sep·√2 independent of the
    // feature dimension, so difficulty is set by sep/noise alone.
    let sep = kind.separation() / (dim as f32).sqrt();
    let means: Vec<Vec<f32>> = (0..classes)
        .map(|_| (0..dim).map(|_| sep * normal(&mut rng)).collect())
        .collect();
    let mixture = Mixture { means, noise: kind.noise(), label_noise: kind.label_noise() };
    let chunks = if n < 2 * POOLED_GEN_MIN_ROWS {
        1
    } else {
        pool.workers().min(n / POOLED_GEN_MIN_ROWS)
    };
    let per = n.div_ceil(chunks).max(1);
    // Pass 1: the generator state at each chunk start.
    let mut starts = vec![rng.clone()];
    let mut scratch = vec![0.0f32; dim];
    for _ in 1..n.div_ceil(per) {
        for _ in 0..per {
            mixture.sample(&mut rng, &mut scratch, skip_normal);
        }
        starts.push(rng.clone());
    }
    // Pass 2: one task per chunk, each into its own rows.
    let mut features = Matrix::zeros(n, dim);
    let mut labels = vec![0; n];
    let mixture = &mixture;
    pool.scope(|s| {
        let rows = features.as_mut_slice().chunks_mut(per * dim).zip(labels.chunks_mut(per));
        for ((rows, labels), mut rng) in rows.zip(starts) {
            s.spawn(move || {
                for (row, label) in rows.chunks_exact_mut(dim).zip(labels) {
                    *label = mixture.sample(&mut rng, row, normal);
                }
            });
        }
    });
    Dataset { features, labels, classes }
}

/// The per-sample recipe of [`generate_with`]: class means, feature
/// noise and label noise.
struct Mixture {
    means: Vec<Vec<f32>>,
    noise: f32,
    label_noise: f64,
}

impl Mixture {
    /// Draws one sample into `row` and returns its label. `gauss` is
    /// [`normal`] for the fill and [`skip_normal`] for pass 1, so both
    /// passes make the same generator calls, the class draw's rejection
    /// loop and the conditional relabel draw included.
    fn sample(
        &self,
        rng: &mut StdRng,
        row: &mut [f32],
        gauss: impl Fn(&mut StdRng) -> f32,
    ) -> usize {
        let classes = self.means.len();
        let class = rng.gen_range(0..classes);
        for (x, m) in row.iter_mut().zip(&self.means[class]) {
            *x = m + self.noise * gauss(rng);
        }
        if self.label_noise > 0.0 && rng.gen_bool(self.label_noise) {
            rng.gen_range(0..classes)
        } else {
            class
        }
    }
}

/// Partitions a dataset across organizations with a Dirichlet(β) label
/// skew — the standard non-i.i.d. benchmark partition. Small `beta`
/// concentrates each class on few organizations; `beta → ∞` recovers the
/// i.i.d. split the paper's footnote 4 assumes.
///
/// Returns `sizes.len()` shards; samples beyond the requested totals are
/// dropped. Deterministic per seed.
///
/// # Panics
///
/// Panics if `beta <= 0`, `sizes` is empty, or the requested totals
/// exceed the dataset length.
pub fn dirichlet_shard(data: &Dataset, sizes: &[usize], beta: f64, seed: u64) -> Vec<Dataset> {
    assert!(beta > 0.0, "dirichlet beta must be positive");
    assert!(!sizes.is_empty(), "need at least one organization");
    let total: usize = sizes.iter().sum();
    assert!(total <= data.len(), "requested shards exceed dataset length");
    let n_orgs = sizes.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd112_1c43);

    // Per-class organization preferences ~ Dirichlet(beta) via gamma draws.
    let mut prefs: Vec<Vec<f64>> = Vec::with_capacity(data.classes);
    for _ in 0..data.classes {
        let draws: Vec<f64> = (0..n_orgs).map(|_| gamma_draw(&mut rng, beta)).collect();
        let sum: f64 = draws.iter().sum();
        prefs.push(draws.iter().map(|d| d / sum.max(f64::MIN_POSITIVE)).collect());
    }

    // Assign each sample to an org by its class's preference vector,
    // respecting per-org capacity.
    let mut remaining: Vec<usize> = sizes.to_vec();
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); n_orgs];
    for row in 0..data.len() {
        if remaining.iter().all(|&r| r == 0) {
            break;
        }
        let class = data.labels[row];
        let p = &prefs[class];
        // Sample an org with remaining capacity, weighted by preference.
        let mass: f64 = (0..n_orgs).filter(|&o| remaining[o] > 0).map(|o| p[o]).sum();
        let mut u = rng.gen_range(0.0..mass.max(f64::MIN_POSITIVE));
        let mut chosen = None;
        for o in 0..n_orgs {
            if remaining[o] == 0 {
                continue;
            }
            u -= p[o];
            if u <= 0.0 {
                chosen = Some(o);
                break;
            }
        }
        let o = chosen.unwrap_or_else(|| {
            // lint:allow(no-panic-in-lib): remaining capacities sum to the sample count, so a slot exists
            (0..n_orgs).find(|&o| remaining[o] > 0).expect("capacity remains")
        });
        assigned[o].push(row);
        remaining[o] -= 1;
    }

    assigned
        .into_iter()
        .map(|rows| {
            let mut features = Matrix::zeros(rows.len(), data.dim());
            let mut labels = Vec::with_capacity(rows.len());
            for (r, &idx) in rows.iter().enumerate() {
                features.row_mut(r).copy_from_slice(data.features.row(idx));
                labels.push(data.labels[idx]);
            }
            Dataset { features, labels, classes: data.classes }
        })
        .collect()
}

/// Label-skew measure of a partition: mean total-variation distance
/// between each shard's label distribution and the pooled distribution
/// (0 = perfectly i.i.d.).
pub fn label_skew(shards: &[Dataset]) -> f64 {
    let classes = shards.first().map_or(0, |s| s.classes);
    if classes == 0 {
        return 0.0;
    }
    let mut pooled = vec![0.0f64; classes];
    let mut total = 0.0;
    for s in shards {
        for &l in &s.labels {
            pooled[l] += 1.0;
            total += 1.0;
        }
    }
    // lint:allow(no-float-eq): exact-zero count guard before dividing by `total`
    if total == 0.0 {
        return 0.0;
    }
    for p in &mut pooled {
        *p /= total;
    }
    let mut skew = 0.0;
    for s in shards {
        if s.is_empty() {
            continue;
        }
        let mut local = vec![0.0f64; classes];
        for &l in &s.labels {
            local[l] += 1.0;
        }
        let n = s.len() as f64;
        let tv: f64 = local
            .iter()
            .zip(&pooled)
            .map(|(l, p)| (l / n - p).abs())
            .sum::<f64>()
            / 2.0;
        skew += tv;
    }
    skew / shards.len() as f64
}

/// Marsaglia-Tsang gamma sampler (shape `k > 0`, scale 1), sufficient
/// for Dirichlet draws.
fn gamma_draw(rng: &mut StdRng, k: f64) -> f64 {
    if k < 1.0 {
        // Boost: Gamma(k) = Gamma(k+1) * U^(1/k).
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return gamma_draw(rng, k + 1.0) * u.powf(1.0 / k);
    }
    let d = k - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = normal(rng) as f64;
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// A standard-normal draw by Box–Muller (one of the pair).
fn normal(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// [`normal`]'s two uniform draws without the transform: advances the
/// generator exactly as [`normal`] does and returns 0.
fn skip_normal(rng: &mut StdRng) -> f32 {
    let _: f64 = rng.gen_range(f64::EPSILON..1.0);
    let _: f64 = rng.gen_range(0.0..1.0);
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| f64::from(normal(&mut rng))).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(DatasetKind::Cifar10Like, 100, 5);
        let b = generate(DatasetKind::Cifar10Like, 100, 5);
        let c = generate(DatasetKind::Cifar10Like, 100, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_match_kind() {
        for kind in DatasetKind::ALL {
            let d = generate(kind, 50, 1);
            assert_eq!(d.len(), 50);
            assert_eq!(d.dim(), kind.dim());
            assert_eq!(d.classes, 10);
            assert!(d.labels.iter().all(|&l| l < 10));
            assert!(!d.is_empty());
        }
    }

    #[test]
    fn take_and_shard_partition_correctly() {
        let d = generate(DatasetKind::FmnistLike, 100, 2);
        let head = d.take(30);
        assert_eq!(head.len(), 30);
        assert_eq!(head.labels[..], d.labels[..30]);
        let shards = d.shard(&[40, 35, 25]);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].len(), 40);
        assert_eq!(shards[2].len(), 25);
        assert_eq!(shards[1].labels[0], d.labels[40]);
    }

    #[test]
    #[should_panic(expected = "shard sizes exceed")]
    fn oversized_shards_panic() {
        let d = generate(DatasetKind::EurosatLike, 10, 3);
        let _ = d.shard(&[6, 6]);
    }

    #[test]
    fn easier_datasets_have_larger_separation_to_noise() {
        let easy = DatasetKind::EurosatLike;
        let hard = DatasetKind::SvhnLike;
        assert!(easy.separation() / easy.noise() > hard.separation() / hard.noise());
    }

    #[test]
    fn dirichlet_small_beta_is_skewed_large_beta_is_iid() {
        let d = generate(DatasetKind::FmnistLike, 3000, 5);
        let sizes = [900, 900, 900];
        let skewed = dirichlet_shard(&d, &sizes, 0.1, 7);
        let iid = dirichlet_shard(&d, &sizes, 100.0, 7);
        assert_eq!(skewed.len(), 3);
        for (s, &want) in skewed.iter().zip(&sizes) {
            assert_eq!(s.len(), want);
        }
        let skew_lo = label_skew(&skewed);
        let skew_hi = label_skew(&iid);
        assert!(
            skew_lo > 2.0 * skew_hi + 0.05,
            "beta=0.1 skew {skew_lo:.3} must far exceed beta=100 skew {skew_hi:.3}"
        );
    }

    #[test]
    fn dirichlet_is_deterministic_per_seed() {
        let d = generate(DatasetKind::EurosatLike, 600, 2);
        let a = dirichlet_shard(&d, &[200, 200], 0.5, 3);
        let b = dirichlet_shard(&d, &[200, 200], 0.5, 3);
        let c = dirichlet_shard(&d, &[200, 200], 0.5, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn dirichlet_rejects_bad_beta() {
        let d = generate(DatasetKind::EurosatLike, 100, 1);
        let _ = dirichlet_shard(&d, &[50], 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "exceed dataset length")]
    fn dirichlet_rejects_oversized_request() {
        let d = generate(DatasetKind::EurosatLike, 100, 1);
        let _ = dirichlet_shard(&d, &[60, 60], 1.0, 1);
    }

    #[test]
    fn label_skew_of_identical_shards_is_zero() {
        let d = generate(DatasetKind::EurosatLike, 400, 9);
        let shards = vec![d.clone(), d];
        assert!(label_skew(&shards) < 1e-12);
        assert_eq!(label_skew(&[]), 0.0);
    }

    #[test]
    fn minibatch_gather_reuses_buffers() {
        let d = generate(DatasetKind::FmnistLike, 50, 4);
        let mut batch = MiniBatch::new();
        batch.gather(&d, &[5, 0, 49]);
        assert_eq!(batch.features.rows(), 3);
        assert_eq!(batch.features.row(0), d.features.row(5));
        assert_eq!(batch.labels, vec![d.labels[5], d.labels[0], d.labels[49]]);
        let ptr = batch.features.as_slice().as_ptr();
        batch.gather(&d, &[1, 2]);
        assert_eq!(batch.features.rows(), 2);
        assert_eq!(batch.labels, vec![d.labels[1], d.labels[2]]);
        assert_eq!(batch.features.as_slice().as_ptr(), ptr, "smaller gather must reuse");
    }

    #[test]
    fn labels_cover_multiple_classes() {
        let d = generate(DatasetKind::SvhnLike, 500, 9);
        let distinct: std::collections::BTreeSet<_> = d.labels.iter().collect();
        assert!(distinct.len() >= 8, "expected most classes present");
    }
}
