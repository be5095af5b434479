//! A small trainable neural network with int8 weight quantization — the
//! substrate for real accuracy-under-faults measurements (paper Sec. II-B2,
//! Fig. 13).
//!
//! The paper corrupts ResNet weights stored in eNVM and measures ImageNet
//! accuracy; here a compact ReLU MLP trained on the procedural dataset of
//! [`crate::dataset`] plays that role. The quantized weight bytes round-trip
//! through [`QuantizedMlp::weight_bytes`] / [`QuantizedMlp::load_weight_bytes`],
//! which is exactly where a fault injector corrupts them.

use crate::dataset::Dataset;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

/// Share of `data`'s samples whose largest logit is their label.
fn share_correct(logits: &Matrix, data: &Dataset) -> f64 {
    let correct = data
        .labels
        .iter()
        .enumerate()
        .filter(|&(i, &label)| logits.argmax_row(i) == label)
        .count();
    correct as f64 / data.len().max(1) as f64
}

/// One dense layer: `y = relu?(x·W + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`.
    pub weights: Matrix,
    /// Bias, `out_dim`.
    pub bias: Vec<f32>,
    /// Whether ReLU follows this layer (all but the last).
    pub relu: bool,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut impl Rng) -> Self {
        Self {
            weights: Matrix::he_init(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            relu,
        }
    }

    fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.weights);
        y.add_row_bias(&self.bias);
        if self.relu {
            y.relu_inplace();
        }
        y
    }
}

/// A multi-layer perceptron classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// The dense layers, input to output.
    pub layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[256, 64, 32, 10]`.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two widths are given.
    pub fn new(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Dense::new(w[0], w[1], i + 2 < widths.len(), &mut rng))
            .collect();
        Self { layers }
    }

    /// Forward pass over a batch (one sample per row).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h: Option<Matrix> = None;
        for layer in &self.layers {
            h = Some(layer.forward(h.as_ref().unwrap_or(x)));
        }
        h.unwrap_or_else(|| x.clone())
    }

    /// Total parameter count.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.bias.len())
            .sum()
    }

    /// Classification accuracy over a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        share_correct(&self.forward(&data.images), data)
    }

    /// One epoch of minibatch SGD with softmax cross-entropy. Returns mean
    /// loss.
    pub fn train_epoch(
        &mut self,
        data: &Dataset,
        lr: f32,
        batch: usize,
        rng: &mut impl Rng,
    ) -> f64 {
        let n = data.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut total_loss = 0.0f64;
        let mut batches = 0;

        let dim = data.images.cols();
        for chunk in order.chunks(batch.max(1)) {
            let mut rows = Vec::with_capacity(chunk.len() * dim);
            for &i in chunk {
                rows.extend_from_slice(data.images.row(i));
            }
            let bx = Matrix::from_vec(chunk.len(), dim, rows);
            let by: Vec<usize> = chunk.iter().map(|&i| data.labels[i]).collect();
            total_loss += self.sgd_step(&bx, &by, lr);
            batches += 1;
        }
        total_loss / batches.max(1) as f64
    }

    /// One SGD step on a batch; returns batch loss.
    #[allow(clippy::needless_range_loop)] // r/c index matrices and labels together
    fn sgd_step(&mut self, x: &Matrix, labels: &[usize], lr: f32) -> f64 {
        // Forward, caching every layer's output; layer `i`'s input is
        // output `i - 1`, or `x` for the first layer.
        let mut outputs: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let next = layer.forward(outputs.last().unwrap_or(x));
            outputs.push(next);
        }
        let logits = outputs.last().expect("at least one layer");
        let batch = x.rows() as f32;

        // Softmax + cross-entropy gradient: (softmax - onehot) / batch.
        let mut delta = Matrix::zeros(logits.rows(), logits.cols());
        let mut loss = 0.0f64;
        for r in 0..logits.rows() {
            let row = logits.row(r);
            let max = row.iter().cloned().fold(f32::MIN, f32::max);
            let exp: Vec<f32> = row.iter().map(|v| (v - max).exp()).collect();
            let sum: f32 = exp.iter().sum();
            for c in 0..logits.cols() {
                let p = exp[c] / sum;
                let target = if labels[r] == c { 1.0 } else { 0.0 };
                delta.set(r, c, (p - target) / batch);
                if labels[r] == c {
                    loss -= (p.max(1e-9)).ln() as f64;
                }
            }
        }
        loss /= batch as f64;

        // Backward through the layers.
        for i in (0..self.layers.len()).rev() {
            let input = if i == 0 { x } else { &outputs[i - 1] };
            // ReLU gradient mask.
            if self.layers[i].relu {
                for (d, &out) in delta.as_mut_slice().iter_mut().zip(outputs[i].as_slice()) {
                    if out <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            let grad_w = input.transposed().matmul(&delta);
            // Nothing reads the gradient with respect to the network input.
            let next_delta = (i > 0).then(|| delta.matmul(&self.layers[i].weights.transposed()));
            let layer = &mut self.layers[i];
            for (w, g) in layer
                .weights
                .as_mut_slice()
                .iter_mut()
                .zip(grad_w.as_slice())
            {
                *w -= lr * g;
            }
            for c in 0..layer.bias.len() {
                let g: f32 = (0..delta.rows()).map(|r| delta.get(r, c)).sum();
                layer.bias[c] -= lr * g;
            }
            if let Some(next_delta) = next_delta {
                delta = next_delta;
            }
        }
        loss
    }

    /// Trains until reaching `target_accuracy` on `train` or `max_epochs`.
    /// Returns the reached training accuracy.
    pub fn train_to(
        &mut self,
        train: &Dataset,
        target_accuracy: f64,
        max_epochs: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = self.accuracy(train);
        for _ in 0..max_epochs {
            if acc >= target_accuracy {
                break;
            }
            self.train_epoch(train, 0.1, 32, &mut rng);
            acc = self.accuracy(train);
        }
        acc
    }
}

/// An int8-quantized snapshot of an [`Mlp`]: symmetric per-layer scales,
/// weights exposed as raw bytes for storage in (faulty) memory.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    widths: Vec<usize>,
    scales: Vec<f32>,
    /// Quantized weights, one `Vec<i8>` per layer (row-major `in × out`).
    weights_q: Vec<Vec<i8>>,
    biases: Vec<Vec<f32>>,
    relu: Vec<bool>,
}

impl QuantizedMlp {
    /// Quantizes a trained network to int8 weights.
    pub fn quantize(mlp: &Mlp) -> Self {
        let mut widths = vec![mlp.layers[0].weights.rows()];
        let mut scales = Vec::new();
        let mut weights_q = Vec::new();
        let mut biases = Vec::new();
        let mut relu = Vec::new();
        for layer in &mlp.layers {
            widths.push(layer.weights.cols());
            let scale = layer.weights.abs_max().max(1e-9) / 127.0;
            scales.push(scale);
            weights_q.push(
                layer
                    .weights
                    .as_slice()
                    .iter()
                    .map(|&w| (w / scale).round().clamp(-127.0, 127.0) as i8)
                    .collect(),
            );
            biases.push(layer.bias.clone());
            relu.push(layer.relu);
        }
        Self {
            widths,
            scales,
            weights_q,
            biases,
            relu,
        }
    }

    /// Total weight storage in bytes (what lives in the eNVM array).
    pub fn weight_bytes_len(&self) -> usize {
        self.weights_q.iter().map(Vec::len).sum()
    }

    /// Serializes all quantized weights into one contiguous byte buffer —
    /// the image a fault injector corrupts.
    pub fn weight_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.weight_bytes_len());
        for layer in &self.weights_q {
            out.extend(layer.iter().map(|&w| w as u8));
        }
        out
    }

    /// Loads (possibly corrupted) weight bytes back.
    ///
    /// # Panics
    ///
    /// Panics when `bytes.len()` differs from [`Self::weight_bytes_len`].
    pub fn load_weight_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.weight_bytes_len(),
            "weight image size mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.weights_q {
            for w in layer.iter_mut() {
                *w = bytes[offset] as i8;
                offset += 1;
            }
        }
    }

    /// Layer `i`'s output over `input`, restricted to the output `columns`,
    /// with the layer's weights read from `bytes` (its slice of a weight
    /// image). Per element this is exactly what [`Self::forward`] computes.
    fn layer_columns(&self, i: usize, bytes: &[u8], input: &Matrix, columns: &[usize]) -> Matrix {
        let out_dim = self.widths[i + 1];
        let w = Matrix::from_fn(self.widths[i], columns.len(), |r, c| {
            bytes[r * out_dim + columns[c]] as i8 as f32 * self.scales[i]
        });
        let mut y = input.matmul(&w);
        let bias: Vec<f32> = columns.iter().map(|&c| self.biases[i][c]).collect();
        y.add_row_bias(&bias);
        if self.relu[i] {
            y.relu_inplace();
        }
        y
    }

    /// Forward pass with dequantized weights.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h: Option<Matrix> = None;
        for i in 0..self.weights_q.len() {
            let w = Matrix::from_vec(
                self.widths[i],
                self.widths[i + 1],
                self.weights_q[i]
                    .iter()
                    .map(|&q| q as f32 * self.scales[i])
                    .collect(),
            );
            let mut y = h.as_ref().unwrap_or(x).matmul(&w);
            y.add_row_bias(&self.biases[i]);
            if self.relu[i] {
                y.relu_inplace();
            }
            h = Some(y);
        }
        h.unwrap_or_else(|| x.clone())
    }

    /// Classification accuracy over a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        share_correct(&self.forward(&data.images), data)
    }
}

/// Scores corrupted weight images of one [`QuantizedMlp`] on one test set,
/// recomputing only what the corruption touched.
///
/// Built once from the clean model, it keeps the clean weight image, each
/// layer's byte offset into it, every clean layer output over the test set,
/// and the clean (baseline) accuracy. [`Self::accuracy`] then:
///
/// - returns the baseline when no byte differs from the clean image;
/// - otherwise finds the first layer `L` with a changed byte, recomputes
///   only `L`'s output columns that have a changed weight (one narrow
///   product over `L`'s clean input), scatters them into a copy of `L`'s
///   clean output, and runs the layers after `L` in full.
///
/// The result is bit-identical to [`QuantizedMlp::load_weight_bytes`] +
/// [`QuantizedMlp::accuracy`], which stay the oracle: column `j` of `x·W`
/// depends only on column `j` of `W`, and [`Matrix::matmul`] sums every
/// element in the same order whatever the width of `W`.
#[derive(Debug)]
pub struct TrialEvaluator {
    model: QuantizedMlp,
    test: Dataset,
    clean: Vec<u8>,
    /// Byte offset of each layer in the image, plus the image length.
    offsets: Vec<usize>,
    /// Clean output of each layer over the test set (after ReLU).
    outputs: Vec<Matrix>,
    baseline: f64,
}

impl TrialEvaluator {
    /// Runs the clean model over `test` once and caches what trials reuse.
    pub fn new(model: QuantizedMlp, test: Dataset) -> Self {
        let clean = model.weight_bytes();
        let mut offsets = vec![0];
        for layer in &model.weights_q {
            offsets.push(offsets.last().expect("nonempty") + layer.len());
        }
        let mut outputs: Vec<Matrix> = Vec::with_capacity(model.weights_q.len());
        for i in 0..model.weights_q.len() {
            let input = outputs.last().unwrap_or(&test.images);
            let all: Vec<usize> = (0..model.widths[i + 1]).collect();
            let output = model.layer_columns(i, &clean[offsets[i]..offsets[i + 1]], input, &all);
            outputs.push(output);
        }
        let baseline = share_correct(outputs.last().expect("at least one layer"), &test);
        Self {
            model,
            test,
            clean,
            offsets,
            outputs,
            baseline,
        }
    }

    /// The clean model.
    pub fn model(&self) -> &QuantizedMlp {
        &self.model
    }

    /// The test set every trial is scored on.
    pub fn test_set(&self) -> &Dataset {
        &self.test
    }

    /// The clean weight image ([`QuantizedMlp::weight_bytes`]).
    pub fn clean_image(&self) -> &[u8] {
        &self.clean
    }

    /// The clean model's accuracy on the test set.
    pub fn baseline(&self) -> f64 {
        self.baseline
    }

    /// Accuracy on the test set with the model's weights replaced by
    /// `image`, equal to `load_weight_bytes(image)` followed by
    /// [`QuantizedMlp::accuracy`].
    ///
    /// # Panics
    ///
    /// Panics when `image.len()` differs from the clean image's length.
    pub fn accuracy(&self, image: &[u8]) -> f64 {
        assert_eq!(image.len(), self.clean.len(), "weight image size mismatch");
        if image == self.clean.as_slice() {
            return self.baseline;
        }
        share_correct(&self.logits(image), &self.test)
    }

    /// Test-set logits under `image`, recomputed from the first layer with
    /// a changed byte.
    fn logits(&self, image: &[u8]) -> Matrix {
        let last = self.outputs.len() - 1;
        let Some(first) = image.iter().zip(&self.clean).position(|(a, b)| a != b) else {
            return self.outputs[last].clone();
        };
        let layer = self.offsets.partition_point(|&start| start <= first) - 1;
        let bytes = |i: usize| &image[self.offsets[i]..self.offsets[i + 1]];

        let out_dim = self.model.widths[layer + 1];
        let clean = &self.clean[self.offsets[layer]..self.offsets[layer + 1]];
        let mut touched = vec![false; out_dim];
        for (i, (a, b)) in bytes(layer).iter().zip(clean).enumerate() {
            if a != b {
                touched[i % out_dim] = true;
            }
        }
        let columns: Vec<usize> = (0..out_dim).filter(|&c| touched[c]).collect();
        let input = match layer {
            0 => &self.test.images,
            _ => &self.outputs[layer - 1],
        };
        let narrow = self
            .model
            .layer_columns(layer, bytes(layer), input, &columns);
        let mut h = self.outputs[layer].clone();
        for r in 0..h.rows() {
            for (c, &column) in columns.iter().enumerate() {
                h.set(r, column, narrow.get(r, c));
            }
        }
        for i in layer + 1..=last {
            let all: Vec<usize> = (0..self.model.widths[i + 1]).collect();
            h = self.model.layer_columns(i, bytes(i), &h, &all);
        }
        h
    }
}

/// Trains the standard fault-study classifier: a `[256, 64, 32, 10]` MLP on
/// the procedural dataset, quantized to int8. Returns the quantized model
/// and the held-out test set. Deterministic in `seed`.
pub fn trained_classifier(seed: u64) -> (QuantizedMlp, Dataset) {
    let train = crate::dataset::generate(1200, seed);
    let test = crate::dataset::generate(400, seed.wrapping_add(1));
    let mut mlp = Mlp::new(
        &[crate::dataset::INPUT_DIM, 64, 32, crate::dataset::CLASSES],
        seed,
    );
    mlp.train_to(&train, 0.97, 60, seed);
    (QuantizedMlp::quantize(&mlp), test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;

    #[test]
    fn training_reaches_high_accuracy() {
        let train = dataset::generate(800, 11);
        let mut mlp = Mlp::new(&[dataset::INPUT_DIM, 48, dataset::CLASSES], 11);
        let before = mlp.accuracy(&train);
        let after = mlp.train_to(&train, 0.95, 50, 11);
        assert!(
            before < 0.3,
            "untrained accuracy should be near chance, got {before}"
        );
        assert!(after > 0.9, "training failed to converge: {after}");
    }

    #[test]
    fn quantization_preserves_accuracy() {
        let (quant, test) = trained_classifier(21);
        let acc = quant.accuracy(&test);
        assert!(acc > 0.85, "quantized test accuracy {acc}");
    }

    #[test]
    fn weight_bytes_roundtrip() {
        let (mut quant, test) = trained_classifier(22);
        let baseline = quant.accuracy(&test);
        let bytes = quant.weight_bytes();
        quant.load_weight_bytes(&bytes);
        assert_eq!(quant.accuracy(&test), baseline);
    }

    #[test]
    fn corrupting_weights_degrades_accuracy() {
        let (mut quant, test) = trained_classifier(23);
        let baseline = quant.accuracy(&test);
        let mut bytes = quant.weight_bytes();
        // Destroy 20 % of bits — accuracy must collapse toward chance.
        let mut state = 0x12345u64;
        for b in bytes.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if state >> 60 < 3 {
                *b ^= (state >> 32) as u8;
            }
        }
        quant.load_weight_bytes(&bytes);
        let corrupted = quant.accuracy(&test);
        assert!(
            corrupted < baseline - 0.2,
            "corruption had no effect: {baseline} -> {corrupted}"
        );
    }

    /// The full-forward oracle: reload the image into a clone and re-run.
    fn oracle(evaluator: &TrialEvaluator, image: &[u8]) -> f64 {
        let mut faulty = evaluator.model().clone();
        faulty.load_weight_bytes(image);
        faulty.accuracy(evaluator.test_set())
    }

    #[test]
    fn trial_evaluator_matches_the_full_forward_oracle() {
        let (quant, test) = trained_classifier(25);
        let evaluator = TrialEvaluator::new(quant.clone(), test.clone());
        assert_eq!(evaluator.clean_image(), quant.weight_bytes().as_slice());
        assert_eq!(
            evaluator.baseline().to_bits(),
            quant.accuracy(&test).to_bits()
        );

        // Layers of [256, 64, 32, 10]: bytes [0, 16384), [16384, 18432),
        // [18432, 18752); the last is the 10-wide output layer.
        let (l2, l3, end) = (256 * 64, 256 * 64 + 64 * 32, quant.weight_bytes_len());
        let flipped = |positions: &[usize], mask: u8| {
            let mut image = evaluator.clean_image().to_vec();
            for &p in positions {
                image[p] ^= mask;
            }
            image
        };
        let mut ber = evaluator.clean_image().to_vec();
        let mut state = 0x9E37u64;
        for byte in ber.iter_mut() {
            for bit in 0..8 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                // 13107 / 65536 = 0.2 of all bits.
                if (state >> 48) < 13107 {
                    *byte ^= 1 << bit;
                }
            }
        }
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("no flips", evaluator.clean_image().to_vec()),
            ("one byte, first layer", flipped(&[1000], 0x80)),
            ("one byte, middle layer", flipped(&[l2 + 100], 0x80)),
            ("one byte, last layer", flipped(&[end - 3], 0x80)),
            (
                "layer 2 only",
                flipped(&[l2, l2 + 33, l2 + 700, l3 - 1], 0x41),
            ),
            (
                "all 64 layer-1 columns",
                flipped(&(0..64).map(|c| 5 * 64 + c).collect::<Vec<_>>(), 0x80),
            ),
            ("ber 0.2", ber),
        ];
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, image) in &cases {
            let fast = evaluator.accuracy(image);
            assert_eq!(
                fast.to_bits(),
                oracle(&evaluator, image).to_bits(),
                "{name}"
            );
            // Stronger than accuracy: every logit bit agrees.
            let mut faulty = quant.clone();
            faulty.load_weight_bytes(image);
            let full = faulty.forward(&test.images);
            assert_eq!(bits(&evaluator.logits(image)), bits(&full), "{name}");
        }
        // The corruptions reach the score: BER 0.2 collapses accuracy.
        assert!(evaluator.accuracy(&cases[6].1) < evaluator.baseline() - 0.2);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn trial_evaluator_rejects_a_wrong_size_image() {
        let mlp = Mlp::new(&[dataset::INPUT_DIM, 4, dataset::CLASSES], 26);
        let evaluator = TrialEvaluator::new(QuantizedMlp::quantize(&mlp), dataset::generate(8, 26));
        evaluator.accuracy(&[0u8; 3]);
    }

    /// Digest of `trained_classifier(2022)`; see the test below.
    const PINNED: u64 = 0x4170_e628_5070_3801;

    /// FNV-1a (64-bit) over `bytes`, continuing from `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn the_shared_fault_study_classifier_is_pinned() {
        // Seed 2022 is the fault studies' shared classifier (`DNN_SEED` in
        // `nvmexplorer_core::accuracy`). The digest covers the weight image,
        // every scale and bias bit, and the evaluator's baseline; it was
        // taken before the register-tiled matmul and the leaner SGD step,
        // so any change to the kernels or the training loop that alters a
        // single bit of the trained network fails here.
        let (quant, test) = trained_classifier(2022);
        let mut hash = fnv1a(0xcbf2_9ce4_8422_2325, &quant.weight_bytes());
        for v in quant.scales.iter().chain(quant.biases.iter().flatten()) {
            hash = fnv1a(hash, &v.to_bits().to_le_bytes());
        }
        let baseline = TrialEvaluator::new(quant, test).baseline();
        hash = fnv1a(hash, &baseline.to_bits().to_le_bytes());
        assert_eq!(hash, PINNED, "digest {hash:#018x}");
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mlp = Mlp::new(&[256, 64, 32, 10], 1);
        assert_eq!(
            mlp.parameter_count(),
            256 * 64 + 64 + 64 * 32 + 32 + 32 * 10 + 10
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn loading_wrong_size_panics() {
        let (mut quant, _) = trained_classifier(24);
        quant.load_weight_bytes(&[0u8; 3]);
    }
}
