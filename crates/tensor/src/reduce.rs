//! Reductions over tensors: global and per-axis sums, means, extrema, argmax.

use crate::tensor::Tensor;

/// Sum of all elements.
pub fn sum(t: &Tensor) -> f32 {
    t.data().iter().sum()
}

/// Sum of all elements accumulated in `f64` (for loss computations where
/// `f32` accumulation error matters).
pub fn sum_f64(t: &Tensor) -> f64 {
    t.data().iter().map(|&x| x as f64).sum()
}

/// Mean of all elements.
///
/// # Panics
///
/// Panics if the tensor is empty.
pub fn mean(t: &Tensor) -> f32 {
    assert!(!t.is_empty(), "mean of empty tensor");
    sum(t) / t.len() as f32
}

/// Maximum element.
///
/// # Panics
///
/// Panics if the tensor is empty.
pub fn max(t: &Tensor) -> f32 {
    assert!(!t.is_empty(), "max of empty tensor");
    t.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Minimum element.
///
/// # Panics
///
/// Panics if the tensor is empty.
pub fn min(t: &Tensor) -> f32 {
    assert!(!t.is_empty(), "min of empty tensor");
    t.data().iter().copied().fold(f32::INFINITY, f32::min)
}

/// Per-row argmax of a 2-D `[n, k]` tensor; ties resolve to the lowest index.
///
/// # Panics
///
/// Panics if the tensor is not 2-D or has zero columns.
pub fn argmax_rows(t: &Tensor) -> Vec<usize> {
    assert_eq!(t.ndim(), 2, "argmax_rows requires a 2-D tensor");
    let (n, k) = (t.dim(0), t.dim(1));
    assert!(k > 0, "argmax_rows requires at least one column");
    (0..n)
        .map(|i| {
            let row = &t.data()[i * k..(i + 1) * k];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best
        })
        .collect()
}

/// Indices of the top-`k` values per row of a 2-D tensor, best first.
///
/// # Panics
///
/// Panics if the tensor is not 2-D or `k` exceeds the number of columns.
pub fn topk_rows(t: &Tensor, k: usize) -> Vec<Vec<usize>> {
    assert_eq!(t.ndim(), 2, "topk_rows requires a 2-D tensor");
    let (n, cols) = (t.dim(0), t.dim(1));
    assert!(k <= cols, "k={k} exceeds {cols} columns");
    (0..n)
        .map(|i| {
            let row = &t.data()[i * cols..(i + 1) * cols];
            let mut idx: Vec<usize> = (0..cols).collect();
            idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap().then(a.cmp(&b))); // tqt:allow(unwrap): logits are finite by construction
            idx.truncate(k);
            idx
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(sum(&t), 2.0);
        assert_eq!(mean(&t), 2.0 / 3.0);
        assert_eq!(max(&t), 3.0);
        assert_eq!(min(&t), -2.0);
    }

    #[test]
    fn argmax_rows_picks_first_tie() {
        let t = Tensor::from_vec([2, 3], vec![1., 3., 3., 5., 2., 1.]);
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }

    #[test]
    fn topk_ordering() {
        let t = Tensor::from_vec([1, 4], vec![0.1, 0.9, 0.5, 0.3]);
        assert_eq!(topk_rows(&t, 3), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn sum_f64_accumulates_precisely() {
        let t = Tensor::full([1000], 0.1);
        assert!((sum_f64(&t) - 100.0).abs() < 1e-3);
    }
}
