//! Loop nests shared by kernel bodies and sequential references.

use std::ops::Range;

/// `Aᵀv` restricted to the columns `cols` of the row-major `n × n` matrix
/// `a`: element `c` is `Σᵢ a[i·n + cols.start + c] · v[i]`.
///
/// Each sum runs over `i` in increasing order from `0.0`, exactly as a
/// work-item walking one column does, so every element is bit-identical to
/// that walk; the loops are interchanged so `a` is read row by row instead
/// of with an `n`-element stride.
pub(crate) fn column_matvec(a: &[f32], v: &[f32], n: usize, cols: Range<usize>) -> Vec<f32> {
    let mut acc = vec![0.0f32; cols.len()];
    for (row, &vi) in a.chunks_exact(n).zip(&v[..n]) {
        for (s, &x) in acc.iter_mut().zip(&row[cols.clone()]) {
            *s += x * vi;
        }
    }
    acc
}
