//! Hermitian eigendecomposition via the cyclic Jacobi method.

use crate::{CMat, C64};

/// Result of a Hermitian eigendecomposition.
///
/// Satisfies `A · v_k = λ_k · v_k` where `v_k` is the `k`-th column of
/// [`EigH::vectors`] and `λ_k = values[k]`. Eigenvalues are sorted in
/// ascending order.
#[derive(Clone, Debug)]
pub struct EigH {
    /// Eigenvalues in ascending order (real, since the input is Hermitian).
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub vectors: CMat,
}

impl EigH {
    /// Rebuilds `V · diag(λ) · V†`; useful for testing and for spectral
    /// filtering such as [`psd_project`].
    pub fn reconstruct(&self) -> CMat {
        let n = self.values.len();
        let mut d = CMat::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = C64::real(self.values[i]);
        }
        self.vectors.mul(&d).mul(&self.vectors.adjoint())
    }
}

/// Computes the eigendecomposition of a Hermitian matrix with the cyclic
/// Jacobi method.
///
/// The method applies two-sided unitary rotations that zero out one
/// off-diagonal pair at a time; for Hermitian input it converges
/// quadratically and is unconditionally stable, which matters more here than
/// speed (the matrices are small fragment Choi matrices).
///
/// # Panics
///
/// Panics if `a` is not square. The Hermitian property is assumed; only the
/// lower triangle influences the result in a non-Hermitian input. A
/// non-finite entry does not panic: the decomposition it returns is
/// meaningless, with any NaN eigenvalues sorted to the ends.
pub fn eigh(a: &CMat) -> EigH {
    assert_eq!(a.rows(), a.cols(), "eigh requires a square matrix");
    let n = a.rows();
    let mut m = a.clone();
    let mut v = CMat::identity(n);

    // Convergence threshold relative to the matrix scale.
    let scale = m.frobenius_norm().max(1e-300);
    let tol = 1e-14 * scale;

    for _sweep in 0..100 {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)].norm_sqr();
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m[(p, p)].re;
                let aqq = m[(q, q)].re;
                // Absorb the phase of the off-diagonal entry, then pick the
                // classic real Jacobi rotation angle.
                let phi = apq.arg();
                let g = apq.abs();
                let theta = 0.5 * (2.0 * g).atan2(app - aqq);
                let c = theta.cos();
                let s = theta.sin();
                // Unitary 2×2: U = [[c, -s·e^{iφ}], [s·e^{-iφ}, c]]
                let e_pos = C64::cis(phi);
                let e_neg = e_pos.conj();

                // A := U† A U, applied as column then row updates.
                for k in 0..n {
                    let akp = m[(k, p)];
                    let akq = m[(k, q)];
                    m[(k, p)] = akp * c + akq * (s * e_neg);
                    m[(k, q)] = akq * c - akp * (s * e_pos);
                }
                for k in 0..n {
                    let apk = m[(p, k)];
                    let aqk = m[(q, k)];
                    m[(p, k)] = apk * c + aqk * (s * e_pos);
                    m[(q, k)] = aqk * c - apk * (s * e_neg);
                }
                // V := V U
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = vkp * c + vkq * (s * e_neg);
                    v[(k, q)] = vkq * c - vkp * (s * e_pos);
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    let values_raw: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    // A NaN input leaves NaN on the diagonal: order those by `total_cmp`
    // rather than panic. Numbers compare numerically, so `-0.0` and `0.0`
    // stay tied and the stable sort keeps their eigenvectors in index order.
    order.sort_by(|&i, &j| {
        let (a, b) = (values_raw[i], values_raw[j]);
        a.partial_cmp(&b).unwrap_or_else(|| a.total_cmp(&b))
    });

    let values = order.iter().map(|&i| values_raw[i]).collect();
    let vectors = CMat::from_fn(n, n, |i, j| v[(i, order[j])]);
    EigH { values, vectors }
}

/// Projects a Hermitian matrix onto the positive semidefinite cone by
/// clipping negative eigenvalues to zero.
///
/// Note that plain clipping *increases* the trace; when the trace carries
/// meaning (probability mass), prefer [`psd_project_with_trace`].
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn psd_project(a: &CMat) -> CMat {
    let dec = eigh(a);
    let n = dec.values.len();
    let mut d = CMat::zeros(n, n);
    for i in 0..n {
        d[(i, i)] = C64::real(dec.values[i].max(0.0));
    }
    dec.vectors.mul(&d).mul(&dec.vectors.adjoint())
}

/// The Frobenius-closest positive semidefinite matrix with a fixed trace
/// (Smolin–Gambetta–Smith water-filling).
///
/// Solves `min ‖M − A‖_F` over `M ⪰ 0` with `tr M = target_trace` by
/// shifting the eigenvalue spectrum: `μ_i = max(λ_i + ν, 0)` with `ν`
/// chosen so the kept eigenvalues sum to the target. This is the
/// physicality-restoring step of maximum-likelihood fragment tomography:
/// finite-shot Choi blocks keep their (unbiased) probability mass while
/// shedding negative eigenvalues.
///
/// # Panics
///
/// Panics if `a` is not square or `target_trace < 0`.
pub fn psd_project_with_trace(a: &CMat, target_trace: f64) -> CMat {
    assert!(target_trace >= 0.0, "trace target must be non-negative");
    let dec = eigh(a);
    let n = dec.values.len();
    // Eigenvalues ascending; scan the suffix kept alive by the shift.
    let mut mu = vec![0.0; n];
    let mut kept = 0usize;
    let mut nu = 0.0;
    let mut suffix_sum = 0.0;
    for k in (0..n).rev() {
        suffix_sum += dec.values[k];
        let count = n - k;
        let candidate_nu = (target_trace - suffix_sum) / count as f64;
        if dec.values[k] + candidate_nu > 0.0 {
            kept = count;
            nu = candidate_nu;
        } else {
            break;
        }
    }
    for k in (n - kept)..n {
        mu[k] = (dec.values[k] + nu).max(0.0);
    }
    let mut d = CMat::zeros(n, n);
    for i in 0..n {
        d[(i, i)] = C64::real(mu[i]);
    }
    dec.vectors.mul(&d).mul(&dec.vectors.adjoint())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hermitian_from_seed(n: usize, seed: u64) -> CMat {
        // Small deterministic pseudo-random Hermitian matrix.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let g = CMat::from_fn(n, n, |_, _| C64::new(next(), next()));
        g.add(&g.adjoint()).scale(C64::real(0.5))
    }

    #[test]
    fn diagonalizes_pauli_z() {
        let z = CMat::from_rows(&[&[C64::ONE, C64::ZERO], &[C64::ZERO, -C64::ONE]]);
        let dec = eigh(&z);
        assert!((dec.values[0] + 1.0).abs() < 1e-12);
        assert!((dec.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstructs_random_hermitian() {
        for seed in 1..6 {
            let a = hermitian_from_seed(6, seed);
            let dec = eigh(&a);
            assert!(
                dec.reconstruct().approx_eq(&a, 1e-9),
                "seed {seed} failed reconstruction"
            );
            assert!(dec.vectors.is_unitary(1e-9));
            // Sorted ascending.
            for w in dec.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn eigenvector_residuals_small() {
        let a = hermitian_from_seed(5, 42);
        let dec = eigh(&a);
        for k in 0..5 {
            let v: Vec<C64> = (0..5).map(|i| dec.vectors[(i, k)]).collect();
            let av = a.matvec(&v);
            for i in 0..5 {
                let expected = v[i] * dec.values[k];
                assert!(
                    av[i].approx_eq(expected, 1e-9),
                    "residual too large at ({i},{k})"
                );
            }
        }
    }

    #[test]
    fn psd_projection_removes_negative_part() {
        let a = CMat::from_rows(&[&[C64::real(1.0), C64::ZERO], &[C64::ZERO, C64::real(-0.5)]]);
        let p = psd_project(&a);
        let dec = eigh(&p);
        assert!(dec.values.iter().all(|&l| l >= -1e-12));
        assert!(p[(0, 0)].approx_eq(C64::ONE, 1e-10));
        assert!(p[(1, 1)].approx_eq(C64::ZERO, 1e-10));
    }

    #[test]
    fn psd_projection_fixes_psd_input() {
        let a = hermitian_from_seed(4, 7);
        let spectrum_shifted = {
            // Make it comfortably PSD by adding a multiple of the identity.
            let shift = CMat::identity(4).scale(C64::real(10.0));
            a.add(&shift)
        };
        let p = psd_project(&spectrum_shifted);
        assert!(p.approx_eq(&spectrum_shifted, 1e-8));
    }

    #[test]
    fn trace_preserving_projection_keeps_trace() {
        let a = CMat::from_rows(&[&[C64::real(1.2), C64::ZERO], &[C64::ZERO, C64::real(-0.2)]]);
        let p = psd_project_with_trace(&a, 1.0);
        assert!((p.trace().re - 1.0).abs() < 1e-10, "trace preserved");
        let dec = eigh(&p);
        assert!(dec.values.iter().all(|&l| l >= -1e-12));
        // The negative part is shifted, not just clipped: both eigenvalues
        // move by the same ν where still positive.
        assert!((dec.values[1] - 1.0).abs() < 1e-9, "{:?}", dec.values);
    }

    #[test]
    fn trace_preserving_projection_is_identity_on_physical_input() {
        let a = CMat::from_rows(&[
            &[C64::real(0.6), C64::new(0.1, 0.05)],
            &[C64::new(0.1, -0.05), C64::real(0.4)],
        ]);
        let p = psd_project_with_trace(&a, a.trace().re);
        assert!(p.approx_eq(&a, 1e-9));
    }

    #[test]
    fn trace_zero_projection_vanishes() {
        let a = hermitian_from_seed(3, 9);
        let p = psd_project_with_trace(&a, 0.0);
        assert!(p.frobenius_norm() < 1e-9);
    }

    #[test]
    fn handles_degenerate_eigenvalues() {
        let a = CMat::identity(4).scale(C64::real(2.5));
        let dec = eigh(&a);
        for &l in &dec.values {
            assert!((l - 2.5).abs() < 1e-12);
        }
        assert!(dec.reconstruct().approx_eq(&a, 1e-10));
    }

    /// Non-finite input is the caller's bug, but it must come back as
    /// values, not as a panic inside the eigenvalue sort.
    #[test]
    fn non_finite_input_does_not_panic() {
        let nan = C64::real(f64::NAN);
        let a = CMat::from_rows(&[&[nan, C64::ZERO], &[C64::ZERO, C64::ONE]]);
        assert_eq!(eigh(&a).values.len(), 2);
        let all_nan = CMat::from_rows(&[&[nan, nan], &[nan, nan]]);
        assert_eq!(eigh(&all_nan).values.len(), 2);
    }
}
