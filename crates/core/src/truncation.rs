//! The paper's truncation-rank selection rule (Sec. 5.2).
//!
//! Having computed only the first `m` (= 200) eigenpairs of an `n`-basis
//! problem, the sum of all unused eigenvalues is bounded by
//! `λ_m (n - m) + Σ_{i=r+1}^{m} λ_i` (every uncomputed eigenvalue is at
//! most `λ_m`). The paper picks the smallest `r` for which this bound is
//! at most 1% of `Σ_{i=1}^{r} λ_i`, yielding r = 25 for its Gaussian
//! kernel on the n = 1546 mesh.

/// Is the spectrum sorted descending and NaN-free?
///
/// The tail bound `λ_m (n - m) + Σ_{i=r+1}^{m} λ_i` is only an upper
/// bound on the discarded variance when `λ_m` really is the smallest
/// computed eigenvalue — i.e. when the spectrum is descending. Ties and
/// near-degenerate pairs (|λ_i − λ_{i+1}| at rounding scale) count as
/// descending; a single NaN does not.
pub fn spectrum_is_descending(eigenvalues: &[f64]) -> bool {
    eigenvalues.iter().all(|x| !x.is_nan()) && eigenvalues.windows(2).all(|w| w[0] >= w[1])
}

/// A descending-sorted copy with NaNs replaced by 0.0 — the same value
/// the criterion's `max(0.0)` clamp assigns them (`f64::max` returns the
/// non-NaN operand), so a NaN eigenvalue contributes nothing either way.
/// The replacement also makes the copy satisfy
/// [`spectrum_is_descending`], which the repair paths rely on.
fn descending_copy(eigenvalues: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = eigenvalues
        .iter()
        .map(|x| if x.is_nan() { 0.0 } else { *x })
        .collect();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted
}

/// The λ-tail truncation criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncationCriterion {
    /// Number of leading eigenvalues treated as "computed" (`m`; paper:
    /// 200). Clamped to the available count.
    pub computed: usize,
    /// Tail budget as a fraction of the retained spectrum (paper: 0.01).
    pub tail_fraction: f64,
}

impl Default for TruncationCriterion {
    fn default() -> Self {
        TruncationCriterion {
            computed: 200,
            tail_fraction: 0.01,
        }
    }
}

impl TruncationCriterion {
    /// Creates a criterion with the given `m` and tail fraction.
    pub fn new(computed: usize, tail_fraction: f64) -> Self {
        TruncationCriterion {
            computed,
            tail_fraction,
        }
    }

    /// Selects the smallest rank `r` satisfying
    /// `λ_m (n - m) + Σ_{i=r+1}^{m} λ_i ≤ tail_fraction · Σ_{i=1}^{r} λ_i`,
    /// taking `n = eigenvalues.len()` (i.e. the full spectrum was
    /// computed). See [`select_with_basis`](Self::select_with_basis) when
    /// only the leading eigenvalues are available (Lanczos).
    pub fn select(&self, eigenvalues: &[f64]) -> usize {
        self.select_with_basis(eigenvalues, eigenvalues.len())
    }

    /// Does rank `r` actually satisfy the tail bound
    /// `λ_m (n - m) + Σ_{i=r+1}^{m} λ_i ≤ tail_fraction · Σ_{i=1}^{r} λ_i`?
    ///
    /// [`select_with_basis`](Self::select_with_basis) returns `m` both
    /// when the bound is met exactly at `m` and when it cannot be met at
    /// all (a flat spectrum, or too few computed pairs). This predicate
    /// distinguishes the two, so callers can degrade gracefully — e.g.
    /// fall back from the KLE sampler (Algorithm 2) to the full Cholesky
    /// reference (Algorithm 1) — instead of silently under-covering the
    /// variance budget.
    pub fn budget_met_with_basis(&self, eigenvalues: &[f64], n: usize, r: usize) -> bool {
        if eigenvalues.is_empty() || r == 0 {
            return false;
        }
        if !spectrum_is_descending(eigenvalues) {
            let sorted = descending_copy(eigenvalues);
            return self.budget_met_descending(&sorted, n, r);
        }
        self.budget_met_descending(eigenvalues, n, r)
    }

    /// The tail-bound predicate, assuming a descending spectrum.
    fn budget_met_descending(&self, eigenvalues: &[f64], n: usize, r: usize) -> bool {
        let n = n.max(eigenvalues.len());
        let m = self.computed.min(eigenvalues.len()).max(1);
        if r > m {
            return false;
        }
        let lam = |i: usize| eigenvalues[i].max(0.0);
        let uncomputed = lam(m - 1) * (n - m) as f64;
        let head: f64 = (0..r).map(lam).sum();
        let tail: f64 = (r..m).map(lam).sum();
        uncomputed + tail <= self.tail_fraction * head
    }

    /// Like [`select`](Self::select) but with an explicit basis size `n`
    /// (`eigenvalues` may hold only the first `m ≤ n` values — the
    /// paper's exact situation, having "computed only the first 200").
    ///
    /// `eigenvalues` should be sorted descending; an out-of-order
    /// spectrum (an eigensolver-ordering bug upstream) is *repaired* by
    /// selecting against a descending-sorted copy rather than silently
    /// mis-pricing the tail — use
    /// [`select_with_basis_checked`](Self::select_with_basis_checked) to
    /// observe whether a repair happened. Negative tail eigenvalues
    /// (discretisation noise) are clamped to zero. Returns at least 1 and
    /// at most `m`.
    pub fn select_with_basis(&self, eigenvalues: &[f64], n: usize) -> usize {
        self.select_with_basis_checked(eigenvalues, n).0
    }

    /// Like [`select_with_basis`](Self::select_with_basis), additionally
    /// reporting whether the input spectrum was already descending
    /// (`true`) or had to be repaired by sorting (`false`). On a
    /// descending spectrum this is exactly `(select_with_basis(..), true)`.
    pub fn select_with_basis_checked(&self, eigenvalues: &[f64], n: usize) -> (usize, bool) {
        if !spectrum_is_descending(eigenvalues) {
            let sorted = descending_copy(eigenvalues);
            return (self.select_descending(&sorted, n), false);
        }
        (self.select_descending(eigenvalues, n), true)
    }

    /// The core rule, assuming a descending spectrum.
    fn select_descending(&self, eigenvalues: &[f64], n: usize) -> usize {
        let n = n.max(eigenvalues.len());
        if eigenvalues.is_empty() {
            return 1;
        }
        let m = self.computed.min(eigenvalues.len()).max(1);
        let lam = |i: usize| eigenvalues[i].max(0.0);
        // Uncomputed-tail bound: λ_m (n - m), using the m-th (last
        // computed) eigenvalue.
        let uncomputed = lam(m - 1) * (n - m) as f64;
        // Suffix sums of the computed spectrum.
        let mut head = 0.0;
        let mut tail: f64 = (0..m).map(lam).sum();
        for r in 1..=m {
            head += lam(r - 1);
            tail -= lam(r - 1);
            if uncomputed + tail <= self.tail_fraction * head {
                return r;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_met_distinguishes_saturation_from_success() {
        // Geometric spectrum: the selected rank genuinely meets the bound.
        let ev: Vec<f64> = (0..100).map(|i| 0.5f64.powi(i)).collect();
        let crit = TruncationCriterion::new(100, 0.01);
        let r = crit.select(&ev);
        assert!(crit.budget_met_with_basis(&ev, ev.len(), r));
        // One mode short of the selected rank: bound violated.
        assert!(!crit.budget_met_with_basis(&ev, ev.len(), r - 1));
        // Flat spectrum: select() saturates at m but the budget is unmet.
        let flat = vec![1.0; 50];
        let crit_flat = TruncationCriterion::new(50, 0.01);
        let r_flat = crit_flat.select(&flat);
        assert_eq!(r_flat, 50);
        // Tail within the computed window is empty at r = m = n, so the
        // bound trivially holds here; shrink m below n to expose the
        // uncomputed tail.
        let crit_short = TruncationCriterion::new(10, 0.01);
        let r_short = crit_short.select_with_basis(&flat, 50);
        assert_eq!(r_short, 10);
        assert!(!crit_short.budget_met_with_basis(&flat, 50, r_short));
        // Degenerate inputs.
        assert!(!crit.budget_met_with_basis(&[], 0, 1));
        assert!(!crit.budget_met_with_basis(&ev, ev.len(), 0));
    }

    #[test]
    fn budget_met_tolerates_nan_spectrum() {
        // Regression: budget_met_with_basis used to recurse forever on a
        // NaN-poisoned spectrum — the sorted copy kept the NaN, so the
        // descending check re-fired the repair path unchanged until the
        // stack overflowed. It must terminate and agree with the NaN→0
        // descending copy.
        let poisoned = vec![2.0, f64::NAN, 1.0];
        let repaired = vec![2.0, 1.0, 0.0];
        let crit = TruncationCriterion::new(3, 0.01);
        for r in 1..=3 {
            assert_eq!(
                crit.budget_met_with_basis(&poisoned, 3, r),
                crit.budget_met_with_basis(&repaired, 3, r),
                "r = {r}"
            );
        }
        // The loop above exercises both verdicts (r = 1 violates the
        // bound, r = 3 meets it). An all-NaN spectrum degrades to the
        // all-zero one, whose 0 ≤ 0 bound is trivially met — the point
        // here is only that the call terminates.
        assert!(crit.budget_met_with_basis(&[f64::NAN, f64::NAN], 3, 2));
    }

    #[test]
    fn geometric_spectrum_small_rank() {
        // λ_i = 2^{-i}: tail after r is ~ equal to λ_r, so 1% needs ~7-8
        // doublings.
        let ev: Vec<f64> = (0..100).map(|i| 0.5f64.powi(i)).collect();
        let crit = TruncationCriterion::new(100, 0.01);
        let r = crit.select(&ev);
        assert!((7..=12).contains(&r), "r = {r}");
        // Verify the bound actually holds at the selected r.
        let head: f64 = ev[..r].iter().sum();
        let tail: f64 = ev[r..].iter().sum();
        assert!(tail <= 0.01 * head + 1e-12);
    }

    #[test]
    fn flat_spectrum_needs_everything() {
        let ev = vec![1.0; 50];
        let crit = TruncationCriterion::new(50, 0.01);
        assert_eq!(crit.select(&ev), 50, "flat spectrum cannot be truncated");
    }

    #[test]
    fn single_dominant_mode() {
        let mut ev = vec![0.0; 40];
        ev[0] = 100.0;
        let crit = TruncationCriterion::default();
        assert_eq!(crit.select(&ev), 1);
    }

    #[test]
    fn uncomputed_tail_matters() {
        // Spectrum cut at m = 5 with a big n: the λ_5 (n-5) bound keeps r
        // from being too small.
        let ev: Vec<f64> = (0..1000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let r_small_m = TruncationCriterion::new(5, 0.01).select(&ev);
        assert_eq!(r_small_m, 5, "harmonic spectrum can't meet 1% with m = 5");
    }

    #[test]
    fn negative_tail_clamped() {
        let ev = vec![4.0, 1.0, 1e-12, -1e-9, -1e-8];
        let r = TruncationCriterion::new(5, 0.01).select(&ev);
        assert!(r <= 2, "noise tail should not inflate the rank (r = {r})");
    }

    #[test]
    fn tighter_fraction_needs_larger_rank() {
        let ev: Vec<f64> = (0..200).map(|i| (-0.2 * i as f64).exp()).collect();
        let loose = TruncationCriterion::new(200, 0.05).select(&ev);
        let tight = TruncationCriterion::new(200, 0.001).select(&ev);
        assert!(tight > loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(TruncationCriterion::default().select(&[]), 1);
        assert_eq!(TruncationCriterion::default().select(&[3.0]), 1);
    }

    #[test]
    fn mis_sorted_spectrum_is_caught_and_repaired() {
        // Regression for the ordering guarantee: before the repair, an
        // ascending spectrum made λ_m the *largest* eigenvalue, blowing
        // up the uncomputed-tail bound (or, with m = n, silently
        // truncating the dominant modes). The criterion must now detect
        // the mis-ordering and select exactly as for the sorted copy.
        let sorted: Vec<f64> = (0..50).map(|i| (-0.3 * i as f64).exp()).collect();
        let mut reversed = sorted.clone();
        reversed.reverse();
        let crit = TruncationCriterion::new(50, 0.01);
        assert!(spectrum_is_descending(&sorted));
        assert!(!spectrum_is_descending(&reversed), "mis-sort not caught");
        let (r_sorted, clean) = crit.select_with_basis_checked(&sorted, 50);
        assert!(clean);
        let (r_reversed, repaired) = crit.select_with_basis_checked(&reversed, 50);
        assert!(!repaired, "repair must be reported");
        assert_eq!(r_sorted, r_reversed, "repair must match the sorted result");
        // A single swapped adjacent pair is also caught.
        let mut swapped = sorted.clone();
        swapped.swap(3, 4);
        assert!(!crit.select_with_basis_checked(&swapped, 50).1);
        assert_eq!(crit.select(&swapped), r_sorted);
        // budget_met agrees between mis-sorted input and its sorted copy.
        assert_eq!(
            crit.budget_met_with_basis(&reversed, 50, r_sorted),
            crit.budget_met_with_basis(&sorted, 50, r_sorted)
        );
    }

    #[test]
    fn ties_and_near_degenerate_pairs_are_descending() {
        // Exact ties and pairs split at rounding scale must NOT trigger
        // the repair path (they are legitimately descending) and must
        // select a stable rank.
        let tied = vec![2.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1e-9, 1e-9];
        assert!(spectrum_is_descending(&tied));
        let crit = TruncationCriterion::new(8, 0.01);
        let (r, clean) = crit.select_with_basis_checked(&tied, 8);
        assert!(clean, "ties wrongly flagged as mis-sorted");
        assert!((1..=8).contains(&r));
        // Near-degenerate: differ by one ULP-scale nudge.
        let near = vec![1.0, 1.0 - 1e-15, 1.0 - 2e-15, 0.25];
        assert!(spectrum_is_descending(&near));
        assert!(crit.select_with_basis_checked(&near, 4).1);
        // NaN anywhere is never "descending"; selection still returns a
        // valid rank by repairing (NaN sorted to the back, clamped to 0).
        let poisoned = vec![2.0, f64::NAN, 1.0];
        assert!(!spectrum_is_descending(&poisoned));
        let (r_nan, clean_nan) = crit.select_with_basis_checked(&poisoned, 3);
        assert!(!clean_nan);
        assert!((1..=3).contains(&r_nan));
    }

    #[test]
    fn explicit_basis_size_inflates_uncomputed_tail() {
        // Same 50 computed eigenvalues; declaring a much larger basis
        // makes the λ_m (n - m) term dominate, pushing r up.
        let ev: Vec<f64> = (0..50).map(|i| (-0.1 * i as f64).exp()).collect();
        let small = TruncationCriterion::new(50, 0.01).select_with_basis(&ev, 50);
        let large = TruncationCriterion::new(50, 0.01).select_with_basis(&ev, 5000);
        assert!(large >= small, "{large} vs {small}");
        // Basis smaller than the list is clamped up (degenerate input).
        let clamped = TruncationCriterion::new(50, 0.01).select_with_basis(&ev, 1);
        assert_eq!(clamped, small);
    }
}
