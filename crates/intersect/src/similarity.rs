//! Structural-similarity arithmetic: the per-edge similarity label
//! (Definition 2.12), the exact integer threshold
//! `min_cn = ⌈ε·√((d[u]+1)(d[v]+1))⌉` (Definition 2.2), and the
//! degree-only *similarity predicate pruning* rules (§3.2.2).
//!
//! # Exactness
//!
//! Comparing `cn ≥ ε·√(prod)` in floating point invites off-by-one
//! misclassification at threshold boundaries (and those boundaries are
//! common: with small integer degrees the two sides are often exactly
//! equal). Like the reference pSCAN implementation, we represent ε as an
//! exact rational `num/den` and evaluate the predicate purely in integer
//! arithmetic: `cn` is similar iff `cn²·den² ≥ num²·prod`.

/// Per-edge similarity label (paper Definition 2.12 plus the `Unknown`
/// state the multi-phase algorithms use). The `u8` representation is
/// shared with the atomic edge-label array in `ppscan-core`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum Similarity {
    /// Not yet computed.
    #[default]
    Unknown = 0,
    /// σ_ε(u, v) holds.
    Sim = 1,
    /// σ_ε(u, v) does not hold.
    NSim = 2,
}

impl Similarity {
    /// Decodes the `u8` representation; panics on an invalid encoding.
    #[inline]
    pub fn from_u8(x: u8) -> Similarity {
        match x {
            0 => Similarity::Unknown,
            1 => Similarity::Sim,
            2 => Similarity::NSim,
            _ => panic!("invalid Similarity encoding {x}"),
        }
    }

    /// Whether the label is decided (not `Unknown`).
    #[inline]
    pub fn is_known(self) -> bool {
        self != Similarity::Unknown
    }
}

/// Exact-threshold calculator for a fixed ε.
///
/// ε is snapped to a rational with denominator 10⁴ (the paper sweeps ε in
/// steps of 0.1, so this is lossless for every value the evaluation uses)
/// and all predicates are evaluated in `u128` integer arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpsilonThreshold {
    num: u64,
    den: u64,
}

impl EpsilonThreshold {
    /// Creates the calculator for `eps ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics if `eps` is outside `(0, 1]` (the paper's parameter domain).
    pub fn new(eps: f64) -> Self {
        assert!(
            eps > 0.0 && eps <= 1.0,
            "epsilon must be in (0, 1], got {eps}"
        );
        let den = 10_000u64;
        let num = (eps * den as f64).round() as u64;
        Self {
            num: num.max(1),
            den,
        }
    }

    /// Creates the calculator from an exact rational ε = num/den.
    pub fn from_ratio(num: u64, den: u64) -> Self {
        assert!(den > 0 && num > 0 && num <= den, "need 0 < num/den <= 1");
        Self { num, den }
    }

    /// ε as f64 (for display).
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The smallest integer `k` with `k ≥ ε·√((d_u+1)(d_v+1))`, i.e. the
    /// paper's `⌈ε·√((d[u]+1)(d[v]+1))⌉`, computed exactly.
    ///
    /// An edge is similar iff `|Γ(u) ∩ Γ(v)| ≥ min_cn(d_u, d_v)`.
    pub fn min_cn(&self, d_u: usize, d_v: usize) -> u64 {
        // k ≥ (num/den)·√prod  ⟺  k·den ≥ √(num²·prod)
        //                      ⟺  k·den ≥ ceil_sqrt(num²·prod)
        //
        // This runs once per `CompSim` invocation and once per edge in
        // the pruning phase, so the common case stays in u64: whenever
        // `num²·prod < 2⁵²` (every graph with the default den = 10⁴ and
        // degrees up to ~6·10³) the square root is exact in hardware f64
        // and no u128 multiply/divide chain is needed.
        let q = (d_u as u64 + 1).checked_mul(d_v as u64 + 1);
        if let Some(prod) = q
            .and_then(|q| {
                self.num
                    .checked_mul(self.num)
                    .and_then(|n2| n2.checked_mul(q))
            })
            .filter(|&p| p < (1 << 52))
        {
            let t = ceil_sqrt_u64(prod);
            return t.div_ceil(self.den);
        }
        let prod = (self.num as u128) * (self.num as u128) * (d_u as u128 + 1) * (d_v as u128 + 1);
        let t = ceil_sqrt_u128(prod);
        t.div_ceil(self.den as u128) as u64
    }

    /// Degree-only similarity predicate pruning (§3.2.2): decides the
    /// label of edge `(u, v)` without any intersection when possible.
    ///
    /// * `NSim` when even a full overlap cannot reach the threshold
    ///   (`d+2 < min_cn` for either endpoint),
    /// * `Sim` when `{u, v}` alone already meets it (`2 ≥ min_cn`),
    /// * `Unknown` otherwise.
    pub fn prune_by_degree(&self, d_u: usize, d_v: usize) -> Similarity {
        // Both rules compare `min_cn` against a known integer `k`, and
        //   min_cn ≤ k  ⟺  ceil_sqrt(num²·prod) ≤ k·den  ⟺  num²·prod ≤ (k·den)²
        // so the whole decision needs only multiplications — no square
        // root or division. This runs once per directed edge in the
        // pruning phase, where the saved ~10ns per call is measurable.
        let lhs = (self.num as u128) * (self.num as u128) * (d_u as u128 + 1) * (d_v as u128 + 1);
        let den = self.den as u128;
        // NSim ⟺ dmin + 2 < min_cn (only the smaller degree can bind).
        let cap = (d_u.min(d_v) as u128 + 2) * den;
        if lhs > cap * cap {
            Similarity::NSim
        } else if lhs <= 4 * den * den {
            // Sim ⟺ min_cn ≤ 2.
            Similarity::Sim
        } else {
            Similarity::Unknown
        }
    }

    /// The labels [`Self::prune_by_degree`] gives every edge of an
    /// endpoint of degree `d_u`, as three degree thresholds, so that a
    /// pass over many edges of equal-degree endpoints compares integers
    /// instead of multiplying per edge.
    ///
    /// With `q = num²·(d_u+1)` and `b = d_v`, the edge is `NSim` when
    /// `q·(b+1) > (min(d_u, b)+2)²·den²`. For `b ≥ d_u` that is linear in
    /// `b`, so it holds from `hi` up. For `b < d_u` the difference
    /// `q·(b+1) − (b+2)²·den²` is concave in `b` and its value at 0 equals
    /// its slope there, so it is positive on a prefix `[0, lo)` or nowhere.
    /// `Sim` is `q·(b+1) ≤ 4·den²`, which holds below `sim`. All three
    /// are exact: divisions and a binary search in `u128`.
    pub fn degree_bounds(&self, d_u: usize) -> DegreeBounds {
        let num2 = (self.num as u128).pow(2);
        let den2 = (self.den as u128).pow(2);
        let a = d_u as u128;
        let q = num2 * (a + 1);
        // The smallest b with q·(b+1) > x is ⌊x / q⌋.
        let sim = 4 * den2 / q;
        let hi = a.max((a + 2).pow(2) * den2 / q);
        let nsim_below = |b: u128| q * (b + 1) > (b + 2).pow(2) * den2;
        let (mut lo, mut top) = (0u128, a);
        while lo < top {
            let mid = lo + (top - lo) / 2;
            if nsim_below(mid) {
                lo = mid + 1;
            } else {
                top = mid;
            }
        }
        let clamp = |x: u128| usize::try_from(x).unwrap_or(usize::MAX);
        DegreeBounds {
            lo: clamp(lo),
            hi: clamp(hi),
            sim: clamp(sim),
        }
    }

    /// Evaluates the full similarity predicate given an exact intersection
    /// size `|Γ(u) ∩ Γ(v)|` (for testing and the naive reference path).
    pub fn is_similar(&self, gamma_cap: u64, d_u: usize, d_v: usize) -> bool {
        gamma_cap >= self.min_cn(d_u, d_v)
    }

    /// Exact predicate `cn / √denom ≥ ε` for a precomputed similarity
    /// value (`cn = |Γ(u) ∩ Γ(v)|`, `denom = (d[u]+1)(d[v]+1)`), used by
    /// the GS*-Index query path: `cn²·den² ≥ num²·denom`.
    pub fn sim_at_least(&self, cn: u64, denom: u128) -> bool {
        let lhs = (cn as u128) * (cn as u128) * (self.den as u128) * (self.den as u128);
        let rhs = (self.num as u128) * (self.num as u128) * denom;
        lhs >= rhs
    }
}

/// [`EpsilonThreshold::prune_by_degree`] for one endpoint degree, from
/// [`EpsilonThreshold::degree_bounds`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegreeBounds {
    /// Degrees below this are `NSim`.
    lo: usize,
    /// Degrees from this up are `NSim`.
    hi: usize,
    /// Other degrees below this are `Sim`, the rest `Unknown`.
    sim: usize,
}

impl DegreeBounds {
    /// The label of an edge to an endpoint of degree `d_v`.
    #[inline]
    pub fn label(&self, d_v: usize) -> Similarity {
        if d_v < self.lo || d_v >= self.hi {
            Similarity::NSim
        } else if d_v < self.sim {
            Similarity::Sim
        } else {
            Similarity::Unknown
        }
    }
}

/// Smallest integer `t ≥ 0` with `t² ≥ x`, exact for `x < 2⁵²` (where
/// the f64 mantissa represents `x` losslessly, so the hardware root is
/// within one unit of the true value before the fixup).
fn ceil_sqrt_u64(x: u64) -> u64 {
    if x == 0 {
        return 0;
    }
    let mut t = (x as f64).sqrt() as u64;
    while t > 0 && t * t >= x {
        t -= 1;
    }
    // Now t² < x (or t == 0 < x); advance to the first t with t² ≥ x.
    t += 1;
    while t * t < x {
        t += 1;
    }
    t
}

/// Smallest integer `t ≥ 0` with `t² ≥ x`, exact for all `u128` inputs
/// that arise here (num ≤ 10⁴, degrees < 2³²  ⇒  x < 2¹⁰⁸).
fn ceil_sqrt_u128(x: u128) -> u128 {
    if x == 0 {
        return 0;
    }
    // f64 sqrt gives ~52 significant bits; fix up by scanning ±2.
    let mut t = (x as f64).sqrt() as u128;
    while t.checked_mul(t).is_none_or(|sq| sq >= x) {
        if t == 0 {
            return 0;
        }
        t -= 1;
    }
    // Now t² < x; advance to the first t with t² ≥ x.
    t += 1;
    while t.checked_mul(t).is_some_and(|sq| sq < x) {
        t += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_sqrt_exact_small() {
        assert_eq!(ceil_sqrt_u128(0), 0);
        assert_eq!(ceil_sqrt_u128(1), 1);
        assert_eq!(ceil_sqrt_u128(2), 2);
        assert_eq!(ceil_sqrt_u128(4), 2);
        assert_eq!(ceil_sqrt_u128(5), 3);
        assert_eq!(ceil_sqrt_u128(9), 3);
        assert_eq!(ceil_sqrt_u128(10), 4);
    }

    #[test]
    fn ceil_sqrt_exact_around_squares() {
        for v in [3u128, 17, 1000, 123_456_789, 1 << 40] {
            let sq = v * v;
            assert_eq!(ceil_sqrt_u128(sq), v);
            assert_eq!(ceil_sqrt_u128(sq - 1), v);
            assert_eq!(ceil_sqrt_u128(sq + 1), v + 1);
        }
    }

    #[test]
    fn min_cn_matches_definition() {
        // ε = 0.5, d_u = d_v = 3: ⌈0.5·√16⌉ = 2.
        assert_eq!(EpsilonThreshold::new(0.5).min_cn(3, 3), 2);
        // ε = 0.6, d_u = 4, d_v = 4: ⌈0.6·5⌉ = 3.
        assert_eq!(EpsilonThreshold::new(0.6).min_cn(4, 4), 3);
        // Exact boundary: ε = 0.6, prod = 25, 0.6·5 = 3 exactly → 3, not 4.
        assert_eq!(EpsilonThreshold::new(0.6).min_cn(4, 4), 3);
        // ε = 1.0: ⌈√((d+1)(d+1))⌉ = d+1, full overlap required.
        assert_eq!(EpsilonThreshold::new(1.0).min_cn(7, 7), 8);
    }

    #[test]
    fn min_cn_agrees_with_f64_away_from_boundaries() {
        for &eps in &[0.1, 0.2, 0.35, 0.5, 0.73, 0.9] {
            let t = EpsilonThreshold::new(eps);
            for d_u in 0..40usize {
                for d_v in 0..40usize {
                    let exact = t.min_cn(d_u, d_v);
                    let float = (eps * (((d_u + 1) * (d_v + 1)) as f64).sqrt()).ceil() as u64;
                    // Allow the float version to be off by one only at an
                    // exact boundary.
                    assert!(
                        exact == float || (exact + 1 == float) || (float + 1 == exact),
                        "eps={eps} d=({d_u},{d_v}): exact={exact} float={float}"
                    );
                }
            }
        }
    }

    #[test]
    fn prune_rules() {
        let t = EpsilonThreshold::new(0.9);
        // Huge degree imbalance: a degree-1 vertex cannot be similar to a
        // degree-1000 vertex at ε = 0.9 (min_cn ≈ 40 > 3).
        assert_eq!(t.prune_by_degree(1, 1000), Similarity::NSim);
        // Tiny ε: two degree-1 endpoints are trivially similar.
        let t = EpsilonThreshold::new(0.1);
        assert_eq!(t.prune_by_degree(1, 1), Similarity::Sim);
        // In-between case stays unknown.
        let t = EpsilonThreshold::new(0.5);
        assert_eq!(t.prune_by_degree(10, 10), Similarity::Unknown);
    }

    #[test]
    fn prune_consistent_with_min_cn() {
        for &eps in &[0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let t = EpsilonThreshold::new(eps);
            for d_u in 0..30usize {
                for d_v in 0..30usize {
                    let mc = t.min_cn(d_u, d_v);
                    match t.prune_by_degree(d_u, d_v) {
                        Similarity::Sim => assert!(mc <= 2),
                        Similarity::NSim => {
                            assert!((d_u as u64 + 2) < mc || (d_v as u64 + 2) < mc)
                        }
                        Similarity::Unknown => {
                            assert!(mc > 2 && (d_u as u64 + 2) >= mc && (d_v as u64 + 2) >= mc)
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn epsilon_one_requires_identical_closed_neighborhoods() {
        let t = EpsilonThreshold::new(1.0);
        // d_u = d_v = d: min_cn = d+1 = |Γ|, i.e. Γ(u) = Γ(v).
        for d in 0..20usize {
            assert_eq!(t.min_cn(d, d), d as u64 + 1);
        }
        // Different degrees at ε = 1: strictly more than the smaller closed
        // neighborhood, impossible → NSim by degree pruning.
        assert_eq!(t.prune_by_degree(3, 30), Similarity::NSim);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1]")]
    fn rejects_zero_epsilon() {
        EpsilonThreshold::new(0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1]")]
    fn rejects_oversized_epsilon() {
        EpsilonThreshold::new(1.2);
    }

    #[test]
    fn from_ratio_exact() {
        let a = EpsilonThreshold::from_ratio(1, 3);
        // min_cn(2, 2) = smallest k with 9k² ≥ 9 → 1.
        assert_eq!(a.min_cn(2, 2), 1);
        // √((3+1)(5+1)) = √24 ≈ 4.899; /3 → ⌈1.633⌉ = 2.
        assert_eq!(a.min_cn(3, 5), 2);
    }

    #[test]
    fn similarity_u8_roundtrip() {
        for s in [Similarity::Unknown, Similarity::Sim, Similarity::NSim] {
            assert_eq!(Similarity::from_u8(s as u8), s);
        }
        assert!(!Similarity::Unknown.is_known());
        assert!(Similarity::Sim.is_known());
    }

    #[test]
    #[should_panic(expected = "invalid Similarity")]
    fn similarity_rejects_bad_encoding() {
        Similarity::from_u8(3);
    }
}
