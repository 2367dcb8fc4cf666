"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Monte Carlo criteria use 1e6 samples and fixed seeds, so every run is
bit-reproducible; 4-SE bands therefore either always pass or always fail.
"""

import functools
import json

import numpy as np

import projmi as pm
from projmi.cli import main as cli_main
from projmi.constants import EULER_GAMMA, LOG2_E

import oracles

DIMS33 = pm.BipartiteDims(3, 3)
N_MC = 1_000_000

# Absolute floor for "zero within 4 SE" checks whose integrand cancels to
# floating-point residue on product states (SE collapses along with the mean).
ZERO_FLOOR = 1e-12


def report(criterion: int, passed: bool, detail: str = "") -> bool:
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion:2d}: {tag}{suffix}")
    return passed


def random_hermitian(n, rng, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (z + z.conj().T) / 2


def random_product_state(rng):
    a = pm.mixed_random(3, 3, rng)
    b = pm.mixed_random(3, 3, rng)
    return pm.validate_density(pm.tensor(a, b))


def joint_se(a: pm.MCEstimate, b: pm.MCEstimate) -> float:
    return float(np.hypot(a.std_error, b.std_error))


# ---------------------------------------------------------------------------
# shared computations: criteria 1, 2 and 7 take their results from ``shared``,
# and the determinism criterion (16) compares those with one fresh run


@functools.cache
def shared(run):
    """``run()``, computed once per session."""
    return run()


def run_expectation_identity():
    """Criterion 1 estimates: list of (estimate, target)."""
    rng = np.random.default_rng(20260801)
    out = []
    for k in range(10):
        a = random_hermitian(3, rng)
        sigma = pm.mixed_random(3, 3, rng)
        f_a = pm.observable_function(a)
        rho = pm.liouville_density(sigma)

        def batch(points, f_a=f_a, rho=rho):
            return f_a.eval_batch(points) * rho.eval_batch(points)

        est = pm.integrate_mu(3, pm.SamplerConfig(1000 + k, N_MC), batch_f=batch)
        out.append((est, float(np.trace(a @ sigma.matrix).real)))
    return out


def run_gaussian_entropy_constant():
    """Criterion 2 estimates keyed by dimension."""
    out = {}
    for n, seed in ((3, 2001), (4, 2002), (5, 2003)):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = x / np.linalg.norm(x)
        out[n] = pm.pure_state_entropy_gaussian(psi, pm.SamplerConfig(seed, N_MC))
    return out


def run_product_state_zero():
    """Criterion 7 estimates: per state, the three MI estimators."""
    rng = np.random.default_rng(777)
    results = []
    for k in range(5):
        sigma = random_product_state(rng)
        proj = pm.classical_like_mi_projective(sigma, DIMS33, pm.SamplerConfig(7100 + k, N_MC))
        gauss = pm.classical_like_mi_gaussian(sigma, DIMS33, pm.SamplerConfig(7200 + k, N_MC))
        decomp = pm.entropy_decomposition_mi(sigma, DIMS33, pm.SamplerConfig(7300 + k, N_MC))
        results.append((proj, gauss, decomp))
    return results


# ---------------------------------------------------------------------------


def test_criterion_01_expectation_identity():
    results = shared(run_expectation_identity)
    ok = all(
        abs(est.mean - target) <= 4 * est.std_error and est.std_error <= 2e-2
        for est, target in results
    )
    worst = max(abs(e.mean - t) / e.std_error for e, t in results)
    assert report(1, ok, f"10 pairs, worst deviation {worst:.2f} SE")


def test_criterion_02_gaussian_entropy_constant():
    constant = pm.pure_state_entropy_gaussian_constant()
    estimates = shared(run_gaussian_entropy_constant)
    near = all(abs(e.mean - constant) <= 4 * e.std_error for e in estimates.values())
    dims = sorted(estimates)
    pairwise = all(
        abs(estimates[a].mean - estimates[b].mean) <= 4 * joint_se(estimates[a], estimates[b])
        for i, a in enumerate(dims)
        for b in dims[i + 1:]
    )
    detail = ", ".join(f"n={n}: {e.mean:.4f}+-{e.std_error:.4f}" for n, e in estimates.items())
    assert report(2, near and pairwise, f"target {constant:.4f}; {detail}")


def test_criterion_03_radial_integral():
    value = oracles.radial_log_moment()
    target = 2.0 + (2.0 - 2.0 * EULER_GAMMA) * LOG2_E
    ok = abs(value - target) <= 1e-8
    assert report(3, ok, f"quadrature {value:.10f} vs closed form {target:.10f}")


def test_criterion_04_maxent_closed_form():
    exact = pm.maxent_mi_closed_form(3) == np.log2(3) + 2 + (2 - 2 * EULER_GAMMA) * LOG2_E
    printed = all(
        round(pm.maxent_mi_closed_form(d) - np.log2(d), 2) == 3.22 for d in (3, 4, 5)
    )
    assert report(4, exact and printed, f"d=3 value {pm.maxent_mi_closed_form(3):.4f}")


def test_criterion_05_von_neumann_mi():
    maxent_ok = all(
        abs(pm.vn_mutual_information(pm.maximally_entangled(d), pm.BipartiteDims(d, d))
            - 2 * np.log2(d)) <= 1e-9
        for d in (3, 4, 5)
    )
    rng = np.random.default_rng(55)
    product_ok = all(
        abs(pm.vn_mutual_information(random_product_state(rng), DIMS33)) <= 1e-9
        for _ in range(3)
    )
    assert report(5, maxent_ok and product_ok, "2 log2 d on maxent, 0 on products")


def test_criterion_06_canonical_entropy_vs_beta_oracle():
    details = []
    ok = True
    for n, seed in ((3, 601), (4, 602)):
        est = pm.differential_entropy_mu(pm.pure_random(n, seed), pm.SamplerConfig(seed, N_MC))
        target = oracles.beta_pure_entropy(n)
        ok = ok and abs(est.mean - target) <= 4 * est.std_error
        gap = est.mean - pm.pure_state_entropy_gaussian_constant()
        details.append(f"n={n}: {est.mean:.4f} vs oracle {target:.4f}, overlap-gap {gap:+.3f}")
    # the divergence from the criterion-2 constant is reported, not reconciled
    assert report(6, ok, "; ".join(details))


def test_criterion_07_product_state_zero():
    results = shared(run_product_state_zero)
    ok = all(
        abs(est.mean) <= 4 * est.std_error + ZERO_FLOOR
        for triple in results
        for est in triple
    )
    assert report(7, ok, "projective, gaussian-overlap, decomposition on 5 states")


def test_criterion_08_decomposition_identity():
    ok = True
    worst = 0.0
    for k in range(10):
        sigma = pm.mixed_random(9, 9, 800 + k)
        decomp = pm.entropy_decomposition_mi(sigma, DIMS33, pm.SamplerConfig(8100 + k, N_MC))
        proj = pm.classical_like_mi_projective(sigma, DIMS33, pm.SamplerConfig(8200 + k, N_MC))
        pull = abs(decomp.mean - proj.mean) / joint_se(decomp, proj)
        worst = max(worst, pull)
        ok = ok and pull <= 4.0
    assert report(8, ok, f"10 states, worst deviation {worst:.2f} joint SE")


def test_criterion_09_marginal_is_partial_trace():
    rng = np.random.default_rng(99)
    sigma = pm.mixed_random(9, 9, rng)
    analytic = pm.marginal_density(sigma, DIMS33, integrate_out="B")
    mc = pm.marginal_density(
        sigma, DIMS33, integrate_out="B", mode="mc", cfg=pm.SamplerConfig(9, 100_000)
    )
    mc_ok = True
    for _ in range(20):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = pm.project(x)
        est = mc(p)
        mc_ok = mc_ok and abs(est.mean - analytic(p)) <= 4 * est.std_error
    const_ok = True
    for d in (3, 4, 5):
        marg = pm.marginal_density(
            pm.maximally_entangled(d), pm.BipartiteDims(d, d), integrate_out="A"
        )
        for _ in range(20):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            const_ok = const_ok and abs(marg(pm.project(x)) - 1 / d) <= 1e-12
    assert report(9, mc_ok and const_ok, "MC vs analytic at 20 points; maxent constant 1/d")


def test_criterion_10_restricted_density_forward_check():
    rng = np.random.default_rng(1010)
    ok = True
    worst = 0.0
    for k in range(20):
        mixture = pm.random_mixture(3, 3, int(rng.integers(1, 5)), seed=1000 + k)
        density = pm.restricted_density(mixture)
        joint = pm.joint_density_eval(pm.assemble(mixture), DIMS33)
        xs = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
        ys = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        ys /= np.linalg.norm(ys, axis=1)[:, None]
        gap = float(np.max(np.abs(density.eval_batch(xs, ys) - joint.eval_batch(xs, ys))))
        worst = max(worst, gap)
        ok = ok and gap <= 1e-12
    assert report(10, ok, f"20 mixtures x 1000 pairs, worst gap {worst:.2e}")


def test_criterion_11_frame_function_law():
    rng = np.random.default_rng(1111)
    ok = True
    worst = 0.0
    for n in (3, 4, 5):
        sigma = pm.mixed_random(n, n, rng)
        rho = pm.liouville_density(sigma)
        for _ in range(50):
            total = pm.frame_sum(rho, pm.random_frame(n, rng))
            worst = max(worst, abs(total - 1.0))
            ok = ok and abs(total - 1.0) <= 1e-10
    assert report(11, ok, f"50 frames per n in (3,4,5), worst |sum-1| {worst:.2e}")


def test_criterion_12_reconstruction():
    sigma = pm.mixed_random(3, 3, 1212)
    rho = pm.liouville_density(sigma)
    recovered = pm.reconstruct_density_matrix(
        3, pm.SamplerConfig(12, N_MC), batch_f=rho.eval_batch
    )
    gap = float(np.linalg.norm(recovered.matrix - sigma.matrix))
    assert report(12, gap <= 1e-2, f"Frobenius error {gap:.2e}")


def test_criterion_13_kaehler_structure():
    rng = np.random.default_rng(1313)
    sign = None
    anti_ok = sym_ok = jj_ok = compat_ok = True
    for n in (3, 4):
        for _ in range(50):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            p = pm.project(x)
            u = pm.TangentVector(p, random_hermitian(n, rng))
            v = pm.TangentVector(p, random_hermitian(n, rng))
            anti_ok = anti_ok and abs(
                pm.symplectic_form(p, u, v) + pm.symplectic_form(p, v, u)
            ) <= 1e-10
            sym_ok = sym_ok and abs(
                pm.fs_metric(p, u, v) - pm.fs_metric(p, v, u)
            ) <= 1e-10
            jjv = pm.complex_structure(p, pm.complex_structure(p, v))
            jj_ok = jj_ok and float(
                np.max(np.abs(jjv.realized() + v.realized()))
            ) <= 1e-10
            g = pm.fs_metric(p, u, v)
            omega = pm.symplectic_form(p, u, pm.complex_structure(p, v))
            if sign is None and abs(omega) > 1e-8:
                sign = 1.0 if g * omega > 0 else -1.0
            compat_ok = compat_ok and abs(g - sign * omega) <= 1e-10
    ok = anti_ok and sym_ok and jj_ok and compat_ok
    assert report(13, ok, f"100 tangent pairs; compatibility sign {sign:+.0f}")


def test_criterion_14_flow_conservation():
    rng = np.random.default_rng(1414)
    ok = True
    worst = 0.0
    for _ in range(10):
        h = random_hermitian(3, rng)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = pm.project(x)
        f_h = pm.observable_function(h)
        base = f_h(p)
        for t in (0.1, 1.0, 10.0):
            drift = abs(f_h(pm.schrodinger_flow(p, h, t)) - base)
            worst = max(worst, drift)
            ok = ok and drift <= 1e-9
    assert report(14, ok, f"10 (H, p) pairs, worst drift {worst:.2e}")


def test_criterion_15_estimator_cross_report(capsys):
    reports = []
    for seed in (151, 152, 153, 154, 155):
        code = cli_main([
            "mi", "--state", "maxent:d=3", "--method", "all",
            "--samples", "1e6", "--seed", str(seed),
        ])
        out = capsys.readouterr().out
        assert code == 0
        reports.append(json.loads(out))

    se_ok = ratio_ok = True
    ratios = []
    for rec in reports:
        for key in ("projective", "gaussian"):
            est = rec[key]
            se_ok = se_ok and est["std_error"] <= 0.02 * abs(est["estimate"])
        ratio = rec["ratio_gaussian_over_projective"]
        ratio_ok = ratio_ok and ratio is not None and np.isfinite(ratio)
        p, g = rec["projective"], rec["gaussian"]
        se_r = abs(ratio) * np.hypot(
            p["std_error"] / p["estimate"], g["std_error"] / g["estimate"]
        )
        ratios.append((ratio, se_r))
    stable = all(
        abs(ra - rb) <= 4 * np.hypot(sa, sb)
        for i, (ra, sa) in enumerate(ratios)
        for rb, sb in ratios[i + 1:]
    )
    mean_ratio = float(np.mean([r for r, _ in ratios]))
    ok = se_ok and ratio_ok and stable
    with capsys.disabled():
        assert report(15, ok, f"5 seeds, measured ratio {mean_ratio:.3f}")


def test_criterion_16_determinism():
    def mean_se(c1, c2, c7):
        return (
            [(e.mean, e.std_error) for e, _ in c1],
            {n: (e.mean, e.std_error) for n, e in c2.items()},
            [[(e.mean, e.std_error) for e in triple] for triple in c7],
        )

    runs = (run_expectation_identity, run_gaussian_entropy_constant, run_product_state_zero)
    ok = mean_se(*map(shared, runs)) == mean_se(*(run() for run in runs))
    assert report(16, ok, "criteria 1, 2, 7 bit-identical on a repeat run")
