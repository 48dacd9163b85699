"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
The order sweep and the 200-epoch training run are shared through
module-scoped fixtures; everything else is recomputed per criterion.
"""

import time

import numpy as np
import pytest

from support import (
    GRAD_CHECK_FAMILIES,
    best_subset_support,
    bound_reference,
    check_prox_equivariance,
    directional_grad_check,
    make_plain_net,
    param_count,
    plain_ista,
    refinement_errors,
    sample_grad_config,
)
from rotprox import (
    Adam,
    BlurDownsample,
    Identity,
    NeuralProx,
    PlanarImage,
    SoftThreshold,
    TVProx,
    UnfoldingConfig,
    degrade,
    gaussian_kernel,
    init_network,
    ista_solve,
    make_audit_net,
    make_denoiser_net,
    parameters,
    psnr,
    rotate_image,
    synthetic_image,
    synthetic_stack,
    train_denoiser,
)
from rotprox.audit import (
    REGULARIZER_KINDS,
    SWEEP_RING_ORDERS,
    bound_inputs_for,
    emit_report,
    make_sweep_net,
    measure_equivariance,
    order_sweep,
    regularizer_rotation_table,
    relative_spread,
    theorem1_bound,
)
from rotprox.synthetic import ring_stack

QUARTER_TURNS = [np.pi / 2, np.pi, 3 * np.pi / 2]

FAMILY_SEEDS = {"plain_conv": 41, "lift": 42, "group_conv": 43, "pooled": 44, "residual": 45}

def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def quarter_audit():
    """Criterion-1 configuration, reused by the bound check in criterion 5."""
    t0 = time.perf_counter()
    net = make_audit_net(4)
    image = synthetic_image(64, 0, mesh=1.0 / 3.0)
    bi = bound_inputs_for(net, [image])
    rep = measure_equivariance(net, [image], angles=QUARTER_TURNS, bound_inputs=bi)
    return rep, bi, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep():
    """Default order sweep (t in 1..24, 2 ring images, 10 angles each)."""
    t0 = time.perf_counter()
    reports = order_sweep()
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained_run():
    """Criterion-10 training run: 32 noisy 32x32 images, 200 Adam epochs."""
    clean = synthetic_stack(32, 32, 7, mesh=1.0)
    pairs = [(c, degrade(Identity(), c, 25.0 / 255.0, seed=1000 + i)) for i, c in enumerate(clean)]
    t0 = time.perf_counter()
    net = init_network(make_denoiser_net(t=4, channels=4), 11)
    trained, trace = train_denoiser(net, pairs, Adam(1e-3), 200)
    return trained, trace, pairs, time.perf_counter() - t0


def test_criterion_01_quarter_turn_exactness(quarter_audit):
    rep, _, elapsed = quarter_audit
    ok = rep.max_error < 1e-8 and elapsed < 10.0
    report(1, ok, f"t=4 quarter-turn max error {rep.max_error:.3g} (limit 1e-08), {elapsed:.1f}s")


def test_criterion_02_error_decreases_with_order(sweep, tmp_path):
    reports, elapsed = sweep
    orders = [rep.t for rep in reports]
    assert orders == [1, 2, 4, 8, 12, 24]
    for rep in reports:
        assert len(rep.errors) >= 20
    means = {rep.t: rep.mean_error for rep in reports}
    seq = [means[t] for t in orders]
    monotone = all(b < a for a, b in zip(seq, seq[1:]))
    ratio_ok = means[24] <= means[4] / 3.0
    csv_path, _ = emit_report(reports, tmp_path / "equivariance.csv")
    rows = csv_path.read_text(encoding="utf-8").splitlines()
    ok = monotone and ratio_ok and elapsed < 120.0 and len(rows) == 7
    detail = (
        "means " + " > ".join(f"{means[t]:.4f}" for t in orders)
        + f", err(24)/err(4) = {means[24] / means[4]:.3f} (limit 1/3), {elapsed:.1f}s"
    )
    report(2, ok, detail)


def test_criterion_03_order_one_matches_plain_conv():
    images = synthetic_stack(3, 64, 42, mesh=1.0 / 3.0)
    mean_eq, mean_plain = [], []
    for s in range(24):
        mean_eq.append(
            measure_equivariance(make_audit_net(1, seed=100 + s), images, angles=10, seed=s).mean_error
        )
        mean_plain.append(
            measure_equivariance(make_plain_net(seed=300 + s), images, angles=10, seed=s).mean_error
        )
    a, b = float(np.mean(mean_eq)), float(np.mean(mean_plain))
    gap = abs(a - b) / b
    report(3, gap < 0.10, f"t=1 mean {a:.5f} vs plain {b:.5f}, relative gap {gap:.3f} (limit 0.10)")


def test_criterion_04_mesh_refinement_quadratic():
    errors = refinement_errors()
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(2.5 <= r <= 6.0 for r in ratios)
    report(4, ok, "halving-mesh error ratios " + ", ".join(f"{r:.2f}" for r in ratios) + " (range [2.5, 6])")


def test_criterion_05_bound_dominates_and_cross_checks(sweep, quarter_audit):
    reports, _ = sweep
    rep1, bi1, _ = quarter_audit
    audited = list(reports) + [rep1]
    dominated = all(
        rep.bound_satisfied and all(e <= rep.bound for _, e in rep.errors) for rep in audited
    )
    images = ring_stack(2, 128, 5, 1.0 / 6.0, orders=SWEEP_RING_ORDERS)

    def reference(bi):
        rows = [(lb.slices, lb.F, lb.G, lb.H) for lb in bi.layers]
        return bound_reference(rows, bi.F0, bi.G0, bi.H0, bi.p, bi.h, bi.t, bi.height, bi.width)

    worst = 0.0
    for rep in reports:
        bi = bound_inputs_for(make_sweep_net(rep.t, channels=3, seed=5), images)
        lib = theorem1_bound(bi)[0]
        worst = max(worst, abs(lib - reference(bi)) / lib, abs(lib - rep.bound) / rep.bound)
    ref1 = reference(bi1)
    worst = max(worst, abs(theorem1_bound(bi1)[0] - ref1) / ref1)
    ok = dominated and worst <= 1e-12
    report(5, ok, f"measured <= bound on {len(audited)} configs, cross-check rel {worst:.2g} (limit 1e-12)")


def test_criterion_06_regularizer_rotation_invariance():
    worst_spread, worst_quarter = 0.0, 0.0
    for seed in range(5):
        image = synthetic_image(64, seed, mesh=1.0 / 3.0)
        rows = regularizer_rotation_table(image, n_angles=8)
        for kind in REGULARIZER_KINDS:
            values = [v for k, _, v in rows if k == kind]
            worst_spread = max(worst_spread, relative_spread(values))
            # angle grid is 2*pi*k/8, so entries 2, 4, 6 are the quarter turns
            for j in (2, 4, 6):
                worst_quarter = max(worst_quarter, abs(values[j] - values[0]) / abs(values[0]))
    ok = worst_spread < 0.05 and worst_quarter <= 1e-10
    report(
        6,
        ok,
        f"spread {worst_spread:.4f} over 5 images x 4 kinds (limit 0.05), "
        f"quarter-turn drift {worst_quarter:.2g} (limit 1e-10)",
    )


def test_criterion_07_prox_quarter_turn_commutation():
    rng = np.random.default_rng(3)
    x2 = PlanarImage(rng.standard_normal((12, 12, 2)))
    soft_err = max(
        check_prox_equivariance(SoftThreshold(0.3), x2, theta)
        for theta in (np.pi / 2, np.pi, -np.pi / 2)
    )
    x1 = PlanarImage(rng.standard_normal((12, 12, 1)))
    tv_err = check_prox_equivariance(TVProx(0.15, tol=1e-10, max_iter=5000), x1, np.pi / 2)
    ok = soft_err <= 1e-14 and tv_err <= 1e-6
    report(7, ok, f"soft-threshold {soft_err:.2g} (limit 1e-14), anisotropic TV {tv_err:.2g} (limit 1e-06)")


def test_criterion_08_ista_descent_recovery_adjoints():
    # (a) objective monotone under the default safe step
    op = BlurDownsample(gaussian_kernel(5, 1.0), 2)
    y = degrade(op, synthetic_image(16, 13), 0.05, seed=30)
    cfg = UnfoldingConfig(100, None, SoftThreshold(0.02))
    xs, trace = plain_ista(y, op, cfg)
    assert ista_solve(y, op, cfg)[0].data.tobytes() == xs[-1].data.tobytes()
    assert len(trace) == 101
    worst_rise = max(b - a for a, b in zip(trace, trace[1:]))
    monotone = worst_rise <= 1e-12

    # (b) 3-sparse recovery support vs the exhaustive best-subset oracle
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        idx = rng.choice(64, size=3, replace=False)
        data = np.zeros(64)
        data[idx] = rng.uniform(0.5, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
        yy = degrade(Identity(), PlanarImage(data.reshape(8, 8, 1)), 0.01, seed=200 + seed)
        sol, _ = ista_solve(yy, Identity(), UnfoldingConfig(5, 1.0, SoftThreshold(0.2)))
        support = frozenset(np.flatnonzero(sol.data.ravel()).tolist())
        hits += support == best_subset_support(yy.data, 3)

    # (c) adjoint identity for Identity and BlurDownsample at scales 1..3
    rng = np.random.default_rng(8)
    worst_adj = 0.0
    for adj_op in [Identity()] + [BlurDownsample(gaussian_kernel(5, 1.0), s) for s in (1, 2, 3)]:
        for _ in range(3):
            x = PlanarImage(rng.standard_normal((12, 12, 2)))
            ax = adj_op.apply(x)
            v = PlanarImage(rng.standard_normal(ax.data.shape), mesh=ax.mesh)
            lhs = float(np.sum(ax.data * v.data))
            rhs = float(np.sum(x.data * adj_op.adjoint(v).data))
            worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))

    ok = monotone and hits == 5 and worst_adj <= 1e-10
    report(
        8,
        ok,
        f"descent worst rise {worst_rise:.2g} (slack 1e-12), sparse support {hits}/5, "
        f"adjoint rel {worst_adj:.2g} (limit 1e-10)",
    )


def test_criterion_09_gradient_checks():
    worst = 0.0
    for family in GRAD_CHECK_FAMILIES:
        rng = np.random.default_rng(FAMILY_SEEDS[family])
        for _ in range(50):
            net, x, target = sample_grad_config(family, rng)
            rel, _, _ = directional_grad_check(net, x, target, rng)
            worst = max(worst, rel)
    ok = worst < 1e-4
    report(9, ok, f"worst relative error {worst:.2g} over 5 families x 50 configs (limit 1e-04)")


def test_criterion_10_training(trained_run):
    trained, trace, pairs, elapsed = trained_run
    ratio = trace[-1] / trace[0]
    ratio_ok = ratio <= 0.5

    # determinism: a repeated shorter run must agree bit for bit
    def rerun():
        net = init_network(make_denoiser_net(t=4, channels=4), 11)
        return train_denoiser(net, pairs, Adam(1e-3), 12)

    net_a, trace_a = rerun()
    net_b, trace_b = rerun()
    deterministic = trace_a == trace_b and all(
        np.array_equal(pa, pb)
        for (_, _, pa), (_, _, pb) in zip(parameters(net_a), parameters(net_b))
    )

    # the trained network keeps its exact discrete symmetry
    rep = measure_equivariance(trained, [synthetic_image(64, 1, mesh=1.0)], angles=QUARTER_TURNS)
    still_equivariant = rep.max_error < 1e-8

    ok = ratio_ok and deterministic and still_equivariant
    report(
        10,
        ok,
        f"loss {trace[0]:.4f} -> {trace[-1]:.4f} (ratio {ratio:.4f}, limit 0.5) in {elapsed:.0f}s, "
        f"repeat runs bit-identical: {deterministic}, "
        f"trained quarter-turn error {rep.max_error:.2g}",
    )

    # soft criterion, reported but not gating: equivariant vs plain at matched
    # size, scored on rotation-augmented held-out images. Both use the factory
    # zero-final-conv init, so either architecture starts from the identity
    # map and the same loss. t=4 at 4 channels holds 1936 parameters; the
    # closest plain width is 8 channels at 1896.
    eq_soft, _ = train_denoiser(make_denoiser_net(t=4, channels=4, seed=13), pairs, Adam(1e-3), 200)
    plain_soft, _ = train_denoiser(
        make_denoiser_net(t=1, channels=8, seed=19), pairs, Adam(1e-3), 200
    )

    def crop_psnr(x, ref, r=8):
        # score away from the frame so boundary handling does not dominate
        return psnr(
            PlanarImage(x.data[r:-r, r:-r, :].copy(), mesh=x.mesh),
            PlanarImage(ref.data[r:-r, r:-r, :].copy(), mesh=ref.mesh),
        )

    test_clean = synthetic_stack(8, 32, 77, mesh=1.0)
    thetas = np.random.default_rng(5).uniform(-np.pi, np.pi, len(test_clean))
    scores = {"noisy": [], "equivariant": [], "plain": []}
    for i, (clean, theta) in enumerate(zip(test_clean, thetas)):
        target = rotate_image(clean, float(theta))
        noisy = degrade(Identity(), target, 25.0 / 255.0, seed=4000 + i)
        scores["noisy"].append(crop_psnr(noisy, target))
        scores["equivariant"].append(crop_psnr(NeuralProx(eq_soft)(noisy), target))
        scores["plain"].append(crop_psnr(NeuralProx(plain_soft)(noisy), target))
    means = {k: float(np.mean(v)) for k, v in scores.items()}
    print(
        f"criterion 10 (soft, non-gating): rotated-image denoising, interior PSNR: "
        f"noisy {means['noisy']:.2f} dB, "
        f"equivariant t=4 {means['equivariant']:.2f} dB ({param_count(eq_soft)} params), "
        f"plain {means['plain']:.2f} dB ({param_count(plain_soft)} params)"
    )
