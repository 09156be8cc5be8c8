"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not tuned elsewhere.
"""
import math
import time

import numpy as np
import pytest

from avgsampling import (
    FrameIterationConfig,
    analyze,
    build_frame_system,
    build_laplacian,
    dual_frame_reconstruct,
    eigendecompose,
    frame_algorithm,
    generate_graph,
    generate_pw_signal,
    interpolate,
    solve_spline,
    spline_convergence_experiment,
)
from avgsampling.cli import main as cli_main

from conftest import (
    dense_indicators,
    energy_slack,
    gradient_sq,
    orthogonality_defect,
    power,
    unit_signals,
    zero_average,
)
from test_splines import raw_kkt_spline


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_path_spectrum():
    start = time.perf_counter()
    worst = 0.0
    in_band = True
    for n in (4, 16, 64):
        d = eigendecompose(build_laplacian(generate_graph("path", n)))
        expected = 2.0 - 2.0 * np.cos(np.arange(n) * np.pi / n)
        worst = max(worst, float(np.max(np.abs(d.eigenvalues - expected))))
        in_band &= bool(d.eigenvalues[0] >= -1e-10 and d.eigenvalues[-1] <= 4.0 + 1e-10)
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-9 and in_band and elapsed < 2.0,
        f"path spectra match cos formula (max err {worst:.2e}, in [0,4]: {in_band}, "
        f"{elapsed:.2f}s)",
    )


def test_criterion_02_gradient_identity(er_suite):
    worst = 0.0
    checked = 0
    for g, _, _ in er_suite:
        L = build_laplacian(g)
        F = unit_signals(g.n, 10, seed=1000 + g.n)
        for i in range(10):
            f = F[:, i]
            grad2 = gradient_sq(g, f)
            gap = abs(float(f @ (L @ f)) - grad2)
            worst = max(worst, gap / max(1.0, grad2))
            checked += 1
    _report(
        2,
        checked == 100 and worst <= 1e-9,
        f"form f'Lf equals gradient norm on {checked} signals (worst rel gap {worst:.2e})",
    )


def test_criterion_03_finite_graph_poincare(er_suite, path4, path16, path64):
    suite = [(g, d) for g, d, _ in er_suite] + [
        (b[0], b[1]) for b in (path4, path16, path64)
    ]
    per_graph = -(-1000 // len(suite))  # ceil
    worst_slack = math.inf
    total = 0
    eig_rel = 0.0
    for idx, (g, d) in enumerate(suite):
        gap = d.eigenvalues[1]  # every suite graph is connected
        F = unit_signals(g.n, per_graph, seed=2000 + idx)
        for i in range(per_graph):
            f = F[:, i]
            dev = f - f.mean()
            slack = gradient_sq(g, f) / gap - float(dev @ dev)
            worst_slack = min(worst_slack, slack)
            total += 1
        v = d.eigenvectors[:, 1]
        dev = v - v.mean()
        lhs = float(dev @ dev)
        rhs = gradient_sq(g, v) / gap
        eig_rel = max(eig_rel, abs(lhs - rhs) / max(rhs, 1e-300))
    _report(
        3,
        total >= 1000 and worst_slack >= -1e-9 and eig_rel <= 1e-8,
        f"mean-deviation bound holds on {total} signals (worst slack {worst_slack:.2e}); "
        f"gap-eigenvector equality rel err {eig_rel:.2e}",
    )


def test_criterion_04_global_poincare(er_suite, path64):
    bundles = [path64] + list(er_suite[:5])
    alphas = (0.5, 1.0, 4.0)
    per_combo = -(-1000 // (len(bundles) * len(alphas)))
    worst = math.inf
    total = 0
    for idx, (g, d, part) in enumerate(bundles):
        F = unit_signals(g.n, per_combo * len(alphas), seed=3000 + idx)
        col = 0
        for alpha in alphas:
            for _ in range(per_combo):
                worst = min(worst, energy_slack(d, part, F[:, col], alpha))
                total += 1
                col += 1
    _report(
        4,
        total >= 1000 and worst >= -1e-9,
        f"partition energy inequality holds for {total} (signal, alpha) cases "
        f"(worst slack {worst:.2e})",
    )


def test_criterion_05_frame_inequality(path64):
    _, d, part = path64
    results = []
    for omega, alpha, floor in ((0.5, 1.0, 0.25), (1.5, 4.0, 0.0125)):
        frame = build_frame_system(d, part, omega, alpha)
        lo, hi = math.inf, -math.inf
        for seed in range(500):
            f = generate_pw_signal(d, omega, 4000 + seed)
            s = analyze(part, f)
            energy = float(s @ s)  # unit-norm f
            lo = min(lo, energy)
            hi = max(hi, energy)
        ok = lo >= floor - 1e-9 and hi <= 1.0 + 1e-9
        results.append((omega, alpha, floor, lo, hi, ok, frame.gamma))
    all_ok = all(r[5] for r in results)
    detail = "; ".join(
        f"omega={r[0]}, alpha={r[1]} (gamma={r[6]:.4f}): {r[3]:.4f} >= {r[2]}, {r[4]:.6f} <= 1"
        for r in results
    )
    _report(5, all_ok, f"sampled energy within frame bounds on 500 band signals each: {detail}")


def test_criterion_06_frame_algorithm(path64):
    _, d, part = path64
    frame = build_frame_system(d, part, 0.5, 1.0)
    assert frame.is_frame
    decay_ok = True
    final_ok = True
    for seed in range(50):
        f = generate_pw_signal(d, 0.5, 5000 + seed)
        samples = analyze(part, f)
        result = frame_algorithm(frame, samples, truth=f)
        eta = result.eta
        for step, err in enumerate(result.error_log, start=1):
            decay_ok &= err <= eta ** step * (1.0 + 1e-8)  # unit-norm truth
        final_ok &= result.converged and result.iterations <= 10000
        final_ok &= result.error_log[-1] <= 1e-10
    eta = (frame.upper - frame.lower) / (frame.upper + frame.lower)
    _report(
        6,
        decay_ok and final_ok,
        f"iteration error under eta^n at every step for 50 trials (eta={eta:.4f}, "
        f"a={frame.lower:.3f}, b={frame.upper:.3f}); converged below 1e-10",
    )


def test_criterion_07_dual_exactness(er_suite, path4, path16, path64):
    bundles = list(er_suite) + [path4, path16, path64]
    worst_err = 0.0
    worst_gap = 0.0
    for idx, (g, d, part) in enumerate(bundles):
        omega = 0.4 * part.lambda_xi if math.isfinite(part.lambda_xi) else 1.0
        frame = build_frame_system(d, part, omega, 1.0)
        if not frame.is_frame:
            continue
        for t in range(3):
            f = generate_pw_signal(d, omega, 6000 + 10 * idx + t)
            samples = analyze(part, f)
            direct = dual_frame_reconstruct(frame, samples)
            worst_err = max(worst_err, float(np.linalg.norm(direct.signal - f)))
            iterative = frame_algorithm(frame, samples, FrameIterationConfig(tol=1e-13))
            worst_gap = max(worst_gap, float(np.linalg.norm(direct.signal - iterative.signal)))
    _report(
        7,
        worst_err <= 1e-8 and worst_gap <= 1e-7,
        f"dual recovery exact on unit band signals across the suite "
        f"(worst err {worst_err:.2e}); dual vs iterative gap {worst_gap:.2e}",
    )


def test_criterion_08_spline_interpolation(er_suite, path16, path64, small_suite):
    worst_avg = 0.0
    bundles = [path16, path64] + list(er_suite[:3])
    for idx, (g, d, part) in enumerate(bundles):
        rng = np.random.Generator(np.random.PCG64(7000 + idx))
        for k in (1, 2, 4, 8):
            targets = rng.standard_normal(part.num_clusters)
            sol = solve_spline(d, part, targets, k)
            gap = np.max(np.abs(analyze(part, sol.signal) - targets))
            worst_avg = max(worst_avg, gap / max(1.0, float(np.linalg.norm(targets))))
    worst_oracle = 0.0
    for name, g, d, part in small_suite:
        L = build_laplacian(g)
        X = dense_indicators(part)
        rng = np.random.Generator(np.random.PCG64(7100))
        for k in (1, 2, 4, 8):
            targets = rng.standard_normal(part.num_clusters)
            sol = solve_spline(d, part, targets, k)
            oracle = raw_kkt_spline(L, X, targets, k)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            worst_oracle = max(worst_oracle, float(np.max(np.abs(sol.signal - oracle))) / scale)
    _report(
        8,
        worst_avg <= 1e-8 and worst_oracle <= 1e-8,
        f"averages interpolated to {worst_avg:.2e} for k in {{1,2,4,8}}; raw-matrix "
        f"oracle agreement {worst_oracle:.2e} on n <= 12 graphs",
    )


def test_criterion_09_spline_convergence(path64):
    _, d, part = path64
    worst_excess = -math.inf
    k8 = []
    for seed in range(20):
        f = generate_pw_signal(d, 0.5, 8000 + seed)
        rows = spline_convergence_experiment(d, part, 0.5, 1.0, f, (1, 2, 4, 8))
        for row in rows:
            worst_excess = max(worst_excess, row.rel_error - row.bound)
            if row.order == 8:
                k8.append(row.rel_error)
    bound8 = 2.0 * 0.5 ** 8
    _report(
        9,
        worst_excess <= 1e-8 and max(k8) <= bound8 + 1e-8,
        f"spline error under 2*(1/2)^k for 20 band signals, k in {{1,2,4,8}} "
        f"(worst excess {worst_excess:.2e}; k=8 errors <= {max(k8):.2e} vs bound {bound8:.4f})",
    )


def test_criterion_10_spline_characterization(path64):
    _, d, part = path64
    produced_ok = True
    worst_produced = 0.0
    perturbed_ok = True
    weakest_perturbed = math.inf
    rng = np.random.Generator(np.random.PCG64(9000))
    for k in (1, 2, 4, 8):
        for t in range(5):
            f = generate_pw_signal(d, 0.5, 9000 + 10 * k + t)
            sol = interpolate(d, part, f, k)
            defect, scale = orthogonality_defect(d, part, sol.signal, k)
            produced_ok &= defect / scale <= 1e-8
            worst_produced = max(worst_produced, defect / scale)
            h = zero_average(d, part, rng.standard_normal(32))
            h *= 0.1 / float(np.linalg.norm(power(d, k, h)))
            defect, scale = orthogonality_defect(d, part, sol.signal + h, k)
            perturbed_ok &= defect / scale > 1e-4
            weakest_perturbed = min(weakest_perturbed, defect / scale)
    _report(
        10,
        produced_ok and perturbed_ok,
        f"every produced spline passes orthogonality (worst defect {worst_produced:.2e}); "
        f"every perturbed one fails (weakest defect {weakest_perturbed:.2e} > 1e-4)",
    )


def test_criterion_11_reproducibility(tmp_path):
    start = time.perf_counter()
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(
            ["demo-path", "--n", "64", "--omega", "0.5", "--alpha", "1",
             "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    _report(
        11,
        blobs[0] == blobs[1] and len(blobs[0]) > 0,
        f"demo-path reports byte-identical across two runs ({len(blobs[0])} bytes, "
        f"{elapsed:.1f}s for both)",
    )
