"""The package's input rules: every outside vector is refused by one rule, with one of its three messages, wherever it enters."""
import math

import numpy as np
import pytest

from avgsampling import (
    InputError,
    analyze,
    bfs_partition,
    build_frame_system,
    build_laplacian,
    dual_frame_reconstruct,
    eigendecompose,
    frame_algorithm,
    generate_graph,
    generate_pw_signal,
    pw_project,
    solve_spline,
    spline_convergence_experiment,
    validate_partition,
)
from avgsampling.errors import _vector
from avgsampling.fileio import read_signal

OMEGA, ALPHA = 0.5, 1.0


@pytest.fixture(scope="module")
def setting(path16):
    """path16's decomposition and pairs cover, their frame at OMEGA, and a band signal."""
    _, decomp, partition = path16
    frame = build_frame_system(decomp, partition, OMEGA, ALPHA)
    return decomp, partition, frame, generate_pw_signal(decomp, OMEGA, 1)


#: Each entry point: the name its messages use, whether it takes one value per
#: cluster or per vertex, and a call passing ``values`` there with every other input valid,
#: at the frame's bandwidth and alpha.
ENTRY_POINTS = {
    "frame_algorithm samples": ("samples", "clusters", lambda d, p, fr, f, v: frame_algorithm(fr, v)),
    "dual_frame_reconstruct samples": ("samples", "clusters", lambda d, p, fr, f, v: dual_frame_reconstruct(fr, v)),
    "frame_algorithm truth": ("truth", "vertices", lambda d, p, fr, f, v: frame_algorithm(fr, analyze(p, f), truth=v)),
    "solve_spline targets": ("targets", "clusters", lambda d, p, fr, f, v: solve_spline(d, p, v, 1)),
    "spline_convergence_experiment signal": (
        "signal", "vertices", lambda d, p, fr, f, v: spline_convergence_experiment(d, p, fr.omega, fr.alpha, v, (1,))),
    "pw_project signal": ("signal", "vertices", lambda d, p, fr, f, v: pw_project(d, fr.omega, v)),
}

PAST_BOUND = "has an entry of magnitude above 2**400, where a squared norm could overflow"

#: Each bad vector of a given length, and the message it must raise for a given name.
CASES = {
    "too short": (lambda n: np.zeros(n - 1), lambda name, n: f"{name} has shape ({n - 1},), expected ({n},)"),
    "2-D": (lambda n: np.zeros((n, 1)), lambda name, n: f"{name} has shape ({n}, 1), expected ({n},)"),
    "nan": (lambda n: np.r_[np.ones(n - 1), math.nan], lambda name, n: f"{name} contains non-finite entries"),
    "inf": (lambda n: np.r_[np.ones(n - 1), math.inf], lambda name, n: f"{name} contains non-finite entries"),
    # a constant is a band signal, and a constant per cluster its samples; from 2**512 a squared norm overflowed
    # and a route returned NaN residuals, errors or splines with no refusal
    "2**512 x band": (lambda n: np.full(n, 2.0 ** 512), lambda name, n: f"{name} {PAST_BOUND}"),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_vector_entry_point_refuses_by_the_one_rule(setting, entry, case):
    # pw_project returned NaN for a NaN or infinite signal
    decomp, partition, frame, signal = setting
    name, per, call = ENTRY_POINTS[entry]
    make, message = CASES[case]
    length = partition.num_clusters if per == "clusters" else decomp.n
    with pytest.raises(InputError) as err:
        call(decomp, partition, frame, signal, make(length))
    assert str(err.value) == message(name, length)


@pytest.mark.parametrize("body, message", [
    ("0\n0\n", "signal has shape (2,), expected (16,)"),
    ("0\n" * 15 + "nan\n", "signal contains non-finite entries"),
    ("0\n" * 15 + "inf\n", "signal contains non-finite entries"),
    (f"{2.0 ** 512!r}\n" * 16, f"signal {PAST_BOUND}"),
], ids=["too short", "nan", "inf", "2**512 x band"])
def test_signal_file_refuses_by_the_one_rule_and_names_its_path(tmp_path, body, message):
    path = tmp_path / "f.sig"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(InputError) as err:
        read_signal(path, 16)
    assert str(err.value) == f"{path}: {message}"


def test_vector_bound_holds_its_endpoints():
    assert np.array_equal(_vector([2.0 ** 400, -(2.0 ** 400)], 2, "v"), [2.0 ** 400, -(2.0 ** 400)])
    for past in (np.nextafter(2.0 ** 400, math.inf), -np.nextafter(2.0 ** 400, math.inf)):
        with pytest.raises(InputError, match=r"^v has an entry of magnitude above 2\*\*400"):
            _vector([0.0, past], 2, "v")


@pytest.fixture(scope="module", params=["path64 pairs", "grid100 bfs:1"])
def layout_setting(request, path64):
    """path64's pairs cover at OMEGA, or grid100's radius-1 cover at 0.45 (its Lambda is 1, so the sweep needs
    omega < 0.5 at ALPHA): the decomposition, the cover, their frame and a band signal."""
    if request.param == "path64 pairs":
        (_, decomp, partition), omega = path64, OMEGA
    else:
        graph, omega = generate_graph("grid2d", 100), 0.45
        decomp, partition = eigendecompose(build_laplacian(graph)), validate_partition(graph, bfs_partition(graph, 1))
    return decomp, partition, build_frame_system(decomp, partition, omega, ALPHA), generate_pw_signal(decomp, omega, 0)


def _fields(out) -> list:
    """An entry point's outputs: the array itself, or each field of its result or of each of its rows."""
    if isinstance(out, np.ndarray):
        return [out]
    return [value for item in (out if isinstance(out, tuple) else (out,)) for value in vars(item).values()]


#: Views of a unit-stride vector with its values at stride 2 and at stride -1.
LAYOUTS = {
    "stride 2": lambda v: np.repeat(v, 2)[::2],
    "reversed": lambda v: v[::-1].copy()[::-1],
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("entry", [*(e for e in ENTRY_POINTS if ENTRY_POINTS[e][0] != "truth"), "analyze"])
def test_outputs_do_not_depend_on_the_memory_layout_of_the_input(layout_setting, entry, layout):
    # the recovery routes, the projection and the splines once gave other bits for a reversed or strided view
    decomp, partition, frame, signal = layout_setting
    if entry == "analyze":
        per, call = "vertices", lambda d, p, fr, f, v: analyze(p, v)
    else:
        _, per, call = ENTRY_POINTS[entry]
    values = analyze(partition, signal) if per == "clusters" else signal
    view = LAYOUTS[layout](values)
    assert np.array_equal(view, values) and not view.flags.c_contiguous
    expected, got = (_fields(call(decomp, partition, frame, signal, v)) for v in (values, view))
    assert len(got) == len(expected)
    for a, b in zip(expected, got):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, (a, b)
