"""End-to-end tests of the command-line interface."""

import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steingrad import (
    FittedEstimator,
    HmcConfig,
    KernelSpec,
    banana_score,
    cli,
    fit_estimator,
    ksd_to_target,
    ksd_u,
    ksd_v,
    median_heuristic,
)
from steingrad.cli import _dump_json, _float_lines, _write_matrix_csv, main
from steingrad.estimators import KIND_SCORE, KIND_STEIN_V, KINDS


def write_csv(path, prefix, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{prefix}{i}" for i in range(arr.shape[1])])
        writer.writerows([[repr(float(v)) for v in row] for row in arr])


def read_csv(path, prefix):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    d = len(rows[0])
    assert rows[0] == [f"{prefix}{i}" for i in range(d)]
    return np.array([[float(v) for v in row] for row in rows[1:]])


def sample_file(tmp_path, seed=0, n=20, d=2, name="samples.csv"):
    xs = np.random.default_rng(seed).standard_normal((n, d))
    path = tmp_path / name
    write_csv(path, "x", xs)
    return path, xs


class TestEstimate:
    def test_single_sample_has_zero_gradient(self, tmp_path):
        # With one training point every kernel gradient vanishes, so the fit
        # is identically zero whatever the estimator.
        path = tmp_path / "one.csv"
        write_csv(path, "x", [[0.7, -1.2]])
        out = tmp_path / "grads.csv"
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(out),
                "--estimator", "stein-v",
                "--sigma2", "1.0",
            ]
        )
        assert rc == 0
        grads = read_csv(out, "g")
        np.testing.assert_array_equal(grads, [[0.0, 0.0]])

    def test_matches_library_fit(self, tmp_path):
        path, xs = sample_file(tmp_path)
        out = tmp_path / "grads.csv"
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(out),
                "--estimator", "stein-v",
                "--sigma2", "1.5",
                "--eta", "0.2",
            ]
        )
        assert rc == 0
        want = fit_estimator(KIND_STEIN_V, xs, KernelSpec("rbf", 1.5), 0.2)
        np.testing.assert_array_equal(read_csv(out, "g"), want.grads_at_train())

    def test_sidecar_round_trip(self, tmp_path):
        path, xs = sample_file(tmp_path, seed=1)
        out = tmp_path / "grads.csv"
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(out),
                "--estimator", "score",
                "--sigma2", "2.0",
            ]
        )
        assert rc == 0
        sidecar = tmp_path / "grads.json"
        with open(sidecar, encoding="utf-8") as fh:
            record = json.load(fh)
        fitted = FittedEstimator.from_json_dict(record)
        assert fitted.kind == KIND_SCORE
        direct = fit_estimator(KIND_SCORE, xs, KernelSpec("rbf", 2.0), 0.1)
        np.testing.assert_array_equal(fitted.coeffs, direct.coeffs)
        np.testing.assert_array_equal(fitted.train, direct.train)
        # recomputed fields agree to solver reproducibility, not bit for bit
        np.testing.assert_allclose(fitted.grads_at_train(), read_csv(out, "g"), atol=1e-12)
        pts = np.random.default_rng(2).standard_normal((5, 2))
        np.testing.assert_allclose(fitted.predict(pts), direct.predict(pts), atol=1e-12)

    def test_stein_v_sidecar_holds_no_inverse(self, tmp_path):
        # The predictive inverse is derived state: the sidecar holds train,
        # the gradient field and a few scalars, O(K d) numbers, not K^2.
        n, d = 60, 2
        path, xs = sample_file(tmp_path, seed=5, n=n, d=d)
        out = tmp_path / "grads.csv"
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(out),
                "--estimator", "stein-v",
                "--sigma2", "1.5",
            ]
        )
        assert rc == 0
        with open(tmp_path / "grads.json", encoding="utf-8") as fh:
            record = json.load(fh)
        assert "kinv" not in record

        def count_numbers(obj):
            if isinstance(obj, dict):
                return sum(count_numbers(v) for v in obj.values())
            if isinstance(obj, list):
                return sum(count_numbers(v) for v in obj)
            return int(isinstance(obj, (int, float)) and not isinstance(obj, bool))

        assert count_numbers(record) <= 2 * n * d + 10
        fitted = FittedEstimator.from_json_dict(record)
        direct = fit_estimator(KIND_STEIN_V, xs, KernelSpec("rbf", 1.5), 0.1)
        pts = np.random.default_rng(6).standard_normal((5, d))
        np.testing.assert_allclose(fitted.predict(pts), direct.predict(pts), atol=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        path, _ = sample_file(tmp_path, seed=3)
        out = tmp_path / "grads.csv"
        argv = [
            "estimate",
            "--input", str(path),
            "--output", str(out),
            "--estimator", "kde",
        ]
        assert main(argv) == 0
        first = out.read_bytes(), (tmp_path / "grads.json").read_bytes()
        assert main(argv) == 0
        second = out.read_bytes(), (tmp_path / "grads.json").read_bytes()
        assert first == second

    def test_median_bandwidth_recorded_in_sidecar(self, tmp_path):
        path, xs = sample_file(tmp_path, seed=4)
        out = tmp_path / "grads.csv"
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(out),
                "--bandwidth-scale", "3.0",
            ]
        )
        assert rc == 0
        with open(tmp_path / "grads.json", encoding="utf-8") as fh:
            record = json.load(fh)
        assert record["kernel"]["sigma2"] == pytest.approx(
            3.0 * median_heuristic(xs), rel=1e-15
        )
        assert record["kind"] == KIND_STEIN_V

    def test_config_file_with_flag_override(self, tmp_path):
        path, xs = sample_file(tmp_path, seed=5)
        out = tmp_path / "grads.csv"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "input": str(path),
                    "output": str(out),
                    "estimator": "stein-v",
                    "sigma2": 1.0,
                    "eta": 0.5,
                }
            )
        )
        rc = main(["estimate", "--config", str(config), "--eta", "0.25"])
        assert rc == 0
        with open(tmp_path / "grads.json", encoding="utf-8") as fh:
            assert json.load(fh)["eta"] == 0.25

    def test_unknown_config_key_rejected(self, tmp_path):
        path, _ = sample_file(tmp_path, seed=6)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"inpt": str(path)}))
        assert main(["estimate", "--config", str(config)]) == 2

    def test_missing_input_file(self, tmp_path):
        rc = main(
            [
                "estimate",
                "--input", str(tmp_path / "nope.csv"),
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 2

    def test_bad_header_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_ragged_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1\n1.0,2.0\n3.0\n")
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_degenerate_sample_is_numerical_failure(self, tmp_path):
        # identical points: the median pairwise distance collapses to zero
        path = tmp_path / "flat.csv"
        write_csv(path, "x", np.ones((6, 2)))
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 3

    def test_epanechnikov_kde_refuses_non_positive_row_sum(self, tmp_path, capsys):
        # a standard normal sample spreads to negative kernel row sums
        path, _ = sample_file(tmp_path, seed=16, n=25, d=3)
        out = tmp_path / "out.csv"
        argv = ["estimate", "--input", str(path), "--output", str(out),
                "--estimator", "kde", "--kernel", "epanechnikov"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert re.search(r"kernel row sum at sample \d+ is -[0-9.]+, not > 0", err)
        assert not out.exists()

    def test_entropy_check_epanechnikov_kde_is_numerical_failure(self, tmp_path, capsys):
        # N(0, 1.5^2) draws: every row sum is negative, where the ratio form
        # gives a KDE entropy gradient of -0.58 against the analytic 0.667
        out = tmp_path / "entropy.json"
        argv = ["entropy-check", "--seed", "3", "--n", "500",
                "--kernel", "epanechnikov", "--output", str(out)]
        assert main(argv) == 3
        assert "kernel row sum at sample 0 is -" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["bogus", "exact"])
    def test_bad_estimator_rejected_before_input_is_read(self, tmp_path, capsys, name):
        # the input does not exist: the name must be the error, not the file
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": name}))
        argv = ["estimate", "--config", str(config), "--input", str(tmp_path / "nope.csv"),
                "--output", str(tmp_path / "grads.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"estimator {name!r}" in err and "nope.csv" not in err

    @pytest.mark.parametrize(
        "output, sidecar",
        [("g.json", None), ("g.csv", "g.csv"), ("./g.json", "g.json"), ("g.json", "./g.json")],
    )
    def test_sidecar_on_output_rejected_before_input_is_read(
        self, tmp_path, monkeypatch, capsys, output, sidecar
    ):
        # the sidecar would overwrite the gradient CSV; the input does not exist
        monkeypatch.chdir(tmp_path)
        argv = ["estimate", "--input", "nope.csv", "--output", output]
        if sidecar is not None:
            argv += ["--sidecar", sidecar]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "sidecar" in err and "nope.csv" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "input_name, extra, field",
        [
            ("s.csv", ["--output", "s.csv"], "output"),
            ("s.csv", ["--output", "./s.csv", "--sidecar", "g.json"], "output"),
            ("s.csv", ["--output", "g.csv", "--sidecar", "s.csv"], "sidecar"),
            # the default sidecar, g.csv's .json, is the input
            ("g.json", ["--output", "g.csv"], "sidecar"),
        ],
    )
    def test_output_on_input_refused_before_input_is_read(
        self, tmp_path, monkeypatch, capsys, input_name, extra, field
    ):
        # either output would overwrite the samples; nothing may be read or written
        monkeypatch.chdir(tmp_path)
        sample_file(tmp_path, name=input_name)
        before = (tmp_path / input_name).read_bytes()
        reads = []
        monkeypatch.setattr(cli, "_read_matrix_csv", lambda *a: reads.append(a))
        assert main(["estimate", "--input", input_name, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "--input" in err
        assert reads == []
        assert [p.name for p in tmp_path.iterdir()] == [input_name]
        assert (tmp_path / input_name).read_bytes() == before

    def test_epanechnikov_rejects_bandwidth(self, tmp_path):
        path, _ = sample_file(tmp_path, seed=7)
        rc = main(
            [
                "estimate",
                "--input", str(path),
                "--output", str(tmp_path / "out.csv"),
                "--kernel", "epanechnikov",
                "--sigma2", "2.0",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("kernel", ["rbf", "epanechnikov"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_median_matches_exactly(self, tmp_path, capsys, kernel, via):
        # 'median' has one spelling, as the --kernel choices do
        path, _ = sample_file(tmp_path, seed=8)
        out = tmp_path / "out.csv"
        argv = ["estimate", "--input", str(path), "--output", str(out), "--kernel", kernel]
        given = "MEDIAN" if via == "flag" else "Median"
        if via == "flag":
            argv += ["--sigma2", given]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"sigma2": given}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        # the message names the field and echoes the spelling, for either kernel
        assert "sigma2" in err and repr(given) in err
        assert not out.exists()


# signed zero, the smallest subnormal, a mid-range subnormal, huge and
# integer-valued floats
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1.5e-310, 1e300, -1e300, 3.0, -2.0, 1e16]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=200, deadline=None)
@given(
    arr=arrays(
        np.float64,
        st.tuples(st.integers(0, 6), st.integers(1, 4)),
        elements=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
    )
)
def test_matrix_csv_bytes_match_csv_writer(csv_dir, arr):
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow([f"g{i}" for i in range(arr.shape[1])])
    for row in arr:
        writer.writerow([repr(float(v)) for v in row])
    path = csv_dir / "g.csv"
    _write_matrix_csv(path, "g", arr)
    assert path.read_bytes() == ref.getvalue().encode("utf-8")


# dicts draw their keys from one family, so json can sort them; ints,
# floats and bools compare with each other
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats().map(np.float64),
    st.text(),
)
_JSON_KEY_FAMILIES = (
    st.text(), st.one_of(st.integers(), st.floats(), st.booleans()), st.none()
)


def _json_values(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.floats(), max_size=5),
        st.lists(st.one_of(st.floats(), st.integers(), st.booleans()), max_size=5),
        *(st.dictionaries(keys, children, max_size=4) for keys in _JSON_KEY_FAMILIES),
    )


@settings(max_examples=200, deadline=None)
@given(value=st.recursive(_JSON_LEAVES, _json_values, max_leaves=30))
@example(value=[0.5, math.nan, -math.inf, np.float64(2.0)])
@example(value={2: [1.0, 2], 2.5: (), False: "\u00e9", 1e-300: {None: True}})
def test_dump_json_bytes_match_json_dumps(csv_dir, value):
    path = csv_dir / "v.json"
    _dump_json(value, path)
    want = json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("value", [{(1, 2): 0.5}, {"a": {1.0, 2.0}}, [1.0, object()]])
def test_dump_json_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _dump_json(value)


# documents shaped like the program's own: string-keyed dicts of finite
# float64 vectors and matrices, scalars, None, and empty or nested dicts
_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_DOC_ARRAYS = st.one_of(
    arrays(np.float64, st.integers(1, 5), elements=_FINITE_FLOATS),
    arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)), elements=_FINITE_FLOATS),
)
_DOC_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(), _DOC_ARRAYS
)


def _tolist(doc):
    if isinstance(doc, dict):
        return {k: _tolist(v) for k, v in doc.items()}
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def _count_arrays(doc):
    if isinstance(doc, dict):
        return sum(_count_arrays(v) for v in doc.values())
    return isinstance(doc, np.ndarray)


@settings(max_examples=200, deadline=None)
@given(
    doc=st.dictionaries(
        st.text(),
        st.recursive(
            _DOC_LEAVES, lambda c: st.dictionaries(st.text(), c, max_size=4), max_leaves=20
        ),
        max_size=6,
    )
)
@example(doc={"train": np.eye(2), "grads": np.array([1e-300, 5e-324]), "diag": {}, "eta": None})
def test_dump_json_of_program_documents_is_json_dumps_of_lists(csv_dir, doc):
    # every array takes _float_lines, and the bytes are json's for its tolist()
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_float_lines", lambda *a: calls.append(a) or _float_lines(*a))
        path = csv_dir / "doc.json"
        _dump_json(doc, path)
    want = json.dumps(_tolist(doc), sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == want.encode("utf-8")
    assert len(calls) == _count_arrays(doc)


# where float.__repr__ and orjson part ways: the exponent window
# 1e-4 <= |x| < 1e16 and its neighbours, the extremes and signed zero
WINDOW_EDGES = [
    math.nextafter(1e-4, 0), 1e-4, math.nextafter(1e16, 0), 1e16,
    5e-324, 0.0, -0.0, 1.7976931348623157e308, -1e-4, -1e16,
]
# the separators the writers use: CSV fields and indented JSON list items
FLOAT_SEPS = [",", ",\n      "]


def _repr_lines(arr, sep):
    return [sep.join(map(float.__repr__, row)) for row in arr.tolist()]


@settings(max_examples=300, deadline=None)
@given(
    arr=arrays(
        np.float64,
        st.tuples(st.integers(0, 12), st.integers(1, 5)),
        elements=st.one_of(st.floats(), st.sampled_from(WINDOW_EDGES)),
    ),
    sep=st.sampled_from(FLOAT_SEPS),
    block=st.sampled_from([1, 3, 7, cli._BLOCK_FLOATS]),
)
@example(arr=np.array(WINDOW_EDGES)[:, None], sep=",", block=cli._BLOCK_FLOATS)
@example(
    arr=np.column_stack([WINDOW_EDGES, np.ones(len(WINDOW_EDGES))]),
    sep=FLOAT_SEPS[1],
    block=4,
)
@example(arr=np.array([[math.nan, 1.0], [math.inf, -math.inf]]), sep=",", block=2)
def test_float_lines_match_float_repr(arr, sep, block):
    # block sizes below the default split even small arrays into many blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK_FLOATS", block)
        assert _float_lines(arr, sep) == _repr_lines(arr, sep)


def test_float_lines_across_default_blocks():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((cli._BLOCK_FLOATS // 4 + 3, 4))
    arr[::97, 1] *= 1e-9  # values below the orjson window
    arr[5::131, 2] = math.nan
    for sep in FLOAT_SEPS:
        assert _float_lines(arr, sep) == _repr_lines(arr, sep)


@pytest.mark.parametrize(
    "value",
    [
        [[1.0, 2], [np.float64(0.5), 3.0]],
        [[1.0, True], [0.5, 3.0]],
        [[1.0, 2.0], [0.5]],
        [[], []],
        [(1.0, 2.5e-7), (0.25, 1e20)],
        [[0.5, math.nan], [math.inf, 1.0]],
        [1.0, 2.0, [3.0]],
        {"train": [[1e-5, 2.0]], "grads": [[0.5, -3.25], [1e300, 0.0]], "w": [0.5, 2]},
    ],
)
def test_dump_json_matrix_shapes_match_json_dumps(tmp_path, value):
    path = tmp_path / "v.json"
    _dump_json(value, path)
    want = json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def _read_outcome(fn, *args):
    try:
        arr = fn(*args)
    except ValueError as exc:
        return str(exc)
    return arr.shape, arr.tobytes()


def _digits(least, most):
    """Strings of ``least`` to ``most`` decimal digits, leading zeros kept."""
    return st.integers(least, most).flatmap(
        lambda n: st.integers(0, 10**n - 1).map(lambda v: f"{v:0{n}d}")
    )


_SIGNS = st.sampled_from(["", "-"])
# CSV fields orjson parses: float reprs, decimals longer than a double holds,
# exponents at the subnormal and overflow edges (1e309 overflows, and both
# paths then reject it), integers near 2**53 and 2**64, and the integer -0,
# which orjson reads without its sign
_PLAIN_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}{}.{}".format, _SIGNS, st.integers(0, 10**20), _digits(17, 60)),
    st.builds(
        "{}{}.{}{}{}".format,
        _SIGNS,
        st.integers(0, 9),
        _digits(1, 25),
        st.sampled_from("eE"),
        st.one_of(st.integers(-349, -300), st.integers(300, 309)).map(
            lambda e: f"{e:+d}" if e % 2 else str(e)
        ),
    ),
    st.integers(-(2**66), 2**66).map(str),
    st.sampled_from([2**53, 2**64, -(2**63), -(2**64)]).flatmap(
        lambda edge: st.integers(-4096, 4096).map(lambda k: str(edge + k))
    ),
    st.just("-0"),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(_PLAIN_FIELDS, min_size=d, max_size=d), min_size=1,
                           max_size=6)
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
)
@example(rows=[["-0", "1"], ["2", "-0"]], newline="\n", trailing=False)
@example(rows=[["-0.0", "18446744073709551615"], ["2.4703282292062328e-324", "1e308"]],
         newline="\r\n", trailing=True)
def test_plain_csv_reads_as_the_csv_path(csv_dir, rows, newline, trailing):
    d = len(rows[0])
    lines = [",".join(f"x{i}" for i in range(d))] + [",".join(row) for row in rows]
    data = (newline.join(lines) + (newline if trailing else "")).encode()
    path = csv_dir / "plain.csv"
    path.write_bytes(data)
    want = _read_outcome(cli._parse_csv, data, path, "x")
    assert _read_outcome(cli._read_matrix_csv, path, "x") == want
    if not isinstance(want, str) and "-0" not in chain.from_iterable(rows):
        # what both paths accept, the fast path takes
        assert cli._parse_plain(data, "x") is not None


@pytest.mark.parametrize(
    "text, want",
    [
        ("x0,x1\n1,true\n", "line 2: could not convert string to float: 'true'"),
        ("x0,x1\n+1,2\n", [[1.0, 2.0]]),
        ("x0,x1\n.5,2\n", [[0.5, 2.0]]),
        ("x0,x1\n1.,2\n", [[1.0, 2.0]]),
        ("x0,x1\n1_0,2\n", [[10.0, 2.0]]),
        ("x0,x1\n00,2\n", [[0.0, 2.0]]),
        ("x0,x1\n1, 2\n", [[1.0, 2.0]]),
        ("x0,x1\nnan,2\n", "non-finite values"),
        ("x0,x1\n1e400,2\n", "non-finite values"),
        ('x0,x1\n"1.5",2\n', [[1.5, 2.0]]),
        ('x0,"x1"\n1.5,2\n', [[1.5, 2.0]]),
        ("x0,x1\n1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("x0,x1\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
        ("x0,x1\n1,2\r3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("\ufeffx0,x1\n1,2\n", "line 1: header must be x0..x{d-1}"),
        ("x0,x1\n-0,2\n", [[-0.0, 2.0]]),
        ("x0,x1\n1e-0,-0\r\n", [[1.0, -0.0]]),
        ("x0,x1\n", "no data rows"),
        ("", "empty file"),
    ],
)
def test_csv_fallback_cases(csv_dir, text, want):
    data = text.encode("utf-8")
    path = csv_dir / "fallback.csv"
    path.write_bytes(data)
    assert cli._parse_plain(data, "x") is None
    got = _read_outcome(cli._read_matrix_csv, path, "x")
    if isinstance(want, str):
        assert isinstance(got, str) and want in got
    else:
        want = np.array(want)
        assert got == (want.shape, want.tobytes())


@pytest.mark.parametrize(
    "text",
    [
        "x0,x1\n\n1,2\n",
        "x0,x1\n1,2\n\n",
        "x0,x1\n1,2\n\n\n3,4",
        "x0,x1\r\n\r\n1,2\r\n\r\n",
        "x0\n1\n\n2\n",
        "x0\n\n",
        "x0,x1\n\n\n",
        "x0,x1\n1,2\n\n3\n",
    ],
)
def test_blank_lines_take_the_csv_path(csv_dir, text):
    # an empty row is narrower than the header, so the width check sends
    # every file with a blank line to csv.reader, which reads it as before
    data = text.encode()
    path = csv_dir / "blank.csv"
    path.write_bytes(data)
    assert cli._parse_plain(data, "x") is None
    want = _read_outcome(cli._parse_csv, data, path, "x")
    assert _read_outcome(cli._read_matrix_csv, path, "x") == want


def test_csv_field_over_the_size_limit_takes_the_csv_path(csv_dir, capsys):
    field = "0." + "0" * csv.field_size_limit() + "1"
    data = f"x0\n{field}\n".encode()
    path = csv_dir / "long.csv"
    path.write_bytes(data)
    assert cli._parse_plain(data, "x") is None
    with pytest.raises(ValueError, match=r"line 2: field larger than field limit"):
        cli._read_matrix_csv(path, "x")
    # csv's own error is a usage error, not a traceback
    rc = main(["estimate", "--input", str(path), "--output", str(csv_dir / "g.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {path} line 2: field larger")


def test_written_matrix_csv_takes_the_fast_path(csv_dir):
    # the gradient CSVs the CLI writes (CRLF, float reprs) parse without csv
    arr = np.random.default_rng(5).standard_normal((40, 3))
    arr[0] = [-0.0, 5e-324, 1e300]
    arr[1] = [1e-7, -3e17, 0.0]
    path = csv_dir / "g.csv"
    _write_matrix_csv(path, "g", arr)
    fast = cli._parse_plain(path.read_bytes(), "g")
    assert fast is not None and fast.tobytes() == arr.tobytes()


class TestKsd:
    def test_zero_gradients_without_constant(self, tmp_path, capsys):
        path, xs = sample_file(tmp_path, seed=8, n=6)
        gpath = tmp_path / "grads.csv"
        write_csv(gpath, "g", np.zeros_like(xs))
        rc = main(
            [
                "ksd",
                "--samples", str(path),
                "--grads", str(gpath),
                "--sigma2", "1.0",
                "--no-include-constant",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == 0.0
        assert report["includes_constant"] is False
        assert report["statistic"] == "v"
        assert report["K"] == 6 and report["d"] == 2

    def test_matches_library_both_statistics(self, tmp_path, capsys):
        path, xs = sample_file(tmp_path, seed=9, n=8)
        gs = np.random.default_rng(10).standard_normal(xs.shape)
        gpath = tmp_path / "grads.csv"
        write_csv(gpath, "g", gs)
        spec = KernelSpec("rbf", 1.7)
        for stat, fn in (("v", ksd_v), ("u", ksd_u)):
            rc = main(
                [
                    "ksd",
                    "--samples", str(path),
                    "--grads", str(gpath),
                    "--sigma2", "1.7",
                    "--statistic", stat,
                ]
            )
            assert rc == 0
            report = json.loads(capsys.readouterr().out)
            want = fn(xs, gs, spec, includes_constant=True).value
            assert report["value"] == want

    def test_bad_statistic_rejected_before_input_is_read(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"statistic": "w"}))
        argv = ["ksd", "--config", str(config), "--samples", str(tmp_path / "nope.csv"),
                "--grads", str(tmp_path / "nope.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "statistic" in err and "nope.csv" not in err

    def test_shape_mismatch_is_input_error(self, tmp_path):
        path, xs = sample_file(tmp_path, seed=11, n=5)
        gpath = tmp_path / "grads.csv"
        write_csv(gpath, "g", np.zeros((4, 2)))
        rc = main(
            ["ksd", "--samples", str(path), "--grads", str(gpath), "--sigma2", "1.0"]
        )
        assert rc == 2

    def test_string_boolean_in_config_rejected(self, tmp_path, capsys):
        # "false" is a non-empty string: bool() would read it as true
        path, xs = sample_file(tmp_path, seed=12, n=5)
        gpath = tmp_path / "grads.csv"
        write_csv(gpath, "g", -xs)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"samples": str(path), "grads": str(gpath), "include_constant": "false"}
            )
        )
        assert main(["ksd", "--config", str(config)]) == 2
        assert "'include_constant'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--samples", "--grads"])
    def test_output_on_input_refused_before_input_is_read(
        self, tmp_path, monkeypatch, capsys, flag
    ):
        # the report would overwrite an input; nothing may be read or written
        path, xs = sample_file(tmp_path, seed=12, n=5)
        gpath = tmp_path / "grads.csv"
        write_csv(gpath, "g", -xs)
        before = {p: p.read_bytes() for p in (path, gpath)}
        reads = []
        monkeypatch.setattr(cli, "_read_matrix_csv", lambda *a: reads.append(a))
        target = path if flag == "--samples" else gpath
        argv = ["ksd", "--samples", str(path), "--grads", str(gpath),
                "--output", str(tmp_path / "." / target.name)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output: ") and flag in err
        assert reads == []
        assert {p: p.read_bytes() for p in (path, gpath)} == before

    def test_report_file_output(self, tmp_path):
        path, xs = sample_file(tmp_path, seed=12, n=5)
        gpath = tmp_path / "grads.csv"
        write_csv(gpath, "g", -xs)
        out = tmp_path / "report.json"
        rc = main(
            [
                "ksd",
                "--samples", str(path),
                "--grads", str(gpath),
                "--sigma2", "2.0",
                "--output", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["kernel"] == "rbf"
        assert report["sigma2"] == 2.0


class TestBanana:
    def run_banana(self, tmp_path, *extra, seed=5):
        out = tmp_path / "report.json"
        argv = [
            "banana",
            "--seed", str(seed),
            "--estimator", "exact",
            "--n-chains", "2",
            "--n-iters", "5",
            "--n-leapfrog", "3",
            "--n-train", "30",
            "--output", str(out),
            *extra,
        ]
        rc = main(argv)
        return rc, out

    def test_report_structure(self, tmp_path):
        rc, out = self.run_banana(tmp_path)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["preset"] == "desk"
        assert report["estimator"] == "exact"
        assert report["kernel"] is None and report["eta"] is None
        assert report["n_chains"] == 2 and report["n_iters"] == 5
        assert 0.0 <= report["acceptance_rate"] <= 1.0
        assert report["ksd_pooled"] > 0.0
        assert report["n_divergent"] == 0
        assert report["metric_sigma2"] > 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        rc, out = self.run_banana(tmp_path)
        assert rc == 0
        first = out.read_bytes()
        rc, out = self.run_banana(tmp_path)
        assert rc == 0
        assert out.read_bytes() == first

    def test_trajectory_csv_layout(self, tmp_path):
        traj = tmp_path / "traj.csv"
        rc, _ = self.run_banana(tmp_path, "--trajectories", str(traj))
        assert rc == 0
        with open(traj, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["chain", "iter", "accepted", "x0", "x1"]
        assert len(rows) == 1 + 2 * 5
        assert [r[0] for r in rows[1:6]] == ["0"] * 5
        assert [r[1] for r in rows[1:6]] == [str(t) for t in range(5)]
        for row in rows[1:]:
            assert row[2] in ("0", "1")
            float(row[3]), float(row[4])

    def test_trajectory_csv_bytes(self, tmp_path, monkeypatch):
        # the file is csv.writer's rendering of run_hmc's arrays, repr floats
        runs = []
        run_hmc = cli.run_hmc

        def recording_run_hmc(*args, **kwargs):
            runs.append(run_hmc(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_hmc", recording_run_hmc)
        traj = tmp_path / "traj.csv"
        rc, _ = self.run_banana(tmp_path, "--n-chains", "3", "--n-iters", "7",
                                "--trajectories", str(traj))
        assert rc == 0
        (stats,) = runs
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["chain", "iter", "accepted", "x0", "x1"])
        for c in range(3):
            for t in range(7):
                x0, x1 = stats.trajectories[c, t]
                writer.writerow(
                    [c, t, int(stats.accepts[c, t]), repr(float(x0)), repr(float(x1))]
                )
        assert traj.read_bytes() == ref.getvalue().encode("utf-8")

    def test_ksd_fields_are_ksd_to_target_of_trajectories(self, tmp_path):
        # the report grades the CSV's post-burn-in rows against the exact
        # score: each chain alone, and the pool thinned to at most 7 points
        traj = tmp_path / "traj.csv"
        rc, out = self.run_banana(tmp_path, "--n-chains", "3", "--n-iters", "10",
                                  "--ksd-pool-cap", "7", "--trajectories", str(traj))
        assert rc == 0
        report = json.loads(out.read_text())
        rows = np.loadtxt(traj, delimiter=",", skiprows=1)
        post = rows[:, 3:].reshape(3, 10, 2)[:, HmcConfig(3, 10, 0.5, 3).n_burn:]
        spec = KernelSpec("rbf", report["metric_sigma2"])
        per_chain = [ksd_to_target(chain, banana_score, spec).value for chain in post]
        assert report["ksd_mean_per_chain"] == float(np.mean(per_chain))
        pooled = post.reshape(-1, 2)
        assert len(pooled) == 24
        assert report["ksd_pooled"] == ksd_to_target(pooled[::4], banana_score, spec).value

    def test_summaries_recomputable_from_trajectories(self, tmp_path):
        # mean_x1 and se_mean_x1 are the chain means of the CSV's post-burn-in
        # x0 column, and acceptance_rate the mean of its accepted column
        traj = tmp_path / "traj.csv"
        rc, out = self.run_banana(tmp_path, "--n-chains", "3", "--n-iters", "25",
                                  "--trajectories", str(traj))
        assert rc == 0
        report = json.loads(out.read_text())
        rows = np.loadtxt(traj, delimiter=",", skiprows=1)
        n_burn = HmcConfig(3, 25, 0.5, 3).n_burn
        assert n_burn == int(25 * 0.2)
        post = rows[:, 3:].reshape(3, 25, 2)[:, n_burn:]
        chain_means = post[:, :, 0].mean(axis=1)
        assert report["mean_x1"] == float(chain_means.mean())
        assert report["se_mean_x1"] == float(chain_means.std(ddof=1) / math.sqrt(3))
        assert report["acceptance_rate"] == float(rows[:, 2].mean())

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("estimator", ["exact", "stein-v"])
    @pytest.mark.parametrize(
        "field, value", [("ksd_pool_cap", 1), ("ksd_pool_cap", -3), ("n_train", 0), ("n_train", 1)]
    )
    def test_small_count_refused_before_fit(
        self, tmp_path, monkeypatch, capsys, via, estimator, field, value
    ):
        # the metric kernel needs two training points whatever the estimator,
        # and a pool cap below 2 is refused before any sampling or fitting
        monkeypatch.setattr(cli, "banana_sample", None)
        monkeypatch.setattr(cli, "fit_estimator", None)
        argv = ["banana", "--seed", "5", "--estimator", estimator, "--n-chains", "2",
                "--n-iters", "5", "--n-leapfrog", "3", "--output", str(tmp_path / "r.json"),
                "--trajectories", str(tmp_path / "t.csv")]
        if via == "flag":
            argv += [f"--{field.replace('_', '-')}", str(value)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({field: value}))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {field} must be >= 2, got {value}\n"
        assert {p.name for p in tmp_path.iterdir()} <= {"config.json"}

    def test_fitted_estimator_reported(self, tmp_path):
        # argparse keeps the last occurrence, overriding the helper's "exact"
        rc, out = self.run_banana(tmp_path, "--estimator", "stein-v", seed=6)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["estimator"] == "stein-v"
        assert report["kernel"] == "rbf"
        assert report["sigma2"] > 0
        assert report["eta"] == 0.1
        assert report["fit_diagnostics"] == {"jitter": 0.0, "jitter_level": 0}

    @pytest.mark.parametrize(
        "field", ["n_chains", "n_iters", "n_leapfrog", "n_train", "ksd_pool_cap", "seed"]
    )
    def test_fractional_count_in_config_rejected(self, tmp_path, capsys, field):
        # int() would truncate 2.7 to 2 without a word
        config = tmp_path / "config.json"
        small = {"seed": 5, "n_chains": 2, "n_iters": 5, "n_leapfrog": 3, "n_train": 30}
        config.write_text(json.dumps({**small, field: 2.7}))
        out = tmp_path / "report.json"
        argv = ["banana", "--config", str(config), "--estimator", "exact", "--output", str(out)]
        assert main(argv) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["exact", "kde"])
    @pytest.mark.parametrize("scale", ["-1", "0", "nan"])
    def test_bad_bandwidth_scale_named(self, tmp_path, capsys, estimator, scale):
        rc, out = self.run_banana(
            tmp_path, "--estimator", estimator, f"--bandwidth-scale={scale}"
        )
        assert rc == 2
        assert "bandwidth_scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_init_noise_named(self, tmp_path, capsys, noise):
        rc, out = self.run_banana(tmp_path, f"--init-noise={noise}")
        assert rc == 2
        assert "init_noise" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("traj", ["report.json", "./report.json"])
    def test_trajectories_on_output_rejected(self, tmp_path, monkeypatch, capsys, traj):
        # the CSV would overwrite the report; neither may be written
        monkeypatch.chdir(tmp_path)
        argv = ["banana", "--seed", "1", "--estimator", "stein-v", "--n-chains", "2",
                "--n-iters", "3", "--n-leapfrog", "2", "--output", "report.json",
                "--trajectories", traj]
        assert main(argv) == 2
        assert "trajectories" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_stein_u_cannot_drive_sampler(self, tmp_path):
        rc, _ = self.run_banana(tmp_path, "--estimator", "stein-u")
        assert rc == 2

    def test_seed_required(self, tmp_path):
        rc = main(["banana", "--estimator", "exact", "--output", str(tmp_path / "r.json")])
        assert rc == 2

    def test_bad_preset_value(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "huge", "seed": 1}))
        assert main(["banana", "--config", str(config)]) == 2


class TestEntropyCheck:
    def test_report_structure(self, tmp_path):
        out = tmp_path / "entropy.json"
        rc = main(
            [
                "entropy-check",
                "--seed", "42",
                "--n", "200",
                "--estimators", "kde,stein-v",
                "--output", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["sigma"] == 1.5
        assert report["analytic"] == pytest.approx(1 / 1.5)
        assert set(report["estimates"]) == {"kde", "stein-v"}
        for entry in [report["exact"], *report["estimates"].values()]:
            assert entry["abs_error"] == pytest.approx(
                abs(entry["value"] - report["analytic"]), rel=1e-12
            )

    def test_fractional_sample_count_in_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "n": 200.5, "estimators": "kde"}))
        assert main(["entropy-check", "--config", str(config)]) == 2
        assert "'n'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "names, bad", [("kde,stein-v,score,mystery", "'mystery'"), ("kde,kde", "'kde'")]
    )
    def test_bad_list_rejected_before_any_fit(self, tmp_path, capsys, monkeypatch, names, bad):
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(args[0])
            return fit_estimator(*args, **kwargs)

        monkeypatch.setattr("steingrad.cli.fit_estimator", counting_fit)
        out = tmp_path / "entropy.json"
        argv = ["entropy-check", "--seed", "1", "--n", "50", "--estimators", names,
                "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "estimators" in err and bad in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("via", ["", ",", " , ", "config"])
    def test_empty_list_refused_before_bandwidth(self, tmp_path, capsys, monkeypatch, via):
        calls = []
        monkeypatch.setattr(cli, "resolve_bandwidth", lambda *a: calls.append(a))
        monkeypatch.setattr(cli, "fit_estimator", lambda *a: calls.append(a))
        out = tmp_path / "entropy.json"
        argv = ["entropy-check", "--seed", "1", "--n", "50", "--output", str(out)]
        if via == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"estimators": []}))
            argv += ["--config", str(config)]
        else:
            argv += ["--estimators", via]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: estimators: ")
        assert calls == []
        assert not out.exists()

    def test_unknown_estimator_name(self, tmp_path, capsys):
        # a bad name exits 2 with a message that names it, whether it comes
        # from a flag or a config file; score-rbf is an earlier library kind
        # name that the command line never accepted
        path, _ = sample_file(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": "bogus"}))
        not_a_list = tmp_path / "not_a_list.json"
        not_a_list.write_text(json.dumps({"estimators": 5}))
        cases = [
            (5, ["entropy-check", "--seed", "1", "--config", str(not_a_list)]),
            ("mystery", ["entropy-check", "--seed", "1", "--estimators", "mystery"]),
            ("score-rbf", ["entropy-check", "--seed", "1", "--estimators", "score-rbf"]),
            ("bogus", ["estimate", "--config", str(config), "--input", str(path),
                       "--output", str(tmp_path / "grads.csv")]),
            ("bogus", ["banana", "--config", str(config), "--seed", "1", "--n-chains", "2"]),
        ]
        for bad, argv in cases:
            assert main(argv) == 2, argv
            assert repr(bad) in capsys.readouterr().err, argv


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("estimate", "sigma2", True),
        ("estimate", "input", 0),
        ("estimate", "sidecar", ["side.json"]),
        ("estimate", "estimator", 1),
        ("ksd", "output", 1),
        ("ksd", "statistic", False),
        ("banana", "trajectories", 2),
        ("banana", "kernel", 1.5),
        ("entropy-check", "sigma2", False),
        ("entropy-check", "estimators", {"kde": 1}),
    ],
)
def test_config_value_of_wrong_json_type_rejected(tmp_path, capsys, command, field, value):
    # paths and names must be strings (an integer output would be opened as
    # a file descriptor) and sigma2 a number or a string, never a bool
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}))
    assert main([command, "--config", str(config)]) == 2
    assert f"config field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("sigma2", [2, 2.0, "2.0"])
def test_config_sigma2_takes_numbers_and_strings(tmp_path, sigma2):
    path, _ = sample_file(tmp_path, seed=41)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": str(path), "sigma2": sigma2}))
    out = tmp_path / "grads.csv"
    assert main(["estimate", "--config", str(config), "--output", str(out)]) == 0
    with open(tmp_path / "grads.json", encoding="utf-8") as fh:
        assert json.load(fh)["kernel"]["sigma2"] == 2.0


@pytest.mark.parametrize(
    "command, field",
    [("estimate", "eta"), ("estimate", "sigma2"), ("banana", "stepsize"),
     ("entropy-check", "sigma")],
)
def test_config_float_overflow_named(tmp_path, capsys, command, field):
    # float() of an integer beyond the float range raises OverflowError, not ValueError
    path, _ = sample_file(tmp_path, seed=42)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: 10**400}))
    extra = {
        "estimate": ["--input", str(path), "--output", str(tmp_path / "grads.csv")],
        "banana": ["--seed", "1", "--estimator", "exact", "--n-chains", "2", "--n-iters", "3"],
        "entropy-check": ["--seed", "1", "--n", "20"],
    }[command]
    assert main([command, "--config", str(config), *extra]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("estimate", "kernel", "RBF"),
        ("ksd", "statistic", "V"),
        ("banana", "preset", "Desk"),
        ("estimate", "estimator", "exact"),
    ],
)
def test_config_value_must_match_choices_exactly(tmp_path, capsys, command, field, value):
    # as --kernel RBF is refused, so is the config entry; no input is read
    missing = str(tmp_path / "nope.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}))
    extra = {
        "estimate": ["--input", missing, "--output", str(tmp_path / "grads.csv")],
        "ksd": ["--samples", missing, "--grads", missing],
        "banana": ["--seed", "1", "--estimator", "exact", "--output", str(tmp_path / "r.json")],
    }[command]
    assert main([command, "--config", str(config), *extra]) == 2
    err = capsys.readouterr().err
    assert f"config field {field!r}" in err and repr(value) in err and "nope.csv" not in err
    assert list(tmp_path.iterdir()) == [config]


def _subparsers():
    """Subcommand name -> its parser, from a fresh ``build_parser()``."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _cli_options():
    """(subcommand, dest) of every option of every subcommand but --help and --config."""
    return [
        pytest.param(name, action.dest, id=f"{name}-{action.dest}")
        for name, sub in _subparsers().items()
        for action in sub._actions
        if action.option_strings and action.dest not in ("help", "config")
    ]


def _option_values(action):
    """Two (config entry, flag argv) pairs for an option, each pair one value.

    The first value differs from the declared default, the second from the
    first; a float option takes JSON integers, as a config file may give.
    """
    if isinstance(action, argparse.BooleanOptionalAction):
        on, off = action.option_strings
        first = not action.default
        return [(first, [on if first else off]), (not first, [off if first else on])]
    if action.choices is not None:
        values = [next(c for c in action.choices if c != action.default), action.default]
    elif action.type in (int, float):
        values = [7, 8]
    else:
        values = ["alpha", "beta"]
    return [(value, [action.option_strings[0], str(value)]) for value in values]


@pytest.mark.parametrize("command, dest", _cli_options())
def test_config_entry_resolves_as_its_flag(tmp_path, monkeypatch, command, dest):
    # each option: a config entry gives the flag's value and type, the flag
    # beats a conflicting entry, and null gives the declared default
    sub = _subparsers()[command]
    action = next(a for a in sub._actions if a.dest == dest)
    seen = []
    monkeypatch.setattr(cli, sub.get_default("func").__name__, lambda args: seen.append(args) or 0)
    config = tmp_path / "config.json"

    def resolve(entry, argv):
        config.write_text(json.dumps({dest: entry}))
        assert main([command, "--config", str(config), *argv]) == 0
        args = vars(seen.pop())
        del args["config"]
        return args

    (first, first_argv), (second, _) = _option_values(action)
    from_flag = resolve(None, first_argv)
    from_config = resolve(first, [])
    assert from_flag[dest] != action.default
    assert from_config == from_flag
    assert type(from_config[dest]) is type(from_flag[dest])
    assert resolve(second, first_argv) == from_flag
    default = resolve(None, [])[dest]
    assert default == action.default and type(default) is type(action.default)


@pytest.mark.parametrize("via", ["flag", "config"])
def test_zero_chains_rejected(tmp_path, capsys, via):
    # 0 is not "unset": the preset's count must not replace it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_chains": 0}))
    out = tmp_path / "report.json"
    argv = ["banana", "--seed", "1", "--estimator", "exact", "--output", str(out)]
    argv += ["--n-chains", "0"] if via == "flag" else ["--config", str(config)]
    assert main(argv) == 2
    assert "n_chains" in capsys.readouterr().err
    assert not out.exists()


class TestDistancePasses:
    """One condensed distance pass per sample and kernel, counted at scipy's door.

    Every kernel over a sample's own pairs is built on the sample as given,
    and a median bandwidth comes from the pass of the kernel it
    parameterises.  The expansion kinds make one more pass for their
    gradients at the training points.  ``cdist`` serves new points only:
    ``predict``, and the discrepancy's row blocks past the first, which take
    the distances to the later rows, so each pair is still computed once.
    """

    @pytest.fixture
    def passes(self, monkeypatch):
        from steingrad import kernels

        calls = {"pdist": 0, "cdist": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
        return calls

    @pytest.mark.parametrize(
        "kind, sigma2, pdist_calls",
        [
            ("kde", "median", 1),
            ("stein-v", "median", 1),
            ("stein-u", "median", 1),
            ("score", "median", 2),
            ("stein-param-v", "median", 2),
            ("score", "1.5", 2),
            ("stein-param-v", "1.5", 2),
        ],
    )
    def test_estimate(self, tmp_path, passes, kind, sigma2, pdist_calls):
        path, _ = sample_file(tmp_path, seed=40, n=30, d=3)
        argv = ["estimate", "--input", str(path), "--output", str(tmp_path / "g.csv"),
                "--estimator", kind, "--sigma2", sigma2]
        assert main(argv) == 0
        assert passes == {"pdist": pdist_calls, "cdist": 0}

    @pytest.mark.parametrize("statistic", ["v", "u"])
    def test_ksd(self, tmp_path, passes, statistic):
        path, xs = sample_file(tmp_path, seed=41, n=30, d=3)
        grads = tmp_path / "grads.csv"
        write_csv(grads, "g", -xs)
        argv = ["ksd", "--samples", str(path), "--grads", str(grads),
                "--statistic", statistic, "--output", str(tmp_path / "ksd.json")]
        assert main(argv) == 0
        assert passes == {"pdist": 1, "cdist": 0}

    def test_ksd_in_row_blocks(self, tmp_path, monkeypatch):
        # with the block size patched down the pass is split: pdist within
        # each block, cdist from it to the later rows, every pair once
        from steingrad import kernels

        entries = {"pdist": 0, "cdist": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                entries[name] += out.size
                return out

            return wrapper

        for name in entries:
            monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
        monkeypatch.setattr(kernels, "PAIR_BLOCK", 60)
        n = 30
        path, xs = sample_file(tmp_path, seed=42, n=n, d=3)
        grads = tmp_path / "grads.csv"
        write_csv(grads, "g", -xs)
        for sigma2 in ("median", "1.5"):
            entries.update(pdist=0, cdist=0)
            argv = ["ksd", "--samples", str(path), "--grads", str(grads),
                    "--sigma2", sigma2, "--output", str(tmp_path / "ksd.json")]
            assert main(argv) == 0
            assert entries["cdist"] > 0
            assert entries["pdist"] + entries["cdist"] == n * (n - 1) // 2

    def test_entropy_check(self, tmp_path, passes):
        # the bandwidth once for the three fits, one pass per fit, and one
        # for score's gradients at the sample
        argv = ["entropy-check", "--seed", "3", "--n", "200",
                "--output", str(tmp_path / "entropy.json")]
        assert main(argv) == 0
        assert passes == {"pdist": 5, "cdist": 0}

    @pytest.mark.parametrize(
        "estimator, fit_passes", [("exact", 0), ("stein-v", 2), ("score", 1)]
    )
    def test_banana(self, tmp_path, passes, estimator, fit_passes):
        # the grading kernel's bandwidth, then the fit's kernel (and stein-v's
        # kinv check kernel), then one pass per discrepancy: each chain and
        # the pool, every one within a single row block.  Each score call
        # of a fitted estimator is a predict, one cdist of new points
        n_chains, n_iters, n_leapfrog = 2, 5, 2
        argv = ["banana", "--seed", "4", "--estimator", estimator, "--n-train", "30",
                "--n-chains", str(n_chains), "--n-iters", str(n_iters),
                "--n-leapfrog", str(n_leapfrog), "--output", str(tmp_path / "r.json")]
        assert main(argv) == 0
        predicts = 0 if estimator == "exact" else 1 + n_iters * n_leapfrog
        assert passes == {"pdist": 1 + fit_passes + n_chains + 1, "cdist": predicts}


class TestOutputPaths:
    """An output that cannot be written as given is refused before any input is read."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["estimate", "--input", "s.csv", "--output", "nodir/g.csv"], "output"),
            (["estimate", "--input", "s.csv", "--output", "g.csv",
              "--sidecar", "nodir/g.json"], "sidecar"),
            (["estimate", "--input", "s.csv", "--output", "sub"], "output"),
            (["estimate", "--input", "s.csv", "--output", "g.csv", "--sidecar", "sub"],
             "sidecar"),
            (["ksd", "--samples", "s.csv", "--grads", "g0.csv",
              "--output", "nodir/k.json"], "output"),
            (["banana", "--estimator", "exact", "--output", "nodir/r.json"], "output"),
            (["banana", "--estimator", "exact", "--output", "r.json",
              "--trajectories", "nodir/t.csv"], "trajectories"),
            (["banana", "--estimator", "exact", "--output", "r.json",
              "--trajectories", "sub"], "trajectories"),
            (["entropy-check", "--n", "30", "--estimators", "kde",
              "--output", "nodir/e.json"], "output"),
        ],
    )
    def test_nothing_is_read_or_written(self, tmp_path, monkeypatch, capsys, argv, field):
        # a missing directory or a directory in a file's place fails the
        # open; checked first, it cannot leave an earlier output behind
        monkeypatch.chdir(tmp_path)
        _, xs = sample_file(tmp_path, seed=50, n=30, name="s.csv")
        write_csv(tmp_path / "g0.csv", "g", -xs)
        (tmp_path / "sub").mkdir()
        before = {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()}
        calls = []

        def record(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in ("_read_matrix_csv", "fit_estimator", "banana_sample", "resolve_bandwidth"):
            monkeypatch.setattr(cli, name, record(name))
        if argv[0] in ("banana", "entropy-check"):
            argv = [*argv, "--seed", "1"]
        if argv[0] == "banana":
            argv += ["--n-train", "20", "--n-chains", "2", "--n-iters", "3", "--n-leapfrog", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert calls == []
        assert {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()} == before


    @pytest.mark.parametrize(
        "argv, field, linked",
        [
            (["estimate", "--input", "s.csv", "--output", "h.csv"], "output", "s.csv"),
            (["estimate", "--input", "s.csv", "--output", "g.csv", "--sidecar", "h.json"],
             "sidecar", "s.csv"),
            (["estimate", "--input", "s.csv", "--output", "g.csv", "--sidecar", "h.json"],
             "sidecar", "g.csv"),
            (["ksd", "--samples", "s.csv", "--grads", "g0.csv", "--output", "h.json"],
             "output", "s.csv"),
            (["ksd", "--samples", "s.csv", "--grads", "g0.csv", "--output", "h.json"],
             "output", "g0.csv"),
        ],
    )
    def test_hard_link_to_another_file_is_refused(
        self, tmp_path, monkeypatch, capsys, argv, field, linked
    ):
        # another name of an input or an earlier output is that file: writing
        # through it would overwrite the file
        monkeypatch.chdir(tmp_path)
        _, xs = sample_file(tmp_path, seed=51, n=30, name="s.csv")
        write_csv(tmp_path / "g0.csv", "g", -xs)
        write_csv(tmp_path / "g.csv", "g", xs)
        os.link(linked, argv[argv.index(f"--{field}") + 1])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        reads = []
        monkeypatch.setattr(cli, "_read_matrix_csv", lambda *a: reads.append(a))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "--" in err
        assert reads == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestEpanechnikovScale:
    """The epanechnikov kernel carries no bandwidth, so no scale applies to one."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--input", "s.csv", "--output", "g.csv"],
            ["ksd", "--samples", "s.csv", "--grads", "g0.csv", "--output", "k.json"],
            ["entropy-check", "--seed", "1", "--n", "30", "--estimators", "stein-v",
             "--output", "e.json"],
        ],
    )
    @pytest.mark.parametrize("scale", ["3", "0.5"])
    def test_scale_refused(self, tmp_path, monkeypatch, capsys, argv, scale):
        monkeypatch.chdir(tmp_path)
        _, xs = sample_file(tmp_path, seed=52, n=30, name="s.csv")
        write_csv(tmp_path / "g0.csv", "g", -xs)
        before = {p.name for p in tmp_path.iterdir()}
        argv = [*argv, "--kernel", "epanechnikov", "--bandwidth-scale", scale]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: bandwidth_scale must be 1 with the epanechnikov kernel, which "
            f"carries no bandwidth; got {float(scale)!r}\n"
        )
        assert {p.name for p in tmp_path.iterdir()} == before
        # the unit scale is no scale, and is taken
        assert main([*argv[:-1], "1"]) == 0

    def test_exact_banana_scales_its_grading_kernel(self, tmp_path):
        # with the exact score no estimator kernel is built: the scale goes to
        # the RBF kernel the run is graded with, whatever --kernel says
        reports = {}
        for scale in ("1", "3"):
            out = tmp_path / f"r{scale}.json"
            argv = ["banana", "--seed", "1", "--estimator", "exact", "--n-train", "20",
                    "--n-chains", "2", "--n-iters", "3", "--n-leapfrog", "2",
                    "--kernel", "epanechnikov", "--bandwidth-scale", scale, "--output", str(out)]
            assert main(argv) == 0
            reports[scale] = json.loads(out.read_text())
        assert reports["3"]["metric_sigma2"] == reports["1"]["metric_sigma2"] * 3.0


# a small run of each subcommand that exits 0; each fault below overrides
# these flags (None drops one) so that one argument is bad
RUNS = {
    "estimate": {"--input": "s.csv", "--output": "g.csv"},
    "ksd": {"--samples": "s.csv", "--grads": "g0.csv", "--output": "k.json"},
    "banana": {"--seed": "1", "--n-train": "20", "--n-chains": "2", "--n-iters": "3",
               "--n-leapfrog": "2", "--output": "r.json"},
    "entropy-check": {"--seed": "1", "--n": "30", "--output": "e.json"},
}
# (command, flags, the text of the refusal, which names the field)
ARGUMENT_FAULTS = [
    ("estimate", {"--input": None}, "estimate needs --input and --output"),
    ("estimate", {"--output": "nodir/g.csv"}, "output: "),
    ("estimate", {"--sidecar": "s.csv"}, "sidecar: "),
    ("estimate", {"--bandwidth-scale": "0"}, "bandwidth_scale must be > 0"),
    ("estimate", {"--sigma2": "wide"}, "sigma2 must be a positive number or 'median'"),
    ("estimate", {"--sigma2": "-1"}, "sigma2 must be > 0"),
    ("estimate", {"--kernel": "epanechnikov", "--sigma2": "2"}, "sigma2 must be 'median'"),
    ("estimate", {"--kernel": "epanechnikov", "--bandwidth-scale": "3"},
     "bandwidth_scale must be 1"),
    ("estimate", {"--eta": "-1"}, "eta must be >= 0"),
    ("estimate", {"--eta": "nan", "--estimator": "kde"}, "eta must be >= 0"),
    ("estimate", {"--eta": "0", "--estimator": "stein-u"}, "U-statistic fits need eta >= "),
    ("estimate", {"--eta": "0", "--estimator": "stein-param-u"},
     "U-statistic fits need eta >= "),
    ("estimate", {"--estimator": "stein-param-v", "--kernel": "epanechnikov"},
     "rbf family only"),
    ("estimate", {"--estimator": "stein-param-u", "--kernel": "epanechnikov"},
     "rbf family only"),
    ("ksd", {"--grads": None}, "ksd needs --samples and --grads"),
    ("ksd", {"--output": "s.csv"}, "output: "),
    ("ksd", {"--bandwidth-scale": "0"}, "bandwidth_scale must be > 0"),
    ("ksd", {"--sigma2": "inf"}, "sigma2 must be > 0"),
    ("ksd", {"--kernel": "epanechnikov", "--sigma2": "2"}, "sigma2 must be 'median'"),
    ("ksd", {"--kernel": "epanechnikov", "--bandwidth-scale": "3"},
     "bandwidth_scale must be 1"),
    ("banana", {"--seed": None}, "this command needs --seed"),
    ("banana", {"--seed": "-1"}, "seed must be >= 0"),
    ("banana", {"--output": "nodir/r.json"}, "output: "),
    ("banana", {"--trajectories": "r.json"}, "trajectories: "),
    ("banana", {"--banana-b": "nan"}, "banana_b must be finite"),
    ("banana", {"--banana-v": "-1"}, "banana_v must be > 0"),
    ("banana", {"--n-chains": "0"}, "n_chains must be >= 1"),
    ("banana", {"--n-iters": "0"}, "n_iters must be >= 1"),
    ("banana", {"--stepsize": "0"}, "stepsize must be > 0"),
    ("banana", {"--n-leapfrog": "0"}, "n_leapfrog must be >= 1"),
    ("banana", {"--burn-in": "1"}, "burn_in must be in [0, 1), got 1.0"),
    ("banana", {"--burn-in": "-0.1"}, "burn_in must be >= 0, got -0.1"),
    ("banana", {"--init-noise": "-1"}, "init_noise must be >= 0"),
    ("banana", {"--estimator": "stein-u"}, "stein-u has no out-of-sample prediction rule"),
    ("banana", {"--bandwidth-scale": "0"}, "bandwidth_scale must be > 0"),
    ("banana", {"--estimator": "exact", "--bandwidth-scale": "0"},
     "bandwidth_scale must be > 0"),
    ("banana", {"--sigma2": "0"}, "sigma2 must be > 0"),
    ("banana", {"--kernel": "epanechnikov", "--bandwidth-scale": "3"},
     "bandwidth_scale must be 1"),
    ("banana", {"--eta": "-1"}, "eta must be >= 0"),
    ("banana", {"--eta": "0", "--estimator": "stein-param-u"},
     "U-statistic fits need eta >= "),
    ("banana", {"--estimator": "stein-param-v", "--kernel": "epanechnikov"},
     "rbf family only"),
    ("banana", {"--n-train": "1"}, "n_train must be >= 2"),
    ("banana", {"--ksd-pool-cap": "1"}, "ksd_pool_cap must be >= 2"),
    ("entropy-check", {"--seed": None}, "this command needs --seed"),
    ("entropy-check", {"--seed": "-3"}, "seed must be >= 0"),
    ("entropy-check", {"--sigma": "0"}, "sigma must be > 0"),
    ("entropy-check", {"--n": "1"}, "n must be >= 2"),
    ("entropy-check", {"--estimators": ","}, "estimators: the list is empty"),
    ("entropy-check", {"--estimators": "kde,mystery"}, "estimators: unknown estimator"),
    ("entropy-check", {"--estimators": "kde,kde"}, "estimators: 'kde' is listed twice"),
    ("entropy-check", {"--output": "nodir/e.json"}, "output: "),
    ("entropy-check", {"--bandwidth-scale": "0"}, "bandwidth_scale must be > 0"),
    ("entropy-check", {"--sigma2": "wide"}, "sigma2 must be a positive number or 'median'"),
    ("entropy-check", {"--kernel": "epanechnikov", "--bandwidth-scale": "3"},
     "bandwidth_scale must be 1"),
    ("entropy-check", {"--eta": "-1"}, "eta must be >= 0"),
    ("entropy-check", {"--eta": "0", "--estimators": "kde,stein-v,stein-u"},
     "U-statistic fits need eta >= "),
    ("entropy-check", {"--estimators": "kde,stein-param-v", "--kernel": "epanechnikov"},
     "rbf family only"),
]


class TestArgumentsBeforeWork:
    """Every subcommand refuses a bad argument before it reads, draws or fits."""

    @staticmethod
    def argv(command, flags):
        merged = {**RUNS[command], **flags}
        return [command, *chain.from_iterable((k, v) for k, v in merged.items() if v)]

    @staticmethod
    def inputs(tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, xs = sample_file(tmp_path, seed=53, n=30, name="s.csv")
        write_csv(tmp_path / "g0.csv", "g", -xs)

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_the_runs_exit_0(self, tmp_path, monkeypatch, command):
        self.inputs(tmp_path, monkeypatch)
        assert main(self.argv(command, {})) == 0

    @pytest.mark.parametrize(
        "command, flags, message",
        ARGUMENT_FAULTS,
        ids=["-".join([c, *(f"{k[2:]}={v}" for k, v in f.items())])
             for c, f, _ in ARGUMENT_FAULTS],
    )
    def test_refused_before_any_work(self, tmp_path, monkeypatch, capsys, command, flags, message):
        self.inputs(tmp_path, monkeypatch)
        calls = []

        def record(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("_read_matrix_csv", "banana_sample", "fit_estimator", "resolve_bandwidth"):
            record(cli, name)
        record(np.random, "default_rng")
        before = {p.name for p in tmp_path.iterdir()}
        assert main(self.argv(command, flags)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert calls == []
        assert {p.name for p in tmp_path.iterdir()} == before


class TestRefusalPrecedence:
    """A bad argument is refused before the input is read; among the faults
    of the data, a sample the median rule refuses is reported first."""

    @staticmethod
    def refused_unread(monkeypatch, capsys, argv, message):
        reads = []
        monkeypatch.setattr(cli, "_read_matrix_csv", lambda *a: reads.append(a))
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert reads == []

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_degenerate_sample_before_bad_eta(self, tmp_path, monkeypatch, capsys, kind):
        path = tmp_path / "flat.csv"
        write_csv(path, "x", np.vstack([np.zeros((8, 2)), np.ones((2, 2))]))
        argv = ["estimate", "--input", str(path), "--output", str(tmp_path / "g.csv"),
                "--estimator", kind, "--eta", "-1"]
        self.refused_unread(monkeypatch, capsys, argv, "eta must be >= 0, got -1.0")

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_one_sample_before_bad_eta(self, tmp_path, monkeypatch, capsys, kind):
        path = tmp_path / "one.csv"
        write_csv(path, "x", np.array([[1.0, 2.0]]))
        argv = ["estimate", "--input", str(path), "--output", str(tmp_path / "g.csv"),
                "--estimator", kind, "--eta", "nan"]
        self.refused_unread(monkeypatch, capsys, argv, "eta must be >= 0, got nan")

    def test_overflowing_bandwidth_before_bad_eta(self, tmp_path, monkeypatch, capsys):
        path, _ = sample_file(tmp_path, seed=42)
        argv = ["estimate", "--input", str(path), "--output", str(tmp_path / "g.csv"),
                "--bandwidth-scale", "1e308", "--eta", "-1"]
        self.refused_unread(monkeypatch, capsys, argv, "eta must be >= 0, got -1.0")

    @pytest.mark.parametrize("statistic", ["v", "u"])
    def test_ksd_degenerate_sample_before_mismatched_grads(self, tmp_path, capsys, statistic):
        samples, grads = tmp_path / "flat.csv", tmp_path / "grads.csv"
        write_csv(samples, "x", np.vstack([np.zeros((8, 2)), np.ones((2, 2))]))
        write_csv(grads, "g", np.zeros((10, 3)))
        argv = ["ksd", "--samples", str(samples), "--grads", str(grads),
                "--statistic", statistic]
        assert main(argv) == 3
        assert "median pairwise distance is zero" in capsys.readouterr().err

    def test_ksd_u_one_sample_names_the_median(self, tmp_path, capsys):
        samples, grads = tmp_path / "one.csv", tmp_path / "grads.csv"
        write_csv(samples, "x", np.array([[1.0, 2.0]]))
        write_csv(grads, "g", np.array([[1.0, 2.0]]))
        argv = ["ksd", "--samples", str(samples), "--grads", str(grads), "--statistic", "u"]
        assert main(argv) == 2
        assert "median heuristic needs at least two samples" in capsys.readouterr().err


class TestJsonFormat:
    """Every report and sidecar is sorted-key, indent-2 JSON plus a newline."""

    @staticmethod
    def assert_canonical(path):
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
        return obj

    @pytest.mark.parametrize("estimator", ["kde", "score"])
    def test_estimate_sidecar(self, tmp_path, estimator):
        path, _ = sample_file(tmp_path, seed=14)
        out = tmp_path / "grads.csv"
        argv = ["estimate", "--input", str(path), "--output", str(out),
                "--estimator", estimator]
        assert main(argv) == 0
        record = self.assert_canonical(tmp_path / "grads.json")
        assert record["grads" if estimator == "kde" else "coeffs"]

    @pytest.mark.parametrize(
        "family, kind",
        [("rbf", kind) for kind in KINDS]
        + [("epanechnikov", kind) for kind in ("kde", "stein-v", "stein-u", "score")],
    )
    def test_estimate_sidecar_is_json_dumps_of_to_json_dict(self, tmp_path, family, kind):
        # the CLI writes the record's arrays directly; the bytes are those of
        # the plain-list record library callers get
        path, xs = sample_file(tmp_path, seed=16, n=25, d=3)
        # compact, so that every Epanechnikov kernel value is positive and the
        # KDE takes the sample; signed zero, and values orjson spells unlike
        # repr
        xs = 0.15 * xs
        xs[:2] = [[-0.0, 1e-7, 0.5], [0.0, 0.3, -2e-5]]
        write_csv(path, "x", xs)
        out = tmp_path / "grads.csv"
        argv = ["estimate", "--input", str(path), "--output", str(out),
                "--estimator", kind, "--kernel", family]
        assert main(argv) == 0
        spec = KernelSpec("rbf", median_heuristic(xs)) if family == "rbf" else KernelSpec(family)
        record = fit_estimator(kind, xs, spec).to_json_dict()
        for key in ("train", "grads", "coeffs"):
            assert record[key] is None or type(record[key]) is list
        assert type(record["train"][0][0]) is float
        want = json.dumps(record, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "grads.json").read_bytes() == want.encode()

    def test_ksd_report(self, tmp_path):
        path, xs = sample_file(tmp_path, seed=15)
        gpath = tmp_path / "grads.csv"
        write_csv(gpath, "g", -xs)
        out = tmp_path / "report.json"
        argv = ["ksd", "--samples", str(path), "--grads", str(gpath), "--output", str(out)]
        assert main(argv) == 0
        self.assert_canonical(out)

    def test_banana_report_with_null(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["banana", "--seed", "3", "--estimator", "stein-v", "--n-chains", "1",
                "--n-iters", "5", "--n-leapfrog", "3", "--n-train", "30",
                "--output", str(out)]
        assert main(argv) == 0
        report = self.assert_canonical(out)
        assert report["se_mean_x1"] is None
        assert report["fit_diagnostics"]

    def test_entropy_check_report(self, tmp_path):
        out = tmp_path / "entropy.json"
        argv = ["entropy-check", "--seed", "4", "--n", "100", "--estimators", "kde,score",
                "--output", str(out)]
        assert main(argv) == 0
        self.assert_canonical(out)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("steingrad")
        assert exe, "console script not installed"
        path, xs = sample_file(tmp_path, seed=13, n=5)
        gpath = tmp_path / "grads.csv"
        write_csv(gpath, "g", -xs)
        proc = subprocess.run(
            [exe, "ksd", "--samples", str(path), "--grads", str(gpath),
             "--sigma2", "1.0"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["K"] == 5

    def test_module_runs_without_install(self, tmp_path, capsys):
        # python -m steingrad.cli with the source tree on the path, no console script
        path, xs = sample_file(tmp_path, seed=13, n=5)
        gpath = tmp_path / "grads.csv"
        write_csv(gpath, "g", -xs)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["ksd", "--samples", str(path), "--grads", str(gpath), "--sigma2", "1.0"]

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "steingrad.cli", *args],
                capture_output=True, env=env, timeout=60,
            )

        proc = run(*argv)
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out.encode()
        bad = run("ksd", "--statistic", "w")
        assert bad.returncode == 2
        assert b"--statistic" in bad.stderr


class TestBlasThreadCount:
    # Seeded outputs are bitwise reproducible at a fixed BLAS thread count
    # only: threaded BLAS products and factorisations round differently at 1
    # and 2 threads.  Measured with these commands on seeds 0-9, 1 thread
    # against 2: report fields moved by up to 1.2e-11 relative (stein-v
    # ksd_pooled); the estimated gradients and the stein-v trajectories by
    # up to 2.0e-13 and 1.8e-12 of their largest magnitude (5.4e-10 relative
    # for a coordinate near zero); the exact-score trajectories not at all.
    # RTOL, elementwise with an absolute floor of RTOL times the largest
    # magnitude, leaves about a hundredfold margin.
    RTOL = 1e-9

    def run_at(self, threads, tmp_path, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": str(threads),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        proc = subprocess.run(
            [sys.executable, "-m", "steingrad.cli", *argv],
            capture_output=True, cwd=tmp_path, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def floats(self, obj):
        """Every float in a JSON value, in document order."""
        if isinstance(obj, dict):
            return [v for key in sorted(obj) for v in self.floats(obj[key])]
        if isinstance(obj, list):
            return [v for item in obj for v in self.floats(item)]
        return [obj] if isinstance(obj, float) else []

    def assert_close(self, got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=self.RTOL * np.abs(want).max())

    def test_outputs_across_thread_counts(self, tmp_path):
        path, _ = sample_file(tmp_path, seed=2, n=200)
        argvs = [
            ["banana", "--seed", "1", "--estimator", estimator, "--n-chains", "10",
             "--n-iters", "40", "--output", f"{estimator}.json",
             "--trajectories", f"{estimator}.csv"]
            for estimator in ("exact", "stein-v")
        ] + [["estimate", "--input", str(path), "--output", "g.csv", "--estimator", "stein-v"]]
        for threads in (1, 2):
            run_dir = tmp_path / f"threads{threads}"
            run_dir.mkdir()
            for argv in argvs:
                self.run_at(threads, run_dir, argv)
        one, two = tmp_path / "threads1", tmp_path / "threads2"
        # the exact-score run keeps its bytes: its trajectories take no BLAS
        # product, and its KSD sums no trace through a threaded dot and
        # makes only products small enough to stay on one thread
        for name in ("exact.csv", "exact.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes()
        for name in ("stein-v.json", "g.json"):
            got = json.loads((two / name).read_text())
            want = json.loads((one / name).read_text())
            self.assert_close(self.floats(got), self.floats(want))
        self.assert_close(read_csv(two / "g.csv", "g"), read_csv(one / "g.csv", "g"))
        self.assert_close(
            np.loadtxt(two / "stein-v.csv", delimiter=",", skiprows=1),
            np.loadtxt(one / "stein-v.csv", delimiter=",", skiprows=1),
        )
