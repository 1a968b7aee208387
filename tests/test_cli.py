"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steingrad import FittedEstimator, KernelSpec, fit_estimator, ksd_u, ksd_v
from steingrad.cli import _write_matrix_csv, main
from steingrad.estimators import KIND_SCORE, KIND_STEIN_V


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
        from steingrad import median_heuristic

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

    def test_unknown_estimator_name(self, tmp_path, capsys):
        # a bad name exits 2 with a message that names it, whether it comes
        # from a flag or a config file; score-rbf is an earlier library kind
        # name that the command line never accepted
        path, _ = sample_file(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": "bogus"}))
        cases = [
            ("mystery", ["entropy-check", "--seed", "1", "--estimators", "mystery"]),
            ("score-rbf", ["entropy-check", "--seed", "1", "--estimators", "score-rbf"]),
            ("bogus", ["estimate", "--config", str(config), "--input", str(path),
                       "--output", str(tmp_path / "grads.csv")]),
            ("bogus", ["banana", "--config", str(config), "--seed", "1", "--n-chains", "2"]),
        ]
        for bad, argv in cases:
            assert main(argv) == 2, argv
            assert repr(bad) in capsys.readouterr().err, argv


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
