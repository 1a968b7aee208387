"""Every numeric parameter passes one check, ``kernels.check_number``.

One table holds each parameter the check guards, with a call that hands it a
value and returns what the site keeps of it: the stored field, or the output
of a function that uses it.  A bool (``np.bool_`` too), a string, NaN, an
infinity and a value out of range are refused with a ValueError that names
the field; through the command line that is exit 2, and through a reloaded
record a refused load.  Python and numpy ints and floats are accepted and
kept as the site has always kept them: converted to float by the sites that
convert, unconverted by the others.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from steingrad import (
    FittedEstimator,
    HmcConfig,
    KernelSpec,
    banana_sample,
    banana_score,
    cli,
    fit_estimator,
    leapfrog,
)
from steingrad.kernels import check_number
from steingrad.oracles import fd_gradient, quadratic_minimiser

X = np.random.default_rng(0).standard_normal((12, 2))
RECORD = fit_estimator("kde", X, KernelSpec("rbf", 1.0)).to_json_dict()
HMC = dict(n_chains=2, n_iters=10, stepsize=0.1, n_leapfrog=5)
Q, P = np.zeros((1, 2)), np.ones((1, 2))


def _reload(**fields):
    return FittedEstimator.from_json_dict({**RECORD, **fields})


def _hmc(field):
    return lambda value: getattr(HmcConfig(**{**HMC, field: value}), field)


def _cli(command, dest, value):
    """``main`` on a small run of ``command`` with ``dest`` parsed as ``value``.

    The value is set on the parsed arguments, as a flag or a config entry
    would hand it over.  Exit 2 raises ValueError with the message; exit 0
    returns the report's entry for ``dest``, or None when it has none.
    """
    small = {
        "estimate": ["--input", "s.csv", "--output", "g.csv"],
        "banana": ["--seed", "1", "--estimator", "exact", "--n-train", "20", "--n-chains",
                   "2", "--n-iters", "3", "--n-leapfrog", "2", "--output", "r.json"],
        "entropy-check": ["--seed", "1", "--n", "30", "--estimators", "kde",
                          "--output", "r.json"],
    }[command]
    parser = cli.build_parser()
    parse = parser.parse_args

    def parse_args(argv=None):
        args = parse(argv)
        setattr(args, dest, value)
        return args

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setattr(parser, "parse_args", parse_args)
        mp.setattr(cli, "build_parser", lambda: parser)
        rows = (f"{a!r},{b!r}" for a, b in X.tolist())
        (Path(tmp) / "s.csv").write_text("x0,x1\n" + "\n".join(rows))
        with contextlib.redirect_stderr(err):
            rc = cli.main([command, *small])
        if rc == 2:
            raise ValueError(err.getvalue())
        assert rc == 0, err.getvalue()
        report = Path(tmp, "r.json")
        return json.loads(report.read_text()).get(dest) if report.exists() else None


@dataclass(frozen=True)
class Site:
    field: str  # the name the refusal gives
    call: object  # value -> what the site keeps of it
    bad: object  # a value out of range, or None for a parameter without a bound
    good: tuple  # values accepted
    keep: object = None  # float for a site that converts; None keeps the value
    output: bool = False  # call returns an output that depends on the value


REALS = (2, np.int64(2), 0.5, np.float32(0.1), np.float64(0.5))
FRACTIONS = (0, np.int64(0), 0.5, np.float32(0.1), np.float64(0.5))
COUNTS = (3, np.int64(3), np.int32(3))

SITES = {
    "KernelSpec.sigma2": Site("sigma2", lambda v: KernelSpec("rbf", v).sigma2, 0, REALS, float),
    "KernelSpec.median_scale": Site(
        "median_scale", lambda v: KernelSpec("rbf", median_scale=v).median_scale, 0, REALS, float
    ),
    "fit_estimator.eta": Site(
        "eta", lambda v: fit_estimator("kde", X, KernelSpec("rbf", 1.0), v).eta, -0.1, REALS, float
    ),
    "record.eta": Site("eta", lambda v: _reload(eta=v).eta, -0.1, REALS, float),
    "record.sigma2": Site(
        "sigma2",
        lambda v: _reload(kernel={"family": "rbf", "sigma2": v}).spec.sigma2,
        0,
        REALS,
        float,
    ),
    "banana_score.b": Site(
        "banana curvature b", lambda v: banana_score(X, b=v), None, REALS, float, True
    ),
    "banana_score.v": Site(
        "banana variance v", lambda v: banana_score(X, v=v), 0, REALS, float, True
    ),
    "banana_sample.n": Site(
        "n", lambda v: banana_sample(v, np.random.default_rng(0)), 0, COUNTS, output=True
    ),
    "HmcConfig.n_chains": Site("n_chains", _hmc("n_chains"), 0, COUNTS),
    "HmcConfig.n_iters": Site("n_iters", _hmc("n_iters"), 0, COUNTS),
    "HmcConfig.n_leapfrog": Site("n_leapfrog", _hmc("n_leapfrog"), 0, COUNTS),
    "HmcConfig.stepsize": Site("stepsize", _hmc("stepsize"), 0, REALS),
    "HmcConfig.burn_in_fraction": Site(
        "burn_in_fraction", _hmc("burn_in_fraction"), -0.1, FRACTIONS
    ),
    "leapfrog.stepsize": Site(
        "stepsize", lambda v: leapfrog(Q, P, v, 2, np.negative)[0], 0, REALS, float, True
    ),
    "leapfrog.n_steps": Site(
        "n_steps", lambda v: leapfrog(Q, P, 0.1, v, np.negative)[0], 0, COUNTS, output=True
    ),
    "fd_gradient.step": Site(
        "finite-difference step",
        lambda v: fd_gradient(lambda x: float(x @ x), np.array([0.5, -1.0]), step=v),
        0,
        REALS,
        output=True,
    ),
    "quadratic_minimiser.ridge": Site(
        "ridge",
        lambda v: quadratic_minimiser(np.eye(2), np.ones(2), ridge=v),
        -1,
        REALS,
        output=True,
    ),
    # through the command line argparse hands over Python floats and ints
    "estimate.bandwidth_scale": Site(
        "bandwidth_scale", lambda v: _cli("estimate", "bandwidth_scale", v), 0, (2.0,)
    ),
    "banana.bandwidth_scale": Site(
        "bandwidth_scale", lambda v: _cli("banana", "bandwidth_scale", v), 0, (2.0,)
    ),
    "banana.seed": Site("seed", lambda v: _cli("banana", "seed", v), -1, (1,)),
    "banana.banana_b": Site("banana_b", lambda v: _cli("banana", "banana_b", v), None, (0.5,)),
    "banana.banana_v": Site("banana_v", lambda v: _cli("banana", "banana_v", v), 0, (50.0,)),
    "banana.init_noise": Site("init_noise", lambda v: _cli("banana", "init_noise", v), -1, (0.5,)),
    "banana.n_train": Site("n_train", lambda v: _cli("banana", "n_train", v), 1, (20,)),
    "banana.ksd_pool_cap": Site(
        "ksd_pool_cap", lambda v: _cli("banana", "ksd_pool_cap", v), 1, (50,)
    ),
    "entropy-check.sigma": Site("sigma", lambda v: _cli("entropy-check", "sigma", v), 0, (1.5,)),
    "entropy-check.n": Site("n", lambda v: _cli("entropy-check", "n", v), 1, (30,)),
    "entropy-check.seed": Site("seed", lambda v: _cli("entropy-check", "seed", v), -1, (1,)),
}
# the command-line values the report does not hold
_NOT_REPORTED = ("estimate.bandwidth_scale", "banana.bandwidth_scale", "banana.ksd_pool_cap")

BAD = {"True": True, "np.True_": np.True_, "'0.5'": "0.5", "nan": math.nan, "inf": math.inf}


def _refusals():
    for name, site in SITES.items():
        for label, value in BAD.items():
            yield pytest.param(site, value, id=f"{name}-{label}")
        if site.bad is not None:
            yield pytest.param(site, site.bad, id=f"{name}-{site.bad!r}")


def _acceptances():
    for name, site in SITES.items():
        for value in site.good:
            yield pytest.param(name, site, value, id=f"{name}-{type(value).__name__}")


@pytest.mark.parametrize("site, value", _refusals())
def test_refused_naming_the_field(site, value):
    with pytest.raises(ValueError, match=rf"{re.escape(site.field)} must be "):
        site.call(value)


@pytest.mark.parametrize("name, site, value", _acceptances())
def test_accepted_and_kept_as_before(name, site, value):
    got = site.call(value)
    if site.output:
        # the output is the one the value as the site keeps it gives
        want = site.call(site.keep(value)) if site.keep else got
        assert np.all(np.isfinite(got))
        assert got.dtype == want.dtype and np.array_equal(got, want)
    elif name not in _NOT_REPORTED:
        want = site.keep(value) if site.keep else value
        assert type(got) is type(want) and got == want


def test_check_number_returns_the_value_itself():
    for value in (3, np.int64(3), 0.5, np.float32(0.1), np.float16(2)):
        assert check_number(value, "x", gt=0) is value
    assert check_number(-7.5, "x") == -7.5
    # an int beyond the float range is not finite, and no OverflowError escapes
    with pytest.raises(ValueError, match="x must be finite"):
        check_number(10**400, "x")
    with pytest.raises(ValueError, match="x must be an integer, got 2.0"):
        check_number(2.0, "x", ge=1, integer=True)
    with pytest.raises(ValueError, match=r"x must be a real number, got \(1\+0j\)"):
        check_number(1 + 0j, "x")
