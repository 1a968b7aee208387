"""Command-line front end.

Four subcommands:

    steingrad estimate       fit a score estimator to a CSV of samples and
                             write the gradient field plus a JSON sidecar
    steingrad ksd            kernelised Stein discrepancy of (samples, grads)
    steingrad banana         the gradient-free HMC benchmark on the banana
                             target
    steingrad entropy-check  Gaussian entropy-gradient calibration benchmark

Every subcommand accepts ``--config FILE`` pointing at a JSON object whose
keys mirror the long flag names (underscored).  Each option's default is
declared once, on its flag; the config entries become the subcommand's
defaults, so explicit flags win over the config file, which wins over the
declared defaults, and a null entry keeps the declared default.  A config
value is checked as its flag's value is: its JSON type against the flag's
type (a float flag takes a JSON integer too), its value against the flag's
choices, case and all.  Commands that consume randomness require a seed.

Outputs are pure functions of (config, input files): JSON is written with
sorted keys, a 2-space indent and shortest round-trip floats, so re-running a
command at the same BLAS thread count reproduces its output byte for byte.
The JSON text is ``json.dumps(doc, sort_keys=True, indent=2)``'s, byte for
byte: the writer walks the string-keyed dicts the commands build and writes
the sidecar's finite float arrays itself, and hands every other value to
``json.dumps``.  No output path may be a directory, lie in a directory that
does not exist, or name the file of an input or of another output of the
same command (by its resolved path, or as ``os.path.samefile`` finds a hard
link); such a path is refused (exit 2) before anything is read or written.
A command formats all its outputs before it opens any, and an existing
output is overwritten in place (``_write_text``): opened without
``O_TRUNC``, then a regular file is cut at the end of the new text, so it
stays the same file and only the blocks past that end are freed.

Every subcommand refuses in one order: its arguments and output paths, then
its inputs as it reads them, then the faults of the data (the median rule on
the sample, mismatched gradients, a numerical failure).  No argument is
refused after an input is read, a number drawn or an estimator fitted; a
fit's kind, kernel family and eta pass ``estimators.check_fit`` first.

Every float is written as ``float.__repr__`` writes it, in the CSVs as in the
JSON (where NaN and infinities are spelled ``NaN`` and ``Infinity``, as
``json.dumps`` spells them).  Arrays of floats get that text from orjson, one C
call per block of rows: orjson writes the same shortest round-trip digits, and
a value it would spell differently (a non-zero magnitude below 1e-4 or from
1e16 up, NaN or an infinity) is rewritten by ``float.__repr__`` in its field.

Exit codes: 0 success, 2 input error (bad flags, malformed files), 3
numerical failure.

File formats
------------
Sample CSV: header ``x0,...,x{d-1}``, one sample per row.  Gradient CSV:
same layout with header ``g0,...,g{d-1}``.  A CSV whose header is exactly
that and whose body is plain JSON numbers (the fields ``float.__repr__`` and
``str(int)`` write), with LF or CRLF line ends, is parsed by orjson in one
call; any other file (quoted fields, blank lines, ``+1``, ``.5``, ``nan``,
a BOM, the integer ``-0``, ...) is read by ``csv.reader`` and ``float``, and
both give the same values and the same errors.  The estimate sidecar holds the
full serialised estimator: kind, kernel family and effective bandwidth, eta,
training data, gradient field or coefficients, and fit diagnostics (jitter
ladder use), O(K d) numbers in all.  The predictive Stein fit's training-block
inverse is not stored; a reloaded estimator solves it on its first prediction.
"""

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np
import orjson

from .discrepancy import ksd_to_target, ksd_u, ksd_v
from .errors import NumericalError
from .estimators import (
    DEFAULT_ETA,
    KIND_STEIN_V,
    KINDS,
    _KIND_RULES,
    check_fit,
    entropy_gradient_surrogate,
    fit_estimator,
)
from .kernels import (
    EPANECHNIKOV,
    RBF,
    KernelSpec,
    check_number,
    median_heuristic,
    resolve_bandwidth,
)
from .sampler import HmcConfig, banana_sample, banana_score, banana_log_density, run_hmc


# ---------------------------------------------------------------------------
# config plumbing


# JSON types a config value may have, per argparse type of its flag; bool
# is excluded from the others because json gives true/false as bool
_CONFIG_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}
# string flags whose config value may also take another JSON type
_CONFIG_FIELD_TYPES = {
    "sigma2": ((int, float, str), "a number or a string"),
    "estimators": ((str, list), "a string or a list"),
}


def _load_config(path, sub):
    """The checked entries of a config file for subparser ``sub``, by flag dest.

    Each value is checked as its flag's own value is: the JSON type against
    the flag's type (``_CONFIG_TYPES``), the value against the flag's
    choices, exactly.  A float flag's value becomes a float; a null entry is
    left out, so the flag keeps its declared default.
    """
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(obj) - set(actions))
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    config = {}
    for key, value in obj.items():
        if value is None:
            continue
        action = actions[key]
        is_switch = isinstance(action, argparse.BooleanOptionalAction)
        flag_type = bool if is_switch else action.type or str
        types, what = _CONFIG_FIELD_TYPES.get(key) or _CONFIG_TYPES[flag_type]
        if not (isinstance(value, types) and isinstance(value, bool) == is_switch):
            raise ValueError(f"{path}: config field {key!r} must be {what}, got {value!r}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"{path}: config field {key!r}: unknown {key} {value!r}; "
                f"expected one of {', '.join(action.choices)}"
            )
        if flag_type is float:
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(
                    f"{path}: config field {key!r} is beyond the float range"
                ) from None
        config[key] = value
    return config


def _kernel_spec(args):
    """Build the KernelSpec from the kernel, sigma2 and bandwidth_scale options.

    ``median`` stays the median rule (``median_scale``), so the fit or
    discrepancy that uses the spec takes the bandwidth from its own distance
    pass over the sample, and reports it resolved.  The epanechnikov kernel
    carries no bandwidth, so it takes neither a sigma2 nor a scale.
    """
    raw = args.sigma2
    scale = check_number(args.bandwidth_scale, "bandwidth_scale", gt=0)
    if args.kernel == EPANECHNIKOV:
        for field, value, unset in (("sigma2", raw, "median"), ("bandwidth_scale", scale, 1)):
            if value != unset:
                raise ValueError(
                    f"{field} must be {unset!r} with the epanechnikov kernel, "
                    f"which carries no bandwidth; got {value!r}"
                )
        return KernelSpec(EPANECHNIKOV)
    if raw == "median":
        return KernelSpec(RBF, median_scale=scale)
    try:
        base = float(raw)
    except (ValueError, OverflowError) as exc:
        raise ValueError(
            f"sigma2 must be a positive number or 'median', got {raw!r}"
        ) from exc
    return KernelSpec(RBF, base * scale)


def _refuse_output(field, path, *others):
    """Refuse the output ``path`` of ``--{field}`` where it cannot be written as given.

    It must name a file in an existing directory and none of ``others``,
    each a (description, path) pair; a None path is no file.  Two paths
    name one file when they resolve to one path or, both existing, when
    ``os.path.samefile`` says so (a hard link, a case-insensitive name).
    """
    if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ValueError(f"{field}: {path!r} is not a file path in an existing directory")
    for what, other in others:
        if None in (path, other):
            continue
        if Path(path).resolve() == Path(other).resolve() or (
            os.path.exists(path) and os.path.exists(other) and os.path.samefile(path, other)
        ):
            raise ValueError(f"{field}: {path!r} is {what}; pass another --{field}")


def _require_seed(args):
    if args.seed is None:
        raise ValueError("this command needs --seed (or a 'seed' config entry)")
    return check_number(args.seed, "seed", ge=0, integer=True)


# ---------------------------------------------------------------------------
# file formats


def _read_matrix_csv(path, prefix):
    """Read a CSV with header {prefix}0..{prefix}{d-1} into a (K, d) array.

    A body of plain JSON numbers is parsed by orjson (``_parse_plain``);
    every other file goes through ``csv.reader`` (``_parse_csv``), which
    accepts and rejects what it always has.  Both give the same array for a
    file the first accepts.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    with fh:
        data = fh.read()
    arr = _parse_plain(data, prefix)
    if arr is None:
        arr = _parse_csv(data, path, prefix)
    return arr


# the bytes of a body _parse_plain may take: JSON numbers, commas, newlines
_PLAIN_BYTES = b"0123456789.eE+-,\n"


def _parse_plain(data, prefix):
    """The (K, d) array of a header and body of plain JSON numbers, or None.

    The rows become one JSON array of arrays, parsed in one orjson call.
    None, and so the csv path, for everything else: a header that is not
    exactly ``{prefix}0,...`` (quoted, with a BOM, ...), a lone CR, a byte
    outside ``_PLAIN_BYTES`` (``nan``, ``true``, spaces, quotes), a line
    longer than ``csv.field_size_limit()``, text that is not JSON (``+1``,
    ``.5``, ``1.``, ``00``, an empty field), a value beyond the double
    range, and rows not ``d`` wide: ragged ones, and the empty row of a
    blank line or an empty body.  The integer ``-0``, which orjson reads
    as 0 where ``float`` keeps the sign, also goes to the csv path; so does
    any text that merely contains it, such as ``1e-0,``.
    """
    head, _, body = data.partition(b"\n")
    if head.endswith(b"\r"):
        head = head[:-1]
    d = head.count(b",") + 1
    if head != ",".join(f"{prefix}{i}" for i in range(d)).encode():
        return None
    if b"\r" in body:
        body = body.replace(b"\r\n", b"\n")
    if body.endswith(b"\n"):
        body = body[:-1]
    limit = csv.field_size_limit()
    if (
        body.translate(None, _PLAIN_BYTES)
        or b"-0," in body
        or b"-0\n" in body
        or body.endswith(b"-0")
        or (len(body) > limit and max(map(len, body.split(b"\n"))) > limit)
    ):
        return None
    text = b"[[" + body.replace(b"\n", b"],[") + b"]]"
    try:
        arr = np.array(orjson.loads(text), dtype=float)
    except ValueError:  # not JSON, or ragged rows
        return None
    return arr if arr.shape[1] == d else None


def _parse_csv(data, path, prefix):
    """Parse a CSV file's bytes with ``csv.reader``, reading them as the file."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _csv_rows(reader, path, prefix)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc


def _csv_rows(reader, path, prefix):
    """The (K, d) array of a ``csv.reader`` over a sample or gradient CSV."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    d = len(header)
    expected = [f"{prefix}{i}" for i in range(d)]
    if header != expected or d == 0:
        raise ValueError(
            f"{path} line 1: header must be {prefix}0..{prefix}{{d-1}}, "
            f"got {header!r}"
        )
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != d:
            raise ValueError(
                f"{path} line {lineno}: expected {d} fields, got {len(row)}"
            )
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: non-finite values")
    return arr


# floats per orjson call, which bounds the text held at once
_BLOCK_FLOATS = 1 << 16


def _float_lines(arr, sep):
    """``sep.join(map(float.__repr__, row))`` for each row of a 2-D float array.

    orjson writes a block of rows in one call with the digits of
    ``float.__repr__``; it places the exponent differently outside
    1e-4 <= |x| < 1e16 and writes null for NaN and infinities, so each
    non-zero value outside that window, and each non-finite one, is
    rewritten with ``float.__repr__`` in its field of the row.
    """
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    step = max(1, _BLOCK_FLOATS // max(1, arr.shape[1]))
    lines = []
    for start in range(0, arr.shape[0], step):
        block = arr[start : start + step]
        mag = np.abs(block)
        plain = ((mag >= 1e-4) & (mag < 1e16)) | (mag == 0)
        # b"[[row0],[row1],...]", decoded without a copy of the bytes
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        text = str(memoryview(text)[2:-2], "ascii")
        if sep != ",":
            text = text.replace(",", sep)
        rows = text.split("]" + sep + "[")
        del text
        # a value outside the window is one field of its row; fix just that
        for i in np.flatnonzero(~plain.all(axis=1)).tolist():
            fields = rows[i].split(sep)
            for j in np.flatnonzero(~plain[i]).tolist():
                fields[j] = float.__repr__(block[i, j])
            rows[i] = sep.join(fields)
        lines += rows
    return lines


def _no_truncate(path, flags):
    # open(path, "w")'s flags less O_TRUNC: opening frees no blocks, where
    # emptying a just-written file waits for their discards on some disks
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_text(path, chunks):
    """Write the strs of ``chunks`` to ``path``, overwriting an existing file in place.

    The file is opened as ``open(path, "w")`` opens it, but not truncated:
    the text goes over the old bytes, and a regular file is then cut at its
    end, so it holds exactly the text, as the same file (inode, mode and
    hard links kept; a symlink writes its target).  A FIFO or a device such
    as ``/dev/null`` cannot be truncated and is left as written.  Callers
    format everything first, so a failure before this call leaves an old
    output as it was; an I/O error while writing can leave old bytes behind
    the new ones.
    """
    with open(path, "w", newline="", encoding="utf-8", opener=_no_truncate) as fh:
        fh.writelines(chunks)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()  # at the end of the text, after flushing it


def _write_matrix_csv(path, prefix, arr):
    # the bytes csv.writer would write: float reprs never need quoting
    arr = np.asarray(arr, dtype=float)
    lines = _float_lines(arr, ",")
    lines.insert(0, ",".join(f"{prefix}{i}" for i in range(arr.shape[1])))
    lines.append("")  # the last row's line end
    _write_text(path, ["\r\n".join(lines)])


def _json_text(obj, indent=""):
    """``json.dumps(obj, sort_keys=True, indent=2)`` for ``obj`` nested at ``indent``.

    Asked for an indent, json uses its pure-Python encoder, which visits
    every float in a generator.  Two values are written here instead: a
    non-empty dict whose keys are all strings is walked, and a non-empty
    float64 vector or matrix of finite values (the sidecar's arrays) is
    written by ``_float_lines``, the ``float.__repr__`` text that encoder
    writes per float.  Every other value is ``json.dumps`` itself, its lines
    shifted to ``indent``: a JSON string holds no raw newline, so only line
    breaks move.  Brackets are added in one f-string or join, so a
    sidecar-sized body is copied once, not once per ``+``.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        body = sep.join(
            json.dumps(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    floats = isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2)
    if floats and obj.size > 0 and np.isfinite(obj).all():
        if obj.ndim == 1:
            return f"[\n{inner}{_float_lines(obj[None], sep)[0]}\n{indent}]"
        # the whole matrix in one join: the row brackets go in the separator
        row_inner = inner + "  "
        lines = _float_lines(obj, ",\n" + row_inner)
        lines[0] = f"[\n{inner}[\n{row_inner}{lines[0]}"
        lines[-1] += f"\n{inner}]\n{indent}]"
        return f"\n{inner}]{sep}[\n{row_inner}".join(lines)
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _dump_json(obj, path=None):
    # the newline written apart, not appended to a copy of the text
    text = _json_text(obj)
    if path is None:
        sys.stdout.write(text)
        sys.stdout.write("\n")
    else:
        _write_text(path, (text, "\n"))


def _jsonable(value):
    """None for NaN so reports stay strict JSON."""
    value = float(value)
    return None if math.isnan(value) else value


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    input_path = args.input
    output_path = args.output
    if not input_path or not output_path:
        raise ValueError("estimate needs --input and --output")
    sidecar = args.sidecar
    if sidecar is None:
        sidecar = str(Path(output_path).with_suffix(".json"))
    sample_csv = ("the sample CSV --input", input_path)
    _refuse_output("output", output_path, sample_csv)
    _refuse_output("sidecar", sidecar, ("the gradient CSV --output", output_path), sample_csv)
    spec = _kernel_spec(args)
    eta = check_fit(args.estimator, spec, args.eta)
    samples = _read_matrix_csv(input_path, "x")
    fitted = fit_estimator(args.estimator, samples, spec, eta)
    grads = fitted.grads_at_train()
    # both outputs formatted before either is written
    record = _json_text(fitted._json_record())
    _write_matrix_csv(output_path, "g", grads)
    _write_text(sidecar, (record, "\n"))
    return 0


# ---------------------------------------------------------------------------
# ksd


def cmd_ksd(args) -> int:
    if not args.samples or not args.grads:
        raise ValueError("ksd needs --samples and --grads")
    _refuse_output(
        "output", args.output,
        ("the sample CSV --samples", args.samples), ("the gradient CSV --grads", args.grads),
    )
    spec = _kernel_spec(args)
    xs = _read_matrix_csv(args.samples, "x")
    gs = _read_matrix_csv(args.grads, "g")
    ksd_fn = ksd_v if args.statistic == "v" else ksd_u
    est = ksd_fn(xs, gs, spec, includes_constant=args.include_constant)
    report = {
        "statistic": est.statistic,
        "includes_constant": est.includes_constant,
        "value": float(est.value),
        "K": int(xs.shape[0]),
        "d": int(xs.shape[1]),
        "kernel": est.spec.family,
        "sigma2": est.spec.sigma2,
    }
    _dump_json(report, args.output)
    return 0


# ---------------------------------------------------------------------------
# banana

_PRESETS = {
    "desk": {"n_chains": 50, "n_iters": 500},
    "paper": {"n_chains": 200, "n_iters": 2000},
}


def cmd_banana(args) -> int:
    seed = _require_seed(args)
    output_path = args.output
    traj_path = args.trajectories
    _refuse_output("output", output_path)
    _refuse_output("trajectories", traj_path, ("the report --output", output_path))
    # the sampler's own checks, under the flags' names
    b = check_number(args.banana_b, "banana_b")
    v = check_number(args.banana_v, "banana_v", gt=0)
    if not check_number(args.burn_in, "burn_in", ge=0) < 1:
        raise ValueError(f"burn_in must be in [0, 1), got {args.burn_in!r}")
    # a count left unset comes from the preset; an explicit 0 still fails
    preset = _PRESETS[args.preset]
    n_chains = preset["n_chains"] if args.n_chains is None else args.n_chains
    n_iters = preset["n_iters"] if args.n_iters is None else args.n_iters
    cfg = HmcConfig(
        n_chains=n_chains,
        n_iters=n_iters,
        stepsize=args.stepsize,
        n_leapfrog=args.n_leapfrog,
        burn_in_fraction=args.burn_in,
    )
    target_score = partial(banana_score, b=b, v=v)
    init_noise = check_number(args.init_noise, "init_noise", ge=0)
    name = args.estimator
    if name in KINDS and _KIND_RULES[name].predict is None:
        raise ValueError(
            f"{name} has no out-of-sample prediction rule and cannot "
            "drive the sampler; use stein-v or a parametric estimator"
        )
    spec = eta = None
    if name == "exact":
        check_number(args.bandwidth_scale, "bandwidth_scale", gt=0)
    else:
        spec = _kernel_spec(args)  # checks the scale
        eta = check_fit(name, spec, args.eta)
    # the metric kernel's median heuristic needs two training points,
    # whatever the estimator
    check_number(args.n_train, "n_train", ge=2, integer=True)
    pool_cap = check_number(args.ksd_pool_cap, "ksd_pool_cap", ge=2, integer=True)

    ss_train, ss_init, ss_chains = np.random.SeedSequence(seed).spawn(3)
    train = banana_sample(args.n_train, np.random.default_rng(ss_train), b, v)
    rng_init = np.random.default_rng(ss_init)
    init = banana_sample(n_chains, rng_init, b, v) + init_noise * rng_init.standard_normal(
        (n_chains, 2)
    )

    # the sample-quality metric uses one fixed kernel per seed, derived from
    # the training draw, so runs with different estimators stay comparable
    metric_spec = KernelSpec(RBF, median_heuristic(train) * args.bandwidth_scale)

    fitted = None if spec is None else fit_estimator(name, train, spec, eta)
    stats = run_hmc(
        partial(banana_log_density, b=b, v=v),
        target_score if fitted is None else fitted.predict,
        cfg,
        init,
        chain_seeds=ss_chains.spawn(n_chains),
    )

    # grade the post-burn-in states: the mean of x1 with its standard error
    # across chains (none for one chain), and the KSD against the exact
    # score, each chain alone and the pool thinned evenly to at most
    # pool_cap points to keep the quadratic cost bounded
    post = stats.trajectories[:, cfg.n_burn:]
    chain_means = post[:, :, 0].mean(axis=1)
    se_mean_x1 = None
    if cfg.n_chains > 1:
        se_mean_x1 = float(chain_means.std(ddof=1) / math.sqrt(cfg.n_chains))
    ksd_mean = float(
        np.mean([ksd_to_target(chain, target_score, metric_spec).value for chain in post])
    )
    pooled = post.reshape(-1, 2)
    step = max(1, math.ceil(pooled.shape[0] / pool_cap))
    ksd_pooled = ksd_to_target(pooled[::step], target_score, metric_spec).value

    report = {
        "preset": args.preset,
        "seed": seed,
        "estimator": name,
        "kernel": None if fitted is None else fitted.spec.family,
        "sigma2": None if fitted is None else fitted.spec.sigma2,
        "eta": eta,
        "n_train": args.n_train,
        "banana_b": b,
        "banana_v": v,
        "n_chains": cfg.n_chains,
        "n_iters": cfg.n_iters,
        "stepsize": cfg.stepsize,
        "n_leapfrog": cfg.n_leapfrog,
        "burn_in_fraction": cfg.burn_in_fraction,
        "init_noise": init_noise,
        "metric_sigma2": metric_spec.sigma2,
        "acceptance_rate": float(stats.acceptance_rate),
        "mean_x1": float(chain_means.mean()),
        "se_mean_x1": se_mean_x1,
        "ksd_pooled": _jsonable(ksd_pooled),
        "ksd_mean_per_chain": _jsonable(ksd_mean),
        "n_divergent": int(stats.n_divergent),
        "fit_diagnostics": None if fitted is None else dict(fitted.diagnostics),
    }
    if traj_path is not None:
        # formatted before the report is written; row c * n_iters + t of
        # the flattened arrays is chain c, iteration t, and each row's text
        # replaces its coordinates' in the one list
        lines = _float_lines(stats.trajectories.reshape(-1, 2), ",")
        accepted = stats.accepts.reshape(-1).tolist()
        steps = product(range(cfg.n_chains), range(cfg.n_iters))
        for i, ((c, t), a) in enumerate(zip(steps, accepted)):
            lines[i] = f"{c},{t},{int(a)},{lines[i]}\r\n"
        lines.insert(0, "chain,iter,accepted,x0,x1\r\n")
    _dump_json(report, output_path)
    if traj_path is not None:
        _write_text(traj_path, lines)
    return 0


# ---------------------------------------------------------------------------
# entropy-check


def cmd_entropy_check(args) -> int:
    seed = _require_seed(args)
    sigma = check_number(args.sigma, "sigma", gt=0)
    n = check_number(args.n, "n", ge=2, integer=True)
    names = args.estimators  # a comma-separated flag, or a config list
    if isinstance(names, str):
        names = [s.strip() for s in names.split(",") if s.strip()]
    if not names:
        raise ValueError(
            f"estimators: the list is empty; name at least one of {', '.join(KINDS)}"
        )
    spec = _kernel_spec(args)
    for i, name in enumerate(names):
        if name not in KINDS:
            raise ValueError(
                f"estimators: unknown estimator {name!r}; expected one of {', '.join(KINDS)}"
            )
        if name in names[:i]:
            raise ValueError(f"estimators: {name!r} is listed twice")
        check_fit(name, spec, args.eta)

    _refuse_output("output", args.output)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    z = (sigma * eps)[:, None]
    jac = eps[:, None, None]  # dz/dsigma = eps, one 1x1 Jacobian per sample
    analytic = 1.0 / sigma

    def entry(value):
        return {
            "value": float(value),
            "abs_error": abs(float(value) - analytic),
            "rel_error": abs(float(value) - analytic) / analytic,
        }

    exact_grads = -z / sigma**2
    report = {
        "sigma": sigma,
        "n": n,
        "seed": seed,
        "analytic": analytic,
        "exact": entry(entropy_gradient_surrogate(exact_grads, jac)[0]),
        "estimates": {},
    }
    # one bandwidth for every fit: each fit's own pass would take the median
    # of the n (n - 1) / 2 distances once per fit
    spec = resolve_bandwidth(z, spec)
    for name in names:
        fitted = fit_estimator(name, z, spec, args.eta)
        value = entropy_gradient_surrogate(fitted.grads_at_train(), jac)[0]
        report["estimates"][name] = entry(value)
    _dump_json(report, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_kernel_flags(sub):
    sub.add_argument("--kernel", choices=[RBF, EPANECHNIKOV], default=RBF)
    sub.add_argument(
        "--sigma2",
        default="median",
        help="RBF squared bandwidth: a positive number or 'median' (default)",
    )
    sub.add_argument(
        "--bandwidth-scale",
        dest="bandwidth_scale",
        type=float,
        default=1.0,
        help="multiplier applied to sigma2, typically 1-5 (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steingrad",
        description="kernel score estimation, Stein discrepancy, gradient-free HMC",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="fit a score estimator to samples")
    est.add_argument("--config")
    est.add_argument("--input", help="sample CSV (header x0..)")
    est.add_argument("--output", help="gradient CSV (header g0..)")
    est.add_argument("--sidecar", help="estimator JSON path")
    est.add_argument("--estimator", default=KIND_STEIN_V, choices=sorted(KINDS))
    _add_kernel_flags(est)
    est.add_argument("--eta", type=float, default=DEFAULT_ETA)
    est.set_defaults(func=cmd_estimate)

    ksd = subs.add_parser("ksd", help="kernelised Stein discrepancy of a sample")
    ksd.add_argument("--config")
    ksd.add_argument("--samples", help="sample CSV (header x0..)")
    ksd.add_argument("--grads", help="gradient CSV (header g0..)")
    _add_kernel_flags(ksd)
    ksd.add_argument("--statistic", choices=["v", "u"], default="v")
    ksd.add_argument(
        "--include-constant",
        dest="include_constant",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    ksd.add_argument("--output", help="report path (default stdout)")
    ksd.set_defaults(func=cmd_ksd)

    ban = subs.add_parser("banana", help="gradient-free HMC banana benchmark")
    ban.add_argument("--config")
    ban.add_argument("--preset", choices=sorted(_PRESETS), default="desk")
    ban.add_argument("--seed", type=int)
    ban.add_argument(
        "--estimator",
        default=KIND_STEIN_V,
        choices=sorted(KINDS) + ["exact"],
    )
    _add_kernel_flags(ban)
    ban.add_argument("--eta", type=float, default=DEFAULT_ETA)
    ban.add_argument("--n-train", dest="n_train", type=int, default=200)
    # None: the preset's count
    ban.add_argument("--n-chains", dest="n_chains", type=int)
    ban.add_argument("--n-iters", dest="n_iters", type=int)
    ban.add_argument("--stepsize", type=float, default=0.5)
    ban.add_argument("--n-leapfrog", dest="n_leapfrog", type=int, default=10)
    ban.add_argument("--burn-in", dest="burn_in", type=float, default=0.2)
    ban.add_argument("--init-noise", dest="init_noise", type=float, default=2.0)
    ban.add_argument("--banana-b", dest="banana_b", type=float, default=0.03)
    ban.add_argument("--banana-v", dest="banana_v", type=float, default=100.0)
    ban.add_argument("--ksd-pool-cap", dest="ksd_pool_cap", type=int, default=2000)
    ban.add_argument("--output", help="report path (default stdout)")
    ban.add_argument("--trajectories", help="per-iteration CSV path")
    ban.set_defaults(func=cmd_banana)

    ent = subs.add_parser("entropy-check", help="entropy-gradient benchmark")
    ent.add_argument("--config")
    ent.add_argument("--sigma", type=float, default=1.5)
    ent.add_argument("--n", type=int, default=2000)
    ent.add_argument("--seed", type=int)
    ent.add_argument(
        "--estimators",
        default="kde,stein-v,score",
        help="comma-separated estimator names (default %(default)s)",
    )
    _add_kernel_flags(ent)
    ent.add_argument("--eta", type=float, default=DEFAULT_ETA)
    ent.add_argument("--output", help="report path (default stdout)")
    ent.set_defaults(func=cmd_entropy_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config entries become the subcommand's defaults: flag > config > default
            subs = next(a for a in parser._actions if a.dest == "command")
            sub = subs.choices[args.command]
            sub.set_defaults(**_load_config(args.config, sub))
            args = parser.parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
