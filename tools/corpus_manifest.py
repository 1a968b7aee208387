"""Print the sha256 manifest of the command-line output corpus.

Usage::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tools/corpus_manifest.py > tools/output_corpus.sha256

Writes the corpus of ``tools/output_corpus.py`` into a temporary directory
and prints one ``sha256  relative/path`` line per file, sorted by path, as
``sha256sum`` prints them.  Before them come ``#`` lines with the
fingerprint the bytes depend on: the numpy version, the
configuration string of each OpenBLAS library the process loaded (read
through ``/proc/self/maps``, so Linux only; elsewhere the fingerprint has
no OpenBLAS line and matches no Linux manifest), and the path the
symmetric solves took: ``solver: lapack potrf in place`` where numpy's
library exports the LAPACK symbols ``steingrad.linalg`` looks up, and
``solver: numpy.linalg`` where it does not.  The corpus is
byte-reproducible only at a fixed BLAS thread count, and the committed
manifest is written at one thread, so set ``OPENBLAS_NUM_THREADS=1`` for
this process.  ``tests/test_output_corpus.py`` runs this script and
compares its output with the committed manifest.
"""

import contextlib
import ctypes
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from output_corpus import write_corpus


def openblas_configs():
    """(library file name, config string) of each OpenBLAS loaded here."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                found.append((Path(path).name, fn().decode()))
                break
    return found


def solver():
    """The path the package's symmetric solves take in this process."""
    from steingrad import linalg

    return "lapack potrf in place" if linalg._lapack() is not None else "numpy.linalg"


def fingerprint():
    """The lines, without their ``#``, that name what the corpus bytes depend on."""
    lines = [f"numpy {np.__version__}"]
    lines += [f"openblas {name}: {config}" for name, config in openblas_configs()]
    lines.append(f"solver: {solver()}")
    return lines


def digests(out: Path):
    """{relative posix path: sha256 hex} of every file under ``out``."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def parse(text):
    """(fingerprint lines, digests) of a manifest's text."""
    prints, files = [], {}
    for line in text.splitlines():
        if line.startswith("# "):
            prints.append(line[2:])
        elif line:
            digest, path = line.split("  ", 1)
            files[path] = digest
    return prints, files


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # stdout carries the manifest alone
        with contextlib.redirect_stdout(sys.stderr):
            write_corpus(Path(tmp))
        files = digests(Path(tmp))
    lines = [f"# {line}" for line in fingerprint()]
    lines += [f"{digest}  {path}" for path, digest in files.items()]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
