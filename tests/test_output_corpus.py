"""Every byte of the command-line output corpus matches the committed manifest.

``tools/corpus_manifest.py`` writes the corpus of ``tools/output_corpus.py``
(149 files: desk ``banana`` runs, ``estimate``, ``ksd`` and
``entropy-check`` outputs, and the refusal set) in one child process with
``OPENBLAS_NUM_THREADS=1`` in that child's environment only, and prints
its sha256 manifest.  The test compares that with
``tools/output_corpus.sha256``.  A change that moves output bits on purpose
regenerates the manifest in the same commit, so its diff names the moved
files::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tools/corpus_manifest.py > tools/output_corpus.sha256

The bytes depend on the numpy build, on the OpenBLAS kernels chosen at
run time and on the path the symmetric solves take (numpy's own LAPACK in
place, or the ``np.linalg`` fallback where its library lacks the symbols),
which the manifest records as its fingerprint.  Under
another fingerprint the corpus must still hold the same files, but their
bytes are not compared: the test is skipped, and the skip reason names the
fingerprint lines that differ and how many files do.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
MANIFEST = TOOLS / "output_corpus.sha256"

sys.path.insert(0, str(TOOLS))
from corpus_manifest import parse  # noqa: E402


def test_output_corpus_matches_manifest():
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "corpus_manifest.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    want_print, want = parse(MANIFEST.read_text(encoding="utf-8"))
    got_print, got = parse(proc.stdout)
    assert sorted(got) == sorted(want), "the corpus' files differ from the manifest's"
    moved = sorted(path for path in want if got[path] != want[path])
    if got_print != want_print:
        changed = sorted(set(got_print) ^ set(want_print))
        pytest.skip(
            f"fingerprint differs from the manifest's ({changed}); "
            f"bytes not compared, {len(moved)} of {len(want)} files differ"
        )
    assert not moved, f"{len(moved)} corpus files moved: {moved}"
