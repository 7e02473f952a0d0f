"""The demos' stdout, pinned by SHA-256.

Each demo in ``demos/`` runs in this process and must print the bytes whose
digest is recorded here, so a change meant to leave scores alone shows in
the demos too.  Demo 05 prints how long each seed took, as ``(0.3s)``; that
column is masked before hashing.  The demos print floats to 4-6 decimals
from kernel values and window boosts, which call the platform libm's
``exp``, ``pow`` and ``cos``, so, like the goldens of ``test_golden.py``,
these digests hold for one libm (Ubuntu's glibc in CI).
"""

import hashlib
import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "01_kernels_and_local_relevance.py": "0346a0c94fdafde60aecb16adcd31ec8e01c7582caba0ef0ff4ccb2640ee0f7e",
    "02_queries_and_ranking.py": "e4c989255cdf06fff3eef7bb2436cf393908c83bcae1fbc6b860e163d0c682da",
    "03_window_boost_anatomy.py": "5a6b798f2d2235ca2c0b474de346fd6462a4b0ce49980eb4f0a53dd828e90f29",
    "04_arabic_pipeline.py": "f5797f954816d56eb7543ecff0898c639ba3dd05e1e383c65670788ea463983f",
    "05_classification_benchmark.py": "ed7bfb2c289e34defbd1962df8c2fb439aa8234388cbe7279ae9f565e8ecad74",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_prints_its_golden_bytes(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = re.sub(r"\(\d+\.\d+s\)", "(N.Ns)", capsys.readouterr().out)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name]


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DIGESTS)
