"""Importing the package loads neither `dataclasses` nor `inspect` nor
`fractions`.

A cold `moufang3 verify` spends much of its time starting up, and the
records being `NamedTuple`s and `fractions` being imported only by
`LSetCount.density` keep those modules (and `ast`, `dis`, `tokenize`, which
`inspect` pulls in) off that path.  The test asserts module names, not
times, so a busy host cannot make it flaky.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from moufang3 import basis, count_l_set

SRC = Path(__file__).resolve().parents[1] / "src"
AVOIDED = ("dataclasses", "inspect", "fractions")


def test_cli_import_skips_avoided_modules():
    probe = ("import sys, moufang3.cli; "
             f"print(*[m for m in {AVOIDED!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.split() == []


def test_exact_density_is_still_a_fraction(loop, sym):
    density = count_l_set(loop, basis(3), basis(4), sym).density
    assert type(density) is Fraction and density == Fraction(1, 3)
