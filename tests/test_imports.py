"""Each module of the package imports on its own, in a fresh interpreter: no
import cycle hides behind the order in which another module happens to load
them."""

import pkgutil
import subprocess
import sys

import pytest

import mseqcorr

MODULES = sorted(m.name for m in pkgutil.iter_modules(mseqcorr.__path__))


def test_every_module_is_listed():
    assert {"cli", "families", "gf", "lfsr", "spectra"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    proc = subprocess.run([sys.executable, "-c", f"import mseqcorr.{module}"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
