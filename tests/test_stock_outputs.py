"""The stock outputs of ``tools/stock_outputs.py`` against their recorded
SHA-256 manifest.

``tests/golden/stock.sha256`` holds the hash of every file the tool
writes except the ``cli/help-*`` texts, which carry no numbers.  Their
last bits depend on the Python and numpy versions and on the kernels
OpenBLAS picks for the CPU, so ``tests/golden/fingerprint.json`` records
those three; on another host the test skips and names both.
"""

import ctypes
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def host_fingerprint() -> dict:
    """Python and numpy versions and the core name of numpy's OpenBLAS."""
    try:
        corename = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_corename64_
    except AttributeError:
        core = None
    else:
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return {"python": platform.python_version(), "numpy": np.__version__, "openblas_core": core}


def test_stock_outputs_match_the_manifest(tmp_path):
    recorded = json.loads((GOLDEN / "fingerprint.json").read_text())
    host = host_fingerprint()
    if host != recorded:
        pytest.skip(f"manifest recorded on {recorded}, this host is {host}")
    want = {}
    for line in (GOLDEN / "stock.sha256").read_text().splitlines():
        digest, name = line.split("  ", 1)
        want[name] = digest
    out = tmp_path / "stock"
    subprocess.run([sys.executable, str(ROOT / "tools" / "stock_outputs.py"), str(out)], check=True,
                   capture_output=True, timeout=300)
    got = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file() and not path.relative_to(out).as_posix().startswith("cli/help-")
    }
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
