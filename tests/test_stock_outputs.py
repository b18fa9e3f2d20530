"""The stock outputs of ``tools/stock_outputs.py`` and the benchmark slot
outputs of ``tools/slot_hashes.py`` against their recorded SHA-256
manifests.

``tests/golden/stock.sha256`` holds the hash of every file
``stock_outputs.py`` writes except the ``cli/help-*`` texts, which carry
no numbers.  ``tests/golden/slots.sha256`` holds the hash of every
``stream_small``, ``deep_filter`` and ``cli_requests`` slot output at
seeds 1-3, as ``slot_hashes.py`` prints it.  Their last bits depend on
the Python and numpy versions and on the kernels OpenBLAS picks for the
CPU, so ``tests/golden/fingerprint.json`` records those three; on
another host both tests skip and name both.
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


def parse_manifest(text: str) -> dict:
    """Name -> digest from ``sha256sum``-style lines."""
    return {key: digest for digest, key in (line.split("  ", 1) for line in text.splitlines())}


def recorded_manifest(name: str) -> dict:
    """A golden manifest; skips on another host."""
    recorded = json.loads((GOLDEN / "fingerprint.json").read_text())
    host = host_fingerprint()
    if host != recorded:
        pytest.skip(f"manifest recorded on {recorded}, this host is {host}")
    return parse_manifest((GOLDEN / name).read_text())


def test_stock_outputs_match_the_manifest(tmp_path):
    want = recorded_manifest("stock.sha256")
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


def test_benchmark_slot_outputs_match_the_manifest():
    want = recorded_manifest("slots.sha256")
    printed = subprocess.run([sys.executable, str(ROOT / "tools" / "slot_hashes.py")], check=True,
                             capture_output=True, text=True, timeout=300).stdout
    got = parse_manifest(printed)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []
