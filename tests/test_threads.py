"""``import routecoach`` starts numpy's BLAS with one thread, unless the caller chose otherwise."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# After the given imports, print OpenBLAS's thread count (-1 when numpy's BLAS
# is not an OpenBLAS that can be asked) and the OPENBLAS_NUM_THREADS setting.
PROBE = """
import ctypes, glob, os
import numpy
count = -1
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, name):
            count = getattr(lib, name)()
            break
print(count, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def blas_threads(imports: str, **env_vars: str) -> tuple[int, str | None]:
    """(thread count, OPENBLAS_NUM_THREADS) in a fresh interpreter after ``imports``."""
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", imports + "\n" + PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    count, setting = int(out[0]), out[1]
    if count < 0:
        pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count can be read")
    return count, None if setting == "None" else setting


def test_import_defaults_to_one_thread():
    assert blas_threads("import routecoach") == (1, "1")


def test_a_setting_made_before_import_is_kept():
    # numpy alone under the same setting: a host may have fewer cores than asked for
    assert blas_threads("import routecoach", OPENBLAS_NUM_THREADS="2") == \
        blas_threads("", OPENBLAS_NUM_THREADS="2")
    assert blas_threads("import routecoach", OPENBLAS_NUM_THREADS="2")[1] == "2"


def test_numpy_imported_first_keeps_its_thread_count():
    assert blas_threads("import numpy\nimport routecoach")[0] == blas_threads("")[0]
