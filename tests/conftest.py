import ctypes
import os
from pathlib import Path

# one BLAS thread for the suite, as for the library (see routecoach/__init__.py),
# set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from routecoach import AgentSpec, grid_graph, hilly_graph, line_graph


def openblas_core() -> str:
    """The OpenBLAS kernel set numpy's bundled library chose, or ``unknown``.

    The pinned digests hold only with the SkylakeX kernels (see the README).
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    return f"openblas core: {openblas_core()}"


@pytest.fixture(scope="session")
def grid5():
    return grid_graph(5)


@pytest.fixture(scope="session")
def hilly():
    return hilly_graph()


@pytest.fixture()
def line():
    return line_graph((1.0, 1.0))


@pytest.fixture()
def line_specs():
    return (AgentSpec(agent_id=0, start=0, dest=2),)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
