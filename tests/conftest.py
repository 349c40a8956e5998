import os

import numpy as np
import pytest
from hypothesis import settings

from wiretap.instances import reference_problem

# Derandomized under CI (GitHub Actions sets CI), so a failing example found
# there is found again locally with CI=1.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def ref_j1():
    return reference_problem(1)


@pytest.fixture(scope="session")
def ref_j2():
    return reference_problem(2)


@pytest.fixture(scope="session")
def ref_j3():
    return reference_problem(3)


def random_psd(rng, n, scale=1.0, ridge=0.0, rank=None):
    k = n if rank is None else rank
    b = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    m = b @ b.conj().T * (scale / n)
    m = m + ridge * scale * np.eye(n)
    return (m + m.conj().T) / 2.0
