import pytest

from cmfsep.blas import blas_threads, set_blas_threads


@pytest.fixture
def two_blas_threads():
    """BLAS at 2 threads for the test, whatever the machine's default,
    so that a fixed-basis solve of several segments runs on 2 threads;
    the count found is restored after."""
    entry = blas_threads()
    set_blas_threads(2)
    yield
    set_blas_threads(entry)
