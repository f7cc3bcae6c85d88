import numpy as np
import pytest
from hypothesis import settings

from ergolab.skew import SkewSystem

# exact recursions on random schedules vary widely in run time per example
settings.register_profile("ergolab", deadline=None)
settings.load_profile("ergolab")


def _with_bit_reversal(system: SkewSystem) -> SkewSystem:
    """Set `system._rev`, the involution atom <-> tower position on the
    level-K atoms as an array: the oracle that tests (criterion 9 among
    them) hold the library's one-digit-at-a-time recursions against."""
    K = system.K
    u = np.arange(2**K, dtype=np.int64)
    r = np.zeros_like(u)
    for b in range(K):
        r |= ((u >> b) & 1) << (K - 1 - b)
    system._rev = r
    return system


@pytest.fixture(scope="session")
def mn_system() -> SkewSystem:
    """The default working system (K=20, L=16), shared across tests."""
    return _with_bit_reversal(SkewSystem(atom_level=20, boundary_cutoff=16))


@pytest.fixture(scope="session")
def mn_small() -> SkewSystem:
    """A small system (K=12, L=8) for brute-force comparisons."""
    return _with_bit_reversal(SkewSystem(atom_level=12, boundary_cutoff=8))
