import pytest
from hypothesis import settings

from ergolab.skew import SkewSystem

# exact recursions on random schedules vary widely in run time per example
settings.register_profile("ergolab", deadline=None)
settings.load_profile("ergolab")


@pytest.fixture(scope="session")
def mn_system() -> SkewSystem:
    """The default working system (K=20, L=16), shared across tests."""
    return SkewSystem(atom_level=20, boundary_cutoff=16)


@pytest.fixture(scope="session")
def mn_small() -> SkewSystem:
    """A small system (K=12, L=8) for brute-force comparisons."""
    return SkewSystem(atom_level=12, boundary_cutoff=8)
