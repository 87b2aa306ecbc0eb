import pytest

from globkit import coherator as coh
from globkit import groups as G
from globkit import model as M


@pytest.fixture(scope="session")
def std4():
    return coh.stdlib(4)


@pytest.fixture(scope="session")
def std3():
    return coh.stdlib(3)


@pytest.fixture(scope="session")
def strict_models(std4):
    """The nine strict models the strict-models benchmark workload builds.

    Shared by the whole session: tests must not change them.
    """
    tower, bundle = std4
    specs = [M.KG1(G.symmetric(3)), M.KG1(G.cyclic(8)), M.KG1(G.quaternion8()),
             M.KG1(G.dihedral(4)), M.KAn(G.cyclic(4), 2), M.KAn(G.cyclic(2), 2),
             M.Discrete(3), M.XMod(G.inclusion_xmod(G.cyclic(4))),
             M.XMod(G.trivial_xmod(G.cyclic(2), G.cyclic(2)))]
    return [M.build_strict(spec, tower, bundle) for spec in specs]
