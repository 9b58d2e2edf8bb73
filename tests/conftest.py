import pytest

from normsurf.fixtures import (disconnected_link, disconnected_pair,
                               fig8_closed, fig8_complement, fig8_link,
                               solid_torus)
from normsurf.hilbert import enumerate_fundamental
from normsurf.matching import build_matching_system, restrict_to_link
from normsurf.triangulation import compute_skeleton


@pytest.fixture(scope="session")
def tri10():
    return fig8_complement()


@pytest.fixture(scope="session")
def tri12():
    return fig8_closed()


@pytest.fixture(scope="session")
def skel10(tri10):
    return compute_skeleton(tri10)


@pytest.fixture(scope="session")
def skel12(tri12):
    return compute_skeleton(tri12)


@pytest.fixture(scope="session")
def sys12(tri12):
    return build_matching_system(tri12)


@pytest.fixture(scope="session")
def restricted12(tri12, sys12):
    return restrict_to_link(sys12, tri12, fig8_link())


@pytest.fixture(scope="session")
def fund_restricted(restricted12):
    return enumerate_fundamental(restricted12, admissible_only=True)


@pytest.fixture(scope="session")
def fund10(tri10):
    # the heaviest shared enumeration, about a second
    return enumerate_fundamental(build_matching_system(tri10),
                                 admissible_only=True)


@pytest.fixture(scope="session")
def disc_tri():
    return disconnected_pair()


@pytest.fixture(scope="session")
def disc_link():
    return disconnected_link()


@pytest.fixture(scope="session")
def fund_pair(disc_tri, disc_link):
    restricted = restrict_to_link(disc_tri.matching_system, disc_tri,
                                  disc_link)
    return enumerate_fundamental(restricted, admissible_only=True)


@pytest.fixture(scope="session")
def torus_tri():
    return solid_torus()


@pytest.fixture(scope="session")
def fund_torus(torus_tri):
    return enumerate_fundamental(torus_tri.matching_system,
                                 admissible_only=True)
