import json

import pytest

from normsurf.fixtures import (disconnected_link, disconnected_pair,
                               fig8_closed, fig8_complement, fig8_link,
                               solid_torus)
from normsurf.hilbert import enumerate_fundamental
from normsurf.matching import build_matching_system, restrict_to_link
from normsurf.triangulation import Triangulation, compute_skeleton


@pytest.fixture(scope="session")
def tri10():
    return fig8_complement()


@pytest.fixture(scope="session")
def doubled10(tri10):
    """Two disjoint copies of the ten-tetrahedron complement, names
    prefixed "A." and "B." as in fixtures.disconnected_pair."""
    doc = json.loads(tri10.to_json())
    names, gluings = [], []
    for prefix in ("A.", "B."):
        names += [prefix + n for n in doc["tetrahedra"]]
        gluings += [{"tet": prefix + g["tet"], "face": g["face"],
                     "to": {"tet": prefix + g["to"]["tet"],
                            "verts": g["to"]["verts"]}}
                    for g in doc["gluings"]]
    return Triangulation.from_json(
        json.dumps({"tetrahedra": names, "gluings": gluings}))


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
