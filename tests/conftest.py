from fractions import Fraction

import pytest

from sturmjsr.family import MatrixFamily, builtin_bousch_mairesse, builtin_hmst, builtin_kozyakin
from sturmjsr.linalg2 import QuadExt

Fr = Fraction
Q = QuadExt.make

# Exact parameter intervals of the unipotent integer family for small
# denominators, frozen from the published closed forms.  Both the unit
# tests and the acceptance suite compare against these with zero
# tolerance.
EXACT_INTERVALS = {
    Fr(1, 2): (Q(Fr(4, 5)), Q(Fr(5, 4))),
    Fr(3, 7): (
        Q(5, Fr(127, 168), 42) ** 7 / Q(13, 2, 42) ** 5,
        Q(13, 2, 42) ** 2 / Q(Fr(3, 2), Fr(29, 168), 42) ** 7,
    ),
    Fr(2, 5): (
        Q(2, Fr(17, 24), 6) ** 5 / Q(5, 2, 6) ** 3,
        Q(5, 2, 6) ** 2 / Q(Fr(3, 2), Fr(11, 24), 6) ** 5,
    ),
    Fr(1, 3): (Q(Fr(69, 72), Fr(-16, 72), 3), Q(Fr(1656, 1331), Fr(-384, 1331), 3)),
    Fr(2, 7): (
        Q(Fr(5, 2), Fr(41, 40), 5) ** 7 / Q(9, 4, 5) ** 4,
        Q(9, 4, 5) ** 3 / Q(2, Fr(31, 40), 5) ** 7,
    ),
    Fr(1, 4): (
        Q(Fr(496, 441), Fr(-64, 441), 21),
        Q(Fr(13671, 10000), Fr(-1764, 10000), 21),
    ),
    Fr(1, 5): (
        Q(Fr(10612, 8192), Fr(-5261, 8192), 2),
        Q(Fr(43466752, 28629151), Fr(-21549056, 28629151), 2),
    ),
    Fr(1, 6): (
        Q(1, Fr(1, 15), 5) ** 6 / Q(Fr(7, 2), Fr(3, 2), 5),
        Q(Fr(7, 2), Fr(3, 2), 5) ** 5 / Q(3, Fr(19, 15), 5) ** 6,
    ),
    Fr(1, 7): (
        Q(1, Fr(1, 30), 15) ** 7 / Q(4, 1, 15),
        Q(4, 1, 15) ** 6 / Q(Fr(7, 2), Fr(13, 15), 15) ** 7,
    ),
}


@pytest.fixture(scope="session")
def exact_intervals():
    return EXACT_INTERVALS


@pytest.fixture(scope="session")
def hmst():
    return builtin_hmst()


@pytest.fixture(scope="session")
def kozyakin():
    return builtin_kozyakin(Fraction(1, 2), 1, 1, Fraction(1, 2))


@pytest.fixture(scope="session")
def bousch_mairesse():
    return builtin_bousch_mairesse(1, "0.5", "0.5")


@pytest.fixture(scope="session")
def kozyakin_type():
    """An exact family of Kozyakin type given by a config, as a user would."""
    return MatrixFamily.from_config({
        "label": "kozyakin-type",
        "A0": [["2/3", "2"], ["0", "1"]],
        "A1": [["1", "0"], ["1", "1/3"]],
        "asserted_sturmian": True,
    })
