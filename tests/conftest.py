import pytest

from recdiv.recurrence import RecurrenceSpec

# x^3 - x^2 - x - 1, lowest degree first
TRIB_POLY = (-1, -1, -1, 1)


@pytest.fixture(scope="session")
def tribonacci() -> RecurrenceSpec:
    return RecurrenceSpec.from_char_poly([1, -1, -1, -1], [1, 1, 1])
