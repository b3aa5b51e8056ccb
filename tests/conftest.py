import math

import pytest
from hypothesis import HealthCheck, settings

from zerogap.certification import minimal_certified_length
from zerogap.explicit_formula import PRIME_FREE_RADIUS
from zerogap.extremal import selberg_minorant
from zerogap.lfunctions import bundled_example_path, load_lfunction

# quadrature-heavy properties blow any wall-clock deadline.  derandomize does
# not pin the examples: Hypothesis 6.155 also draws float literals harvested
# from src/, so adding or deleting a constant there can move a property test
# onto new inputs.  If it then fails on an input the previous code fails as
# well, the failure stays standing and is reported, not loosened away.
settings.register_profile(
    "numeric",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("numeric")

CERT_LENGTH = 10.0 * math.pi / math.log(2.0)


@pytest.fixture(scope="session")
def cert_minorant():
    half = CERT_LENGTH / 2.0
    return selberg_minorant(-half, half, PRIME_FREE_RADIUS)


@pytest.fixture(scope="session")
def minimal_lengths():
    # the two bisections test_minimal_length and acceptance criterion 8 both
    # check, on the small rectangle with step 1.0, in each convention
    return {
        convention: minimal_certified_length(
            4, PRIME_FREE_RADIUS, 1e-3, re_max=6.0, im_max=20.0, step=1.0,
            convention=convention)
        for convention in ("halved", "literal")
    }


@pytest.fixture(scope="session")
def bundled():
    return load_lfunction(bundled_example_path())
