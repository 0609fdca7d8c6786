import pytest
from hypothesis import HealthCheck, given, settings, strategies as st


@settings(max_examples=1, database=None, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.text(min_size=1, max_size=1))
def _draw_one_character(text):
    pass


@pytest.fixture(scope="session", autouse=True)
def unicode_table():
    # The first st.text() draw in a fresh checkout builds Hypothesis's
    # unicode table (about 1.5 s; later runs read it from .hypothesis/).
    # Drawn inside a test, it fails that test's HealthCheck.too_slow.
    _draw_one_character()
