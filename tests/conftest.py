import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from tensim import decision

# make tests/reference.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _fresh_scaling_cache():
    """Every test starts with no shape's scaling solve kept from an earlier one."""
    decision._full_supports.cache_clear()
