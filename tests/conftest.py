import hypothesis
import pytest

from oddcycle import matching_polynomial, max_real_root
from oddcycle import roots

hypothesis.settings.register_profile(
    "exact",
    derandomize=True,
    deadline=None,
    max_examples=60,
)
hypothesis.settings.load_profile("exact")


@pytest.fixture
def cold_memos():
    """Empty the m(G), root and Sturm chain memos, so a test sees only its
    own calls."""
    matching_polynomial.cache_clear()
    max_real_root.cache_clear()
    roots._sturm_chain.cache_clear()
