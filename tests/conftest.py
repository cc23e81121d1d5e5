import hypothesis
import pytest

from oddcycle import IntPolynomial, matching_polynomial, max_real_root

hypothesis.settings.register_profile(
    "exact",
    derandomize=True,
    deadline=None,
    max_examples=60,
)
hypothesis.settings.load_profile("exact")


@pytest.fixture
def cold_memos():
    """Empty the m(G) and root memos, so a test sees only its own calls."""
    matching_polynomial.cache_clear()
    max_real_root.cache_clear()


@pytest.fixture
def remainder_sequences(monkeypatch):
    """Record (self, other) for every IntPolynomial.remainder_sequence call.

    A Sturm chain is one call with other = self'.  ``gcd`` makes one call
    with the higher degree first, and ``AlgebraicRoot.sign_of`` makes one
    through ``gcd`` and one with other = poly' * q."""
    calls = []
    original = IntPolynomial.remainder_sequence

    def recording(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(IntPolynomial, "remainder_sequence", recording)
    return calls
