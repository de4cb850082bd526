import pytest

import secquant.solver


@pytest.fixture
def solve_calls(monkeypatch):
    """Record the (theta, sigma, crossover) of every lane of every threshold
    search the solver runs, in lane order.  Counts lanes, not calls or time."""
    calls = []
    search = secquant.solver._max_channel_divergences

    def counted(theta, sigma, rho):
        calls.extend(zip(theta.tolist(), sigma.tolist(), rho.tolist()))
        return search(theta, sigma, rho)

    monkeypatch.setattr(secquant.solver, "_max_channel_divergences", counted)
    return calls
