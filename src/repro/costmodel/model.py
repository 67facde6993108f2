"""Linear bandwidth cost model for over-DHT indexes (paper §8).

Bandwidth is the scarce resource in P2P networks; the model charges

* ``i`` units per record moved between peers (grows with record size),
* ``j`` units per DHT-lookup (grows with network size: ``O(log N)`` hops).

Analytic per-split costs (Eqs. 1-2) and the saving ratio (Eq. 3) are
provided alongside a calculator for *measured* costs from an index's
maintenance ledger, so experiments can cross-check theory against the
simulation (experiment E11).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import CostLedger
from repro.errors import ConfigurationError

__all__ = ["LinearCostModel", "psi_lht", "psi_pht", "saving_ratio", "gamma"]


def psi_lht(theta_split: int, i: float, j: float) -> float:
    """Average LHT cost per leaf split (paper Eq. 1).

    One DHT-lookup (the remote child's put) plus moving half the bucket:
    ``Ψ_LHT = θ/2 · i + 1 · j``.
    """
    return 0.5 * theta_split * i + j


def psi_pht(theta_split: int, i: float, j: float) -> float:
    """Average PHT cost per leaf split (paper Eq. 2).

    Both children move (2 lookups, the whole bucket) and two B+-tree leaf
    links are repaired (2 more lookups): ``Ψ_PHT = θ · i + 4 · j``.
    """
    return theta_split * i + 4 * j


def gamma(theta_split: int, i: float, j: float) -> float:
    """The dimensionless ratio ``γ = θ·i / j`` (paper §8.2)."""
    if j <= 0:
        raise ConfigurationError("j must be positive")
    return theta_split * i / j


def saving_ratio(gamma_value: float) -> float:
    """LHT's maintenance saving over PHT (paper Eq. 3).

    ``1 - Ψ_LHT/Ψ_PHT = (γ/2 + 3) / (γ + 4)`` — which ranges from 75%
    (lookup-dominated, γ → 0) down to 50% (data-dominated, γ → ∞), the
    paper's "saves up to 75% (at least 50%)" claim.
    """
    if gamma_value < 0:
        raise ConfigurationError(f"gamma must be non-negative: {gamma_value}")
    return (0.5 * gamma_value + 3) / (gamma_value + 4)


@dataclass(frozen=True, slots=True)
class LinearCostModel:
    """A concrete (i, j) instantiation of the cost model."""

    record_move_cost: float = 1.0  # i
    lookup_cost: float = 1.0  # j

    def __post_init__(self) -> None:
        if self.record_move_cost < 0 or self.lookup_cost <= 0:
            raise ConfigurationError("require i >= 0 and j > 0")

    def ledger_cost(self, ledger: CostLedger) -> float:
        """Measured maintenance cost of an index run:
        ``moved · i + lookups · j``."""
        return (
            ledger.maintenance_records_moved * self.record_move_cost
            + ledger.maintenance_lookups * self.lookup_cost
        )

    def measured_saving_ratio(
        self, lht_ledger: CostLedger, pht_ledger: CostLedger
    ) -> float:
        """``1 - cost(LHT)/cost(PHT)`` from two measured ledgers."""
        pht_cost = self.ledger_cost(pht_ledger)
        if pht_cost == 0:
            raise ConfigurationError("PHT ledger has zero cost")
        return 1.0 - self.ledger_cost(lht_ledger) / pht_cost
