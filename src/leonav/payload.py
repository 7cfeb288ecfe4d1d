"""Navigation payload power budgets.

Scales a heritage MEO navigation payload (clocks, signal generation,
power amplification) down to a small LEO broadcaster, then expresses the
result as the power needed for GNSS-equivalent received signal strength
given the LEO footprint advantage.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

from .schema import (
    EFFICIENCY, FINITE_AT_LEAST_ONE, NON_NEGATIVE, POSITIVE,
    _check, _count, _Record, _rule, _within,
)

#: Bounds of the payload figures a scenario may state: powers (W), the
#: power-amplifier efficiency, signal and clock counts, and the integration
#: overhead as a fraction of the payload power (up to +1,000 %).  At every
#: corner, and at every footprint gain the link bounds allow, each power
#: budget line stays finite and non-zero.
POWER_W = (1e-6, 1e6)
PA_EFFICIENCY = (0.01, 1.0)
MAX_UNITS = 1000
OVERHEAD = (0.0, 10.0)


@dataclass(frozen=True)
class ClockUnit(_Record, key="clock"):
    """One frequency-standard line item of the heritage budget."""

    name: str
    unit_power_w: float = _rule(MISSING, _within(*POWER_W))
    count: int = _rule(1, _count(MAX_UNITS))


def clock_budget_w(clocks: tuple[ClockUnit, ...]) -> float:
    """Total clock-suite power: sum of unit power times unit count."""
    return sum(c.unit_power_w * c.count for c in clocks)


def signal_generation_w(rf_output_w: float, pa_efficiency: float) -> float:
    """Bus power drawn to produce a given RF output at a PA efficiency."""
    _check(POSITIVE, rf_output_w=rf_output_w)
    _check(EFFICIENCY, pa_efficiency=pa_efficiency)
    return rf_output_w / pa_efficiency


def per_signal_bus_power_w(
    rf_output_w: float, n_signals: int, pa_efficiency: float
) -> float:
    """Bus power per broadcast signal: (RF output / efficiency) / signals."""
    _check(FINITE_AT_LEAST_ONE, n_signals=n_signals)
    return signal_generation_w(rf_output_w, pa_efficiency) / n_signals


def leo_payload_power_w(n_signals: int, per_signal_w: float, overhead: float) -> float:
    """Bus power of an n-signal LEO payload with integration overhead:
    n * per_signal * (1 + overhead)."""
    _check(FINITE_AT_LEAST_ONE, n_signals=n_signals)
    _check(POSITIVE, per_signal_w=per_signal_w)
    _check(NON_NEGATIVE, overhead=overhead)
    return n_signals * per_signal_w * (1.0 + overhead)


def gnss_equivalent_power_w(power_w: float, footprint_gain_db: float) -> float:
    """Power delivering GNSS-equivalent signal strength from LEO.

    Divides the payload power by the linear footprint gain; zero gain
    leaves it unchanged.
    """
    _check(POSITIVE, power_w=power_w)
    _check(NON_NEGATIVE, footprint_gain_db=footprint_gain_db)
    return power_w / 10.0 ** (footprint_gain_db / 10.0)
