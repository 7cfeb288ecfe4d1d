"""Navigation payload power budgets.

Scales a heritage MEO navigation payload (clocks, signal generation,
power amplification) down to a small LEO broadcaster, then expresses the
result as the power needed for GNSS-equivalent received signal strength
given the LEO footprint advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schema import _Record, _rule


@dataclass(frozen=True)
class ClockUnit(_Record, key="clock"):
    """One frequency-standard line item of the heritage budget."""

    name: str
    unit_power_w: float
    count: int = 1


@dataclass(frozen=True)
class PayloadHeritage(_Record, key="payload"):
    """Heritage MEO payload figures the LEO estimate scales from.

    Defaults describe a ~900 W navigation payload broadcasting ten
    signals, with 254-273 W of RF output at 51% power-amplifier
    efficiency and a two-rubidium, two-hydrogen-maser clock suite.
    """

    total_payload_w: float = 900.0
    rf_output_w_low: float = 254.0
    rf_output_w_high: float = 273.0
    pa_efficiency: float = _rule(0.51, "in (0, 1]", lambda v: 0.0 < v <= 1.0)
    n_signals: int = 10
    clocks: tuple[ClockUnit, ...] = (
        ClockUnit("rubidium", 35.0, 2),
        ClockUnit("hydrogen_maser", 70.0, 2),
    )

    def _check_across_fields(self) -> None:
        if self.rf_output_w_high < self.rf_output_w_low:
            raise ValueError(
                f"rf_output_w_high ({self.rf_output_w_high}) must be >= "
                f"rf_output_w_low ({self.rf_output_w_low})"
            )


def clock_budget_w(clocks: tuple[ClockUnit, ...]) -> float:
    """Total clock-suite power: sum of unit power times unit count."""
    return sum(c.unit_power_w * c.count for c in clocks)


def signal_generation_w(rf_output_w: float, pa_efficiency: float) -> float:
    """Bus power drawn to produce a given RF output at a PA efficiency."""
    if not 0.0 < rf_output_w < math.inf:
        raise ValueError(f"rf_output_w ({rf_output_w}) must be finite and strictly positive")
    if not 0.0 < pa_efficiency <= 1.0:
        raise ValueError(f"pa_efficiency ({pa_efficiency}) must lie in (0, 1]")
    return rf_output_w / pa_efficiency


def per_signal_bus_power_w(
    rf_output_w: float, n_signals: int, pa_efficiency: float
) -> float:
    """Bus power per broadcast signal: (RF output / efficiency) / signals."""
    if not 1 <= n_signals < math.inf:
        raise ValueError(f"n_signals ({n_signals}) must be finite and >= 1")
    return signal_generation_w(rf_output_w, pa_efficiency) / n_signals


def leo_payload_power_w(
    n_signals: int,
    per_signal_w: float,
    overhead_range: tuple[float, float],
) -> tuple[float, float]:
    """Bus-power range of an n-signal LEO payload with integration overhead.

    Returns (low, high) = n * per_signal * (1 + overhead) at the two
    overhead endpoints.
    """
    if not 1 <= n_signals < math.inf:
        raise ValueError(f"n_signals ({n_signals}) must be finite and >= 1")
    if not 0.0 < per_signal_w < math.inf:
        raise ValueError(f"per_signal_w ({per_signal_w}) must be finite and strictly positive")
    low, high = overhead_range
    if not 0.0 <= low <= high < math.inf:
        raise ValueError(
            f"overhead_range ({overhead_range}) must satisfy 0 <= low <= high < inf"
        )
    base = n_signals * per_signal_w
    return (base * (1.0 + low), base * (1.0 + high))


def gnss_equivalent_power_w(
    leo_total_w_range: tuple[float, float],
    footprint_gain_db_range: tuple[float, float],
) -> tuple[float, float]:
    """Power delivering GNSS-equivalent signal strength from LEO.

    Divides the upper (with-overhead) payload endpoint by the linear
    footprint gain at both gain endpoints, so the returned (low, high)
    pair brackets the with-overhead case across the gain range.  Zero
    gain leaves powers unchanged.
    """
    p_low, p_high = leo_total_w_range
    if not 0.0 < p_low <= p_high < math.inf:
        raise ValueError(
            f"leo_total_w_range ({leo_total_w_range}) must satisfy 0 < low <= high < inf"
        )
    g_low, g_high = footprint_gain_db_range
    if not 0.0 <= g_low <= g_high < math.inf:
        raise ValueError(
            f"footprint_gain_db_range ({footprint_gain_db_range}) must satisfy "
            f"0 <= low <= high < inf"
        )
    return (p_high / 10.0 ** (g_high / 10.0), p_high / 10.0 ** (g_low / 10.0))
