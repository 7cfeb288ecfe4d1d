"""leonav: constellation trade studies for LEO satellite navigation.

Quantifies the core trades of broadcasting navigation signals from low
Earth orbit instead of MEO: global dilution-of-precision statistics for
polar Walker constellations, free-space path-loss and footprint
advantages, jamming and material-penetration margins, and payload power
budgets.
"""

__version__ = "0.1.0"
