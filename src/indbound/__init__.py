"""Certified verification of the independent-set counting bound for graphs
of maximum degree at most five."""

__version__ = "0.3.0"
