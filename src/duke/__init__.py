"""Subset selection by weighted k-center: pick k points that jointly cover
the ground set and concentrate on low-margin (uncertain) points."""

__version__ = "0.1.0"
