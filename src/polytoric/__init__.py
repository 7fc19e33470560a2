"""Exact verification that the inner-minor ideal of a rectangle-minus-
rectangle polyomino equals the toric ideal of its vertex labelling."""

__version__ = "0.1.0"
