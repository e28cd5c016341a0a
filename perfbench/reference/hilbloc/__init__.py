"""Exact localization toolkit for Hilbert schemes of points on toric surfaces."""
