"""Coupled multi-layer attention tagger for aspect and opinion extraction."""

__version__ = "0.1.0"
