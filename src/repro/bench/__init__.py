"""Shared benchmark support: index construction and measurement."""
