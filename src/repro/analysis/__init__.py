"""Analysis helpers: plain-text table rendering."""

from .tables import format_table

__all__ = ["format_table"]
