"""Small formatting helpers shared by experiment reports."""

from __future__ import annotations

__all__ = ["format_seconds"]


def format_seconds(seconds: float) -> str:
    """Human scale: us/ms/s as appropriate."""
    if seconds < 0:
        return f"-{format_seconds(-seconds)}"
    if seconds == 0:
        return "0s"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    return f"{seconds / 60.0:.1f}min"
