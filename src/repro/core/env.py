"""Environment-variable parsing with actionable error messages.

The benchmark suite's scale knobs (listed in ``benchmarks/conftest.py``)
come from the environment; a bare ``float(os.environ[...])`` turns a
typo'd value into a context-free ``ValueError: could not convert string
to float: 'fast'`` with no hint of *which* variable was malformed.
These helpers raise errors that name the variable and the offending
value, and treat an empty string the same as unset.
"""

from __future__ import annotations

import os

__all__ = ["env_float", "env_int"]


def env_float(name: str, default: float) -> float:
    """``float(os.environ[name])`` with a clear error naming ``name``."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return float(default)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name}={raw!r} is not a valid float "
            f"(unset it or use e.g. {name}={float(default)!r})"
        ) from None


def env_int(name: str, default: int) -> int:
    """``int(os.environ[name])`` with a clear error naming ``name``."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return int(default)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {name}={raw!r} is not a valid integer "
            f"(unset it or use e.g. {name}={int(default)!r})"
        ) from None
