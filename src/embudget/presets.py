"""Locations of bundled experiment presets and synthetic traces."""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def paper_grid_path() -> Path:
    """The bundled 18-scenario experiment file (3 policies x 6 trace windows)."""
    return Path(resources.files("embudget") / "data" / "paper_grid.yaml")
