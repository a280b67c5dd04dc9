"""Bundled scenario presets — the paper's sweeps (and test scales) as data.

Every ``*.yaml`` file in this directory is a self-contained scenario (or
scenario grid) validated by CI (``repro scenario validate``) and loadable by
name from the CLI (``repro scenario run fig9-11-small``).  The catalog:

``fig9-11-paper``
    The full Figures 9–11 study at the published Table 4 scale: all 21
    Table 8 combinations, five schemes, the complete CC(Best) probability
    sweep.  One to two minutes in one process with the C kernel — the
    archival preset.
``fig9-11-small``
    The same sweep at the laptop ``small`` scale with the fast CC sweep —
    flag-equivalent to ``repro sweep`` (and hash-identical to it).
``smoke-tiny``
    One C5 combination at ``tiny`` scale — the conformance/CI smoke
    scenario, flag-equivalent to ``repro --scale tiny --seed 7 sweep
    --classes C5 --combos-per-class 1``.
``generated-demo``
    Seeded random mixes drawn from the Table 6 class pools — workloads
    beyond the 26-program registry.
``epoch-sensitivity``
    A grid over SNUG's Stage I epoch length — the Section 5.4 ablation
    shape, expanded to one scenario per epoch value.

Preset names are the file stems; :func:`preset_path` resolves them.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from ...common.errors import ConfigError

__all__ = ["PRESET_DIR", "preset_names", "preset_path"]

#: Directory holding the bundled ``*.yaml`` presets.
PRESET_DIR = Path(__file__).resolve().parent


def preset_names() -> List[str]:
    """Stems of every bundled preset file, sorted."""
    return sorted(p.stem for p in PRESET_DIR.glob("*.yaml"))


def preset_path(name: str) -> Path:
    """Resolve a preset name (file stem) to its bundled file."""
    path = PRESET_DIR / f"{name}.yaml"
    if not path.is_file():
        raise ConfigError(
            f"unknown scenario preset {name!r}; bundled presets: "
            f"{', '.join(preset_names())}"
        )
    return path
