"""The feature dictionary: every emittable feature with its defining formula
and category, flagged active or inactive under a given config. Names and
formulas are read from the family declarations (config.feature_families).

Regenerating the dictionary from the same config yields identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .config import PipelineConfig, feature_families
from .textio import write_text


@dataclass(frozen=True)
class FeatureEntry:
    name: str
    category: str
    formula: str
    active: bool


def feature_dictionary(cfg: PipelineConfig) -> tuple[FeatureEntry, ...]:
    """Every feature the toolkit can emit, in emission order, with the
    config's toggles reflected in the active flags."""
    return tuple(FeatureEntry(name, family.category, formula, on)
                 for on, family in feature_families(cfg)
                 for name, formula in family.features)


def featdict_text(cfg: PipelineConfig) -> str:
    lines = ["name\tcategory\tactive\tformula"]
    for entry in feature_dictionary(cfg):
        flag = "active" if entry.active else "inactive"
        lines.append(f"{entry.name}\t{entry.category}\t{flag}\t{entry.formula}")
    return "\n".join(lines) + "\n"


def write_featdict(cfg: PipelineConfig, path: str | Path) -> None:
    """Write the dictionary atomically; UnwritableOutput if that fails."""
    write_text(path, featdict_text(cfg))
