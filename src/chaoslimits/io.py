"""File formats and report serialization.

A target file holds a density grid,
``{"name": "custom", "density": [[x, p], ...], "support": [l, u]}``,
interpolated monotonically in log-space; a named law is never a file, but a
name and parameters (the CLI's ``--name`` and flags; reports and flags spell
the rate parameter ``"lambda"``).  Sample
dumps hold one float per line after ``# key: value`` header comments.

All numeric output is rendered at 17 significant digits, so every float
round-trips exactly and seeded reports are reproducible byte-for-byte.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .targets import target_from_density_grid

__all__ = [
    "dumps_struct",
    "format_float",
    "file_param_name",
    "load_target",
    "save_samples",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = "1"

# constructor keyword -> report and flag spelling (``lambda`` is reserved in Python)
_KW_TO_PARAM = {"lam": "lambda"}


def file_param_name(key):
    """The report and flag spelling of a constructor keyword (lam -> lambda)."""
    return _KW_TO_PARAM.get(key, key)


def format_float(x):
    """17-significant-digit decimal rendering (exact float round-trip)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def dumps_struct(obj, indent=0):
    """Serialize nested dict/list/scalar data as structured text (JSON syntax)
    with every float at 17 significant digits and keys in insertion order."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {dumps_struct(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [dumps_struct(v, indent + 2) for v in obj]
        if sum(len(s) for s in items) < 60 and all("\n" not in s for s in items):
            return "[" + ", ".join(items) + "]"
        return ("[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]")
    if isinstance(obj, np.ndarray):
        return dumps_struct(obj.tolist(), indent)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# --- targets -------------------------------------------------------------------

def target_to_dict(target):
    """{"name", "params"} with flag-spelled parameter keys, as reports show it."""
    return {"name": target.name,
            "params": {file_param_name(k): v for k, v in target.params.items()}}


def load_target(path):
    """Build a grid TargetMeasure from a target file."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("name") != "custom":
        raise ValueError('target file: expected a density grid ("name": "custom");'
                         " give a named law by --name")
    if "density" not in doc or "support" not in doc:
        raise ValueError("target file: custom target needs 'density' and 'support'")
    grid = _numbers(doc["density"], "'density'")
    if grid.ndim != 2 or grid.shape[1] != 2 or grid.shape[0] < 4:
        raise ValueError("target file: 'density' must be a grid of"
                         " at least 4 (x, p) pairs")
    lo, hi = _numbers(doc["support"], "'support'")
    return target_from_density_grid(grid[:, 0], grid[:, 1], (lo, hi))


def _numbers(value, what):
    """A JSON number, or nested lists of them, as a float array; a bool,
    string or null entry raises ValueError."""
    entries = np.asarray(value, dtype=object)
    for v in entries.ravel():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"target file: {what} must hold numbers, got {v!r}")
    return entries.astype(float)


# --- sample dumps ----------------------------------------------------------------

def save_samples(empirical, path):
    """One float per line, preceded by '# key: value' config-echo comments."""
    with open(path, "w") as fh:
        fh.write(f"# schema_version: {SCHEMA_VERSION}\n")
        for key, val in empirical.meta.items():
            fh.write(f"# {key}: {val}\n")
        fh.write(f"# count: {empirical.count}\n")
        fh.write(f"# clamp_fraction: {format_float(empirical.clamp_fraction)}\n")
        for v in empirical.values:
            fh.write(format_float(v) + "\n")

