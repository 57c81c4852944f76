"""File formats and report serialization.

Kernel files are a single structured-text object
``{"dim": d, "order": n, "entries": [{"idx": [i1 <= ... <= in], "val": v}]}``
with one entry per orbit representative; unsorted or out-of-range indices are
rejected on load.  Target files are ``{"name": ..., "params": {...}}`` for the
named measures (the file key for a rate parameter is ``"lambda"``) or
``{"name": "custom", "density": [[x, p], ...], "support": [l, u]}`` for a grid
density, interpolated monotonically in log-space.

All numeric output is rendered at 17 significant digits, so canonical files
round-trip byte-identically and seeded reports are reproducible
byte-for-byte.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .chaos import SymmetricKernel
from .targets import NAMED_TARGETS, named_target, target_from_density_grid

__all__ = [
    "dumps_struct",
    "format_float",
    "file_param_name",
    "load_samples",
    "save_kernel",
    "load_kernel",
    "kernel_to_dict",
    "save_target",
    "load_target",
    "save_samples",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = "1"

# file key -> constructor keyword (``lambda`` is reserved in Python)
_PARAM_TO_KW = {"lambda": "lam"}
_KW_TO_PARAM = {"lam": "lambda"}


def file_param_name(key):
    """The file-format spelling of a constructor keyword (lam -> lambda)."""
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


# --- kernels -------------------------------------------------------------------

def kernel_to_dict(kernel):
    """Canonical dict form: entries sorted by multi-index."""
    return {
        "dim": kernel.dim,
        "order": kernel.order,
        "entries": [
            {"idx": list(idx), "val": val}
            for idx, val in sorted(kernel.entries.items())
        ],
    }


def save_kernel(kernel, path):
    """Write the canonical kernel file; load(save(k)) is byte-identical."""
    with open(path, "w") as fh:
        fh.write(dumps_struct(kernel_to_dict(kernel)) + "\n")


def load_kernel(path):
    """Read and validate a kernel file."""
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("dim", "order", "entries"):
        if key not in doc:
            raise ValueError(f"kernel file: missing field '{key}'")
    dim, order = doc["dim"], doc["order"]
    if not (isinstance(dim, int) and dim >= 1):
        raise ValueError(f"kernel file: dim must be a positive integer, got {dim!r}")
    if not (isinstance(order, int) and order >= 0):
        raise ValueError(f"kernel file: order must be a nonnegative integer,"
                         f" got {order!r}")
    entries = {}
    for pos, e in enumerate(doc["entries"]):
        if not isinstance(e, dict) or "idx" not in e or "val" not in e:
            raise ValueError(f"kernel file: entry {pos} needs 'idx' and 'val'")
        idx = tuple(e["idx"])
        if any(not isinstance(i, int) for i in idx):
            raise ValueError(f"kernel file: entry {pos} idx must be integers")
        if idx in entries:
            raise ValueError(f"kernel file: duplicate idx {list(idx)}")
        entries[idx] = float(e["val"])
    try:  # the constructor checks each idx's length, sorting and range
        return SymmetricKernel(dim, order, entries)
    except ValueError as exc:
        raise ValueError(f"kernel file: {exc}") from None


# --- targets -------------------------------------------------------------------

def target_to_dict(target):
    """{"name", "params"} with file-spelled parameter keys, as reports show it."""
    return {"name": target.name,
            "params": {file_param_name(k): v for k, v in target.params.items()}}


def save_target(target, path):
    """Write a named target's file (custom grid targets are not re-dumpable)."""
    if target.name not in NAMED_TARGETS:
        raise ValueError(f"target {target.name!r} has no canonical file form")
    with open(path, "w") as fh:
        fh.write(dumps_struct(target_to_dict(target)) + "\n")


def load_target(path):
    """Build a TargetMeasure from a target file."""
    with open(path) as fh:
        doc = json.load(fh)
    if "name" not in doc:
        raise ValueError("target file: missing field 'name'")
    name = doc["name"]
    if name == "custom":
        if "density" not in doc or "support" not in doc:
            raise ValueError("target file: custom target needs 'density' and"
                             " 'support'")
        grid = _numbers(doc["density"], "'density'")
        if grid.ndim != 2 or grid.shape[1] != 2 or grid.shape[0] < 4:
            raise ValueError("target file: 'density' must be a grid of"
                             " at least 4 (x, p) pairs")
        lo, hi = _numbers(doc["support"], "'support'")
        return target_from_density_grid(grid[:, 0], grid[:, 1], (lo, hi))
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("target file: 'params' must be an object")
    kwargs = {_PARAM_TO_KW.get(k, k): float(_numbers(v, f"parameter {k!r}", ndim=0))
              for k, v in params.items()}
    return named_target(name, **kwargs)


def _numbers(value, what, ndim=None):
    """A JSON number, or nested lists of them, as a float array; a bool,
    string or null entry (or a shape of another ndim) raises ValueError."""
    entries = np.asarray(value, dtype=object)
    for v in entries.ravel():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"target file: {what} must hold numbers, got {v!r}")
    if ndim is not None and entries.ndim != ndim:
        raise ValueError(f"target file: {what} must be a number, got {value!r}")
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


def load_samples(path):
    """Read a sample dump back: (values array, header dict)."""
    header = {}
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                header[key.strip()] = val.strip()
            else:
                values.append(float(line))
    return np.asarray(values), header
