"""Reading weighted graphs and writing results.

File conventions are deliberately plain:

* edge lists are UTF-8 lines ``x y w`` with positive decimal weights,
  whitespace-separated (commas are tolerated), ``#`` starts a comment,
  an optional header row is skipped; repeating a pair in either
  orientation adds the weights up;
* measures are lines ``x lam`` for points that should not carry the
  default unit mass;
* matrices go out as ``x,y,t,value`` (or ``x,y,value`` for
  time-independent ones) with floats printed as %.17g so a read-back
  reproduces the binary value;
* curves go out as tab-separated columns;
* machine-readable summaries go to ``report.json`` with a fixed key set.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import CenterNotFound, ParseError
from .space import Conductance, PointSpace, build_space, hop_distances

REPORT_KEYS = ("command", "n_points", "terms_used", "truncation_bound",
               "max_oracle_dev", "defects", "exit_reason")


def _data_lines(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _records(path, form: str):
    """(line number, fields) of each data line of path, split at whitespace
    and commas into as many fields as `form` names; a first line whose last
    field is not a number is a header row and skipped."""
    for k, (lineno, line) in enumerate(_data_lines(path)):
        parts = line.replace(",", " ").split()
        if len(parts) != len(form.split()):
            raise ParseError(
                f"{path}:{lineno}: expected '{form}', got {line!r}"
            )
        if k or _is_float(parts[-1]):
            yield lineno, parts


def load_edges(path):
    """Parse an edge-list file into (x, y, w) triples, keeping label order."""
    triples = []
    for lineno, (x, y, weight) in _records(path, "x y w"):
        try:
            w = float(weight)
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: weight {weight!r} is not a number"
            ) from None
        if not w > 0.0:
            raise ParseError(
                f"{path}:{lineno}: weight must be positive, got {weight}"
            )
        triples.append((x, y, w))
    if not triples:
        raise ParseError(f"{path}: no edges found")
    return triples


def load_measure(path, points):
    """Parse a measure CSV into a vector aligned with `points` (default 1)."""
    index = {p: i for i, p in enumerate(points)}
    lam = np.ones(len(points))
    for lineno, (x, value) in _records(path, "x lambda"):
        if x not in index:
            raise ParseError(
                f"{path}:{lineno}: point {x!r} does not occur in the "
                f"edge list"
            )
        try:
            lam[index[x]] = float(value)
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: measure {value!r} is not a number"
            ) from None
    return lam


def load_graph(edges_path, measure_path=None):
    """Build a measured space and its conductance from files.

    Every line contributes its weight to the unordered pair it names, so
    repeated edges (in either orientation) accumulate.
    """
    triples = load_edges(edges_path)
    points = []
    seen = set()
    for x, y, _ in triples:
        for p in (x, y):
            if p not in seen:
                seen.add(p)
                points.append(p)
    acc = {}  # in order of first mention
    for x, y, w in triples:
        key = (x, y) if (x, y) in acc or (y, x) not in acc else (y, x)
        acc[key] = acc.get(key, 0.0) + w
    lam = load_measure(measure_path, points) if measure_path else None
    return build_space(points, lam, [(x, y, w) for (x, y), w in acc.items()])


# -------------------------------------------------------------- subgraphs

def ball_truncate(space: PointSpace, conductance: Conductance, center,
                  radius: int):
    """Restrict to the induced subgraph on points within `radius` hops.

    Edges with either endpoint outside the ball are dropped entirely, and
    degrees are recomputed on the kept edges, so the truncated object is
    again a measured space in its own right.
    """
    try:
        c0 = space.index(center)
    except KeyError:
        raise CenterNotFound(f"center {center!r} is not a point of the space") \
            from None
    keep = np.nonzero(hop_distances(conductance, c0, radius) >= 0)[0]
    points = [space.points[i] for i in keep]
    W = conductance.matrix[np.ix_(keep, keep)]
    edges = [(points[i], points[j], float(W[i, j])) for i, j in zip(*np.nonzero(np.triu(W) > 0.0))]
    return build_space(points, space.lam[keep], edges)


def integer_line(radius: int, weight: float = 1.0):
    """The path graph on the integers -radius..radius with constant weights."""
    pts = list(range(-radius, radius + 1))
    edges = [(i, i + 1, weight) for i in pts[:-1]]
    return build_space(pts, None, edges)


# ---------------------------------------------------------------- writers

def fmt(v: float) -> str:
    return "%.17g" % float(v)


def write_matrix_csv(path, space: PointSpace, blocks):
    """Write (t, matrix) blocks as x,y[,t],value rows; t None drops the column."""
    blocks = list(blocks)
    with_time = any(t is not None for t, _ in blocks)
    lines = ["x,y,t,value" if with_time else "x,y,value"]
    for t, M in blocks:
        M = np.asarray(M)
        for i, x in enumerate(space.points):
            for j, y in enumerate(space.points):
                if with_time:
                    lines.append(f"{x},{y},{fmt(t)},{fmt(M[i, j])}")
                else:
                    lines.append(f"{x},{y},{fmt(M[i, j])}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path, space: PointSpace):
    """Read back a matrix file into {t: matrix} (key None if timeless)."""
    out = {}
    with_time = None
    for lineno, line in _data_lines(path):
        parts = [p.strip() for p in line.split(",")]
        if with_time is None:
            if parts in (["x", "y", "t", "value"], ["x", "y", "value"]):
                with_time = len(parts) == 4
                continue
            raise ParseError(f"{path}:{lineno}: missing header")
        if len(parts) != (4 if with_time else 3):
            raise ParseError(f"{path}:{lineno}: malformed row {line!r}")
        x, y = parts[0], parts[1]
        t = float(parts[2]) if with_time else None
        v = float(parts[-1])
        M = out.setdefault(t, np.zeros((space.n, space.n)))
        M[space.index(x), space.index(y)] = v
    return out


def write_plot_tsv(path, header, rows):
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, float) and not np.isfinite(v):
        return repr(v)
    return v


def write_report(path, report: dict):
    """Write report.json with the fixed key set, in order."""
    full = {k: _jsonable(report.get(k)) for k in REPORT_KEYS}
    if full["defects"] is None:
        full["defects"] = {}
    Path(path).write_text(json.dumps(full, indent=2) + "\n")
