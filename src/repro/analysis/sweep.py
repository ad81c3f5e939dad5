"""Generic parameter-sweep utilities.

Several analyses want "run this flow configuration over a grid of one
or two parameters and collect a metric" — the optmem sweep, pacing
sweeps, kernel ladders, and user what-ifs.  :func:`sweep1d` and
:func:`sweep2d` capture that pattern once, returning labelled records
that render as tables or feed further analysis.  Points run inline,
in grid order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = ["SweepPoint", "SweepResult", "sweep1d", "sweep2d"]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point and its measured metrics."""

    params: dict
    metrics: dict


@dataclass
class SweepResult:
    """All points of a sweep, with table rendering."""

    name: str
    points: list[SweepPoint] = field(default_factory=list)

    def column(self, key: str) -> list:
        """Metric (or parameter) values in sweep order."""
        out = []
        for p in self.points:
            if key in p.metrics:
                out.append(p.metrics[key])
            else:
                out.append(p.params.get(key))
        return out

    def best(self, metric: str, maximize: bool = True) -> SweepPoint:
        chooser = max if maximize else min
        return chooser(self.points, key=lambda p: p.metrics[metric])

    def render(self) -> str:
        if not self.points:
            return f"{self.name}: (empty sweep)"
        # Points may carry heterogeneous key sets (a measure that only
        # reports some metrics at some grid points); headers are the
        # first-seen union, missing cells render empty.
        param_keys: list[str] = []
        metric_keys: list[str] = []
        for p in self.points:
            param_keys += [k for k in p.params if k not in param_keys]
            metric_keys += [k for k in p.metrics if k not in metric_keys]

        def cell(value) -> str:
            if value is None:
                return ""
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        headers = param_keys + metric_keys
        rows = [
            [cell(p.params.get(k)) for k in param_keys]
            + [cell(p.metrics.get(k)) for k in metric_keys]
            for p in self.points
        ]
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)
        ]
        lines = [
            self.name,
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines += [" | ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
        return "\n".join(lines)


def _run_grid(
    name: str, measure: Callable[..., dict], grid: list[dict]
) -> SweepResult:
    return SweepResult(
        name=name,
        points=[
            SweepPoint(params=params, metrics=measure(**params))
            for params in grid
        ],
    )


def sweep1d(
    name: str,
    param: str,
    values: Iterable,
    measure: Callable[..., dict],
) -> SweepResult:
    """Run ``measure(param=value)`` over the grid.

    ``measure`` returns a dict of metrics for each point.
    """
    grid = [{param: value} for value in values]
    return _run_grid(name, measure, grid)


def sweep2d(
    name: str,
    param_a: str,
    values_a: Iterable,
    param_b: str,
    values_b: Iterable,
    measure: Callable[..., dict],
) -> SweepResult:
    """Run ``measure`` over the cross product of two parameter grids."""
    values_b = list(values_b)
    grid = [
        {param_a: a, param_b: b} for a in values_a for b in values_b
    ]
    return _run_grid(name, measure, grid)
