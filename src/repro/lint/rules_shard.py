"""SHARD001 — order-dependent cross-flow reductions and shared-array writes.

Sharding the flow arrays (ROADMAP item 1) splits every cross-flow
reduction into per-shard partials plus a merge.  Two code shapes break
byte-parity the moment that happens:

* **reductions over unordered containers** — ``sum`` over a dict or set
  iterates in hash/insertion order; partials merged across shards visit
  elements in a different order than a single process would, and float
  addition does not associate.  Positional containers (lists, arrays)
  reduce in index order and shard cleanly;
* **in-place mutation of caller-owned arrays** — a callee that writes
  into an array it was *passed* (``pace[i] = ...``, ``out=param``)
  works only while caller and callee share an address space; under
  sharding the write lands in a worker's copy and is silently lost, or
  worse, lands in shared memory from several shards at once.

Every function in ``sim/``, ``tcp/``, and ``runner/`` is checked, the
tick driver (``repro.sim.engine.run_engine``) included: its cross-flow
reductions fold positional block partials.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (
    FileContext,
    ProjectRule,
    Violation,
    dotted_name,
    register,
)
from typing import Iterable
from repro.lint.dataflow import is_dict_or_set_expr

__all__ = ["ShardSafetyRule"]

#: Subsystems that will run inside shards.
_SHARD_SCOPE = frozenset({"sim", "tcp", "runner"})

#: Reduction callables whose argument order determines the float result.
_REDUCERS = frozenset({"sum", "fsum", "math.fsum", "reduce", "functools.reduce"})


def _local_container_bindings(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
) -> dict[str, str]:
    """Names bound exactly once to a dict/set-valued expression.

    A second store demotes the name (it may have been rebound to a
    list); this is the same single-assignment discipline the string
    dataflow uses.
    """
    stores: dict[str, int] = {}
    values: dict[str, ast.expr] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            name = node.targets[0].id
            stores[name] = stores.get(name, 0) + 1
            values.setdefault(name, node.value)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and isinstance(
            node.target, ast.Name
        ):
            stores[node.target.id] = stores.get(node.target.id, 0) + 2
    out: dict[str, str] = {}
    for name, value in values.items():
        if stores.get(name) == 1 and is_dict_or_set_expr(value):
            out[name] = "dict/set"
    return out


def _is_sorted_wrapped(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("sorted", "list", "tuple")
        and bool(node.args)
        and (
            node.func.id == "sorted"
            or _is_sorted_wrapped(node.args[0])
        )
    )


@register
class ShardSafetyRule(ProjectRule):
    """SHARD001: no order-dependent reductions or caller-array writes in shardable code.

    Within ``sim/``, ``tcp/``, and ``runner/`` (the code a sharded
    campaign executes), the rule flags:

    * ``sum()``/``math.fsum()``/``functools.reduce()`` whose iterable is
      a dict or set — spelled directly, through a ``.keys()/.values()/
      .items()`` view, through a comprehension over one, or through a
      name the local dataflow resolved to one (``vals = {...}; sum(vals)``
      — the shape DET002's syntactic check cannot see);
    * ``+=``-style accumulation inside a ``for`` loop over a dict or
      set (the loop-shaped spelling of the same reduction), unless the
      iterable is wrapped in ``sorted(...)``;
    * writes into arrays the function was passed: subscript stores and
      augmented assignments on parameters, and ufunc calls with
      ``out=<parameter>``.  Mutating caller-owned storage is an
      address-space assumption that shared-memory sharding breaks.

    Genuine in-place protocols (a documented fold into a caller buffer)
    carry a per-line ``# repro: noqa-SHARD001`` or live in the committed
    deep-lint baseline.
    """

    code = "SHARD001"
    name = "shard-safe-reductions"
    deep = True
    description = (
        "Order-dependent reductions (sum/reduce over dicts or sets, "
        "loop accumulation over them) and in-place writes to "
        "caller-owned arrays break byte-parity under sharding; reduce "
        "over positional containers and return fresh arrays."
    )

    def check_project(
        self, ctxs: Iterable[FileContext]
    ) -> Iterator[Violation]:
        # Per-file logic, but a ProjectRule so it rides the --deep
        # gate with its siblings and sees the same file population.
        for ctx in sorted(ctxs, key=lambda c: str(c.path)):
            yield from self._check_file(ctx)

    def _check_file(self, ctx: FileContext) -> Iterator[Violation]:
        subsystem = ctx.subsystem
        if subsystem is not None and subsystem not in _SHARD_SCOPE:
            return
        yield from self._check_scope(ctx, ctx.tree, None)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, node, node)

    # -- one function (or the module body) ------------------------------

    def _check_scope(
        self,
        ctx: FileContext,
        scope: ast.AST,
        func: ast.FunctionDef | ast.AsyncFunctionDef | None,
    ) -> Iterator[Violation]:
        bindings = _local_container_bindings(
            func if func is not None else ctx.tree
        )
        params: set[str] = set()
        if func is not None:
            args = func.args
            params = {
                a.arg
                for a in list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            } - {"self", "cls"}

        body = func.body if func is not None else ctx.tree.body
        for stmt in body:
            # Module-level defs are their own scopes (checked by the
            # per-function pass); descending here would double-report.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in self._walk_scope(stmt):
                yield from self._check_node(ctx, node, bindings, params)

    @staticmethod
    def _walk_scope(root: ast.stmt) -> Iterator[ast.AST]:
        """Walk a statement without descending into nested functions."""
        work: list[ast.AST] = [root]
        while work:
            node = work.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                work.append(child)

    def _check_node(
        self,
        ctx: FileContext,
        node: ast.AST,
        bindings: dict[str, str],
        params: set[str],
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Call):
            yield from self._check_reduction(ctx, node, bindings)
            yield from self._check_out_kwarg(ctx, node, params)
        elif isinstance(node, ast.For):
            yield from self._check_loop_accumulation(ctx, node, bindings)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in params
                ):
                    yield ctx.violation(
                        node,
                        self.code,
                        f"writes into parameter {target.value.id!r}: "
                        f"mutating a caller-owned array assumes a shared "
                        f"address space, which sharding breaks; return a "
                        f"fresh array (or sanction the fold with a noqa)",
                    )

    def _check_reduction(
        self, ctx: FileContext, node: ast.Call, bindings: dict[str, str]
    ) -> Iterator[Violation]:
        fn = dotted_name(node.func)
        if fn is None or fn not in _REDUCERS:
            return
        arg_index = 1 if fn.endswith("reduce") else 0
        if len(node.args) <= arg_index:
            return
        iterable = node.args[arg_index]
        if isinstance(iterable, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            gens = iterable.generators
            if any(self._unordered(g.iter, bindings) for g in gens):
                yield ctx.violation(
                    node,
                    self.code,
                    f"{fn}() over a comprehension driven by a dict/set: "
                    f"element order is hash/insertion dependent, so the "
                    f"reduction is not shard-stable; iterate a sorted or "
                    f"positional container",
                )
            return
        if self._unordered(iterable, bindings):
            yield ctx.violation(
                node,
                self.code,
                f"{fn}() over a dict/set iterates in hash/insertion "
                f"order; per-shard partials would merge in a different "
                f"order than a single process — reduce over a sorted or "
                f"positional container",
            )

    def _check_loop_accumulation(
        self, ctx: FileContext, node: ast.For, bindings: dict[str, str]
    ) -> Iterator[Violation]:
        if not self._unordered(node.iter, bindings):
            return
        for sub in self._walk_scope(node):  # type: ignore[arg-type]
            if isinstance(sub, ast.AugAssign):
                yield ctx.violation(
                    sub,
                    self.code,
                    "accumulation inside a loop over a dict/set is an "
                    "order-dependent reduction; iterate sorted(...) or "
                    "a positional container",
                )

    def _check_out_kwarg(
        self, ctx: FileContext, node: ast.Call, params: set[str]
    ) -> Iterator[Violation]:
        for kw in node.keywords:
            if (
                kw.arg == "out"
                and isinstance(kw.value, ast.Name)
                and kw.value.id in params
            ):
                yield ctx.violation(
                    node,
                    self.code,
                    f"out={kw.value.id} writes the result into a "
                    f"caller-owned array; under sharding the write lands "
                    f"in the worker's copy — return the array instead",
                )

    @staticmethod
    def _unordered(iterable: ast.expr, bindings: dict[str, str]) -> bool:
        if _is_sorted_wrapped(iterable):
            return False
        return is_dict_or_set_expr(iterable, bindings)
