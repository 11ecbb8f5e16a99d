"""Shared AST-analysis infrastructure for the astcheck rule families.

One :class:`ModuleAnalysis` is built per source file and handed to every
rule family, so the file is tokenized and its symbol tables are built
exactly once no matter how many rules run. It provides:

* **comment extraction** — ``tokenize``-accurate per-line comments (the
  annotation conventions below live in comments, so regexing raw lines
  would mis-fire inside string literals);
* **axis annotations** — ``# axes: (P, G, K, B)`` / ``# axes: (G, K) nan``
  comments attached to assignments and dataclass fields, parsed into
  :class:`AxisSpec` values (the tensor-axis rules' ground truth);
* **function tables** — every function/method with its qualified name,
  parameter list, and marker comments (``# obs: warm``).

Everything here is deliberately *per-module*: analyses never follow
imports, which keeps a file's findings a pure function of its own bytes —
the property the content-hash analysis cache and ``repro check --jobs``
both rely on.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "AxisSpec",
    "FunctionInfo",
    "ModuleAnalysis",
    "iter_statements",
    "parse_axis_comment",
]

#: ``# axes: (P, G, K, B)`` with an optional trailing ``nan`` marker
#: declaring that the array may contain NaN cells (catalog masking).
_AXES_RE = re.compile(
    r"#\s*axes:\s*\((?P<axes>[^)]*)\)\s*(?P<nan>,?\s*nan)?", re.IGNORECASE
)
_AXIS_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
#: ``# obs: warm`` (and future ``# obs: <marker>`` annotations).
_OBS_MARKER_RE = re.compile(r"#\s*obs:\s*(?P<marker>[a-z][a-z\-]*)")


@dataclass(frozen=True)
class AxisSpec:
    """The declared (or inferred) named-axis signature of one array.

    ``axes`` holds axis names in storage order; the broadcast placeholder
    axis (``None`` inserted via ``arr[:, None]``) is the name ``"1"``.
    ``nan`` marks arrays that may legitimately contain NaN cells (the
    sweep tensors' unpriceable-candidate masking) — consumers must reduce
    them with nan-aware ops or mask first.
    """

    axes: Tuple[str, ...]
    nan: bool = False

    @property
    def rank(self) -> int:
        return len(self.axes)

    def render(self) -> str:
        suffix = " nan" if self.nan else ""
        return f"({', '.join(self.axes)}){suffix}"


def parse_axis_comment(comment: str) -> Optional[AxisSpec]:
    """Parse ``# axes: (G, K, B) nan`` into an :class:`AxisSpec`.

    Returns None when the comment carries no axes annotation; malformed
    axis lists (empty, or names that are not identifiers) also return
    None — the annotation is then simply absent, never a crash.
    """
    match = _AXES_RE.search(comment)
    if match is None:
        return None
    names = [token.strip() for token in match.group("axes").split(",")]
    names = [name for name in names if name]
    if not names or not all(_AXIS_NAME_RE.match(name) for name in names):
        return None
    return AxisSpec(axes=tuple(names), nan=match.group("nan") is not None)


@dataclass
class FunctionInfo:
    """One function or method: its node, identity, and annotations."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef
    qualname: str  #: dotted path within the module (``Class.method``)
    params: Tuple[str, ...]
    markers: FrozenSet[str] = frozenset()  #: ``# obs: <marker>`` tags

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def iter_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Yield statements in source order, descending into compound blocks.

    Nested function and class definitions are yielded (so rules can see
    them) but not descended into — their bodies are separate scopes with
    their own dataflow.
    """
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in ("body", "orelse", "finalbody"):
            yield from iter_statements(getattr(stmt, block, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            yield from iter_statements(handler.body)


def _extract_comments(source: str) -> Dict[int, Tuple[str, bool]]:
    """Per-line comments: lineno -> (text, is_own_line).

    ``is_own_line`` is True when the comment is the only thing on its
    line — the form that annotates the *next* statement rather than its
    own line. Tokenization errors (the file already parsed, so these are
    edge cases like odd encodings) degrade to "no comments" rather than
    failing the whole check.
    """
    comments: Dict[int, Tuple[str, bool]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                own_line = tok.line[: tok.start[1]].strip() == ""
                comments[tok.start[0]] = (tok.string, own_line)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


class ModuleAnalysis:
    """Symbol, annotation, and comment tables for one parsed module."""

    def __init__(self, tree: ast.Module, source: str, path: str) -> None:
        self.tree = tree
        self.source = source
        self.path = path
        self.comments = _extract_comments(source)
        self.functions: List[FunctionInfo] = []
        #: dataclass/class attribute -> axis spec, collected from
        #: ``name: np.ndarray  # axes: (...)`` field annotations anywhere
        #: in the module. Attribute lookups (``result.cost_usd``) resolve
        #: through this table, so specs travel with the field name.
        self.field_axes: Dict[str, AxisSpec] = {}
        #: local aliases for the numpy module (``import numpy as np``).
        self.numpy_aliases: Set[str] = set()
        self._index_module(tree)

    # -- construction ---------------------------------------------------
    def _index_module(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self.numpy_aliases.add(alias.asname or "numpy")
        self._index_scope(tree.body, prefix="")

    def _index_scope(self, body: Sequence[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                self.functions.append(FunctionInfo(
                    node=stmt,
                    qualname=qualname,
                    params=self._param_names(stmt),
                    markers=self._markers_for(stmt),
                ))
                self._index_scope(stmt.body, prefix=f"{qualname}.")
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(stmt, prefix)
                self._index_scope(stmt.body, prefix=f"{prefix}{stmt.name}.")

    def _index_class(self, node: ast.ClassDef, prefix: str) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                spec = self.axis_annotation(stmt)
                if spec is not None:
                    self.field_axes[stmt.target.id] = spec

    @staticmethod
    def _param_names(node: ast.AST) -> Tuple[str, ...]:
        args = node.args
        params = [a.arg for a in getattr(args, "posonlyargs", [])]
        params += [a.arg for a in args.args]
        if args.vararg:
            params.append(args.vararg.arg)
        params += [a.arg for a in args.kwonlyargs]
        if args.kwarg:
            params.append(args.kwarg.arg)
        return tuple(params)

    def _markers_for(self, node: ast.AST) -> FrozenSet[str]:
        """``# obs: <marker>`` tags on the def line or just above it.

        "Just above" means the own-line comment immediately preceding the
        function's first decorator (or the ``def`` itself when there are
        none) — where a human would write the annotation.
        """
        first_line = min(
            [node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])]
        )
        markers: Set[str] = set()
        for lineno in (first_line - 1, node.lineno):
            entry = self.comments.get(lineno)
            if entry is None:
                continue
            text, own_line = entry
            if lineno == first_line - 1 and not own_line:
                continue
            for match in _OBS_MARKER_RE.finditer(text):
                markers.add(match.group("marker"))
        return frozenset(markers)

    # -- annotation lookup ---------------------------------------------
    def axis_annotation(self, stmt: ast.stmt) -> Optional[AxisSpec]:
        """The axes annotation attached to one statement, if any.

        Looks at trailing comments on any line the statement spans (a
        multi-line ``np.stack(...)`` call annotates its first line), then
        at an own-line comment directly above the statement.
        """
        end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
        for lineno in range(stmt.lineno, end + 1):
            entry = self.comments.get(lineno)
            if entry is not None:
                spec = parse_axis_comment(entry[0])
                if spec is not None:
                    return spec
        above = self.comments.get(stmt.lineno - 1)
        if above is not None and above[1]:
            return parse_axis_comment(above[0])
        return None

    def is_numpy(self, node: ast.expr) -> bool:
        """Whether ``node`` is a reference to the numpy module."""
        return isinstance(node, ast.Name) and (
            node.id in self.numpy_aliases or node.id in ("np", "numpy")
        )
