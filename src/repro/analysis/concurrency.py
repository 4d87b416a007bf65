"""S-series rules: concurrency & atomicity self-analysis of the service layer.

Unlike every other stage, the CONCURRENCY rules do not look at user HDL —
they run over the framework's *own* Python (``ctx.py_sources``) and encode
the invariants ``repro.serve`` and ``repro.cache`` depend on:

- **S001** — a blocking call (``time.sleep``, sync file I/O, ``subprocess``,
  ``flock``) reachable from an ``async def`` / event-loop-confined code
  without ``run_in_executor``; plus the poll-loop variant (``time.sleep``
  inside a ``while`` loop of a class that owns a ``threading.Event`` it
  should be ``wait()``-ing on).
- **S002** — a lock or flock acquired outside ``with`` / ``try-finally``:
  an exception between acquire and release leaks the lock forever.
- **S003** — lock-order cycles in the statically-built acquisition graph
  across ``threading.Lock`` / ``asyncio.Lock`` / flock sites, seeded with
  the known fleet-lock → store-flock and member-state-lock → store-flock
  orderings (:data:`SEEDED_LOCK_ORDER`).
- **S004** — read-modify-write of an attribute shared between roles
  (scheduler-loop callbacks vs executor/job threads vs callers) with no
  dominating lock acquisition: a lost-update race.  Once every writer of
  such an attribute holds a lock, the read variant fires on lockless
  reads of it — they bypass the coherence protocol the writers
  established and can observe torn multi-field snapshots.
- **S005** — non-atomic publish in a multi-process class: rewriting a path
  other processes read without the tmp-file + ``os.replace`` idiom
  (``repro.serve.queue`` / ``repro.cache.store`` are the reference
  implementations), destructive unlinks with no republished state,
  unguarded ``json.loads`` of shared files, and rank-blind index
  revalidation.
- **S006** — fire-and-forget ``asyncio.create_task`` / ``ensure_future``
  whose result is never awaited or exception-handled.

The analysis is a deliberately conservative whole-program AST model
(:class:`_Program`): imports are resolved across the scanned source set
(including one re-export hop through package ``__init__`` modules), class
attributes are typed from ``threading.Lock()``-style construction sites,
annotations, and annotated constructor parameters, and call edges are
followed a few hops deep.  Lock identities are *symbolic*
(``path::Class.attr``) but carry their definition line, which is what lets
the runtime sanitizer (:mod:`repro.analysis.sanitize`) map the locks it
observes back onto this graph and cross-check the two.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.analysis.findings import Severity
from repro.analysis.registry import RuleContext, Stage, Violation, rule

__all__ = [
    "LockGraph",
    "LockNode",
    "SEEDED_LOCK_ORDER",
    "collect_py_sources",
    "static_lock_graph",
]


# --------------------------------------------------------------------------
# source collection
# --------------------------------------------------------------------------


def collect_py_sources(root: str | Path | None = None) -> list[tuple[str, str]]:
    """``(relative posix path, text)`` pairs for every ``.py`` under *root*.

    ``root`` defaults to the installed ``repro`` package directory; paths
    are relative to the package *parent*, so they read ``repro/serve/...``
    and module dotted names derive mechanically from them.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root).resolve()
    base = root.parent
    out: list[tuple[str, str]] = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        out.append(
            (path.relative_to(base).as_posix(), path.read_text(encoding="utf-8"))
        )
    return out


# --------------------------------------------------------------------------
# program model
# --------------------------------------------------------------------------

_LOCK_FACTORIES = ("threading.Lock", "threading.RLock", "asyncio.Lock")
_EVENT_FACTORIES = ("threading.Event",)
_THREAD_FACTORIES = ("threading.Thread", "concurrent.futures.ThreadPoolExecutor")

#: External calls that block the calling thread (S001).
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "fcntl.flock",
        "os.fsync",
        "open",
    }
)
#: Method names that are sync file I/O wherever they appear (S001).
_BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

_CALL_DEPTH = 3
_LOCK_WALK_DEPTH = 5


@dataclass
class _Func:
    module: "_Module"
    qualname: str  # "Cls.meth", "func", "Cls.meth.<locals>.inner"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None
    parent: str | None  # enclosing function qualname for nested defs

    @property
    def key(self) -> str:
        return f"{self.module.path}::{self.qualname}"

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def simple_name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class _Class:
    module: "_Module"
    name: str
    node: ast.ClassDef
    # attr -> every definition/construction line (annotation site plus each
    # ``threading.Lock()`` call — the runtime sanitizer keys on the latter).
    lock_attrs: dict[str, list[int]] = field(default_factory=dict)
    event_attrs: dict[str, int] = field(default_factory=dict)
    methods: dict[str, _Func] = field(default_factory=dict)  # simple -> func
    creates_threads: bool = False
    flock_lines: list[int] = field(default_factory=list)
    uses_replace: bool = False
    instantiates: set[str] = field(default_factory=set)  # class keys

    def add_lock_attr(self, attr: str, line: int) -> None:
        self.lock_attrs.setdefault(attr, []).append(line)

    @property
    def key(self) -> str:
        return f"{self.module.path}::{self.name}"


@dataclass
class _Module:
    path: str  # "repro/serve/queue.py"
    dotted: str  # "repro.serve.queue"
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, _Func] = field(default_factory=dict)  # qualname ->
    classes: dict[str, _Class] = field(default_factory=dict)
    # module-level name -> class it is built from (``_MEMO = _Memo(..)``)
    instances: dict[str, str] = field(default_factory=dict)


def _dotted_of(path: str) -> str:
    parts = path[:-3].split("/")  # strip .py
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _walk_no_nested(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested defs/lambdas/classes."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                continue
            stack.append(child)


def _calls_in(node: ast.AST) -> list[ast.Call]:
    return [n for n in _walk_no_nested(node) if isinstance(n, ast.Call)]


def _attr_chain(expr: ast.expr) -> tuple[ast.expr, list[str]]:
    """Unroll ``a.b.c`` into (base expr ``a``, ["b", "c"])."""
    attrs: list[str] = []
    while isinstance(expr, ast.Attribute):
        attrs.append(expr.attr)
        expr = expr.value
    attrs.reverse()
    return expr, attrs


def _is_self(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id == "self"


class _Program:
    """The whole-program model every S-rule shares (built once per run)."""

    def __init__(self, sources: tuple[tuple[str, str], ...]) -> None:
        self.modules: dict[str, _Module] = {}
        self.by_dotted: dict[str, _Module] = {}
        self.classes: dict[str, _Class] = {}
        self.funcs: dict[str, _Func] = {}
        self.violations: dict[str, list[Violation]] = {
            code: [] for code in ("S001", "S002", "S003", "S004", "S005", "S006")
        }
        for path, text in sources:
            try:
                tree = ast.parse(text)
            except SyntaxError:
                continue
            self._index_module(path, tree)
        for mod in self.modules.values():
            for cls in mod.classes.values():
                self._analyze_class(cls)
        self.lock_graph = self._build_lock_graph()
        self._run_s001()
        self._run_s002()
        self._run_s003()
        self._run_s004()
        self._run_s005()
        self._run_s006()
        for code in self.violations:
            self.violations[code].sort(key=lambda v: (v.module, v.line, v.message))

    # -- indexing ----------------------------------------------------------

    def _index_module(self, path: str, tree: ast.Module) -> None:
        mod = _Module(path=path, dotted=_dotted_of(path), tree=tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    mod.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    mod.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.ImportFrom) and node.level:
                # Relative import: resolve against this module's package.
                package = mod.dotted.rsplit(".", node.level)[0]
                target = f"{package}.{node.module}" if node.module else package
                for alias in node.names:
                    mod.imports[alias.asname or alias.name] = (
                        f"{target}.{alias.name}"
                    )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_func(mod, stmt, cls=None, parent=None)
            elif isinstance(stmt, ast.ClassDef):
                cls = _Class(module=mod, name=stmt.name, node=stmt)
                mod.classes[stmt.name] = cls
                self.classes[cls.key] = cls
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        func = self._register_func(
                            mod, sub, cls=stmt.name, parent=None
                        )
                        cls.methods[sub.name] = func
        for stmt in tree.body:
            # A module-level instance of a class defined here: calls on it
            # resolve to that class's methods.
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id in mod.classes
            ):
                mod.instances[stmt.targets[0].id] = stmt.value.func.id
        self.modules[path] = mod
        self.by_dotted[mod.dotted] = mod

    def _register_func(
        self,
        mod: _Module,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
        parent: str | None,
    ) -> _Func:
        if parent:
            qualname = f"{parent}.<locals>.{node.name}"
        elif cls:
            qualname = f"{cls}.{node.name}"
        else:
            qualname = node.name
        func = _Func(module=mod, qualname=qualname, node=node, cls=cls, parent=parent)
        mod.functions[qualname] = func
        self.funcs[func.key] = func
        for inner in _walk_no_nested(node):
            for child in ast.iter_child_nodes(inner):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._register_func(mod, child, cls=cls, parent=qualname)
        return func

    # -- name resolution ---------------------------------------------------

    def _canon_dotted(self, dotted: str, depth: int = 0) -> str:
        """Map a dotted name onto an internal func/class when possible.

        Returns ``fn:<path>::<qualname>``, ``cls:<path>::<Name>`` or
        ``ext:<dotted>``.  One re-export hop through a package
        ``__init__`` is followed (``repro.cache.open_store`` →
        ``repro.cache.sharded.open_store``).
        """
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            mod = self.by_dotted.get(prefix)
            if mod is None:
                continue
            rest = parts[i:]
            if not rest:
                return f"mod:{mod.path}"
            head = rest[0]
            if head in mod.classes:
                if len(rest) >= 2 and f"{head}.{rest[1]}" in mod.functions:
                    return f"fn:{mod.path}::{head}.{rest[1]}"
                return f"cls:{mod.path}::{head}"
            if head in mod.functions:
                return f"fn:{mod.path}::{head}"
            if head in mod.imports and depth < 2:
                tail = "." + ".".join(rest[1:]) if len(rest) > 1 else ""
                return self._canon_dotted(mod.imports[head] + tail, depth + 1)
            break
        return f"ext:{dotted}"

    def _call_target(self, func: _Func, call: ast.Call) -> str:
        """Canonical target of a call expression seen inside *func*."""
        expr = call.func
        mod = func.module
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in mod.imports:
                return self._canon_dotted(mod.imports[name])
            # A nested def visible in the enclosing function.
            scope = func.qualname
            while scope:
                qn = f"{scope}.<locals>.{name}"
                if qn in mod.functions:
                    return f"fn:{mod.path}::{qn}"
                scope = scope.rsplit(".<locals>.", 1)[0] if "<locals>" in scope else ""
            if func.cls and f"{func.cls}.{name}" in mod.functions:
                return f"fn:{mod.path}::{func.cls}.{name}"
            if name in mod.classes:
                return f"cls:{mod.path}::{name}"
            if name in mod.functions:
                return f"fn:{mod.path}::{name}"
            return f"ext:{name}"
        if isinstance(expr, ast.Attribute):
            base, attrs = _attr_chain(expr)
            if _is_self(base) and func.cls is not None and len(attrs) == 1:
                if f"{func.cls}.{attrs[0]}" in mod.functions:
                    return f"fn:{mod.path}::{func.cls}.{attrs[0]}"
                return f"selfattr:{attrs[0]}"
            if isinstance(base, ast.Name):
                root = mod.imports.get(base.id)
                if root is not None:
                    return self._canon_dotted(root + "." + ".".join(attrs))
                owner = mod.instances.get(base.id)
                if owner is not None and len(attrs) == 1:
                    if f"{owner}.{attrs[0]}" in mod.functions:
                        return f"fn:{mod.path}::{owner}.{attrs[0]}"
            return f"attr:{attrs[-1]}"
        return "ext:<dynamic>"

    def _target_func(self, target: str) -> _Func | None:
        if target.startswith("fn:"):
            return self.funcs.get(target[3:])
        if target.startswith("cls:"):
            cls = self.classes.get(target[4:])
            if cls is not None:
                return cls.methods.get("__init__")
        return None

    # -- class attribute typing -------------------------------------------

    _LOCK_ANNOTATION = re.compile(
        r"\b(threading\.Lock|threading\.RLock|asyncio\.Lock)\b"
    )

    def _annotation_lock_kind(self, annotation: ast.expr | None) -> str | None:
        if annotation is None:
            return None
        text = ast.unparse(annotation)
        if not self._LOCK_ANNOTATION.search(text):
            return None
        return "dict" if text.startswith(("dict[", "Dict[")) else "plain"

    def _analyze_class(self, cls: _Class) -> None:
        mod = cls.module
        # Class-body annotations (dataclass fields).
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                kind = self._annotation_lock_kind(stmt.annotation)
                if kind == "plain":
                    cls.add_lock_attr(stmt.target.id, stmt.lineno)
                elif kind == "dict":
                    cls.add_lock_attr(f"{stmt.target.id}[]", stmt.lineno)
        for func in self._class_funcs(cls):
            node = func.node
            lock_params = {
                a.arg
                for a in list(node.args.args) + list(node.args.kwonlyargs)
                if self._annotation_lock_kind(a.annotation) == "plain"
            }
            for inner in _walk_no_nested(node):
                if isinstance(inner, ast.AnnAssign) and isinstance(
                    inner.target, ast.Attribute
                ):
                    if _is_self(inner.target.value):
                        kind = self._annotation_lock_kind(inner.annotation)
                        if kind == "plain":
                            cls.add_lock_attr(inner.target.attr, inner.lineno)
                        elif kind == "dict":
                            cls.add_lock_attr(
                                f"{inner.target.attr}[]", inner.lineno
                            )
                if isinstance(inner, ast.Assign):
                    self._classify_assign(cls, func, inner, lock_params)
                elif isinstance(inner, ast.Call):
                    target = self._call_target(func, inner)
                    if target.startswith("ext:"):
                        dotted = target[4:]
                        if dotted in _THREAD_FACTORIES:
                            cls.creates_threads = True
                        elif dotted == "fcntl.flock":
                            op = (
                                ast.unparse(inner.args[1])
                                if len(inner.args) > 1
                                else ""
                            )
                            if "LOCK_UN" not in op:
                                cls.flock_lines.append(inner.lineno)
                        elif dotted == "os.replace":
                            cls.uses_replace = True
                    elif target.startswith("cls:"):
                        cls.instantiates.add(target[4:])

    def _classify_assign(
        self,
        cls: _Class,
        func: _Func,
        assign: ast.Assign,
        lock_params: set[str],
    ) -> None:
        for target in assign.targets:
            attr: str | None = None
            if isinstance(target, ast.Attribute) and _is_self(target.value):
                attr = target.attr
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and _is_self(target.value.value)
            ):
                attr = f"{target.value.attr}[]"
            if attr is None:
                continue
            value = assign.value
            if isinstance(value, ast.Call):
                resolved = self._call_target(func, value)
                if resolved.startswith("ext:"):
                    dotted = resolved[4:]
                    if dotted in _LOCK_FACTORIES:
                        cls.add_lock_attr(attr, assign.lineno)
                    elif dotted in _EVENT_FACTORIES:
                        cls.event_attrs.setdefault(attr, assign.lineno)
            elif isinstance(value, ast.Name) and value.id in lock_params:
                cls.add_lock_attr(attr, assign.lineno)

    def _class_funcs(self, cls: _Class) -> list[_Func]:
        return [
            f
            for f in cls.module.functions.values()
            if f.cls == cls.name
        ]

    def _class_of(self, func: _Func) -> _Class | None:
        if func.cls is None:
            return None
        return func.module.classes.get(func.cls)

    # -- lock graph (S003 + sanitizer cross-check) ------------------------

    def _lock_node_symbol(self, cls: _Class, attr: str) -> str:
        return f"{cls.key}.{attr}"

    def _with_item_nodes(
        self, func: _Func, expr: ast.expr
    ) -> tuple[list[str], _Func | None]:
        """Lock-graph nodes acquired by one with-item, plus a callee to
        descend into when the item is a context-manager call."""
        cls = self._class_of(func)
        if isinstance(expr, ast.Attribute) and _is_self(expr.value):
            if cls is not None and expr.attr in cls.lock_attrs:
                return [self._lock_node_symbol(cls, expr.attr)], None
        if (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Attribute)
            and _is_self(expr.value.value)
        ):
            attr = f"{expr.value.attr}[]"
            if cls is not None and attr in cls.lock_attrs:
                return [self._lock_node_symbol(cls, attr)], None
        if isinstance(expr, ast.Call):
            callee = self._target_func(self._call_target(func, expr))
            if callee is not None:
                callee_cls = self._class_of(callee)
                if callee_cls is not None and callee_cls.flock_lines and any(
                    True
                    for inner in _walk_no_nested(callee.node)
                    if isinstance(inner, ast.Call)
                    and self._call_target(callee, inner) == "ext:fcntl.flock"
                    and "LOCK_UN"
                    not in (ast.unparse(inner.args[1]) if len(inner.args) > 1 else "")
                ):
                    return [f"{callee_cls.key}.<flock>"], callee
                return [], callee
        return [], None

    def _build_lock_graph(self) -> "LockGraph":
        nodes: dict[str, LockNode] = {}
        for cls in self.classes.values():
            for attr, lines in cls.lock_attrs.items():
                symbol = self._lock_node_symbol(cls, attr)
                nodes[symbol] = LockNode(
                    symbol=symbol,
                    path=cls.module.path,
                    lines=tuple(sorted(set(lines))),
                )
            if cls.flock_lines:
                symbol = f"{cls.key}.<flock>"
                nodes[symbol] = LockNode(
                    symbol=symbol,
                    path=cls.module.path,
                    lines=tuple(sorted(cls.flock_lines)),
                )
        edges: dict[tuple[str, str], str] = {}

        def add_edge(held: str, acquired: str, where: str) -> None:
            if held != acquired:
                edges.setdefault((held, acquired), where)

        def walk(func: _Func, held: tuple[str, ...], depth: int,
                 seen: set[tuple[str, tuple[str, ...]]]) -> None:
            state = (func.key, held)
            if depth > _LOCK_WALK_DEPTH or state in seen:
                return
            seen.add(state)
            self._walk_stmts(func, func.node.body, held, depth, seen, add_edge, walk)

        seen: set[tuple[str, tuple[str, ...]]] = set()
        for func in self.funcs.values():
            walk(func, (), 0, seen)
        seeded: dict[tuple[str, str], str] = {}
        for a, b, why in SEEDED_LOCK_ORDER:
            if a in nodes and b in nodes:
                seeded[(a, b)] = why
        return LockGraph(nodes=nodes, edges=edges, seeded=seeded)

    def _walk_stmts(
        self,
        func: _Func,
        stmts: list[ast.stmt],
        held: tuple[str, ...],
        depth: int,
        seen: set[tuple[str, tuple[str, ...]]],
        add_edge: Any,
        walk: Any,
    ) -> None:
        where = f"{func.module.path}::{func.qualname}"
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: list[str] = []
                for item in stmt.items:
                    symbols, callee = self._with_item_nodes(
                        func, item.context_expr
                    )
                    for symbol in symbols:
                        for h in held:
                            add_edge(h, symbol, where)
                    acquired.extend(symbols)
                    if callee is not None:
                        walk(callee, held, depth + 1, seen)
                self._walk_stmts(
                    func, stmt.body, held + tuple(acquired), depth, seen,
                    add_edge, walk,
                )
            elif isinstance(
                stmt, (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try)
            ):
                header: list[ast.expr] = []
                if isinstance(stmt, (ast.If, ast.While)):
                    header = [stmt.test]
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    header = [stmt.iter]
                for expr in header:
                    self._walk_calls(func, expr, held, depth, seen, add_edge, walk)
                for body in self._stmt_bodies(stmt):
                    self._walk_stmts(
                        func, body, held, depth, seen, add_edge, walk
                    )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # separate entity; walked from the top level
            else:
                self._walk_calls(func, stmt, held, depth, seen, add_edge, walk)

    @staticmethod
    def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
        bodies: list[list[ast.stmt]] = []
        for name in ("body", "orelse", "finalbody"):
            block = getattr(stmt, name, None)
            if block:
                bodies.append(block)
        for handler in getattr(stmt, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies

    def _walk_calls(
        self,
        func: _Func,
        node: ast.AST,
        held: tuple[str, ...],
        depth: int,
        seen: set[tuple[str, tuple[str, ...]]],
        add_edge: Any,
        walk: Any,
    ) -> None:
        where = f"{func.module.path}::{func.qualname}"
        cls = self._class_of(func)
        for call in _calls_in(node):
            if isinstance(call.func, ast.Attribute) and call.func.attr == "acquire":
                base = call.func.value
                if (
                    isinstance(base, ast.Attribute)
                    and _is_self(base.value)
                    and cls is not None
                    and base.attr in cls.lock_attrs
                ):
                    symbol = self._lock_node_symbol(cls, base.attr)
                    for h in held:
                        add_edge(h, symbol, where)
                continue
            target = self._call_target(func, call)
            if target == "ext:fcntl.flock" and cls is not None and cls.flock_lines:
                op = ast.unparse(call.args[1]) if len(call.args) > 1 else ""
                if "LOCK_UN" not in op:
                    symbol = f"{cls.key}.<flock>"
                    for h in held:
                        add_edge(h, symbol, where)
                continue
            callee = self._target_func(target)
            if callee is not None:
                walk(callee, held, depth + 1, seen)

    # -- S001: blocking calls on the event loop ---------------------------

    def _blocking_sites(
        self, func: _Func, depth: int, stack: set[str]
    ) -> list[tuple[str, int, str]]:
        """(description, line, where) of blocking calls reachable from func."""
        if depth > _CALL_DEPTH or func.key in stack:
            return []
        stack = stack | {func.key}
        out: list[tuple[str, int, str]] = []
        for call in _calls_in(func.node):
            target = self._call_target(func, call)
            if target.startswith("ext:") and target[4:] in _BLOCKING_CALLS:
                dotted = target[4:]
                if dotted == "open" and not call.args:
                    continue
                out.append((dotted, call.lineno, func.qualname))
                continue
            if target.startswith("attr:") and target[5:] in _BLOCKING_METHODS:
                out.append((f".{target[5:]}()", call.lineno, func.qualname))
                continue
            callee = self._target_func(target)
            if callee is not None and callee.module is func.module:
                out.extend(self._blocking_sites(callee, depth + 1, stack))
        return out

    def _run_s001(self) -> None:
        loop_roles = self._role_map()
        for func in self.funcs.values():
            roles = loop_roles.get(func.key, frozenset())
            if not (func.is_async or roles == frozenset({"loop"})):
                continue
            for dotted, line, where in self._blocking_sites(func, 0, set()):
                origin = (
                    f"`{func.qualname}`"
                    if where == func.qualname
                    else f"`{where}` (reached from `{func.qualname}`)"
                )
                self.violations["S001"].append(
                    Violation(
                        message=(
                            f"blocking call {dotted} in {origin} runs on the "
                            "event loop; offload it with run_in_executor"
                        ),
                        module=func.module.path,
                        line=line,
                    )
                )
        # Poll-loop variant: time.sleep inside a while loop of a class that
        # owns a threading.Event it should be wait()-ing on instead.
        for cls in self.classes.values():
            if not cls.event_attrs:
                continue
            for func in self._class_funcs(cls):
                if func.is_async:
                    continue
                for inner in _walk_no_nested(func.node):
                    if not isinstance(inner, ast.While):
                        continue
                    for call in _calls_in(inner):
                        if self._call_target(func, call) == "ext:time.sleep":
                            event = sorted(cls.event_attrs)[0]
                            self.violations["S001"].append(
                                Violation(
                                    message=(
                                        f"unconditional time.sleep in the "
                                        f"`{func.qualname}` poll loop ignores "
                                        f"shutdown signals; use "
                                        f"`self.{event}.wait(timeout)` so the "
                                        "loop wakes immediately on stop"
                                    ),
                                    module=func.module.path,
                                    line=call.lineno,
                                )
                            )
        self.violations["S001"] = _dedupe(self.violations["S001"])

    # -- S002: acquire outside with / try-finally -------------------------

    def _run_s002(self) -> None:
        for func in self.funcs.values():
            cls = self._class_of(func)
            local_locks = self._local_lock_vars(func)
            self._s002_stmts(func, cls, local_locks, func.node.body, [])

    def _local_lock_vars(self, func: _Func) -> set[str]:
        out: set[str] = set()
        for inner in _walk_no_nested(func.node):
            if (
                isinstance(inner, ast.Assign)
                and len(inner.targets) == 1
                and isinstance(inner.targets[0], ast.Name)
                and isinstance(inner.value, ast.Call)
            ):
                resolved = self._call_target(func, inner.value)
                if resolved.startswith("ext:") and resolved[4:] in _LOCK_FACTORIES:
                    out.add(inner.targets[0].id)
        return out

    def _s002_stmts(
        self,
        func: _Func,
        cls: _Class | None,
        local_locks: set[str],
        stmts: list[ast.stmt],
        ancestors: list[tuple[list[ast.stmt], int]],
    ) -> None:
        for idx, stmt in enumerate(stmts):
            chain = ancestors + [(stmts, idx)]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in self._header_calls(stmt):
                acquired = self._acquire_repr(func, cls, local_locks, call)
                if acquired is not None and not self._is_guarded(
                    func, cls, local_locks, acquired, chain
                ):
                    self.violations["S002"].append(
                        Violation(
                            message=(
                                f"{acquired} acquired in `{func.qualname}` "
                                "outside `with`/`try-finally`; an exception "
                                "before release leaks the lock"
                            ),
                            module=func.module.path,
                            line=call.lineno,
                        )
                    )
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._s002_stmts(func, cls, local_locks, stmt.body, chain)
            else:
                for body in self._stmt_bodies(stmt):
                    self._s002_stmts(func, cls, local_locks, body, chain)

    def _header_calls(self, stmt: ast.stmt) -> list[ast.Call]:
        if isinstance(
            stmt, (ast.If, ast.While, ast.For, ast.AsyncFor, ast.Try,
                   ast.With, ast.AsyncWith)
        ):
            header: list[ast.AST] = []
            if isinstance(stmt, (ast.If, ast.While)):
                header = [stmt.test]
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                header = [stmt.iter]
            # `with lock:` is the guarded idiom itself: not an acquire site.
            return [c for e in header for c in _calls_in(e)]
        return _calls_in(stmt)

    def _acquire_repr(
        self,
        func: _Func,
        cls: _Class | None,
        local_locks: set[str],
        call: ast.Call,
    ) -> str | None:
        """A display name when *call* acquires a tracked lock, else None."""
        if isinstance(call.func, ast.Attribute) and call.func.attr == "acquire":
            base = call.func.value
            if (
                isinstance(base, ast.Attribute)
                and _is_self(base.value)
                and cls is not None
                and base.attr in cls.lock_attrs
            ):
                return f"lock `self.{base.attr}`"
            if isinstance(base, ast.Name) and base.id in local_locks:
                return f"lock `{base.id}`"
            return None
        if self._call_target(func, call) == "ext:fcntl.flock":
            op = ast.unparse(call.args[1]) if len(call.args) > 1 else ""
            if "LOCK_UN" not in op:
                return "flock"
        return None

    def _is_guarded(
        self,
        func: _Func,
        cls: _Class | None,
        local_locks: set[str],
        acquired: str,
        chain: list[tuple[list[ast.stmt], int]],
    ) -> bool:
        for level, (stmts, idx) in enumerate(chain):
            # (a) enclosing try whose finally releases the lock.
            if level + 1 < len(chain):
                stmt = stmts[idx]
                if isinstance(stmt, ast.Try) and self._releases(
                    func, cls, local_locks, acquired, stmt.finalbody
                ):
                    return True
            # (b) a later sibling try-finally releasing it.
            for later in stmts[idx + 1 :]:
                if isinstance(later, ast.Try) and self._releases(
                    func, cls, local_locks, acquired, later.finalbody
                ):
                    return True
        return False

    def _releases(
        self,
        func: _Func,
        cls: _Class | None,
        local_locks: set[str],
        acquired: str,
        stmts: list[ast.stmt],
    ) -> bool:
        for stmt in stmts:
            for call in _calls_in(stmt):
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "release"
                ):
                    base = call.func.value
                    if (
                        isinstance(base, ast.Attribute)
                        and _is_self(base.value)
                        and f"lock `self.{base.attr}`" == acquired
                    ):
                        return True
                    if (
                        isinstance(base, ast.Name)
                        and f"lock `{base.id}`" == acquired
                    ):
                        return True
                if acquired == "flock" and self._call_target(
                    func, call
                ) == "ext:fcntl.flock":
                    op = ast.unparse(call.args[1]) if len(call.args) > 1 else ""
                    if "LOCK_UN" in op:
                        return True
        return False

    # -- S003: lock-order cycles ------------------------------------------

    def _run_s003(self) -> None:
        for cycle in self.lock_graph.cycles():
            pretty = " -> ".join(cycle + [cycle[0]])
            anchor = self.lock_graph.nodes.get(cycle[0])
            self.violations["S003"].append(
                Violation(
                    message=(
                        f"lock-order cycle: {pretty}; two threads taking "
                        "these locks in opposite orders deadlock"
                    ),
                    module=anchor.path if anchor else "",
                    line=anchor.lines[0] if anchor else 0,
                )
            )

    # -- S004: unguarded shared read-modify-write -------------------------

    def _role_map(self) -> dict[str, frozenset[str]]:
        """Execution roles per function key: caller / thread / loop."""
        cached = getattr(self, "_roles_cache", None)
        if cached is not None:
            return cached
        roles: dict[str, set[str]] = {}

        def entity_for(cls: _Class, func: _Func, expr: ast.expr) -> _Func | None:
            if isinstance(expr, ast.Attribute) and _is_self(expr.value):
                return cls.methods.get(expr.attr)
            if isinstance(expr, ast.Name):
                qn = f"{func.qualname}.<locals>.{expr.id}"
                return func.module.functions.get(qn)
            return None

        def mark(func: _Func | None, role: str) -> None:
            if func is not None:
                roles.setdefault(func.key, set()).add(role)

        for cls in self.classes.values():
            if not cls.creates_threads:
                continue
            for func in self._class_funcs(cls):
                name = func.simple_name
                if func.is_async:
                    mark(func, "loop")
                if (
                    func.parent is None
                    and not name.startswith("_")
                    or name in ("__enter__", "__exit__")
                ):
                    mark(func, "caller")
                for call in _calls_in(func.node):
                    target = self._call_target(func, call)
                    callable_args: list[tuple[ast.expr, str]] = []
                    if target.startswith("ext:") and target[4:] in _THREAD_FACTORIES:
                        for kw in call.keywords:
                            if kw.arg == "target":
                                callable_args.append((kw.value, "thread"))
                    if isinstance(call.func, ast.Attribute):
                        attr = call.func.attr
                        if attr in ("submit", "run_in_executor"):
                            args = call.args[1:] if attr == "run_in_executor" else call.args
                            if args:
                                callable_args.append((args[0], "thread"))
                        elif attr in ("call_soon", "call_soon_threadsafe"):
                            if call.args:
                                callable_args.append((call.args[0], "loop"))
                        elif attr == "add_done_callback" and call.args:
                            arg = call.args[0]
                            if isinstance(arg, ast.Lambda):
                                for sub in _calls_in(arg.body):
                                    mark(
                                        entity_for(cls, func, sub.func), "loop"
                                    )
                            else:
                                callable_args.append((arg, "loop"))
                    for expr, role in callable_args:
                        mark(entity_for(cls, func, expr), role)
        # Fixpoint: propagate roles through direct self-calls, nested-def
        # inheritance, and parameter-forwarding helpers (a method whose
        # nested runner calls its fn parameter on the loop thread gives
        # every closure passed to it the loop role).
        for _ in range(10):
            changed = False
            for cls in self.classes.values():
                if not cls.creates_threads:
                    continue
                forward: dict[str, set[str]] = {}
                for func in self._class_funcs(cls):
                    params = {
                        a.arg
                        for a in func.node.args.args
                        if a.arg != "self"
                    }
                    owner = func
                    while owner.parent is not None:
                        parent = func.module.functions.get(owner.parent)
                        if parent is None:
                            break
                        owner = parent
                    for call in _calls_in(func.node):
                        if (
                            isinstance(call.func, ast.Name)
                            and call.func.id in params
                        ):
                            forward.setdefault(
                                func.simple_name, set()
                            ).update(roles.get(func.key, set()))
                        # Nested defs calling the *enclosing* function's
                        # parameter forward that enclosing entity's role.
                        enclosing = func.parent
                        while enclosing is not None:
                            parent_func = func.module.functions.get(enclosing)
                            if parent_func is None:
                                break
                            parent_params = {
                                a.arg
                                for a in parent_func.node.args.args
                                if a.arg != "self"
                            }
                            if (
                                isinstance(call.func, ast.Name)
                                and call.func.id in parent_params
                            ):
                                forward.setdefault(
                                    parent_func.simple_name, set()
                                ).update(roles.get(func.key, set()))
                            enclosing = parent_func.parent
                for func in self._class_funcs(cls):
                    mine = roles.get(func.key, set())
                    for call in _calls_in(func.node):
                        target = self._call_target(func, call)
                        callee = self._target_func(target)
                        if (
                            callee is not None
                            and callee.cls == cls.name
                            and callee.module is func.module
                        ):
                            fwd = forward.get(callee.simple_name)
                            if fwd:
                                for arg in call.args:
                                    ent = None
                                    if isinstance(arg, ast.Name):
                                        qn = f"{func.qualname}.<locals>.{arg.id}"
                                        ent = func.module.functions.get(qn)
                                    elif isinstance(
                                        arg, ast.Attribute
                                    ) and _is_self(arg.value):
                                        ent = cls.methods.get(arg.attr)
                                    if ent is not None:
                                        before = roles.setdefault(
                                            ent.key, set()
                                        )
                                        if not fwd <= before:
                                            before.update(fwd)
                                            changed = True
                            if mine and callee.parent is not None:
                                before = roles.setdefault(callee.key, set())
                                if not mine <= before:
                                    before.update(mine)
                                    changed = True
                    # Nested defs with no explicit dispatch inherit their
                    # enclosing entity's roles.
                    if func.parent is not None and func.key not in roles:
                        parent = func.module.functions.get(func.parent)
                        if parent is not None and parent.key in roles:
                            roles[func.key] = set(roles[parent.key])
                            changed = True
            if not changed:
                break
        result = {k: frozenset(v) for k, v in roles.items()}
        self._roles_cache = result
        return result

    def _run_s004(self) -> None:
        roles = self._role_map()
        for cls in self.classes.values():
            if not cls.creates_threads:
                continue
            # attr -> union of roles across every accessor entity.
            access_roles: dict[str, set[str]] = {}
            aug_writes: dict[str, list[tuple[_Func, int, bool]]] = {}
            plain_reads: dict[str, list[tuple[_Func, int, bool]]] = {}
            for func in self._class_funcs(cls):
                if func.simple_name == "__init__":
                    continue
                my_roles = roles.get(func.key, frozenset())
                for attr, line, is_aug, guarded in self._self_accesses(
                    cls, func
                ):
                    access_roles.setdefault(attr, set()).update(my_roles)
                    if is_aug:
                        aug_writes.setdefault(attr, []).append(
                            (func, line, guarded)
                        )
                    else:
                        plain_reads.setdefault(attr, []).append(
                            (func, line, guarded)
                        )
            for attr, writes in sorted(aug_writes.items()):
                if len(access_roles.get(attr, set())) < 2:
                    continue  # single-role attribute: no interleaving
                unguarded_writes = [w for w in writes if not w[2]]
                for func, line, _ in unguarded_writes:
                    self.violations["S004"].append(
                        Violation(
                            message=(
                                f"read-modify-write of shared attribute "
                                f"`self.{attr}` in `{func.qualname}` has no "
                                "dominating lock; concurrent updates lose "
                                "increments"
                            ),
                            module=func.module.path,
                            line=line,
                        )
                    )
                if unguarded_writes:
                    continue  # the write side is the report; reads follow it
                # Read variant: every writer updates the attribute under a
                # lock, so the lock is the attribute's coherence protocol —
                # a lockless read elsewhere sees mid-update state (e.g. a
                # `done + failed` sum torn across two locked increments).
                for func, line, guarded in plain_reads.get(attr, ()):
                    if guarded:
                        continue
                    self.violations["S004"].append(
                        Violation(
                            message=(
                                f"unguarded read of shared attribute "
                                f"`self.{attr}` in `{func.qualname}`; every "
                                "writer holds a lock, so the read bypasses "
                                "the attribute's coherence protocol"
                            ),
                            module=func.module.path,
                            line=line,
                        )
                    )

    def _self_accesses(
        self, cls: _Class, func: _Func
    ) -> list[tuple[str, int, bool, bool]]:
        """(attr, line, is_aug_write, lock_guarded) for self.X accesses."""
        out: list[tuple[str, int, bool, bool]] = []

        def locked_item(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Attribute) and _is_self(expr.value):
                return expr.attr in cls.lock_attrs
            if (
                isinstance(expr, ast.Subscript)
                and isinstance(expr.value, ast.Attribute)
                and _is_self(expr.value.value)
            ):
                return f"{expr.value.attr}[]" in cls.lock_attrs
            if isinstance(expr, ast.Call):
                callee = self._target_func(self._call_target(func, expr))
                if callee is not None:
                    callee_cls = self._class_of(callee)
                    return callee_cls is not None and bool(
                        callee_cls.flock_lines
                    )
            return False

        def visit(stmts: list[ast.stmt], guarded: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    now = guarded or any(
                        locked_item(i.context_expr) for i in stmt.items
                    )
                    visit(stmt.body, now)
                    continue
                if isinstance(stmt, ast.AugAssign) and isinstance(
                    stmt.target, ast.Attribute
                ) and _is_self(stmt.target.value):
                    out.append(
                        (stmt.target.attr, stmt.lineno, True, guarded)
                    )
                for node in _walk_no_nested(stmt):
                    if (
                        isinstance(node, ast.Attribute)
                        and _is_self(node.value)
                        and isinstance(node.ctx, ast.Load)
                        and node.attr not in cls.lock_attrs
                    ):
                        out.append((node.attr, node.lineno, False, guarded))
                for body in self._stmt_bodies(stmt):
                    visit(body, guarded)
        visit(func.node.body, False)
        return out

    # -- S005: non-atomic publish in multi-process classes ----------------

    def _mp_classes(self) -> list[_Class]:
        direct = {
            cls.key
            for cls in self.classes.values()
            if cls.flock_lines or cls.uses_replace
        }
        out: list[_Class] = []
        for cls in self.classes.values():
            if cls.key in direct or (cls.instantiates & direct):
                out.append(cls)
        return out

    def _reaches_replace(self, func: _Func, depth: int, stack: set[str]) -> bool:
        if depth > _CALL_DEPTH or func.key in stack:
            return False
        stack = stack | {func.key}
        for call in _calls_in(func.node):
            target = self._call_target(func, call)
            if target == "ext:os.replace":
                return True
            callee = self._target_func(target)
            if callee is not None and callee.module is func.module:
                if self._reaches_replace(callee, depth + 1, stack):
                    return True
        return False

    def _self_derived_vars(self, func: _Func) -> set[str]:
        derived: set[str] = set()
        for inner in _walk_no_nested(func.node):
            targets: list[ast.expr]
            if isinstance(inner, ast.Assign):
                targets, source = list(inner.targets), inner.value
            elif isinstance(inner, (ast.For, ast.AsyncFor)):
                targets, source = [inner.target], inner.iter
            else:
                continue
            names = {
                n.id
                for n in _walk_no_nested(source)
                if isinstance(n, ast.Name)
            }
            if "self" not in names and not (names & derived):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    derived.add(target.id)
                elif isinstance(target, ast.Tuple):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            derived.add(elt.id)
        return derived

    def _is_self_derived(self, expr: ast.expr, derived: set[str]) -> bool:
        for node in _walk_no_nested(expr):
            if isinstance(node, ast.Name) and (
                node.id == "self" or node.id in derived
            ):
                return True
        return False

    def _run_s005(self) -> None:
        for cls in self._mp_classes():
            for func in self._class_funcs(cls):
                self._s005_writes(cls, func)
                self._s005_json(cls, func)
            if self._class_mentions_rank(cls):
                for func in self._class_funcs(cls):
                    self._s005_rank(cls, func)

    def _s005_writes(self, cls: _Class, func: _Func) -> None:
        derived = self._self_derived_vars(func)
        atomic = self._reaches_replace(func, 0, set())
        for call in _calls_in(func.node):
            site: str | None = None
            target_expr: ast.expr | None = None
            if isinstance(call.func, ast.Attribute):
                attr = call.func.attr
                base = call.func.value
                if attr == "write_text":
                    site, target_expr = "write_text", base
                elif attr == "unlink":
                    site, target_expr = "unlink", base
                elif attr == "open":
                    mode = ""
                    if call.args and isinstance(call.args[0], ast.Constant):
                        mode = str(call.args[0].value)
                    if "w" in mode and "a" not in mode:
                        site, target_expr = 'open("w")', base
            elif isinstance(call.func, ast.Name) and call.func.id == "open":
                mode = ""
                if len(call.args) > 1 and isinstance(call.args[1], ast.Constant):
                    mode = str(call.args[1].value)
                if call.args and "w" in mode and "a" not in mode:
                    site, target_expr = 'open("w")', call.args[0]
            if site is None or target_expr is None:
                continue
            if not self._is_self_derived(target_expr, derived):
                continue  # caller-owned path (export targets etc.)
            # Writes to a *.tmp staging file are the atomic idiom's own
            # first half; they are judged by whether os.replace follows.
            if atomic:
                continue
            what = (
                "destructive unlink"
                if site == "unlink"
                else f"in-place {site} rewrite"
            )
            self.violations["S005"].append(
                Violation(
                    message=(
                        f"{what} of a shared path in `{func.qualname}` with "
                        "no reachable os.replace; other processes can read "
                        "a half-written or vanished file — use the tmp-file "
                        "+ os.replace idiom"
                    ),
                    module=func.module.path,
                    line=call.lineno,
                )
            )

    def _s005_json(self, cls: _Class, func: _Func) -> None:
        # Same-module helpers outside the class (module functions, methods
        # of module-level instances) decode on the method's behalf.
        helpers = {h.key: h for h in self._json_helpers(cls, func, 0, {func.key})}
        for site in (func, *helpers.values()):
            where = f"`{func.qualname}`"
            if site is not func:
                where = f"`{site.qualname}`, called from {where}"
            for line in self._unguarded_json_loads(site):
                self.violations["S005"].append(
                    Violation(
                        message=(
                            f"unguarded json.loads in {where} of a "
                            "multi-process class; a corrupt line from a "
                            "crashed writer crashes every reader — catch "
                            "JSONDecodeError and count the skip"
                        ),
                        module=site.module.path,
                        line=line,
                    )
                )

    @staticmethod
    def _json_guarded_spans(func: _Func) -> list[tuple[int, int]]:
        """Line spans of ``try`` bodies that catch a JSON decode error."""
        spans: list[tuple[int, int]] = []
        for inner in _walk_no_nested(func.node):
            if isinstance(inner, ast.Try) and inner.handlers:
                handled = " ".join(
                    ast.unparse(h.type) for h in inner.handlers if h.type
                )
                if any(
                    token in handled
                    for token in ("JSONDecodeError", "ValueError", "Exception")
                ):
                    end = max(
                        getattr(n, "end_lineno", inner.lineno)
                        for n in inner.body
                    )
                    spans.append((inner.lineno, end))
        return spans

    def _unguarded_json_loads(self, func: _Func) -> list[int]:
        guarded = self._json_guarded_spans(func)
        return [
            call.lineno
            for call in _calls_in(func.node)
            if self._call_target(func, call) == "ext:json.loads"
            and not any(lo <= call.lineno <= hi for lo, hi in guarded)
        ]

    def _json_helpers(
        self, cls: _Class, func: _Func, depth: int, stack: set[str]
    ) -> list[_Func]:
        """Same-module functions outside ``cls`` that ``func`` reaches
        through calls no JSON-error handler of the caller guards."""
        if depth >= _CALL_DEPTH:
            return []
        guarded = self._json_guarded_spans(func)
        out: list[_Func] = []
        for call in _calls_in(func.node):
            callee = self._target_func(self._call_target(func, call))
            if (
                callee is None
                or callee.module is not func.module
                or callee.cls == cls.name
                or callee.key in stack
                or any(lo <= call.lineno <= hi for lo, hi in guarded)
            ):
                continue
            out.append(callee)
            out.extend(
                self._json_helpers(cls, callee, depth + 1, stack | {callee.key})
            )
        return out

    def _class_mentions_rank(self, cls: _Class) -> bool:
        return any(
            isinstance(n, ast.Name) and n.id == "FULL_RANK"
            for n in ast.walk(cls.node)
        )

    def _s005_rank(self, cls: _Class, func: _Func) -> None:
        """Rank-blind revalidation: a method answering from an index hit must
        refresh before trusting a below-full-rank record."""
        index_vars: set[str] = set()
        for inner in _walk_no_nested(func.node):
            if (
                isinstance(inner, ast.Assign)
                and len(inner.targets) == 1
                and isinstance(inner.targets[0], ast.Name)
                and isinstance(inner.value, ast.Call)
                and isinstance(inner.value.func, ast.Attribute)
                and inner.value.func.attr == "get"
            ):
                base = inner.value.func.value
                if (
                    isinstance(base, ast.Attribute)
                    and _is_self(base.value)
                    and "index" in base.attr
                ):
                    index_vars.add(inner.targets[0].id)
        if not index_vars:
            return
        returns_hit = any(
            isinstance(n, ast.Return)
            and n.value is not None
            and any(
                isinstance(sub, ast.Name) and sub.id in index_vars
                for sub in _walk_no_nested(n.value)
            )
            for n in _walk_no_nested(func.node)
        )
        if not returns_hit:
            return
        for inner in _walk_no_nested(func.node):
            if not isinstance(inner, ast.If):
                continue
            has_refresh = any(
                isinstance(c.func, ast.Attribute)
                and c.func.attr == "refresh"
                and _is_self(c.func.value)
                for c in _calls_in(inner)
            )
            if not has_refresh:
                continue
            test = ast.unparse(inner.test)
            if "rank" in test or "FULL_RANK" in test:
                continue
            self.violations["S005"].append(
                Violation(
                    message=(
                        f"rank-blind revalidation in `{func.qualname}`: the "
                        "refresh guard never checks the hit's rank, so a "
                        "below-full-rank probe hit is served stale while "
                        "another process's full-route record is ignored"
                    ),
                    module=func.module.path,
                    line=inner.lineno,
                )
            )

    # -- S006: fire-and-forget tasks --------------------------------------

    def _run_s006(self) -> None:
        for func in self.funcs.values():
            for stmt in _walk_no_nested(func.node):
                if not (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Call)
                ):
                    continue
                call = stmt.value
                target = self._call_target(func, call)
                loose = (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("create_task", "ensure_future")
                )
                if target in (
                    "ext:asyncio.create_task",
                    "ext:asyncio.ensure_future",
                ) or loose:
                    self.violations["S006"].append(
                        Violation(
                            message=(
                                f"fire-and-forget task in `{func.qualname}`: "
                                "the returned task is never awaited or "
                                "exception-handled, so failures vanish "
                                "silently — keep a reference and consume "
                                "its result"
                            ),
                            module=func.module.path,
                            line=call.lineno,
                        )
                    )


def _dedupe(violations: list[Violation]) -> list[Violation]:
    seen: set[tuple[str, str, int]] = set()
    out: list[Violation] = []
    for v in violations:
        key = (v.message, v.module, v.line)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


# --------------------------------------------------------------------------
# the lock graph (shared with the runtime sanitizer)
# --------------------------------------------------------------------------

#: Known orderings the static walk cannot fully recover (the store and
#: the telemetry sinks are reached through inherited methods and context
#: lookups): opening a member's store handle happens under the fleet
#: registry lock, and a member's state lock is held across its store
#: appends, ledger entries and counter bumps.
SEEDED_LOCK_ORDER: tuple[tuple[str, str, str], ...] = (
    (
        "repro/serve/fleet.py::EvaluatorFleet._lock",
        "repro/cache/store.py::ResultStore.<flock>",
        "opening a member's store handle happens under the registry lock",
    ),
    (
        "repro/serve/fleet.py::_ConcurrentMember._state_lock",
        "repro/cache/store.py::ResultStore.<flock>",
        "committing a fresh result holds the member state lock across the"
        " store append (which takes the store's flock)",
    ),
    (
        "repro/serve/fleet.py::_ConcurrentMember._state_lock",
        "repro/observe/ledger.py::RunLedger._lock",
        "memo/store/DRC answers are ledgered under the member state lock",
    ),
    (
        "repro/serve/fleet.py::_ConcurrentMember._state_lock",
        "repro/observe/counters.py::Counters._lock",
        "telemetry counters are bumped under the member state lock",
    ),
)


@dataclass(frozen=True)
class LockNode:
    """One statically-known lock: a symbolic name plus its definition site."""

    symbol: str  # "repro/serve/fleet.py::EvaluatorFleet._lock"
    path: str
    lines: tuple[int, ...]


@dataclass
class LockGraph:
    """The static lock acquisition graph S003 checks for cycles."""

    nodes: dict[str, LockNode]
    edges: dict[tuple[str, str], str]
    seeded: dict[tuple[str, str], str]

    def all_edges(self) -> dict[tuple[str, str], str]:
        merged = dict(self.edges)
        merged.update(self.seeded)
        return merged

    def has_edge(self, a: str, b: str) -> bool:
        return (a, b) in self.edges or (a, b) in self.seeded

    def node_at(self, path: str, line: int) -> str | None:
        """The symbol defined at ``(path, line)`` — how runtime lock
        creation sites map back onto the static graph."""
        for node in self.nodes.values():
            if node.path == path and line in node.lines:
                return node.symbol
        return None

    def cycles(self) -> list[list[str]]:
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.all_edges())
        return [sorted(c) for c in nx.simple_cycles(graph)]


def static_lock_graph(
    sources: tuple[tuple[str, str], ...] | list[tuple[str, str]]
) -> LockGraph:
    """Build the S003 lock graph for a source set (sanitizer cross-check)."""
    return _Program(tuple(sources)).lock_graph


# --------------------------------------------------------------------------
# rule registration
# --------------------------------------------------------------------------


def _model(ctx: RuleContext) -> _Program | None:
    if not ctx.py_sources:
        return None
    prog = ctx.cache.get("concurrency-program")
    if prog is None:
        prog = _Program(ctx.py_sources)
        ctx.cache["concurrency-program"] = prog
    return prog  # type: ignore[no-any-return]


def _replay(ctx: RuleContext, code: str) -> Iterator[Violation]:
    prog = _model(ctx)
    if prog is not None:
        yield from prog.violations[code]


@rule(
    "S001",
    "async-blocking-call",
    Severity.ERROR,
    Stage.CONCURRENCY,
    "Blocking call (sleep, sync I/O, subprocess, flock) reachable from "
    "event-loop code without run_in_executor, or an unconditional sleep "
    "in a poll loop that owns a threading.Event",
)
def check_async_blocking(ctx: RuleContext) -> Iterator[Violation]:
    yield from _replay(ctx, "S001")


@rule(
    "S002",
    "unguarded-lock-acquire",
    Severity.ERROR,
    Stage.CONCURRENCY,
    "Lock or flock acquired outside with/try-finally: an exception "
    "between acquire and release leaks the lock",
)
def check_unguarded_acquire(ctx: RuleContext) -> Iterator[Violation]:
    yield from _replay(ctx, "S002")


@rule(
    "S003",
    "lock-order-cycle",
    Severity.ERROR,
    Stage.CONCURRENCY,
    "Cycle in the static lock acquisition graph across threading/asyncio "
    "locks and flock sites (deadlock when taken in opposite orders)",
)
def check_lock_order(ctx: RuleContext) -> Iterator[Violation]:
    yield from _replay(ctx, "S003")


@rule(
    "S004",
    "unguarded-shared-write",
    Severity.ERROR,
    Stage.CONCURRENCY,
    "Read-modify-write of an attribute shared between scheduler-loop and "
    "thread roles with no dominating lock acquisition",
)
def check_shared_writes(ctx: RuleContext) -> Iterator[Violation]:
    yield from _replay(ctx, "S004")


@rule(
    "S005",
    "non-atomic-publish",
    Severity.ERROR,
    Stage.CONCURRENCY,
    "Multi-process class publishes shared state without the tmp-file + "
    "os.replace idiom, reads it without corruption guards, or serves "
    "index hits without rank-aware revalidation",
)
def check_atomic_publish(ctx: RuleContext) -> Iterator[Violation]:
    yield from _replay(ctx, "S005")


@rule(
    "S006",
    "fire-and-forget-task",
    Severity.WARNING,
    Stage.CONCURRENCY,
    "asyncio.create_task/ensure_future whose result is never awaited or "
    "exception-handled: failures vanish silently",
)
def check_fire_and_forget(ctx: RuleContext) -> Iterator[Violation]:
    yield from _replay(ctx, "S006")
