"""Per-module flow summaries: the unit of project-wide analysis.

The flow layer never imports the code it analyses.  Instead each file
is parsed once (``ast`` only) and reduced to a :class:`ModuleSummary` —
a digest of exactly the facts the interprocedural rules need:

* **bindings** — what every top-level name refers to, with imports
  resolved to absolute dotted targets (``from ..rng import spawn`` in
  ``repro.exec.plan`` becomes ``repro.rng.spawn``);
* **functions** — one :class:`FunctionSummary` per function/method
  (plus a ``<module>`` pseudo-function for module-level code) carrying
  its outgoing calls, its writes to module/class-level state (RL007),
  its unordered-iteration events (RL008), and a compact dataflow
  skeleton (assignments, returns, manifest/metric sinks) that the
  RL009 taint engine solves interprocedurally;
* **shard entry points** — functions registered as shard units, found
  either syntactically (``WorkUnit(fn=...)``,
  ``ShardPlan.enumerate(fn, ...)``) or via the explicit
  :func:`repro.exec.plan.shard_unit` marker decorator.

Summaries live only in memory: every ``repro-lint --project`` run
parses each file afresh.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: Call targets (suffix-matched on the resolved dotted name) whose
#: ``fn`` argument registers a shard-unit entry point.
_UNIT_CTORS = ("WorkUnit",)
_UNIT_ENUMERATORS = ("ShardPlan.enumerate",)

#: The explicit entry-point marker decorator (suffix-matched).
_UNIT_MARKER = "shard_unit"

#: Functions whose return value carries wall-clock taint (RL009
#: sources).  Prefix-matched so everything quarantined inside the
#: timing module counts.
_TIMING_MODULE = "repro.obs.timing"

#: Mutating method names that count as a write when called on a
#: module-level binding (RL007).  Deliberately conservative: read-like
#: or ambiguous names stay off the list.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard",
})

#: Scan calls whose result order is filesystem-dependent (RL008).
_SCAN_METHODS = frozenset({"glob", "rglob", "iterdir"})
_SCAN_FUNCTIONS = frozenset({"os.listdir", "os.scandir"})

#: Set-returning methods (RL008) — only trusted on a set-typed base.
_SET_METHODS = frozenset({
    "intersection", "union", "difference", "symmetric_difference", "copy",
})

#: ``RunManifest`` constructor kwargs that land in the fingerprint
#: (``phases`` is excluded: the fingerprint strips ``wall_s`` keys).
_MANIFEST_FIELDS = ("parameters", "headline", "metrics")

#: OBS metric emitters: a non-``exec.``-prefixed metric name makes the
#: value a fingerprinted sink (RL009).
_METRIC_EMITTERS = frozenset({"gauge_set", "counter_inc", "histogram_record"})
_STRIPPED_METRIC_PREFIXES = ("exec.",)


@dataclass
class WriteEvent:
    """One write to module- or class-level state (an RL007 candidate)."""

    target: str  # resolved dotted name of the state written
    detail: str  # human description ("global assignment", "dict store", ...)
    line: int
    col: int


@dataclass
class IterEvent:
    """One iteration over an unordered collection (an RL008 candidate)."""

    kind: str  # "set" or "scan"
    detail: str
    line: int
    col: int


@dataclass
class Flow:
    """One dataflow step: ``target`` gets a value read from ``reads``
    and the results of ``calls`` (``target=None`` for a ``return``)."""

    target: str | None
    reads: tuple[str, ...]
    calls: tuple[str, ...]
    source: bool  # the expression contains a direct timing source
    line: int
    col: int


@dataclass
class Sink:
    """A fingerprinted destination (RL009): manifest field or metric."""

    kind: str  # "manifest", "manifest-item", or "metric"
    field: str  # kwarg/attr name or the metric name
    reads: tuple[str, ...]
    calls: tuple[str, ...]
    source: bool
    line: int
    col: int


@dataclass
class FunctionSummary:
    """Everything the flow rules need to know about one function."""

    qualname: str  # "fn", "Class.method", or "<module>"
    line: int
    col: int
    calls: list[tuple[str, int, int]] = field(default_factory=list)
    writes: list[WriteEvent] = field(default_factory=list)
    iters: list[IterEvent] = field(default_factory=list)
    flows: list[Flow] = field(default_factory=list)
    sinks: list[Sink] = field(default_factory=list)
    returns_source: bool = False  # a return expr is a direct source


@dataclass
class ClassSummary:
    """One class: its (resolved) bases and member names."""

    name: str
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """The flow digest of one parsed module."""

    module: str
    path: str
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    #: Top-level names bound in this module (defs, classes, assignments).
    toplevel: list[str] = field(default_factory=list)
    #: Resolved references registered as shard-unit entry points.
    shard_entries: list[str] = field(default_factory=list)
    parse_error: bool = False


# ----------------------------------------------------------------------
# Module naming and import resolution
# ----------------------------------------------------------------------


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, walking up through packages."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


def _package_of(module: str, is_package: bool) -> str:
    """The package a module's relative imports resolve against."""
    if is_package:
        return module
    return module.rpartition(".")[0]


def _resolve_import_from(
    node: ast.ImportFrom, package: str
) -> str | None:
    """Absolute dotted base of a ``from X import ...`` statement."""
    if node.level == 0:
        return node.module or None
    base_parts = package.split(".") if package else []
    drop = node.level - 1
    if drop > len(base_parts):
        return None
    if drop:
        base_parts = base_parts[: len(base_parts) - drop]
    if node.module:
        base_parts.extend(node.module.split("."))
    return ".".join(base_parts) if base_parts else None


def _dotted(node: ast.AST) -> str | None:
    """A ``Name``/``Attribute`` chain as ``"a.b.c"``, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------


def summarize_source(source: str, path: str, module: str) -> ModuleSummary:
    """Reduce one module's source text to its flow summary."""
    summary = ModuleSummary(module=module, path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        summary.parse_error = True
        return summary
    _Extractor(summary, tree).run()
    return summary


def summarize_file(path: Path, module: str | None = None) -> ModuleSummary:
    """Parse and summarize one file on disk."""
    if module is None:
        module = module_name_for(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        summary = ModuleSummary(module=module, path=str(path))
        summary.parse_error = True
        return summary
    return summarize_source(source, str(path), module)


class _Extractor:
    """Walks one module tree, filling in its :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary, tree: ast.Module) -> None:
        self.summary = summary
        self.tree = tree
        self.module = summary.module
        self.is_package = summary.path.endswith("__init__.py")
        self.package = _package_of(self.module, self.is_package)
        #: local top-level name -> absolute dotted target.
        self.bindings: dict[str, str] = {}

    # -- pass 1: module-level bindings ---------------------------------

    def run(self) -> None:
        self._collect_bindings()
        body_fn = self._extract_function(
            self.tree, "<module>", class_name=None
        )
        self.summary.functions["<module>"] = body_fn
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(node)

    def _collect_bindings(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.bindings[local] = target
                    self.summary.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_import_from(node, self.package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = f"{base}.{alias.name}"
                    self.bindings[local] = target
                    self.summary.imports[local] = target
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                self.bindings[node.name] = f"{self.module}.{node.name}"
                self.summary.toplevel.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            self.bindings.setdefault(
                                name_node.id, f"{self.module}.{name_node.id}"
                            )
                            self.summary.toplevel.append(name_node.id)

    def _add_class(self, node: ast.ClassDef) -> None:
        cls = ClassSummary(name=node.name)
        for base in node.bases:
            dotted = _dotted(base)
            if dotted:
                cls.bases.append(self._substitute(dotted))
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods.append(member.name)
                self._add_function(member, class_name=node.name)
        self.summary.classes[node.name] = cls

    def _add_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        qualname = (
            f"{class_name}.{node.name}" if class_name else node.name
        )
        fn = self._extract_function(node, qualname, class_name)
        fn.line, fn.col = node.lineno, node.col_offset + 1
        self.summary.functions[qualname] = fn
        for decorator in node.decorator_list:
            name = _dotted(
                decorator.func if isinstance(decorator, ast.Call) else decorator
            )
            if name and self._substitute(name).split(".")[-1] == _UNIT_MARKER:
                self.summary.shard_entries.append(
                    f"{self.module}.{qualname}"
                )

    # -- name substitution ---------------------------------------------

    def _substitute(self, dotted: str) -> str:
        """Replace the head of a dotted name with its module binding."""
        head, _, rest = dotted.partition(".")
        target = self.bindings.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    # -- pass 2: per-function extraction -------------------------------

    def _extract_function(
        self,
        node: ast.AST,
        qualname: str,
        class_name: str | None,
    ) -> FunctionSummary:
        fn = FunctionSummary(
            qualname=qualname,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
        )
        walker = _FunctionWalker(self, fn, node, class_name)
        walker.run()
        return fn


class _FunctionWalker:
    """Single pass over one function body (nested defs folded in)."""

    def __init__(
        self,
        extractor: _Extractor,
        fn: FunctionSummary,
        node: ast.AST,
        class_name: str | None,
    ) -> None:
        self.x = extractor
        self.fn = fn
        self.node = node
        self.class_name = class_name
        self.is_module_body = fn.qualname == "<module>"
        self.locals: set[str] = set()
        self.globals_declared: set[str] = set()
        #: local var -> resolved constructor dotted name ("...Tracer").
        self.ctor_types: dict[str, str] = {}
        #: local var -> "set" | "scan" (RL008 kind tracking).
        self.iter_kinds: dict[str, str] = {}

    # -- driving -------------------------------------------------------

    def run(self) -> None:
        self._collect_locals()
        for child in ast.iter_child_nodes(self.node):
            if isinstance(self.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child in self.node.decorator_list:
                    continue
            if self.is_module_body and isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue  # their bodies are summarized separately
            self._visit(child)

    def _collect_locals(self) -> None:
        if isinstance(self.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = self.node.args
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *( [args.vararg] if args.vararg else [] ),
                *( [args.kwarg] if args.kwarg else [] ),
            ):
                self.locals.add(arg.arg)
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Global):
                self.globals_declared.update(sub.names)
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign)
                    else [sub.target]
                )
                for target in targets:
                    for name in ast.walk(target):
                        # Only Store-context names bind: the base of
                        # ``d[k] = v`` is a *read* of d, not a local.
                        if isinstance(name, ast.Name) and isinstance(
                            name.ctx, ast.Store
                        ):
                            self.locals.add(name.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for name in ast.walk(sub.target):
                    if isinstance(name, ast.Name):
                        self.locals.add(name.id)
            elif isinstance(sub, ast.comprehension):
                for name in ast.walk(sub.target):
                    if isinstance(name, ast.Name):
                        self.locals.add(name.id)
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    if item.optional_vars is not None:
                        for name in ast.walk(item.optional_vars):
                            if isinstance(name, ast.Name):
                                self.locals.add(name.id)
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                self.locals.add(sub.name)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if sub is not self.node:
                    self.locals.add(sub.name)
        self.locals -= self.globals_declared
        if self.is_module_body:
            # Module-level names are the module's bindings, not locals.
            self.locals = set()

    # -- name resolution inside this function --------------------------

    def _resolve(self, dotted: str) -> str | None:
        """Resolve a dotted reference to an absolute-ish name.

        Locals hide module bindings; constructor-typed locals resolve
        method calls (``tracer.span`` -> ``...Tracer.span``);
        ``self``/``cls`` resolve into the enclosing class.
        """
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and self.class_name and rest:
            return f"{self.x.module}.{self.class_name}.{rest}"
        if head in self.locals:
            ctor = self.ctor_types.get(head)
            if ctor and rest and "." not in rest:
                return f"{ctor}.{rest}"
            return None
        substituted = self.x._substitute(dotted)
        if substituted == dotted and "." not in dotted:
            # A bare, unbound name: builtins stay as-is; anything else
            # is unknown.
            return dotted
        return substituted

    # -- visiting ------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._handle_call(sub)
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._handle_assign(sub)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                self._check_iterable(sub.iter)
            elif isinstance(sub, ast.comprehension):
                self._check_iterable(sub.iter)
            elif isinstance(sub, ast.Return) and sub.value is not None:
                reads, calls, source = self._expr_facts(sub.value)
                self.fn.flows.append(Flow(
                    target=None, reads=reads, calls=calls, source=source,
                    line=sub.lineno, col=sub.col_offset + 1,
                ))
                if source:
                    self.fn.returns_source = True

    # -- calls ----------------------------------------------------------

    def _handle_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        resolved = self._resolve(dotted)
        if resolved is None:
            return
        self.fn.calls.append(
            (resolved, node.lineno, node.col_offset + 1)
        )
        self._check_mutator(node, dotted, resolved)
        self._check_entry_registration(node, resolved)
        self._check_sinks(node, resolved)

    def _check_mutator(
        self, node: ast.Call, dotted: str, resolved: str
    ) -> None:
        """``X.append(...)`` on a module-level binding is a write."""
        parts = dotted.split(".")
        if len(parts) < 2 or parts[-1] not in _MUTATORS:
            return
        base = ".".join(parts[:-1])
        target = self._module_state_target(base)
        if target is not None:
            self.fn.writes.append(WriteEvent(
                target=target,
                detail=f"mutating call {dotted}()",
                line=node.lineno, col=node.col_offset + 1,
            ))

    def _check_entry_registration(
        self, node: ast.Call, resolved: str
    ) -> None:
        """Record ``fn=`` references of WorkUnit/ShardPlan.enumerate."""
        fn_arg: ast.AST | None = None
        if resolved.split(".")[-1] in _UNIT_CTORS:
            for kw in node.keywords:
                if kw.arg == "fn":
                    fn_arg = kw.value
            if fn_arg is None and len(node.args) >= 2:
                fn_arg = node.args[1]
        elif any(resolved.endswith(e) for e in _UNIT_ENUMERATORS):
            for kw in node.keywords:
                if kw.arg == "fn":
                    fn_arg = kw.value
            if fn_arg is None and node.args:
                fn_arg = node.args[0]
        if fn_arg is None:
            return
        dotted = _dotted(fn_arg)
        if dotted is None:
            return
        ref = self._resolve(dotted)
        if ref is None:
            return
        if "." not in ref:
            ref = f"{self.x.module}.{ref}"
        self.summary_entries().append(ref)

    def summary_entries(self) -> list[str]:
        return self.x.summary.shard_entries

    # -- sinks (RL009) ---------------------------------------------------

    def _check_sinks(self, node: ast.Call, resolved: str) -> None:
        last = resolved.split(".")[-1]
        if last == "RunManifest":
            for kw in node.keywords:
                if kw.arg in _MANIFEST_FIELDS:
                    reads, calls, source = self._expr_facts(kw.value)
                    self.fn.sinks.append(Sink(
                        kind="manifest", field=kw.arg,
                        reads=reads, calls=calls, source=source,
                        line=kw.value.lineno, col=kw.value.col_offset + 1,
                    ))
        elif last in _METRIC_EMITTERS and node.args:
            name_arg = node.args[0]
            if not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                return
            metric = name_arg.value
            if metric.startswith(_STRIPPED_METRIC_PREFIXES):
                return
            for value in (*node.args[1:], *[kw.value for kw in node.keywords]):
                reads, calls, source = self._expr_facts(value)
                if reads or calls or source:
                    self.fn.sinks.append(Sink(
                        kind="metric", field=metric,
                        reads=reads, calls=calls, source=source,
                        line=node.lineno, col=node.col_offset + 1,
                    ))

    # -- assignments -----------------------------------------------------

    def _handle_assign(
        self, node: ast.Assign | ast.AnnAssign | ast.AugAssign
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        value = node.value
        for target in targets:
            self._check_state_write(target, node)
            self._check_item_sink(target, value, node)
        if value is None:
            return
        reads, calls, source = self._expr_facts(value)
        for target in targets:
            if isinstance(target, ast.Name):
                extra = (
                    (target.id,) if isinstance(node, ast.AugAssign) else ()
                )
                self.fn.flows.append(Flow(
                    target=target.id, reads=reads + extra, calls=calls,
                    source=source, line=node.lineno,
                    col=node.col_offset + 1,
                ))
                self._track_types(target.id, value)

    def _track_types(self, name: str, value: ast.AST) -> None:
        kind = self._iter_kind(value)
        if kind is not None:
            self.iter_kinds[name] = kind
        else:
            self.iter_kinds.pop(name, None)
        self.ctor_types.pop(name, None)
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func)
            if dotted is not None:
                resolved = self._resolve(dotted)
                if resolved and resolved.split(".")[-1][:1].isupper():
                    self.ctor_types[name] = resolved

    def _check_state_write(self, target: ast.AST, node: ast.AST) -> None:
        """Classify stores that hit module- or class-level state."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self.fn.writes.append(WriteEvent(
                    target=f"{self.x.module}.{target.id}",
                    detail=f"assignment to global {target.id!r}",
                    line=line, col=col,
                ))
            return
        if isinstance(target, ast.Subscript):
            base = _dotted(target.value)
            if base is None:
                return
            state = self._module_state_target(base)
            if state is not None:
                self.fn.writes.append(WriteEvent(
                    target=state,
                    detail=f"item store into {base}[...]",
                    line=line, col=col,
                ))
            return
        if isinstance(target, ast.Attribute):
            state = self._attribute_write_target(target)
            if state is not None:
                self.fn.writes.append(WriteEvent(
                    target=state,
                    detail=f"attribute store {_dotted(target) or target.attr}",
                    line=line, col=col,
                ))

    def _attribute_write_target(self, target: ast.Attribute) -> str | None:
        # type(self).attr = ... / self.__class__.attr = ...
        value = target.value
        if self.class_name is not None:
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "type"
                and len(value.args) == 1
                and isinstance(value.args[0], ast.Name)
                and value.args[0].id == "self"
            ):
                return f"{self.x.module}.{self.class_name}.{target.attr}"
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "__class__"
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                return f"{self.x.module}.{self.class_name}.{target.attr}"
        base = _dotted(value)
        if base is None:
            return None
        state = self._module_state_target(base)
        if state is None:
            return None
        return f"{state}.{target.attr}"

    def _module_state_target(self, base: str) -> str | None:
        """Resolve ``base`` if it names module/class-level state.

        Locals (including ``self``) are instance-or-stack state and are
        never flagged; anything that resolves through a module binding
        — this module's or an imported one's — is shared state.
        """
        head = base.split(".")[0]
        if head in ("self", "cls") or head in self.locals:
            return None
        resolved = self.x._substitute(base)
        if resolved == base and "." not in base:
            if base not in self.x.bindings:
                return None  # unknown bare name (builtin, etc.)
            resolved = self.x.bindings[base]
        return resolved

    # -- RL009 subscript sinks ------------------------------------------

    def _check_item_sink(
        self, target: ast.AST, value: ast.AST | None, node: ast.AST
    ) -> None:
        """``m.headline[...] = tainted`` style manifest-field stores."""
        if value is None or not isinstance(target, ast.Subscript):
            return
        if not isinstance(target.value, ast.Attribute):
            return
        if target.value.attr not in _MANIFEST_FIELDS:
            return
        reads, calls, source = self._expr_facts(value)
        if reads or calls or source:
            self.fn.sinks.append(Sink(
                kind="manifest-item", field=target.value.attr,
                reads=reads, calls=calls, source=source,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
            ))

    # -- RL008 iteration ------------------------------------------------

    def _iter_kind(self, expr: ast.AST) -> str | None:
        """Whether an expression yields unordered elements."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, ast.Name):
            return self.iter_kinds.get(expr.id)
        if not isinstance(expr, ast.Call):
            return None
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _SCAN_METHODS
        ):
            # Any ``<expr>.glob/rglob/iterdir(...)`` — including bases
            # that aren't name chains, like ``Path(root).glob(...)``.
            return "scan"
        dotted = _dotted(expr.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        last = parts[-1]
        if last in ("sorted",):
            return None
        if last in ("list", "tuple", "reversed") and expr.args:
            # Order-preserving wrappers propagate the inner kind.
            return self._iter_kind(expr.args[0])
        if last in ("set", "frozenset"):
            return "set"
        resolved = self._resolve(dotted) or dotted
        if resolved in _SCAN_FUNCTIONS:
            return "scan"
        if (
            len(parts) >= 2
            and last in _SET_METHODS
            and self.iter_kinds.get(parts[0]) == "set"
        ):
            return "set"
        return None

    def _check_iterable(self, iterable: ast.AST) -> None:
        kind = self._iter_kind(iterable)
        if kind is None:
            return
        desc = _dotted(iterable if not isinstance(iterable, ast.Call)
                       else iterable.func)
        if (
            desc is None
            and isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
        ):
            desc = iterable.func.attr
        if kind == "set":
            detail = (
                f"iteration over unordered set "
                f"{desc + ' ' if desc else ''}(order is hash-dependent)"
            ).replace("  ", " ")
        else:
            detail = (
                f"iteration over unsorted filesystem scan"
                + (f" {desc}()" if desc else "")
                + " (order is OS-dependent)"
            )
        self.fn.iters.append(IterEvent(
            kind=kind, detail=detail,
            line=getattr(iterable, "lineno", 1),
            col=getattr(iterable, "col_offset", 0) + 1,
        ))

    # -- expression facts for taint -------------------------------------

    def _expr_facts(
        self, expr: ast.AST
    ) -> tuple[tuple[str, ...], tuple[str, ...], bool]:
        """(local reads, resolved calls, direct-source?) of an expression."""
        reads: list[str] = []
        calls: list[str] = []
        source = False
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in self.locals:
                    reads.append(sub.id)
            elif isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted is None:
                    continue
                resolved = self._resolve(dotted)
                if resolved is None:
                    continue
                calls.append(resolved)
                if is_timing_source(resolved):
                    source = True
        return tuple(dict.fromkeys(reads)), tuple(dict.fromkeys(calls)), source


def is_timing_source(resolved: str) -> bool:
    """Whether a resolved call name originates wall-clock taint."""
    return resolved.startswith(_TIMING_MODULE + ".")
