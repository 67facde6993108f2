"""Repo-specific static analysis (``python -m repro.devtools lint src/``).

Every figure in the reproduction is regenerated from a seed, so the
simulation core must be *hermetic* — no wall-clock reads, no hidden
global randomness, loud typed failures rather than strippable ``assert``
statements — and the layering the paper's cost model rests on (storage
and charging in the kernel, pure routing, pure placement) must hold
across module boundaries.  Generic linters cannot know these rules; this
one does.  It is one pass: every file is read and parsed **once** into a
:class:`Program` (modules, classes, a conservative call graph), and
every rule below is an entry in one registry run over that model.

Rule catalogue (rationale in ``docs/static_analysis.md``):

========  ==============================================================
Code      Rule
========  ==============================================================
LHT001    No wall-clock reads (``time.time``, ``datetime.now``, …)
          inside the deterministic packages ``sim/``, ``dht/``, ``core/``,
          ``cache/``, ``baselines/``, ``resilience/``, ``serve/``.
LHT002    No global randomness (stdlib ``random``, ``numpy.random``
          module-level functions, unseeded ``default_rng()``) inside the
          deterministic packages; randomness flows through
          :mod:`repro.sim.rng` or an explicitly seeded generator.
LHT003    No bare ``assert`` in library code — ``python -O`` strips
          asserts, so invariants must raise typed :mod:`repro.errors`
          exceptions.
LHT004    No mutable default arguments.
LHT006    Concrete substrates built on
          :class:`repro.dht.kernel.SubstrateBase` do not override the
          kernel-owned storage methods (``put``, ``get``, ``remove``,
          ``peek``, ``local_write``, ``peer_loads``).
LHT007    Transitive hermeticity — no chain of project-internal calls
          from a deterministic package reaches a wall-clock or
          global-randomness sink hiding in a non-deterministic module
          (closes the helper-function hole in LHT001/LHT002).
LHT008    Kernel encapsulation — the :class:`repro.dht.kernel.PeerStore`
          storage surface (``store_of``, ``find_holder``, ``all_keys``,
          ``loads``, private attributes) is touched only from the kernel
          module itself; the membership surface (``add_peer``,
          ``remove_peer``, ``move_keys``, ``adopt``, ``is_live``,
          ``sorted_ids``, ``successor_of``) only from substrate modules
          inside ``repro.dht``.
LHT009    Route purity — substrate ``route``/``route_point``/``route_id``
          implementations (and every helper they reach) must not mutate
          peer stores, charge metrics, or call kernel storage methods:
          the kernel charges each routed operation exactly once.
LHT010    Exception-flow completeness — a broad handler (bare ``except``,
          ``Exception``, ``BaseException``) around code that can raise a
          typed :class:`~repro.errors.DHTError` must re-raise; a typed
          DHT-error handler must not be a silent ``pass``.  Degraded
          results are data (the PRESENT/ABSENT/UNREACHABLE trichotomy),
          never silently absorbed exceptions.
LHT011    Parallel-engine safety — a callable shipped to a
          multiprocessing pool (``--jobs N`` spawn workers) must be a
          module-level function, and nothing it transitively calls may
          rebind a global or mutate another module's module-level state:
          spawn workers re-import fresh modules, so such state silently
          diverges between ``--jobs 1`` and ``--jobs N``.
LHT013    Placement purity — ``replicas_for`` implementations of
          :class:`~repro.dht.kernel.PlacementPolicy` subclasses (and
          every helper they reach) must be pure reads of topology:
          no metrics charging, no peer-store mutation or kernel storage
          calls, and — stricter than LHT009 — no wall clock and no
          randomness.  A sampled or time-dependent placement would
          silently break replica agreement between writer and reader.
LHT014    Routed reads go through ``ReadPath`` — in ``repro.core`` and
          ``repro.serve``, no ``.get`` / ``.multi_get`` / ``.probe_get``
          on a DHT (called or passed as a callable) outside
          ``core/lookup.py``.  A read answers a value, ``None`` or
          ``NO_REPLY``; a plan or bucket check handed ``NO_REPLY``
          would read a lost reply as a node, so only
          :class:`~repro.core.lookup.ReadPath` may see one.
========  ==============================================================

(There is no LHT005: ``abc`` already refuses to instantiate a ``DHT``
subclass that misses an abstract method.  There is no LHT012: the
registry-completeness test in ``tests/test_registry.py`` walks
``SubstrateBase.__subclasses__()`` at run time and reports any concrete
substrate missing from :mod:`repro.dht.registry`.)

Violations can be suppressed per line with ``# noqa`` or
``# noqa: LHT003, LHT007`` trailing comments; ``--select`` / ``--ignore``
restrict a run; ``--format json`` emits a machine-readable report that
includes the analysis wall time (so CI logs expose a pathological
slowdown).  Test modules (``tests/`` directories, ``test_*.py``,
``conftest.py``) are skipped: the contracts bind library code only.  The
module is dependency-free (stdlib ``ast`` only).

Call-graph construction caveats
-------------------------------

Resolution is *conservative by name*, entirely static.  It can see:

* plain calls to module-level functions, through ``import`` /
  ``from ... import`` aliases and package-relative imports;
* ``self.method(...)`` through the class's statically declared base
  chain (simple-name matching);
* attribute chains rooted at imported modules (``mod.helper()``);
* well-known receiver names (``*.metrics``, ``*.peers``, ``dht``/
  ``inner``) for the contract rules that key on them.

It cannot see: calls through containers or variables (``FUNCS[name]()``,
``f = g; f()``), ``getattr`` dispatch, callbacks passed as arguments, or
monkeypatching.  Dynamic dispatch therefore never *creates* findings
(no false positives from it) but can hide a path (false negatives); the
test suite pins both directions with synthetic fixtures.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "KERNEL_OWNED_METHODS",
    "LINT_RULES",
    "Program",
    "Violation",
    "build_program",
    "lint_paths",
    "lint_source",
    "main",
]

#: Methods the peer-store kernel owns; substrates must not re-grow them
#: (LHT006) — storage and metrics charging live in exactly one place.
KERNEL_OWNED_METHODS = frozenset(
    {"put", "get", "remove", "peek", "local_write", "peer_loads"}
)

#: Top-level packages whose modules must be hermetic (LHT001/LHT002).
#: ``cache`` and ``baselines`` perform routed operations whose counts
#: feed figures, so they carry the same contract as the core; ``serve``
#: feeds the gated serving benchmark, so its time is the simulated
#: clock and its randomness the seeded workload generator.
DETERMINISTIC_PACKAGES = frozenset(
    {"sim", "dht", "core", "resilience", "cache", "baselines", "serve"}
)

#: Fully qualified callables that read the wall clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` attributes that are *not* global mutable state.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Constructors whose call as a default argument produces shared state.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)

#: PeerStore methods/attributes only the kernel module may touch.
PEERSTORE_STORAGE_SURFACE = frozenset(
    {"store_of", "find_holder", "all_keys", "loads", "_stores",
     "_sorted_ids"}
)

#: PeerStore membership methods substrates (repro.dht.*) may use.
PEERSTORE_MEMBERSHIP_SURFACE = frozenset(
    {"add_peer", "remove_peer", "move_keys", "adopt", "is_live",
     "sorted_ids", "successor_of"}
)

#: Kernel-owned storage methods a route path may never call on self.
KERNEL_STORAGE_METHODS = KERNEL_OWNED_METHODS - {"peer_loads"}

#: Substrate routing entry points checked for purity (LHT009).
ROUTE_METHODS = frozenset({"route", "route_point", "route_id"})

#: Placement-policy entry points checked for purity (LHT013).
PLACEMENT_METHODS = frozenset({"replicas_for"})

#: DHT interface methods that are routed (may raise typed DHTError).
ROUTED_OP_NAMES = frozenset(
    {"put", "get", "remove", "multi_get", "multi_put", "local_write"}
)

#: DHT reads that can answer ``NO_REPLY`` (LHT014).
ROUTED_READ_NAMES = frozenset({"get", "multi_get", "probe_get"})

#: Packages whose routed reads must go through ReadPath (LHT014), and
#: the one module that implements it.
READ_PATH_PACKAGES = frozenset({"core", "serve"})
READ_PATH_MODULE = ("core", "lookup.py")

#: Receiver names conventionally bound to a DHT in this codebase.
DHT_RECEIVER_NAMES = frozenset({"dht", "_dht", "inner", "substrate"})

#: repro.errors exception classes that are (or include) DHTError.
DHT_ERROR_NAMES = frozenset(
    {"DHTError", "NoSuchPeerError", "EmptyOverlayError", "RoutingError",
     "CircuitOpenError"}
)
_REPRO_ERROR_NAMES = DHT_ERROR_NAMES | {"ReproError"}
_BROAD_HANDLER_NAMES = frozenset({"Exception", "BaseException"})

#: Process-pool fan-out methods whose first argument ships to workers.
POOL_SHIP_METHODS = frozenset(
    {"map", "map_async", "imap", "imap_unordered", "starmap",
     "starmap_async", "apply", "apply_async", "submit"}
)

#: Method names that mutate the container they are called on.
_CONTAINER_MUTATORS = frozenset(
    {"append", "extend", "insert", "add", "update", "clear", "pop",
     "popitem", "remove", "discard", "setdefault"}
)

#: Synthetic function name for a module's statements outside any
#: top-level function or method (class bodies, decorators, defaults).
MODULE_BODY = "<module>"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9,\s]+))?", re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class Violation:
    """One lint finding."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """A JSON-serializable dict (``--format json`` output shape)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


# ----------------------------------------------------------------------
# Program model
# ----------------------------------------------------------------------


@dataclass(slots=True)
class CallSite:
    """One call expression, as resolved as static analysis allows."""

    line: int
    col: int
    #: Fully qualified target: a project qualname, an external dotted
    #: path (``time.time``), or ``None`` when resolution failed.
    target: str | None
    #: Whether ``target`` names a function parsed from the scanned tree.
    project: bool
    #: Method name for attribute calls (``x.m()`` -> ``m``).
    method: str | None
    #: Dotted receiver of an attribute call (``self.peers.store_of`` ->
    #: ``("self", "peers")``); empty for plain-name calls.
    receiver: tuple[str, ...]
    #: True when an enclosing ``try`` catches DHT-typed errors, so a
    #: raised DHTError would not escape this function.
    guarded: bool
    #: True when the call had no positional or keyword arguments.
    no_args: bool


@dataclass(slots=True)
class _Handler:
    line: int
    col: int
    bare: bool
    type_names: tuple[str, ...]  # simple names of caught types
    reraises: bool
    pass_only: bool


@dataclass(slots=True)
class _TryInfo:
    handlers: list[_Handler]
    body_calls: list[CallSite] = field(default_factory=list)


@dataclass(slots=True)
class _Worker:
    kind: str  # "lambda" | "bound" | "closure" | "name" | "opaque"
    name: str | None  # resolvable dotted name for kind == "name"


@dataclass(slots=True)
class FunctionNode:
    """One function/method (or a module's :data:`MODULE_BODY`)."""

    qualname: str
    module: str
    cls: str | None
    path: Path
    line: int
    calls: list[CallSite] = field(default_factory=list)
    #: Direct hermeticity sinks: (line, col, kind, dotted callable).
    sinks: list[tuple[int, int, str, str]] = field(default_factory=list)
    #: ``raise`` statements of DHT-typed exceptions.
    raises_dht: bool = False
    trys: list[_TryInfo] = field(default_factory=list)
    #: Names of functions defined *inside* this one (closure hazards).
    local_defs: set[str] = field(default_factory=set)
    #: ``global`` declarations: (line, col, names).
    global_decls: list[tuple[int, int, str]] = field(default_factory=list)
    #: Mutations of another module's module-level state:
    #: (line, col, dotted description).
    foreign_mutations: list[tuple[int, int, str]] = field(
        default_factory=list
    )
    #: Route-purity offenses: (line, col, description).
    purity_offenses: list[tuple[int, int, str]] = field(default_factory=list)
    #: Pool fan-out sites: (line, col, worker descriptor).
    ship_sites: list[tuple[int, int, _Worker]] = field(default_factory=list)


@dataclass(slots=True)
class ClassInfo:
    qualname: str
    module: str
    path: Path
    line: int
    #: Resolved base references: project class qualnames, or
    #: ``"?Name"`` markers for bases outside the scanned tree.
    bases: list[str] = field(default_factory=list)
    #: method name -> function qualname.
    methods: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass(slots=True)
class ModuleInfo:
    name: str  # primary dotted name
    path: Path
    tree: ast.Module
    #: Every node of ``tree``, flattened once for the rules that scan it.
    nodes: list[ast.AST]
    source_lines: list[str]
    deterministic: bool
    #: local alias -> dotted module path.
    import_modules: dict[str, str] = field(default_factory=dict)
    #: local alias -> dotted object path (module.attr).
    import_objects: dict[str, str] = field(default_factory=dict)
    #: module-level def/class simple names.
    toplevel: set[str] = field(default_factory=set)

    @property
    def in_dht_package(self) -> bool:
        return "dht" in self.path.parts[:-1]


class Program:
    """The parsed whole-program view: modules, classes, call graph."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: every accepted dotted spelling -> primary module name.
        self.aliases: dict[str, str] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionNode] = {}
        #: Unreadable (E902) and unparsable (E999) files.
        self.parse_errors: list[Violation] = []

    @property
    def n_files(self) -> int:
        return len(self.modules) + len(self.parse_errors)

    # -- name resolution ------------------------------------------------

    def canonical_module(self, dotted: str) -> tuple[str, str] | None:
        """Split ``dotted`` into (primary module name, remainder)."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            prefix = ".".join(parts[:end])
            primary = self.aliases.get(prefix)
            if primary is not None:
                return primary, ".".join(parts[end:])
        return None

    def project_target(self, dotted: str) -> str | None:
        """Project function qualname ``dotted`` refers to, if any.

        A dotted path naming a scanned class resolves to its
        ``__init__`` (constructing an object runs it).
        """
        hit = self.canonical_module(dotted)
        if hit is None:
            return None
        primary, rest = hit
        if not rest:
            return None
        qual = f"{primary}.{rest}"
        if qual in self.functions:
            return qual
        if qual in self.classes:
            return self.classes[qual].methods.get("__init__")
        return None

    def mro_lookup(self, class_qual: str, method: str) -> str | None:
        """Find ``method`` on a class or its project-visible ancestors."""
        seen: set[str] = set()
        stack = [class_qual]
        while stack:
            qual = stack.pop()
            if qual in seen or qual.startswith("?"):
                continue
            seen.add(qual)
            info = self.classes.get(qual)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    def class_reaches(self, class_qual: str, simple_name: str) -> bool:
        """Whether the base chain reaches a class named ``simple_name``.

        Matching is by simple name: the scanned set may spell
        ``repro.dht.kernel.SubstrateBase`` or a fixture's
        ``kernel.SubstrateBase``.
        """
        seen: set[str] = set()
        stack = list(self.classes[class_qual].bases)
        while stack:
            ref = stack.pop()
            if ref in seen:
                continue
            seen.add(ref)
            name = ref[1:] if ref.startswith("?") else ref.split(".")[-1]
            if name == simple_name:
                return True
            if not ref.startswith("?") and ref in self.classes:
                stack.extend(self.classes[ref].bases)
        return False

    def subclasses_of(self, simple_name: str) -> Iterator[ClassInfo]:
        """Classes whose base chain reaches ``simple_name`` (itself
        excluded)."""
        for cls in self.classes.values():
            if cls.name != simple_name and self.class_reaches(
                cls.qualname, simple_name
            ):
                yield cls

    def reachable(
        self, entry: str, boundary: frozenset[str] = frozenset()
    ) -> Iterator[FunctionNode]:
        """Project functions reachable from ``entry`` through resolved
        calls; edges into a method named in ``boundary`` are not
        followed (the rule reports the edge itself)."""
        visited: set[str] = set()
        stack = [entry]
        while stack:
            qual = stack.pop()
            fn = self.functions.get(qual)
            if qual in visited or fn is None:
                continue
            visited.add(qual)
            yield fn
            for call in fn.calls:
                if (
                    call.project
                    and call.target is not None
                    and call.target.split(".")[-1] not in boundary
                ):
                    stack.append(call.target)


# ----------------------------------------------------------------------
# Parsing: files, modules, imports, classes
# ----------------------------------------------------------------------


def _is_test_file(path: Path) -> bool:
    """Test modules may use bare asserts and ad-hoc randomness."""
    name = path.name
    return (
        "tests" in path.parts
        or name.startswith("test_")
        or name == "conftest.py"
    )


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if "__pycache__" not in file.parts:
                    yield file
        elif path.suffix == ".py":
            yield path


def _module_names(path: Path, root: Path) -> list[str]:
    """Dotted names a file answers to: scan-root-relative, and (when the
    path contains a ``repro`` package) the installed ``repro.*`` name."""
    names = []
    try:
        rel = path.resolve().relative_to(root.resolve())
        parts = list(rel.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        if parts:
            names.append(".".join(parts))
    except ValueError:
        pass
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        installed = ".".join(parts[parts.index("repro"):])
        if installed and installed not in names:
            names.append(installed)
    if not names:
        names.append(path.stem)
    return names


def _collect_imports(info: ModuleInfo) -> None:
    """Fill the module's alias tables (function-level imports included)."""
    pkg_parts = info.name.split(".")
    is_package = info.path.name == "__init__.py"
    for node in info.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.import_modules[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    info.import_modules[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = pkg_parts if is_package else pkg_parts[:-1]
                base = base[: len(base) - (node.level - 1)] if node.level > 1 else base
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            if not module:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.import_objects[local] = f"{module}.{alias.name}"


def _resolve_dotted(info: ModuleInfo, expr: ast.expr) -> str | None:
    """Dotted path a ``Name``/``Attribute`` chain denotes, if resolvable."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    parts.reverse()
    if root in info.import_objects:
        return ".".join([info.import_objects[root], *parts])
    if root in info.import_modules:
        return ".".join([info.import_modules[root], *parts])
    if root in info.toplevel:
        return ".".join([info.name, root, *parts])
    if not parts:
        return root  # builtins like Exception
    return None


def _simple_name(expr: ast.expr) -> str | None:
    """Last component of a ``Name``/``Attribute`` expression."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _collect_classes(program: Program, info: ModuleInfo) -> None:
    for node in info.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        qual = f"{info.name}.{node.name}"
        cls = ClassInfo(
            qualname=qual, module=info.name, path=info.path, line=node.lineno
        )
        for base in node.bases:
            dotted = _resolve_dotted(info, base)
            resolved: str | None = None
            if dotted is not None:
                hit = program.canonical_module(dotted)
                if hit is not None and hit[1]:
                    # Classes of later modules register after this pass,
                    # so accept any in-tree dotted path as a class ref.
                    resolved = f"{hit[0]}.{hit[1]}"
            if resolved is None:
                name = _simple_name(base)
                if name is None:
                    continue
                resolved = f"?{name}"
            cls.bases.append(resolved)
        for item in node.body:
            if isinstance(item, _DEFS):
                cls.methods[item.name] = f"{qual}.{item.name}"
        program.classes[qual] = cls


# ----------------------------------------------------------------------
# Function-body extraction
# ----------------------------------------------------------------------


def _sink_kind(dotted: str, no_args: bool) -> str | None:
    """Hermeticity sink classification for an external call target."""
    if dotted in _WALL_CLOCK_CALLS:
        return "wall-clock"
    if dotted.startswith("random."):
        return "global-randomness"
    for prefix in ("numpy.random.", "np.random."):
        if dotted.startswith(prefix):
            attr = dotted[len(prefix):].split(".")[0]
            if attr not in _NUMPY_RANDOM_ALLOWED:
                return "global-randomness"
            if attr == "default_rng" and no_args:
                return "global-randomness"
    return None


class _FunctionExtractor(ast.NodeVisitor):
    """Collect calls, sinks, raises, trys, and mutations of one function.

    Nested function/lambda bodies are flattened into the enclosing
    function: their behavior runs under its name (or ships with it to a
    worker), which is exactly the granularity the contract rules need.
    """

    def __init__(
        self, program: Program, info: ModuleInfo, fn: FunctionNode
    ) -> None:
        self.program = program
        self.info = info
        self.fn = fn
        self._try_stack: list[_TryInfo] = []

    # -- helpers -------------------------------------------------------

    def _resolve_call(
        self, func: ast.expr
    ) -> tuple[str | None, bool, str | None, tuple[str, ...]]:
        """(target, is_project, method, receiver) for a call's func."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        parts.reverse()
        if not isinstance(node, ast.Name):
            return None, False, parts[-1] if parts else None, ()
        root = node.id
        if not parts:  # plain-name call
            dotted = _resolve_dotted(self.info, node)
            if dotted is None or dotted == root and root not in self.info.toplevel:
                return None, False, None, ()
            target = self.program.project_target(dotted)
            if target is not None:
                return target, True, None, ()
            return dotted, False, None, ()
        if root == "self" and self.fn.cls is not None:
            if len(parts) == 1:
                target = self.program.mro_lookup(self.fn.cls, parts[0])
                return target, target is not None, parts[0], ("self",)
            return None, False, parts[-1], ("self", *parts[:-1])
        dotted = _resolve_dotted(self.info, func)
        if dotted is not None:
            target = self.program.project_target(dotted)
            if target is not None:
                return target, True, parts[-1], (root, *parts[:-1])
            return dotted, False, parts[-1], (root, *parts[:-1])
        return None, False, parts[-1], (root, *parts[:-1])

    def _guarded(self) -> bool:
        return any(
            h.bare
            or set(h.type_names) & (_REPRO_ERROR_NAMES | _BROAD_HANDLER_NAMES)
            for try_info in self._try_stack
            for h in try_info.handlers
        )

    def _receiver_of_target(self, expr: ast.expr) -> tuple[str, ...]:
        """Dotted chain under a Subscript/Attribute store target."""
        parts: list[str] = []
        node = expr
        while True:
            if isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            elif isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Name):
                parts.append(node.id)
                break
            else:
                return ()
        parts.reverse()
        return tuple(parts)

    def _foreign_module_attr(self, chain: tuple[str, ...]) -> str | None:
        """``module.NAME`` description if the chain's root resolves to a
        *different* scanned module's top-level binding."""
        if not chain:
            return None
        root = chain[0]
        base = self.info.import_modules.get(root) or (
            self.info.import_objects.get(root)
        )
        if base is None:
            return None
        hit = self.program.canonical_module(base)
        if hit is None:
            return None
        primary, rest = hit
        if primary == self.info.name:
            return None
        if rest:
            attr = rest.split(".")[0]
        elif len(chain) >= 2:  # the alias names the module itself
            attr = chain[1]
        else:
            return None
        return f"{primary}.{attr}"

    # -- visitors ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.fn.local_defs.add(node.name)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Global(self, node: ast.Global) -> None:
        self.fn.global_decls.append(
            (node.lineno, node.col_offset + 1, ", ".join(node.names))
        )

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if exc is not None and _simple_name(exc) in DHT_ERROR_NAMES:
            self.fn.raises_dht = True
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        handlers = []
        for handler in node.handlers:
            types: list[ast.expr] = []
            if isinstance(handler.type, ast.Tuple):
                types = list(handler.type.elts)
            elif handler.type is not None:
                types = [handler.type]
            names = [n for n in map(_simple_name, types) if n is not None]
            body = handler.body
            reraises = any(
                isinstance(n, ast.Raise) for stmt in body for n in ast.walk(stmt)
            )
            pass_only = all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in body
            )
            handlers.append(
                _Handler(
                    line=handler.lineno,
                    col=handler.col_offset + 1,
                    bare=handler.type is None,
                    type_names=tuple(names),
                    reraises=reraises,
                    pass_only=pass_only,
                )
            )
        try_info = _TryInfo(handlers=handlers)
        self.fn.trys.append(try_info)
        self._try_stack.append(try_info)
        for stmt in node.body:
            self.visit(stmt)
        self._try_stack.pop()
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in [*node.orelse, *node.finalbody]:
            self.visit(stmt)

    def visit_Call(self, node: ast.Call) -> None:
        target, is_project, method, receiver = self._resolve_call(node.func)
        call = CallSite(
            line=node.lineno,
            col=node.col_offset + 1,
            target=target,
            project=is_project,
            method=method,
            receiver=receiver,
            guarded=self._guarded(),
            no_args=not node.args and not node.keywords,
        )
        self.fn.calls.append(call)
        for try_info in self._try_stack:
            try_info.body_calls.append(call)

        if target is not None and not is_project:
            kind = _sink_kind(target, call.no_args)
            if kind is not None:
                self.fn.sinks.append((call.line, call.col, kind, target))

        # Route purity: metrics charging, kernel storage, store access.
        dotted_receiver = ".".join(receiver)
        offense: str | None = None
        if receiver and receiver[-1] == "metrics" and method is not None:
            offense = f"charges metrics via {dotted_receiver}.{method}()"
        elif receiver == ("self",) and method in KERNEL_STORAGE_METHODS:
            offense = f"calls kernel storage method self.{method}()"
        elif (
            receiver
            and receiver[-1] == "peers"
            and method in PEERSTORE_STORAGE_SURFACE
        ):
            offense = (
                f"reads/writes peer stores via {dotted_receiver}.{method}()"
            )
        elif (
            receiver
            and receiver[-1] == "store"
            and method in _CONTAINER_MUTATORS
        ):
            offense = f"mutates a peer store via {dotted_receiver}.{method}()"
        if offense is not None:
            self.fn.purity_offenses.append((call.line, call.col, offense))

        # Parallel-engine safety: container mutation of foreign globals,
        # and pool fan-out sites.
        if method in _CONTAINER_MUTATORS and receiver:
            foreign = self._foreign_module_attr(receiver)
            if foreign is not None:
                self.fn.foreign_mutations.append(
                    (call.line, call.col, f"{foreign}.{method}()")
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in POOL_SHIP_METHODS
            and node.args
        ):
            self.fn.ship_sites.append(
                (call.line, call.col, self._worker_of(node.args[0]))
            )
        self.generic_visit(node)

    def _worker_of(self, arg: ast.expr) -> _Worker:
        if isinstance(arg, ast.Lambda):
            return _Worker("lambda", None)
        if isinstance(arg, ast.Attribute):
            root = arg.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "self":
                return _Worker("bound", arg.attr)
        elif isinstance(arg, ast.Name):
            if arg.id in self.fn.local_defs:
                return _Worker("closure", arg.id)
        else:
            return _Worker("opaque", None)
        dotted = _resolve_dotted(self.info, arg)
        if dotted is not None:
            return _Worker("name", dotted)
        return _Worker("opaque", _simple_name(arg))

    def _record_store_target(self, target: ast.expr) -> None:
        chain = self._receiver_of_target(target)
        if not chain or not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        if "store" in chain[1:] or chain[-1] == "store":
            self.fn.purity_offenses.append(
                (target.lineno, target.col_offset + 1,
                 f"mutates a peer store via {'.'.join(chain)}")
            )
        foreign = self._foreign_module_attr(chain)
        if foreign is not None:
            self.fn.foreign_mutations.append(
                (target.lineno, target.col_offset + 1, foreign)
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store_target(node.target)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Program construction
# ----------------------------------------------------------------------


def build_program(paths: Sequence[Path | str]) -> Program:
    """Read and parse every Python file under ``paths`` — once — into a
    :class:`Program`.

    Test modules (``tests/`` directories, ``test_*.py``, ``conftest.py``)
    are excluded: the contracts bind library code only.  Raises
    :class:`ConfigurationError` for a missing path — a typo must not
    turn into a silently green gate.
    """
    resolved = [Path(p) for p in paths]
    for path in resolved:
        if not path.exists():
            raise ConfigurationError(f"no such file or directory: {path}")
    sources: list[tuple[Path, Path, str]] = []
    unreadable: list[Violation] = []
    for file in _iter_python_files(resolved):
        if _is_test_file(file):
            continue
        root = next((p for p in resolved if p.is_dir()), file.parent)
        try:
            sources.append((file, root, file.read_text(encoding="utf-8")))
        except OSError as exc:
            unreadable.append(
                Violation(str(file), 1, 1, "E902", f"cannot read file: {exc}")
            )
    program = _program_from_sources(sources)
    program.parse_errors.extend(unreadable)
    return program


def _program_from_sources(sources: Sequence[tuple[Path, Path, str]]) -> Program:
    """Build the model from ``(path, scan root, source text)`` triples."""
    program = Program()
    infos: list[ModuleInfo] = []
    for file, root, source in sources:
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            program.parse_errors.append(
                Violation(
                    str(file), exc.lineno or 1, (exc.offset or 0) + 1,
                    "E999", f"syntax error: {exc.msg}",
                )
            )
            continue
        names = _module_names(file, root)
        info = ModuleInfo(
            name=names[0],
            path=file,
            tree=tree,
            nodes=list(ast.walk(tree)),
            source_lines=source.splitlines(),
            deterministic=any(
                part in DETERMINISTIC_PACKAGES for part in file.parts[:-1]
            ),
        )
        for name in names:
            program.aliases.setdefault(name, info.name)
        program.modules[info.name] = info
        infos.append(info)

    # Imports and top-level names (the alias table must be complete).
    for info in infos:
        for node in info.tree.body:
            if isinstance(node, (*_DEFS, ast.ClassDef)):
                info.toplevel.add(node.name)
        _collect_imports(info)
    # Classes (bases resolve through the alias table).
    for info in infos:
        _collect_classes(program, info)
    # Function registry (so calls can resolve to any function).
    for info in infos:
        for qual, cls_qual, node in _function_defs(info):
            program.functions[qual] = FunctionNode(
                qualname=qual, module=info.name, cls=cls_qual,
                path=info.path, line=node.lineno,
            )
        body_qual = f"{info.name}.{MODULE_BODY}"
        program.functions[body_qual] = FunctionNode(
            qualname=body_qual, module=info.name, cls=None,
            path=info.path, line=1,
        )
    # Bodies.
    for info in infos:
        _extract_bodies(program, info)
    return program


def _function_defs(
    info: ModuleInfo,
) -> Iterator[tuple[str, str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """(qualname, owning class qualname, node) of every top-level
    function and every method of a top-level class."""
    for node in info.tree.body:
        if isinstance(node, _DEFS):
            yield f"{info.name}.{node.name}", None, node
        elif isinstance(node, ast.ClassDef):
            cls_qual = f"{info.name}.{node.name}"
            for item in node.body:
                if isinstance(item, _DEFS):
                    yield f"{cls_qual}.{item.name}", cls_qual, item


def _extract_bodies(program: Program, info: ModuleInfo) -> None:
    """Attribute every node of the module to exactly one function.

    A function's or method's ``body`` belongs to it; everything else —
    module statements, class-level statements, decorators, argument
    defaults, base-class expressions — runs at import time and belongs
    to the module's :data:`MODULE_BODY`.
    """
    own = {
        id(node): _FunctionExtractor(program, info, program.functions[qual])
        for qual, _, node in _function_defs(info)
    }
    module_body = _FunctionExtractor(
        program, info, program.functions[f"{info.name}.{MODULE_BODY}"]
    )

    def extract(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef):
            visit_body = extract
        elif id(node) in own:
            visit_body = own[id(node)].visit
        else:
            module_body.visit(node)
            return
        for name, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    (visit_body if name == "body" else module_body.visit)(child)

    for node in info.tree.body:
        extract(node)


# ----------------------------------------------------------------------
# Dataflow fixpoints
# ----------------------------------------------------------------------


def _taint_map(program: Program) -> dict[str, tuple[str | None, str, str]]:
    """qualname -> (next hop, sink kind, sink dotted) for every function
    from which a hermeticity sink is reachable via project calls."""
    taint: dict[str, tuple[str | None, str, str]] = {}
    worklist: list[str] = []
    for qual, fn in program.functions.items():
        if fn.sinks:
            _, _, kind, dotted = fn.sinks[0]
            taint[qual] = (None, kind, dotted)
            worklist.append(qual)
    reverse: dict[str, list[str]] = {}
    for qual, fn in program.functions.items():
        for call in fn.calls:
            if call.project and call.target is not None:
                reverse.setdefault(call.target, []).append(qual)
    while worklist:
        callee = worklist.pop()
        _, kind, dotted = taint[callee]
        for caller in reverse.get(callee, ()):
            if caller not in taint:
                taint[caller] = (callee, kind, dotted)
                worklist.append(caller)
    return taint


def _taint_chain(
    taint: dict[str, tuple[str | None, str, str]], qual: str
) -> str:
    links = [qual]
    cursor: str | None = qual
    while cursor is not None:
        nxt, _, dotted = taint[cursor]
        if nxt is None:
            links.append(f"{dotted}()")
            break
        links.append(nxt)
        cursor = nxt
    if len(links) > 5:
        links = links[:2] + ["..."] + links[-2:]
    return " -> ".join(links)


def _call_may_raise(call: CallSite, may_raise: set[str]) -> bool:
    if call.project and call.target in may_raise:
        return True
    return bool(
        call.method in ROUTED_OP_NAMES
        and call.receiver
        and call.receiver[-1] in DHT_RECEIVER_NAMES
    )


def _may_raise_dht(program: Program) -> set[str]:
    """Functions from which a typed DHTError can escape (conservative)."""
    may_raise: set[str] = set()
    for qual, fn in program.functions.items():
        if fn.raises_dht:
            may_raise.add(qual)
        elif fn.cls is not None and qual.split(".")[-1] in ROUTED_OP_NAMES:
            # A routed-op method on a DHT-derived class is presumed to
            # raise: substrates raise RoutingError/NoSuchPeerError even
            # when this concrete body does not spell a ``raise``.
            if program.class_reaches(fn.cls, "DHT"):
                may_raise.add(qual)
    changed = True
    while changed:
        changed = False
        for qual, fn in program.functions.items():
            if qual not in may_raise and any(
                not call.guarded and _call_may_raise(call, may_raise)
                for call in fn.calls
            ):
                may_raise.add(qual)
                changed = True
    return may_raise


# ----------------------------------------------------------------------
# Rules: each yields (path, line, col, message); the driver stamps the
# rule's code, applies ``# noqa``, and sorts.
# ----------------------------------------------------------------------

Finding = tuple[Path, int, int, str]


def _at(info: ModuleInfo, node: ast.stmt | ast.expr, message: str) -> Finding:
    return info.path, node.lineno, node.col_offset + 1, message


def _direct_sinks(
    program: Program, kind: str
) -> Iterator[tuple[FunctionNode, int, int, str]]:
    """Sinks of one kind spelled directly inside a deterministic module."""
    for fn in program.functions.values():
        if program.modules[fn.module].deterministic:
            for line, col, sink_kind, dotted in fn.sinks:
                if sink_kind == kind:
                    yield fn, line, col, dotted


def _check_wall_clock(program: Program) -> Iterator[Finding]:
    """LHT001."""
    for fn, line, col, dotted in _direct_sinks(program, "wall-clock"):
        yield fn.path, line, col, (
            f"wall-clock call {dotted}() — simulated time comes from "
            "repro.sim.clock.Clock"
        )


def _check_global_randomness(program: Program) -> Iterator[Finding]:
    """LHT002: global-state calls, and ``from random import ...``."""
    for fn, line, col, dotted in _direct_sinks(program, "global-randomness"):
        if dotted.startswith("random."):
            message = (
                f"global-state call {dotted}() — draw from repro.sim.rng "
                "streams instead"
            )
        elif dotted.endswith(".default_rng"):
            message = (
                "unseeded numpy.random.default_rng() — pass an explicit "
                "seed (see repro.sim.rng.derive_seed)"
            )
        else:
            message = (
                f"numpy global random state {dotted}() — construct a "
                "seeded Generator via repro.sim.rng"
            )
        yield fn.path, line, col, message
    for info in program.modules.values():
        if not info.deterministic:
            continue
        for node in info.nodes:
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "random"
                and not node.level
            ):
                names = ", ".join(alias.name for alias in node.names)
                yield _at(
                    info, node,
                    f"stdlib random import ({names}) — draw from "
                    "repro.sim.rng streams instead",
                )


def _check_bare_assert(program: Program) -> Iterator[Finding]:
    """LHT003."""
    for info in program.modules.values():
        for node in info.nodes:
            if isinstance(node, ast.Assert):
                yield _at(
                    info, node,
                    "bare assert in library code — raise a typed "
                    "repro.errors exception (asserts vanish under python -O)",
                )


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and _simple_name(node.func) in _MUTABLE_FACTORIES
    )


def _check_mutable_defaults(program: Program) -> Iterator[Finding]:
    """LHT004."""
    for info in program.modules.values():
        for node in info.nodes:
            if not isinstance(node, (*_DEFS, ast.Lambda)):
                continue
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is not None and _is_mutable_literal(default):
                    name = getattr(node, "name", "<lambda>")
                    yield _at(
                        info, default,
                        f"mutable default argument in {name}() — default "
                        "to None and construct inside the body",
                    )


def _dht_substrates(program: Program) -> Iterator[ClassInfo]:
    """``SubstrateBase`` subclasses defined inside a ``dht`` package."""
    for cls in program.subclasses_of("SubstrateBase"):
        if program.modules[cls.module].in_dht_package:
            yield cls


def _check_kernel_overrides(program: Program) -> Iterator[Finding]:
    """LHT006: substrates must not override kernel-owned methods.

    A class whose base chain reaches ``SubstrateBase`` gets storage,
    oracle reads, and metrics charging from the kernel; re-defining any
    of :data:`KERNEL_OWNED_METHODS` would fork the accounting the
    equivalence goldens pin.  Wrappers are exempt — their base chain
    goes through ``DelegatingDHT``, never ``SubstrateBase``.
    """
    for cls in _dht_substrates(program):
        overridden = sorted(set(cls.methods) & KERNEL_OWNED_METHODS)
        if overridden:
            yield cls.path, cls.line, 1, (
                f"substrate {cls.name} overrides kernel-owned "
                f"method(s): {', '.join(overridden)} — storage and "
                "metrics charging belong to SubstrateBase"
            )


def _check_hermeticity(program: Program) -> Iterator[Finding]:
    """LHT007: deterministic code must not reach a sink through helpers.

    Only the *frontier* edge is reported — the call site where control
    leaves the deterministic packages into a tainted helper — so one
    hidden sink yields one actionable finding, not a cascade up every
    caller.  Sinks directly inside a deterministic package are
    LHT001/LHT002 findings.
    """
    taint = _taint_map(program)
    for qual, fn in program.functions.items():
        if not program.modules[fn.module].deterministic:
            continue
        for call in fn.calls:
            if not call.project or call.target not in taint:
                continue
            callee = program.functions[call.target]
            if program.modules[callee.module].deterministic:
                continue  # the sink (or a closer frontier) is flagged there
            _, kind, _ = taint[call.target]
            yield fn.path, call.line, call.col, (
                f"{kind} sink reachable from deterministic code: "
                f"{_taint_chain(taint, call.target)} (called from {qual})"
            )


def _check_kernel_encapsulation(program: Program) -> Iterator[Finding]:
    """LHT008: the PeerStore surface is layered — storage in the kernel
    only, membership in ``repro.dht`` substrate modules only."""
    for info in program.modules.values():
        if info.name.endswith("dht.kernel") or info.name == "kernel":
            continue
        in_dht = info.in_dht_package
        for node in info.nodes:
            if isinstance(node, ast.Attribute):
                value = node.value
                receiver_is_peers = (
                    isinstance(value, ast.Attribute) and value.attr == "peers"
                ) or (isinstance(value, ast.Name) and value.id == "peers")
                if not receiver_is_peers:
                    continue
                if node.attr in PEERSTORE_STORAGE_SURFACE:
                    yield _at(
                        info, node,
                        f"peer-store storage surface *.peers.{node.attr} "
                        "used outside repro.dht.kernel — storage and "
                        "metrics accounting live in the kernel only",
                    )
                elif node.attr in PEERSTORE_MEMBERSHIP_SURFACE and not in_dht:
                    yield _at(
                        info, node,
                        f"peer-store membership method *.peers.{node.attr} "
                        "used outside the repro.dht substrate modules",
                    )
            elif isinstance(node, ast.Call) and not in_dht:
                dotted = _resolve_dotted(info, node.func)
                if (
                    dotted is not None
                    and dotted.split(".")[-1] == "PeerStore"
                    and program.canonical_module(dotted) is not None
                ):
                    yield _at(
                        info, node,
                        "PeerStore constructed outside the repro.dht "
                        "package — per-peer stores belong to substrates",
                    )


def _purity_offenses(
    program: Program, base: str, entries: frozenset[str], *, with_sinks: bool
) -> Iterator[tuple[str, FunctionNode, int, int, str]]:
    """(entry label, offending function, line, col, description) for every
    purity offense reachable from an ``entries`` method of a ``base``
    subclass, stopping at the kernel storage boundary."""
    for cls in program.subclasses_of(base):
        for method_name, fn_qual in cls.methods.items():
            if method_name not in entries:
                continue
            label = f"{cls.name}.{method_name}"
            for fn in program.reachable(fn_qual, KERNEL_STORAGE_METHODS):
                for line, col, description in fn.purity_offenses:
                    yield label, fn, line, col, description
                if with_sinks:
                    for line, col, kind, dotted in fn.sinks:
                        yield label, fn, line, col, (
                            f"reaches {kind} sink {dotted}"
                        )


def _check_route_purity(program: Program) -> Iterator[Finding]:
    """LHT009: route paths never store, charge, or touch peer stores."""
    for label, fn, line, col, description in _purity_offenses(
        program, "SubstrateBase", ROUTE_METHODS, with_sinks=False
    ):
        yield fn.path, line, col, (
            f"route path {label} -> {fn.qualname.split('.')[-1]} "
            f"{description} — the kernel charges routed operations "
            "exactly once"
        )


def _check_placement_purity(program: Program) -> Iterator[Finding]:
    """LHT013: placement policies are pure reads of topology — the
    LHT009 offenses plus the hermeticity sinks LHT009 leaves to LHT007."""
    for label, fn, line, col, description in _purity_offenses(
        program, "PlacementPolicy", PLACEMENT_METHODS, with_sinks=True
    ):
        yield fn.path, line, col, (
            f"placement path {label} -> {fn.qualname.split('.')[-1]} "
            f"{description} — replica placement is a pure, deterministic "
            "read of topology"
        )


def _check_read_path(program: Program) -> Iterator[Finding]:
    """LHT014: repro.core/repro.serve read the DHT through ReadPath."""
    for info in program.modules.values():
        parts = info.path.parts
        if not READ_PATH_PACKAGES & set(parts[:-1]):
            continue
        if tuple(parts[-2:]) == READ_PATH_MODULE:
            continue
        for node in info.nodes:
            if not (
                isinstance(node, ast.Attribute)
                and node.attr in ROUTED_READ_NAMES
            ):
                continue
            receiver = node.value
            name = (
                receiver.id if isinstance(receiver, ast.Name)
                else receiver.attr if isinstance(receiver, ast.Attribute)
                else None
            )
            if name in DHT_RECEIVER_NAMES:
                yield _at(
                    info, node,
                    f"routed read {name}.{node.attr} outside ReadPath — "
                    "it may answer NO_REPLY, which only "
                    "repro.core.lookup.ReadPath may turn into a rescue "
                    "or a miss",
                )


def _check_exception_flow(program: Program) -> Iterator[Finding]:
    """LHT010: no broad swallow of DHTError; no silent typed swallow."""
    may_raise = _may_raise_dht(program)
    for fn in program.functions.values():
        for try_info in fn.trys:
            risky = [c for c in try_info.body_calls
                     if _call_may_raise(c, may_raise)]
            if not risky:
                continue
            for handler in try_info.handlers:
                caught = set(handler.type_names)
                if (
                    handler.bare or caught & _BROAD_HANDLER_NAMES
                ) and not handler.reraises:
                    spelled = (
                        "bare except" if handler.bare
                        else f"except {', '.join(handler.type_names)}"
                    )
                    source = risky[0].target or (
                        f"{'.'.join(risky[0].receiver)}.{risky[0].method}"
                    )
                    yield fn.path, handler.line, handler.col, (
                        f"{spelled} swallows typed DHTError signals "
                        f"(e.g. from {source}) in {fn.qualname} — "
                        "catch repro.errors types, re-raise, or "
                        "return a degraded result"
                    )
                elif caught & _REPRO_ERROR_NAMES and handler.pass_only:
                    yield fn.path, handler.line, handler.col, (
                        f"except {', '.join(handler.type_names)}: "
                        f"pass silently discards a DHT failure in "
                        f"{fn.qualname} — record degraded state "
                        "(MatchStatus.UNREACHABLE / complete=False) "
                        "or propagate"
                    )


#: LHT011 messages for workers that cannot cross the spawn boundary.
_UNSHIPPABLE = {
    "lambda": "lambda shipped to a process pool — spawn workers need a "
    "picklable module-level function",
    "bound": "bound method self.{name} shipped to a process pool — it "
    "drags its instance (and any captured state) across the spawn "
    "boundary",
    "closure": "locally defined function {name} shipped to a process "
    "pool — closures are not picklable by spawn workers; move it to "
    "module level",
}


def _check_parallel_safety(program: Program) -> Iterator[Finding]:
    """LHT011: pool-shipped callables are module-level and state-clean."""
    for site in program.functions.values():
        for line, col, worker in site.ship_sites:
            if worker.kind in _UNSHIPPABLE:
                yield site.path, line, col, _UNSHIPPABLE[worker.kind].format(
                    name=worker.name
                )
                continue
            target = (
                program.project_target(worker.name)
                if worker.kind == "name" and worker.name is not None
                else None
            )
            if target is None:
                continue
            for fn in program.reachable(target):
                for at_line, at_col, names in fn.global_decls:
                    yield fn.path, at_line, at_col, (
                        f"pool worker {target} rebinds module-level "
                        f"name(s) {names} via `global` — spawn workers get "
                        "a fresh module, so this state diverges from the "
                        "parent"
                    )
                for at_line, at_col, description in fn.foreign_mutations:
                    yield fn.path, at_line, at_col, (
                        f"pool worker {target} mutates another "
                        f"module's state ({description}) — cross-module "
                        "mutable state is invisible to --jobs N spawn "
                        "workers"
                    )


@dataclass(frozen=True, slots=True)
class Rule:
    """One registry entry: a code, its catalogue line, and its check."""

    code: str
    summary: str
    check: Callable[[Program], Iterable[Finding]]


RULES: tuple[Rule, ...] = (
    Rule("LHT001", "wall-clock read in a deterministic package",
         _check_wall_clock),
    Rule("LHT002", "global randomness in a deterministic package",
         _check_global_randomness),
    Rule("LHT003", "bare assert in library code", _check_bare_assert),
    Rule("LHT004", "mutable default argument", _check_mutable_defaults),
    Rule("LHT006", "substrate overrides a kernel-owned storage method",
         _check_kernel_overrides),
    Rule("LHT007", "transitive wall-clock/randomness sink reachable from a "
         "deterministic package", _check_hermeticity),
    Rule("LHT008", "peer-store surface touched outside its owning layer",
         _check_kernel_encapsulation),
    Rule("LHT009", "route implementation mutates stores, charges metrics, "
         "or calls kernel storage", _check_route_purity),
    Rule("LHT010", "exception handler swallows typed DHT errors",
         _check_exception_flow),
    Rule("LHT011", "process-pool worker rebinds or mutates cross-module "
         "state", _check_parallel_safety),
    Rule("LHT013", "placement policy charges metrics, mutates storage, or "
         "depends on wall clock/randomness", _check_placement_purity),
    Rule("LHT014", "routed read outside ReadPath", _check_read_path),
)

#: Rule code -> one-line description (the user-facing catalogue).
LINT_RULES: dict[str, str] = {rule.code: rule.summary for rule in RULES}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def _wanted_codes(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> set[str]:
    """Codes a run reports; an unknown code is an error, not a no-op."""
    known = set(LINT_RULES) | {"E902", "E999"}
    for code in [*(select or ()), *(ignore or ())]:
        if code.upper() not in known:
            raise ConfigurationError(
                f"unknown rule code {code!r}; known codes: {sorted(known)}"
            )
    wanted = {code.upper() for code in select} if select else known
    return wanted - {code.upper() for code in ignore or ()}


def _suppressed(violation: Violation, source_lines: Sequence[str]) -> bool:
    """Whether a ``# noqa`` on the violation's line covers its code."""
    if not 1 <= violation.line <= len(source_lines):
        return False
    match = _NOQA_RE.search(source_lines[violation.line - 1])
    if match is None:
        return False
    listed = {
        code.strip().upper()
        for code in (match.group("codes") or "").split(",")
        if code.strip()
    }
    return not listed or violation.code in listed  # no codes: blanket


def _run_rules(program: Program, wanted: set[str]) -> list[Violation]:
    """Run every wanted rule over the program; sorted, deduplicated,
    ``# noqa``-filtered violations."""
    violations = {v for v in program.parse_errors if v.code in wanted}
    lines_by_path = {
        info.path: info.source_lines for info in program.modules.values()
    }
    for rule in RULES:
        if rule.code not in wanted:
            continue
        # A finding can be reached once per route entry or pool site;
        # the set reports each (path, line, col, code, message) once.
        for path, line, col, message in rule.check(program):
            violation = Violation(str(path), line, col, rule.code, message)
            if not _suppressed(violation, lines_by_path[path]):
                violations.add(violation)
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.code))


def lint_paths(
    paths: Sequence[Path | str],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Violation]:
    """Lint files and directories as one program; violations, sorted.

    Raises :class:`ConfigurationError` for a missing path or an unknown
    rule code in ``select``/``ignore``.
    """
    wanted = _wanted_codes(select, ignore)
    return _run_rules(build_program(paths), wanted)


def lint_source(
    source: str, path: Path | str = "<string>"
) -> list[Violation]:
    """Lint one module's source text as a one-file program."""
    path = Path(path)
    program = _program_from_sources([(path, path.parent, source)])
    return _run_rules(program, _wanted_codes(None, None))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools lint",
        description="Repo-specific static analysis for the LHT "
        "reproduction (rules LHT001-LHT014 bar LHT005/LHT012, one pass).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint as one program",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="CODE",
        help="only report these rule codes (repeatable)",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="CODE",
        help="suppress these rule codes (repeatable)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json includes analysis wall time)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, description in sorted(LINT_RULES.items()):
            print(f"{code}  {description}")
        return 0

    started = time.perf_counter()
    try:
        wanted = _wanted_codes(args.select, args.ignore)
        program = build_program(args.paths)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = _run_rules(program, wanted)
    wall_s = time.perf_counter() - started
    if args.format == "json":
        counts = Counter(violation.code for violation in violations)
        print(
            json.dumps(
                {
                    "tool": "repro.devtools.lint",
                    "rules": LINT_RULES,
                    "files": program.n_files,
                    "violations": [v.to_dict() for v in violations],
                    "counts": dict(sorted(counts.items())),
                    "analysis_wall_s": round(wall_s, 4),
                },
                indent=2,
            )
        )
        return 1 if violations else 0
    for violation in violations:
        print(violation.format())
    if violations:
        print(
            f"{len(violations)} violation(s) in {program.n_files} file(s) "
            f"({wall_s:.2f}s)"
        )
        return 1
    print(f"ok: {program.n_files} file(s) clean ({wall_s:.2f}s)")
    return 0

