"""Cross-module contract rules (RL102, RL104–RL106, RL108).

These rules extract facts from several modules at once — the package
``__all__`` lists, the tracer emitters and their consumers, the ingest
format's writer and reader — and check that the pieces still agree.
Every anchor module is located by its dotted suffix within the linted file
set, so the same rules run unchanged over the real tree and over miniature
fixture trees in the test suite; a rule whose anchors are absent simply
does not fire.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.tools.lint.engine import Finding, Module, Project, Rule, register


def _top_level_names(tree: ast.Module) -> set:
    """Names bound at module top level (descending into if/try blocks)."""
    names: set = set()

    def visit(body) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    _bind_target(target, names)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                _bind_target(node.target, names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        names.add("*")
                    else:
                        names.add(alias.asname or alias.name)
            elif isinstance(node, ast.If):
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                for handler in node.handlers:
                    visit(handler.body)
                visit(node.orelse)
                visit(node.finalbody)
            elif isinstance(node, (ast.For, ast.While, ast.With)):
                if isinstance(node, ast.For):
                    _bind_target(node.target, names)
                visit(node.body)
    visit(tree.body)
    return names


def _bind_target(target: ast.AST, names: set) -> None:
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(element, names)


def _all_declaration(module: Module):
    """The ``__all__`` list node and its string entries, if literal."""
    for node in module.tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            entries = []
            for element in node.value.elts:
                if not (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)):
                    return node, None  # dynamically built — don't guess
                entries.append((element.value, element.lineno,
                                element.col_offset))
            return node, entries
    return None, None


@register
class AllNamesResolve(Rule):
    """RL102 — every ``__all__`` entry is defined in its module."""

    code = "RL102"
    name = "all-resolves"
    summary = "__all__ names must be defined/imported; no duplicates"

    def check_module(self, module: Module) -> Iterable[Finding]:
        node, entries = _all_declaration(module)
        if node is None or entries is None:
            return
        defined = _top_level_names(module.tree)
        if "*" in defined:
            return  # a star import may bind anything — don't guess
        seen: set = set()
        for name, lineno, col in entries:
            if name in seen:
                yield Finding(self.code,
                              f"duplicate __all__ entry {name!r}",
                              str(module.path), lineno, col)
                continue
            seen.add(name)
            if name not in defined and name != "__version__":
                yield Finding(self.code,
                              f"__all__ names {name!r} which the module "
                              f"never defines or imports",
                              str(module.path), lineno, col)


#: A span name: at least two lowercase dotted segments (``db.hop``,
#: ``sgp.decision``) — and never a filename.
_SPAN_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
_FILE_SUFFIXES = (".py", ".json", ".jsonl", ".txt", ".md", ".csv", ".yml",
                  ".yaml", ".toml")


def _docstring_positions(tree: ast.Module) -> set:
    positions: set = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                positions.add((body[0].value.lineno,
                               body[0].value.col_offset))
    return positions


@register
class SpanNameContract(Rule):
    """RL104 — trace consumers only reference span names that are emitted.

    Emitted names are the literal first arguments of ``tracer.begin`` /
    ``tracer.point`` calls anywhere in the package; consumer literals in
    ``tools/trace_cli.py`` and ``telemetry/profile.py`` (filters, default
    reports) must come from that set, or the report would silently match
    nothing.
    """

    code = "RL104"
    name = "span-name-contract"
    summary = ("span-name literals in trace_cli/profile must be emitted "
               "by some tracer.begin/point call")

    consumer_suffixes = (("tools", "trace_cli"), ("telemetry", "profile"))

    def check_project(self, project: Project) -> Iterable[Finding]:
        emitted: set = set()
        emitters = 0
        for module in project.package_modules():
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("begin", "point")
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    emitted.add(node.args[0].value)
                    emitters += 1
        if not emitters:
            return  # no tracer in the linted set — nothing to check against
        for suffix in self.consumer_suffixes:
            module = project.find(*suffix)
            if module is None:
                continue
            yield from self._check_consumer(module, emitted)

    def _check_consumer(self, module: Module, emitted: set) -> Iterator[Finding]:
        docstrings = _docstring_positions(module.tree)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                continue
            if (node.lineno, node.col_offset) in docstrings:
                continue
            value = node.value
            if (not _SPAN_NAME.match(value)
                    or value.endswith(_FILE_SUFFIXES)):
                continue
            if value not in emitted:
                yield Finding(
                    self.code,
                    f"span name {value!r} is referenced here but no "
                    f"tracer.begin/point call emits it",
                    str(module.path), node.lineno, node.col_offset)


@register
class PublicApiReexport(Rule):
    """RL105 — ``repro/__init__`` re-exports stay in ``__all__``.

    Every public name the package ``__init__`` imports from a subpackage
    is part of the advertised API surface; forgetting to list it in
    ``__all__`` makes ``from repro import *`` and the docs drift from
    what the code actually exposes.
    """

    code = "RL105"
    name = "public-api-reexport"
    summary = "names imported by repro/__init__.py must appear in __all__"

    def check_project(self, project: Project) -> Iterable[Finding]:
        module = project.find("repro")
        if module is None or module.package_parts != ("repro",):
            return
        _, entries = _all_declaration(module)
        if entries is None:
            return
        declared = {name for name, _, _ in entries}
        for node in module.tree.body:
            if not (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("repro")):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name.startswith("_") or name == "*":
                    continue
                if name not in declared:
                    yield Finding(
                        self.code,
                        f"repro/__init__ imports {name!r} from "
                        f"{node.module} but __all__ does not list it",
                        str(module.path), node.lineno)


#: The dotted package prefix RL106 polices.
_SERVICE_SCOPE = ("repro", "service")
#: RNG constructors the service must import from ``repro.rng``.
_SERVICE_RNG_NAMES = frozenset({"make_rng", "derive_rng"})


@register
class ServiceSeededRng(Rule):
    """RL106 — the online service stays seeded and its spans prefixed.

    Every literal ``tracer.begin``/``tracer.point`` name inside
    ``repro.service`` must carry the ``service.`` prefix, so the trace
    tooling can select the service's spans as one family.  In the same
    scope, any call to ``make_rng``/``derive_rng`` must resolve to an
    import from ``repro.rng`` — a locally-defined shadow would let
    unseeded randomness into the seed-deterministic service loop.
    """

    code = "RL106"
    name = "service-seeded-rng"
    summary = ("repro.service span literals must use the 'service.' prefix "
               "and rng constructors must be imported from repro.rng")

    def check_module(self, module: Module) -> Iterable[Finding]:
        if not module.package_startswith(_SERVICE_SCOPE):
            return
        rng_imports: set = set()
        for node in module.tree.body:
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "repro.rng"):
                rng_imports.update(alias.asname or alias.name
                                   for alias in node.names)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("begin", "point")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                name = node.args[0].value
                if not name.startswith("service."):
                    yield module.finding(
                        self.code,
                        f"span {name!r} emitted in repro.service must use "
                        f"the 'service.' prefix", node.args[0])
            elif (isinstance(func, ast.Name)
                    and func.id in _SERVICE_RNG_NAMES
                    and func.id not in rng_imports):
                yield module.finding(
                    self.code,
                    f"{func.id}() in repro.service must be imported from "
                    f"repro.rng (seed-deterministic service loop)", func)


#: The package that owns raw binary stream I/O.
_INGEST_SCOPE = ("repro", "ingest")
#: Non-ingest modules allowed to open files binarily (the artifact
#: cache's pickle blobs predate the ingest subsystem).
_BINARY_IO_ALLOWED = (("orchestrator", "cache"),)
#: Functions whose literal mode argument marks a binary open.
_OPEN_FUNCTIONS = frozenset({"open", "fdopen"})


def _binary_mode_arg(node: ast.Call):
    """The mode node of an ``open``/``fdopen`` call when it is a literal
    string containing ``'b'``, else None."""
    mode = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and "b" in mode.value):
        return mode
    return None


@register
class IngestBinaryFormat(Rule):
    """RL108 — binary stream I/O stays inside ``repro.ingest`` and the
    writer/reader agree on one magic/version.

    The ``.redg`` on-disk format has exactly one definition:
    ``ingest/format.py`` declares ``MAGIC`` (a bytes literal) and
    ``FORMAT_VERSION`` (an int literal), and both the writer and the
    reader must reference *those names* — a module hard-coding its own
    magic bytes would let the two sides of the format drift apart
    silently.  Containment is checked too: ``numpy.memmap`` and
    binary-mode ``open()``/``fdopen()`` calls outside ``repro.ingest``
    (the orchestrator's pickle-blob cache excepted) bypass the format's
    validation and versioning, so they are flagged wherever they appear
    in the package.
    """

    code = "RL108"
    name = "ingest-binary-format"
    summary = ("np.memmap / binary-mode open() only inside repro.ingest; "
               "writer and reader must share format.py's MAGIC and "
               "FORMAT_VERSION constants")

    def check_project(self, project: Project) -> Iterable[Finding]:
        for module in project.package_modules():
            if module.package_startswith(_INGEST_SCOPE):
                continue
            if any(module.package_parts[-len(suffix):] == suffix
                   for suffix in _BINARY_IO_ALLOWED):
                continue
            yield from self._check_containment(module)

        format_mod = project.find("ingest", "format")
        if format_mod is None:
            return  # no ingest package in the linted set
        yield from self._check_constants(format_mod)
        for suffix in (("ingest", "writer"), ("ingest", "reader")):
            module = project.find(*suffix)
            if module is None:
                continue
            referenced = {node.id for node in ast.walk(module.tree)
                          if isinstance(node, ast.Name)}
            referenced |= {node.attr for node in ast.walk(module.tree)
                           if isinstance(node, ast.Attribute)}
            for constant in ("MAGIC", "FORMAT_VERSION"):
                if constant not in referenced:
                    yield Finding(
                        self.code,
                        f"{'/'.join(suffix)}.py never references "
                        f"{constant} from ingest/format.py — the two "
                        f"sides of the .redg format can drift",
                        str(module.path), 1)

    def _check_containment(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "memmap":
                yield module.finding(
                    self.code,
                    "numpy.memmap outside repro.ingest — raw binary "
                    "stream access belongs behind the .redg reader", node)
                continue
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in _OPEN_FUNCTIONS:
                mode = _binary_mode_arg(node)
                if mode is not None:
                    yield module.finding(
                        self.code,
                        f"binary-mode {name}() outside repro.ingest — "
                        f"raw stream files are owned by the ingest "
                        f"subsystem", mode)

    def _check_constants(self, format_mod: Module) -> Iterator[Finding]:
        constants: dict = {}
        for node in format_mod.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = node.value
        magic = constants.get("MAGIC")
        if not (isinstance(magic, ast.Constant)
                and isinstance(magic.value, bytes)):
            yield Finding(
                self.code,
                "ingest/format.py must define MAGIC as a bytes literal",
                str(format_mod.path), 1)
        version = constants.get("FORMAT_VERSION")
        if not (isinstance(version, ast.Constant)
                and isinstance(version.value, int)):
            yield Finding(
                self.code,
                "ingest/format.py must define FORMAT_VERSION as an int "
                "literal",
                str(format_mod.path), 1)
