"""Dead-code guard: every top-level definition in `src/hilbloc` is reached
from the CLI, the `verify` checks or the names the benchmark tracer
(`perfbench/tracer.py`) wraps, except the few listed in UNREACHED.

The walk runs over names in the AST, without importing anything.  From a
reached definition it follows:
- a bare name to the definition it resolves to in its module, through
  `from .module import name`;
- `module.name` on a module imported as `from . import module`;
- any other `.attr` to every method of that name, of any class;
- a reached class to its bases and its dunder methods, which Python calls
  without naming them.
Top-level statements other than definitions run on import and are roots.
A method is a definition of its own, `module.Class.method`; the methods of
a class nothing reaches are counted with the class.  The comparison is
exact, so a definition that gains a caller must leave UNREACHED too.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hilbloc"
TRACER = ROOT / "perfbench" / "tracer.py"

# each waits for a caller (ROADMAP items 3 and 7)
UNREACHED = {
    "universal.chi_Ln_Er",  # item 3
    "universal.invariants",  # item 3
    "universal.SurfaceInvariants",  # item 3
    "genera.chi_y_genus",  # item 7
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _targets(node):
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _is_docstring(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


class _Package:
    """The definitions of every module of the package, and what each one names."""

    def __init__(self, src):
        self.defs = {}  # "module.name" or "module.Class.method" -> the AST node walked when it is reached
        self.imports = {}  # module -> {local name: "module.name" it was imported as}
        self.module_aliases = {}  # module -> {local name: module}
        self.methods = {}  # method name -> ["module.Class.method", ...]
        self.roots = []  # top-level statements that run on import
        for path in sorted(src.glob("*.py")):
            self._add_module(path.stem, ast.parse(path.read_text()))

    def _add_module(self, mod, tree):
        imports, aliases = self.imports.setdefault(mod, {}), self.module_aliases.setdefault(mod, {})
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        aliases[local] = alias.name
                    else:
                        imports[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[f"{mod}.{node.name}"] = (mod, node)
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            qual = f"{mod}.{node.name}.{item.name}"
                            self.defs[qual] = (mod, item)
                            self.methods.setdefault(item.name, []).append(qual)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and all(
                isinstance(t, (ast.Name, ast.Tuple)) for t in _targets(node)
            ):
                for target in _targets(node):
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.defs[f"{mod}.{name.id}"] = (mod, node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not _is_docstring(node):
                self.roots.append((mod, node))

    def resolve(self, mod, name):
        """The definition a bare name of module `mod` refers to, or None."""
        seen = set()
        while (mod, name) not in seen:
            seen.add((mod, name))
            if f"{mod}.{name}" in self.defs:
                return f"{mod}.{name}"
            target = self.imports.get(mod, {}).get(name)
            if target is None:
                return None
            mod, name = target.rsplit(".", 1)
        return None

    def named(self, mod, node):
        """The definitions that the code of `node`, in module `mod`, names."""
        if isinstance(node, ast.ClassDef):
            parts = [*node.bases, *node.decorator_list]
            parts += [item for item in node.body if not isinstance(item, ast.FunctionDef)]
            out = [f"{mod}.{node.name}.{item.name}" for item in node.body
                   if isinstance(item, ast.FunctionDef) and _is_dunder(item.name)]
        else:
            parts, out = [node], []
        for part in parts:
            for sub in ast.walk(part):
                if isinstance(sub, ast.Name):
                    found = self.resolve(mod, sub.id)
                    if found:
                        out.append(found)
                elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
                    out.extend(filter(None, (self.resolve(sub.module, alias.name) for alias in sub.names)))
                elif isinstance(sub, ast.Attribute):
                    if isinstance(sub.value, ast.Name) and sub.value.id in self.module_aliases.get(mod, {}):
                        found = self.resolve(self.module_aliases[mod][sub.value.id], sub.attr)
                        if found:
                            out.append(found)
                    out.extend(self.methods.get(sub.attr, ()))
        return out

    def reached(self, start):
        seen, todo = set(), list(start)
        for mod, node in self.roots:
            todo.extend(self.named(mod, node))
        while todo:
            qual = todo.pop()
            if qual in seen:
                continue
            seen.add(qual)
            todo.extend(self.named(*self.defs[qual]))
        return seen


def _starts():
    tracer = _tracer()
    traced = [(modname, name) for _, modname, names in tracer.LAYERS for name in names]
    traced += [("hilbloc.series", f"TruncSeries.{name}") for name in tracer.SERIES_METHODS]
    traced += tracer.CACHED.values()
    start = ["cli.main", "cli._COMMANDS", "verify.CHECKS"]
    return start + [f"{modname.removeprefix('hilbloc.')}.{name}" for modname, name in traced]


def _unreached(package, start):
    seen = package.reached(start)
    out = set()
    for qual in package.defs:
        owner = qual.rsplit(".", 1)[0]
        if qual not in seen and (owner in seen or owner not in package.defs):
            out.add(qual)
    return out


def test_every_definition_is_reached():
    package = _Package(SRC)
    start = _starts()
    assert set(start) <= set(package.defs), sorted(set(start) - set(package.defs))
    assert _unreached(package, start) == UNREACHED
