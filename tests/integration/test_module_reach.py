"""Every ``src/repro`` module is reachable from a product entry point.

The entry points are ``import repro``, ``import repro.api``, ``python -m
repro``, ``python -m repro.service`` and ``repro.exec_env.cli``.  A
module is reached when a reached module names it in an import statement
at any depth (a function body, a ``TYPE_CHECKING`` block) or in a
``lazy_exports`` table; importing a module also runs its packages'
``__init__``.  A module that nothing reaches ships code no run, tenant
or operator uses: it belongs beside its users in ``tests/`` or
``benchmarks/``.  The scan is static, so nothing here is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

ENTRY_POINTS = ("repro", "repro.api", "repro.__main__",
                "repro.service.__main__", "repro.exec_env.cli")


def modules():
    """Dotted module name -> (source path, is a package)."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        package = parts[-1] == "__init__"
        if package:
            parts.pop()
        out[".".join(parts)] = (path, package)
    return out


def _lazy_table(tree, name):
    """The module paths a ``lazy_exports`` table ``name`` maps to."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            for key, value in zip(node.value.keys, node.value.values):
                if key is None:          # **dict.fromkeys(names, "module")
                    value = value.args[1]
                yield value.value


def imports(module, path, package):
    """Every module name ``module``'s source imports, lazily or not."""
    tree = ast.parse(path.read_text(), filename=str(path))
    here = module if package else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = here.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "lazy_exports"):
            for where in _lazy_table(tree, node.args[1].id):
                yield f"{here}.{where}"


def reachable(mods):
    seen, todo = set(), list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in mods and prefix not in seen:
                seen.add(prefix)
                todo.extend(imports(prefix, *mods[prefix]))
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    mods = modules()
    assert set(ENTRY_POINTS) <= set(mods)
    unreached = sorted(set(mods) - reachable(mods))
    assert not unreached, (
        f"no product entry point reaches {unreached}: move them beside "
        f"their users in tests/ or benchmarks/")

