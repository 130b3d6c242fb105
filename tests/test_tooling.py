"""Source-tree rules that no behavioural test can see.

Every module-level function and class in src/svtf must be used by the
library itself or exported from svtf/__init__.py, and every method of those
classes but the dunder ones must be read somewhere in src/svtf: code that
only tests call belongs in tests/conftest.py, where it cannot drift into an
oracle of itself. Every module-level import of a module but __init__.py
(whose imports are the exports) must be read in that module. An annotated
field or parameter whose default is None must admit None in its
annotation. The CLI's global options and README's CLI section must name the
same flags, and every render and import flag that has a library default
takes that default. A library parameter that restates another library
default (the illumination cache's shadow steps and downsample factor)
equals it. Thread pools start only in render._in_blocks, the one place
where march blocks run. Page tables hold atlas slots; the packed slot-grid
entries of a .svtf file (svt.pack_entry, svt._file_entries) are read only
in the file's codec: save_svtf, load_svtf and _file_entries itself. Only
render._live_box, the one place that decides empty-space skipping, reads
the slots' value ranges (SparseVolumeTexture.slot_ranges). The package's
relative imports, at module level or inside a function, form no cycle.
"""

import argparse
import ast
import dataclasses
import inspect
import re
from collections import Counter
from pathlib import Path

from svtf import (
    Camera,
    RenderParams,
    TransferFunction,
    build_illumination_cache,
    load_volume,
    parse_segy,
)
from svtf.chunks import render_chunked
from svtf.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "svtf"


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _uses(node: ast.AST) -> Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    )


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.Module):
    """(label, node) of each module-level function and class, and of each
    method of those classes that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                name = getattr(method, "name", "")
                if isinstance(method, _FUNCTIONS) and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    yield f"{node.name}.{name}", method


def _unused(modules: dict) -> list[str]:
    """Definitions read nowhere but in their own body."""
    uses = sum((_uses(tree) for tree in modules.values()), Counter())
    return [
        f"{name}:{node.lineno} {label}"
        for name, tree in modules.items()
        for label, node in _definitions(tree)
        if uses[node.name] == _uses(node)[node.name]
    ]


def test_every_module_level_definition_is_used_or_exported():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = _exported()
    assert [entry for entry in _unused(modules) if entry.split()[-1] not in exported] == []


def test_the_rule_sees_an_unused_definition():
    tree = ast.parse(
        "def used():\n    return 1\n\n"
        "def unused():\n    return used() + unused()\n\n"
        "class Unused:\n    def method(self):\n        return Unused\n\n"
        "class Used:\n"
        "    def __init__(self):\n        self.called()\n\n"
        "    def called(self):\n        return 1\n\n"
        "    def recursive(self):\n        return self.recursive()\n\n"
        "Used()\n"
    )
    assert _unused({"m.py": tree}) == [
        "m.py:4 unused", "m.py:7 Unused", "m.py:8 Unused.method", "m.py:18 Used.recursive",
    ]


def _unused_imports(modules: dict) -> list[str]:
    """Names that a module-level import binds and nothing in the module reads."""
    unused = []
    for name, tree in modules.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}:{node.lineno} {bound}")
    return unused


def test_every_module_level_import_is_read():
    modules = {
        path.name: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert _unused_imports(modules) == []


def test_the_rule_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport numpy as np\nimport json as js\n"
        "from pathlib import Path, PurePath\n\n"
        "def f(p: Path):\n    import struct\n    return np.zeros(1), os.sep\n"
    )
    assert _unused_imports({"m.py": tree}) == ["m.py:5 js", "m.py:6 PurePath"]


def _named_outside(modules: dict, names: set, module: str, homes: set) -> list[str]:
    """Where a module names one of names (read or imported) outside the
    bodies of the given module's module-level functions homes."""
    found = []
    for name, tree in modules.items():
        home = {
            id(inner)
            for node in tree.body
            if name == module and isinstance(node, _FUNCTIONS) and node.name in homes
            for inner in ast.walk(node)
        }
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in home
            and names & {
                getattr(node, "id", None), getattr(node, "attr", None),
                node.name if isinstance(node, ast.alias) else None,
            }
        ]
    return found


def _thread_pools_outside_in_blocks(modules: dict) -> list[str]:
    return _named_outside(modules, {"ThreadPoolExecutor"}, "render.py", {"_in_blocks"})


def test_thread_pools_start_only_in_in_blocks():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _thread_pools_outside_in_blocks(modules) == []


def test_the_rule_sees_a_thread_pool_outside_in_blocks():
    render = ast.parse(
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n\n"
        "def _in_blocks(fn):\n"
        "    with concurrent.futures.ThreadPoolExecutor(2) as pool:\n"
        "        pool.map(fn, [])\n\n"
        "def other():\n    return ThreadPoolExecutor(2)\n"
    )
    other = ast.parse(
        "def _in_blocks():\n"
        "    import concurrent.futures as cf\n    return cf.ThreadPoolExecutor\n"
    )
    assert _thread_pools_outside_in_blocks({"render.py": render, "svt.py": other}) == [
        "render.py:2", "render.py:9", "svt.py:3",
    ]


def _entry_packing_outside_the_codec(modules: dict) -> list[str]:
    return _named_outside(
        modules, {"pack_entry", "_file_entries"}, "svt.py",
        {"save_svtf", "load_svtf", "_file_entries"},
    )


def test_entry_packing_is_read_only_in_the_container_codec():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _entry_packing_outside_the_codec(modules) == []


def test_the_rule_sees_entry_packing_outside_the_codec():
    svt = ast.parse(
        "def pack_entry(ax, ay, az):\n    return ax\n\n"
        "def _file_entries(slots):\n    return pack_entry(slots, 0, 0)\n\n"
        "def save_svtf(t):\n    return _file_entries(t)\n\n"
        "def load_svtf(p):\n    return pack_entry(0, 0, 0)\n\n"
        "def build_svt(v):\n    return _file_entries(v)\n\n"
        "class PageTable:\n    def packed(self):\n        return pack_entry(1, 2, 3)\n"
    )
    sample = ast.parse(
        "from .svt import pack_entry\nfrom . import svt\n\n"
        "def save_svtf():\n    return svt._file_entries\n"
    )
    assert _entry_packing_outside_the_codec({"svt.py": svt, "sample.py": sample}) == [
        "svt.py:14", "svt.py:18", "sample.py:1", "sample.py:5",
    ]


def _slot_ranges_outside_live_box(modules: dict) -> list[str]:
    return _named_outside(modules, {"slot_ranges"}, "render.py", {"_live_box"})


def test_only_live_box_reads_the_slot_value_ranges():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _slot_ranges_outside_live_box(modules) == []


def test_the_rule_sees_slot_ranges_read_outside_live_box():
    render = ast.parse(
        "def _live_box(svt):\n    return svt.slot_ranges()\n\n"
        "def _march(svt):\n    lo, hi = svt.slot_ranges()\n"
    )
    svt = ast.parse(
        "class SparseVolumeTexture:\n"
        "    def slot_ranges(self):\n        return self._ranges\n\n"
        "    def stats(self):\n        return self.slot_ranges()\n"
    )
    sample = ast.parse("from .svt import slot_ranges\n")
    assert _slot_ranges_outside_live_box(
        {"render.py": render, "svt.py": svt, "sample.py": sample}
    ) == ["render.py:5", "svt.py:6", "sample.py:1"]


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _none_default(value) -> bool:
    """Whether a field's or parameter's default is None, given as is or as
    field(default=None)."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg == "default" and _is_none(kw.value) for kw in value.keywords)
    return _is_none(value)


def _admits_none(annotation) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    return any(
        _is_none(node) or getattr(node, "id", None) == "Optional"
        for node in ast.walk(annotation)
    )


def _annotated_defaults(tree: ast.Module):
    """(line, name, annotation, default) of each annotated assignment and
    each annotated parameter that has a default."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            yield node.lineno, getattr(node.target, "id", None), node.annotation, node.value
        if isinstance(node, _FUNCTIONS):
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = [
                *zip(positional[len(positional) - len(a.defaults) :], a.defaults),
                *zip(a.kwonlyargs, a.kw_defaults),
            ]
            for arg, default in defaults:
                if arg.annotation is not None and default is not None:
                    yield arg.lineno, arg.arg, arg.annotation, default


def _none_defaults_not_admitted(modules: dict) -> list[str]:
    """Annotated fields and parameters whose default is None and whose
    annotation does not admit None, in line order."""
    return [
        f"{name}:{line} {label}"
        for name, tree in modules.items()
        for line, label, annotation, default in sorted(
            _annotated_defaults(tree), key=lambda definition: definition[0]
        )
        if _none_default(default) and not _admits_none(annotation)
    ]


def test_every_none_default_is_admitted_by_its_annotation():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _none_defaults_not_admitted(modules) == []


def test_the_rule_sees_a_none_default_that_its_annotation_does_not_admit():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "from typing import Optional\n\n"
        "@dataclass\nclass C:\n"
        "    a: int = None\n"
        "    b: int | None = None\n"
        "    c: 'Stats' = field(repr=False, default=None)\n"
        "    d: Optional[int] = field(default=None)\n"
        "    e: int = field(default=0)\n"
        "    f = None\n\n"
        "def g(x: int = None, y: 'int | None' = None, z=None, *, w: str = None, v: str = 'v'):\n"
        "    u: float = None\n"
    )
    assert _none_defaults_not_admitted({"m.py": tree}) == [
        "m.py:6 a", "m.py:8 c", "m.py:13 x", "m.py:13 w", "m.py:14 u",
    ]


def _flag_doc_gaps(parser: argparse.ArgumentParser, readme: str) -> list[str]:
    """Top-level options that README's CLI section does not name, and flags
    its global-flags sentence names that the parser does not have."""
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(r"global flags(.*?\.)(?:\s|$)", section, re.S).group(1)
    named = set(re.findall(r"`(-[-\w]+)", section))
    options = [
        action.option_strings
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    ]
    have = {flag for strings in options for flag in strings}
    return [
        f"undocumented {'/'.join(strings)}" for strings in options if not named & set(strings)
    ] + [f"stale {flag}" for flag in re.findall(r"`(-[-\w]+)", sentence) if flag not in have]


def test_readme_names_exactly_the_global_flags():
    assert _flag_doc_gaps(build_parser(), (ROOT / "README.md").read_text()) == []


def test_the_rule_sees_an_undocumented_and_a_stale_flag():
    parser = argparse.ArgumentParser()
    parser.add_argument("--threads")
    parser.add_argument("-q", "--quiet", action="store_true")
    parser.add_subparsers(dest="command").add_parser("run").add_argument("--fast")
    readme = (
        "# x\n\n## CLI\n\nOne entry point with global flags `--threads N`,\n"
        "`--gone` (no longer parsed). Then `run --fast`.\n\n## Next\n\n`-q`\n"
    )
    assert _flag_doc_gaps(parser, readme) == ["undocumented -q/--quiet", "stale --gone"]


def _flags_off_their_defaults(parser: argparse.ArgumentParser, defaults: dict) -> list[str]:
    """'command flag' for each (command, flag) of defaults that the parser's
    command does not have, or whose parser default is not the one given."""
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    off = []
    for (command, flag), want in defaults.items():
        actions = {s: a for a in commands[command]._actions for s in a.option_strings}
        if flag not in actions or actions[flag].default != want:
            off.append(f"{command} {flag}")
    return off


def _field(cls, name):
    """The default of a dataclass field."""
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


def _param(fn, name):
    """The default of a function parameter."""
    return inspect.signature(fn).parameters[name].default


def _library_defaults() -> dict:
    """The library default of each render and import flag that has one,
    keyed (command, flag), as the dataclass fields and signatures give it."""
    render = {
        "--size": (_field(Camera, "width"), _field(Camera, "height")),
        "--up": _field(Camera, "up"),
        "--fov": _field(Camera, "vfov_deg"),
        "--ortho-height": _field(Camera, "ortho_height"),
        "--steps": _field(RenderParams, "max_step_count"),
        "--background": _field(RenderParams, "background"),
        "--shadow-steps": _param(build_illumination_cache, "shadow_steps"),
        "--downsample": _param(build_illumination_cache, "downsample_factor"),
        "--window": _field(TransferFunction, "window"),
        "--density-scale": _field(TransferFunction, "density_scale"),
        "--emission-scale": _field(TransferFunction, "emission_scale"),
    }
    return {
        **{(c, flag): want for c in ("render", "chunk-compare") for flag, want in render.items()},
        ("import-segy", "--axis-map"): _param(parse_segy, "axis_map"),
        ("import-raw", "--dims"): _param(load_volume, "dims"),
        ("import-raw", "--format"): _param(load_volume, "format"),
        ("import-raw", "--endian"): _param(load_volume, "endianness"),
    }


def test_render_and_import_flags_default_to_the_library():
    assert _flags_off_their_defaults(build_parser(), _library_defaults()) == []


def test_the_rule_sees_a_flag_off_its_library_default():
    parser = argparse.ArgumentParser()
    run = parser.add_subparsers(dest="command").add_parser("run")
    run.add_argument("--steps", type=int, default=64)
    run.add_argument("--fov", default=45.0)
    run.add_argument("--size", default=[512, 512])
    defaults = {("run", "--steps"): 1024, ("run", "--fov"): 45.0, ("run", "--size"): (512, 512),
                ("run", "--gone"): None}
    assert _flags_off_their_defaults(parser, defaults) == [
        "run --steps", "run --size", "run --gone",
    ]


def _params_off_their_defaults(defaults: dict) -> list[str]:
    """'function parameter' for each (function, parameter) of defaults whose
    default is not the one given."""
    return [
        f"{fn.__name__} {name}" for (fn, name), want in defaults.items() if _param(fn, name) != want
    ]


def test_library_parameters_restate_no_other_default():
    assert _params_off_their_defaults({
        (render_chunked, "shadow_steps"): _param(build_illumination_cache, "shadow_steps"),
        (render_chunked, "downsample_factor"): _param(build_illumination_cache, "downsample_factor"),
    }) == []


def test_the_rule_sees_a_library_parameter_off_the_default_it_restates():
    @dataclasses.dataclass
    class Params:
        steps: int = 64

    def cache(factor=4, steps=64):
        return factor, steps

    def chunked(factor=8):
        return factor

    defaults = {(cache, "steps"): _field(Params, "steps"),
                (chunked, "factor"): _param(cache, "factor")}
    assert _params_off_their_defaults(defaults) == ["chunked factor"]


def _import_cycles(modules: dict) -> list[str]:
    """Each cycle, as 'a -> b -> a', of the graph whose edges are the
    modules' relative imports, at module level or inside a function."""
    names = {name.removesuffix(".py") for name in modules}
    graph = {
        name.removesuffix(".py"): sorted(
            {
                target
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for target in (
                    [node.module.split(".")[0]] if node.module
                    else [alias.name for alias in node.names]
                )
                if target in names
            }
        )
        for name, tree in modules.items()
    }
    cycles, done = [], set()

    def visit(module, path):
        if module in path:
            cycles.append(" -> ".join(path[path.index(module):] + [module]))
        elif module not in done:
            for target in graph[module]:
                visit(target, path + [module])
            done.add(module)

    for module in sorted(graph):
        visit(module, [])
    return cycles


def test_the_package_imports_form_no_cycle():
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _import_cycles(modules) == []


def test_the_rule_sees_an_import_cycle_through_a_function():
    modules = {
        "a.py": "from .b import f\nimport c\n",
        "b.py": "def f():\n    from . import c, helper\n    return c\n",
        "c.py": "from .d import g\n\ndef h():\n    from .a import f\n",
        "d.py": "from .errors import E\nfrom . import b\n",
        "errors.py": "class E(Exception):\n    pass\n",
    }
    assert _import_cycles({name: ast.parse(text) for name, text in modules.items()}) == [
        "a -> b -> c -> a", "b -> c -> d -> b",
    ]
