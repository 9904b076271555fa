"""README.md and the package's docstrings and comments name what exists.

README.md is the reference of what gradtrack computes and guarantees, and
CHANGES.md holds the history and the measurements behind it.  These tests
keep the two apart and current: every backticked dotted gradtrack name in
README.md and in the docstrings and comments of src/gradtrack resolves,
every pointer from the source into README.md or CHANGES.md names a heading
or an entry that exists, and README.md and the module docstrings stay short.
"""

import ast
import importlib
import inspect
import io
import json
import re
import tokenize
from pathlib import Path

import gradtrack

ROOT = Path(__file__).resolve().parent.parent
PKG = Path(gradtrack.__file__).resolve().parent
SOURCES = sorted(PKG.glob("*.py"))
MODULES = {path.stem: importlib.import_module(f"gradtrack.{path.stem}")
           for path in SOURCES if path.stem != "__init__"}

README_MAX_LINES = 400
DOCSTRING_MAX_LINES = 30

# a backticked span, `x` or ``x``, and the dotted names in it
_SPAN = re.compile(r"(`+)([^`]+?)\1")
_DOTTED = re.compile(r"(?<![\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")
# dotted names that are files, not objects: summary.csv, tracking.py, ...
_FILE_SUFFIXES = {"csv", "json", "py", "md", "cfg", "libsvm", "toml", "yml", "txt"}
# a pointer: README "heading", or CHANGES.md, "entry" [and "entry"]
_README_POINTER = re.compile(r'README(?:\.md)? "([^"]+)"')
_CHANGES_POINTER = re.compile(r'CHANGES\.md, ((?:(?:and )?"[^"]+" ?)+)')

# an attribute set on instances only, which no class attribute names
_INSTANCE = object()


def _readme() -> str:
    return (ROOT / "README.md").read_text()


def _readme_prose() -> str:
    """README.md without its fenced code blocks (the library example runs
    in tests/test_theory.py)."""
    return re.sub(r"^```.*?^```", "", _readme(), flags=re.S | re.M)


def _source_prose(path: Path) -> list[str]:
    """The docstrings and comment blocks of one source file, each with its
    whitespace collapsed, so that a name or pointer may wrap a line."""
    text = path.read_text()
    found = [ast.get_docstring(node, clean=False) for node in ast.walk(ast.parse(text))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    blocks, last = [], None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            if last is None or tok.start[0] != last + 1:
                blocks.append([])
            blocks[-1].append(tok.string.lstrip("#"))
            last = tok.start[0]
    found += [" ".join(block) for block in blocks]
    return [" ".join(doc.split()) for doc in found if doc]


def _roots() -> dict:
    """The names a dotted gradtrack name starts with: the package, its
    modules, and every class and function defined in them."""
    roots = {"gradtrack": gradtrack, **MODULES}
    for module in MODULES.values():
        for name, obj in vars(module).items():
            if ((inspect.isclass(obj) or inspect.isfunction(obj))
                    and obj.__module__.startswith("gradtrack.")):
                roots.setdefault(name, obj)
    return roots


def _source_of(cls) -> str:
    try:
        return inspect.getsource(cls)
    except (OSError, TypeError):
        return ""


def _attribute(obj, name):
    """obj.name; for a class, also a field it annotates or an attribute
    its methods set on self (which instances alone hold)."""
    if obj is _INSTANCE:
        return _INSTANCE
    if hasattr(obj, name):
        return getattr(obj, name)
    if inspect.isclass(obj):
        for cls in obj.__mro__:
            if (name in vars(cls).get("__annotations__", {})
                    or re.search(rf"\bself\.{name}\b", _source_of(cls))):
                return _INSTANCE
    return None


def _unresolved(texts: list[str]) -> list[str]:
    roots = _roots()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    bad = []
    for text in texts:
        for _, span in _SPAN.findall(text):
            for name in _DOTTED.findall(span):
                head, *rest = name.split(".")
                if head not in roots or rest[-1] in _FILE_SUFFIXES or name in metrics:
                    continue
                obj = roots[head]
                for attr in rest:
                    obj = _attribute(obj, attr)
                    if obj is None:
                        bad.append(name)
                        break
    return bad


def test_every_dotted_gradtrack_name_in_the_readme_resolves():
    assert _unresolved([_readme_prose()]) == []


def test_every_dotted_gradtrack_name_in_the_source_prose_resolves():
    bad = {path.name: _unresolved(_source_prose(path)) for path in SOURCES}
    assert {name: names for name, names in bad.items() if names} == {}


def test_a_stale_name_fails_the_check():
    # the check itself: three deleted names (a private method, a trace
    # field, a module function) fail it; a module constant, a property, an
    # annotated field, an attribute set in __init__, a call, a file, a
    # benchmark metric and a NumPy name pass
    stale = ["`LogisticSuite._sigmoid`", "`RunTrace.wall_time`", "`tracking.run_stack`"]
    assert _unresolved(stale) == ["LogisticSuite._sigmoid", "RunTrace.wall_time",
                                  "tracking.run_stack"]
    fine = ["`topology.ROUND_COST`", "`MixingMatrix.w`", "`ErrorVector.opt_err`",
            "`QuadraticSuite.hessian`", "`MixingMatrix.apply(v, n_c)`", "`summary.csv`",
            "`tracking.error_vector.calls`", "`np.add.reduce`"]
    assert _unresolved(fine) == []


def test_every_pointer_from_the_source_names_a_readme_heading_or_a_changes_entry():
    headings = {line.lstrip("#").strip() for line in _readme().splitlines()
                if line.startswith("#")}
    changes = " ".join((ROOT / "CHANGES.md").read_text().split())
    pointers = []
    for path in SOURCES:
        for text in _source_prose(path):
            pointers += [(path.name, "README", h) for h in _README_POINTER.findall(text)]
            pointers += [(path.name, "CHANGES.md", e)
                         for group in _CHANGES_POINTER.findall(text)
                         for e in re.findall(r'"([^"]+)"', group)]
    assert pointers, "no pointer found: the patterns no longer match the source"
    missing = [(name, where, target) for name, where, target in pointers
               if (target not in headings if where == "README" else target not in changes)]
    assert missing == []


def test_the_readme_and_the_module_docstrings_stay_short():
    assert len(_readme().splitlines()) <= README_MAX_LINES
    lengths = {}
    for path in SOURCES:
        first = ast.parse(path.read_text()).body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            lengths[path.name] = first.end_lineno - first.lineno + 1
    assert set(lengths) == {path.name for path in SOURCES}
    assert {name: n for name, n in lengths.items() if n > DOCSTRING_MAX_LINES} == {}
