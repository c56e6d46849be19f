"""No rotavg module imports, or reads as an attribute, an underscore name
of another rotavg module: what one module needs from another is public.
And io alone reads files, all through one line source, parses numbers
only in its one row reader, and alone writes files, all through its
write_text.  In metrics one function turns cosines into angles and none
calls numpy's mean or median.  Every top-level public def, class or
assigned name (a constant or an alias) of src is read by src code outside
its own statement or by perfbench, or is named in the README.  No src line
exceeds 99 characters."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rotavg"
MODULES = {p.stem for p in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _rotavg_module(node: ast.ImportFrom) -> str | None:
    """'' for the package itself, a module name, or None if not rotavg."""
    if node.level == 1:
        return node.module or ""
    if node.module == "rotavg" or (node.module or "").startswith("rotavg."):
        return node.module[len("rotavg."):]
    return None


def bound_modules(tree) -> dict[str, str]:
    """Local name -> the rotavg module it is bound to, for each module import in ``tree``."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _rotavg_module(node) == "":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names
                           if alias.name in MODULES)
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name[len("rotavg."):]) for alias in node.names
                           if alias.name.startswith("rotavg.") and alias.asname)
    return modules


def private_uses(path: Path) -> list[str]:
    """'line: what' for each use in ``path`` of another module's private name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem
    modules = bound_modules(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _rotavg_module(node)) not in (None, own):
            found += [f"{node.lineno}: from {module} import {alias.name}"
                      for alias in node.names if _private(alias.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and modules.get(node.value.id, own) != own and _private(node.attr):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    found = {p.name: private_uses(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_detects_both_kinds_of_use(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("from . import io as envio\nfrom .envgraph import _helper, public\n"
                    "from . import cli\nx = envio._fmt(1.0) + envio.format_float(2.0)\n"
                    "y = cli._own_name\n")
    assert private_uses(path) == ["2: from envgraph import _helper", "4: envio._fmt"]


LINE_SOURCE = "_streamed_lines"


def file_readers(path: Path) -> set[str]:
    """Names of the functions in ``path`` that open a file for reading
    (``open`` or ``Path.open`` without a write, append or create mode) or
    call ``read_text`` or ``read_bytes``."""
    readers = set()
    for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else \
                getattr(node.func, "id", None)
            if callee in ("read_text", "read_bytes"):
                readers.add(func.name)
            elif callee == "open":
                args = node.args[1:] if isinstance(node.func, ast.Name) else node.args
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                            args[0] if args else None)
                if not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")):
                    readers.add(func.name)
    return readers


def test_io_reads_files_only_through_its_line_source():
    readers = {f"{p.stem}.{name}" for p in SRC.glob("*.py") for name in file_readers(p)}
    assert readers == {f"io.{LINE_SOURCE}"}


def test_detects_every_kind_of_read(tmp_path):
    path = tmp_path / "io.py"
    path.write_text("def _streamed_lines(p):\n    return open(p, 'r')\n"
                    "def a(p):\n    return open(p)\n"
                    "def b(p):\n    return p.open(mode='rb')\n"
                    "def c(p):\n    return p.read_text()\n"
                    "def d(p):\n    return p.read_bytes()\n"
                    "def w(p):\n    return open(p, 'w'), p.open('a'), open(p, mode='x')\n")
    assert file_readers(path) == {"_streamed_lines", "a", "b", "c", "d"}


WRITER = "write_text"


def file_writers(path: Path) -> set[str]:
    """Names of the functions in ``path`` that open a file for writing
    (``open`` or ``Path.open`` in a write, append, create or update mode,
    or a mode that is not a literal) or call the method ``write_text`` or
    ``write_bytes`` of anything but rotavg's io module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = bound_modules(tree)
    writers = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else \
                getattr(node.func, "id", None)
            if callee in ("write_text", "write_bytes"):
                owner = getattr(node.func, "value", None)
                if owner is not None and modules.get(getattr(owner, "id", None)) != "io":
                    writers.add(func.name)
            elif callee == "open":
                args = node.args[1:] if isinstance(node.func, ast.Name) else node.args
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                            args[0] if args else ast.Constant("r"))
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                    writers.add(func.name)
    return writers


def test_only_io_writes_files_and_only_through_write_text():
    found = {p.name: file_writers(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: writers for name, writers in found.items() if writers} == {"io.py": {WRITER}}


def test_detects_every_kind_of_write(tmp_path):
    path = tmp_path / "io.py"
    path.write_text("def r(p):\n    return open(p), open(p, 'rb'), p.open(mode='r'), p.read_text()\n"
                    "def a(p):\n    return open(p, 'w')\n"
                    "def b(p):\n    return p.open(mode='a')\n"
                    "def c(p):\n    return open(p, mode='x')\n"
                    "def d(p):\n    return open(p, 'r+b')\n"
                    "def e(p, m):\n    return open(p, m)\n"
                    "def f(p):\n    return p.write_text('')\n"
                    "def g(p):\n    return p.write_bytes(b'')\n")
    assert file_writers(path) == {"a", "b", "c", "d", "e", "f", "g"}


def test_calls_of_io_write_text_are_not_writes(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("from . import io as envio\nfrom .io import write_text\nimport rotavg.io as rio\n"
                    "def a(p):\n    return envio.write_text(p, ''), write_text(p, '')\n"
                    "def b(p):\n    return rio.write_text(p, '')\n"
                    "def c(p, envgraph):\n    return envgraph.write_text('')\n")
    assert file_writers(path) == {"c"}


def numpy_uses(path: Path) -> dict[str, set[str]]:
    """numpy name -> the top-level functions or classes of ``path`` that read
    it as ``np.<name>`` ('' for module-level code)."""
    uses = {}
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "np":
                uses.setdefault(node.attr, set()).add(getattr(stmt, "name", ""))
    return uses


def test_metrics_has_one_angle_function_and_no_mean_or_median():
    uses = numpy_uses(SRC / "metrics.py")
    assert len(uses.get("arccos", ())) == 1
    assert {name: uses[name] for name in ("mean", "median") if name in uses} == {}


def test_detects_a_median_put_back_into_relative_edge_error(tmp_path):
    head = "def relative_edge_error(estimates, env) -> tuple[float, float]:\n"
    source = (SRC / "metrics.py").read_text(encoding="utf-8")
    assert head in source
    path = tmp_path / "metrics.py"
    path.write_text(source.replace(head, head + "    np.median(np.arccos(0.0))\n"))
    uses = numpy_uses(path)
    assert uses["median"] == {"relative_edge_error"}
    assert len(uses["arccos"]) == 2


ROW_READER = "_read_table"


def test_io_parses_numbers_only_through_its_row_reader():
    assert numpy_uses(SRC / "io.py").get("loadtxt") == {ROW_READER}


def test_detects_a_second_loadtxt_caller(tmp_path):
    path = tmp_path / "io.py"
    path.write_text((SRC / "io.py").read_text(encoding="utf-8")
                    + "\n\ndef _quick(lines):\n    return np.loadtxt(lines)\n")
    assert numpy_uses(path)["loadtxt"] == {ROW_READER, "_quick"}


ROOT = SRC.parent.parent


def _reads(node) -> set[str]:
    """Every name ``node`` reads as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _defines(stmt) -> list[str]:
    """The names a top-level statement defines: a def's or class's name, or
    each name an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def unused_public_names(src: Path, users, readme: str) -> list[str]:
    """'module.name' for each top-level public def, class or assigned name of
    the modules in ``src`` that no code reads, neither src outside the
    defining statement itself nor the files ``users``, and that ``readme``
    does not name.  Imports are not reads, so a package re-export alone does
    not keep a name; nor do dunder names such as ``__version__`` count as
    public."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    stmt_reads = {(module, k): _reads(stmt)
                  for module, tree in trees.items() for k, stmt in enumerate(tree.body)}
    user_reads = set().union(*(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in users))
    unused = []
    for module, tree in trees.items():
        for k, stmt in enumerate(tree.body):
            for name in _defines(stmt):
                if name.startswith("_"):
                    continue
                read = name in user_reads or any(
                    name in names for at, names in stmt_reads.items() if at != (module, k))
                if not (read or re.search(rf"\b{re.escape(name)}\b", readme)):
                    unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_in_src_is_used():
    users = sorted((ROOT / "perfbench").glob("*.py"))
    assert unused_public_names(SRC, users, (ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_detects_an_unused_public_def(tmp_path):
    src = tmp_path / "rotavg"
    src.mkdir()
    for path in SRC.glob("*.py"):
        (src / path.name).write_text(path.read_text(encoding="utf-8"))
    with (src / "metrics.py").open("a") as f:
        f.write("\n\ndef planted(n):\n    return planted(n - 1) if n else 0\n"
                "\n\nclass Benched:\n    pass\n\n\ndef documented():\n    pass\n")
    probe = tmp_path / "probe.py"
    probe.write_text("from rotavg import metrics\nmetrics.Benched()\n")
    users = [probe, *sorted((ROOT / "perfbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unused_public_names(src, users, readme + "\n`documented()`\n") == ["metrics.planted"]
    assert unused_public_names(src, users[1:], readme) == \
        ["metrics.planted", "metrics.Benched", "metrics.documented"]


def test_detects_an_unused_public_alias(tmp_path):
    src = tmp_path / "rotavg"
    src.mkdir()
    for path in SRC.glob("*.py"):
        (src / path.name).write_text(path.read_text(encoding="utf-8"))
    with (src / "averaging.py").open("a") as f:
        f.write('\n\nplanted_step = STEP_FUNCTIONS["mrp"]\nLIMIT: int = 3\n'
                'USED = DOCUMENTED = 1\nSTEP_FUNCTIONS["so3"] = USED\n')
    users = sorted((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8") + "\n`DOCUMENTED`\n"
    assert unused_public_names(src, users, readme) == \
        ["averaging.planted_step", "averaging.LIMIT"]


# ROADMAP's size rule: src stays at or below 2,640 lines.  Its one exception,
# item 6 (the run diagnostics), may add only the lines those diagnostics need.
MAX_SRC_LINES = 2640


def test_src_stays_within_the_size_cap():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("*.py"))
    assert lines <= MAX_SRC_LINES


MAX_LINE = 99


def test_no_src_line_is_too_long():
    long = [f"{path.name}:{line_no}: {len(line)}"
            for path in sorted(SRC.glob("*.py"))
            for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []
