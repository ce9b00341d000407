"""Every function, class and method in ``src/repro`` has a reader
outside the tests.

A definition that only tests call is code every run compiles and no run
uses.  The scan reads ``src``, ``examples``, ``benchmarks`` and
``tools`` by name: loads, attribute reads, and identifiers inside
path-like strings such as ``"repro.glitch.injector:GlitchInjector.run"``.
Docstrings and ``attach(...)`` export tables do not count as readers.
``repro.lint`` is left out: its rules are reached through a registry.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Definitions only tests read, kept on purpose; an entry also covers
#: everything defined inside it.
KEPT = (
    ("repro.applications", "the paper's §8 applications, run by their tests"),
    ("repro.units.kelvin_to_celsius", "RL002's message names it"),
    ("repro.crypto.aes.decrypt_block", "round-trip oracle for encrypt_block"),
    ("repro.obs.trace.Tracer.spans_named", "shared test helper"),
    ("repro.obs.export.read_jsonl", "shared test helper"),
    ("repro.obs.manifest.RunManifest.validate", "shared test helper"),
    (
        "repro.obs.manifest.RunManifest.fingerprint",
        "the hash every pin compares; DESIGN.md quotes it",
    ),
    (
        "repro.glitch.waveform.GlitchPulse.drive_voltage",
        "reference for the vectorised waveform",
    ),
    ("repro.analysis.patterns.find_aligned", "reference for elements_present"),
    (
        "repro.circuits.sram.SramArray.wake_probabilities",
        "board-clone tests compare arrays by it",
    ),
    (
        "repro.circuits.sram.SramArray.drv_percentile",
        "board-clone tests compare arrays by it",
    ),
    (
        "repro.circuits.manufacture._SnapshotPickler.persistent_id",
        "pickle calls it",
    ),
    (
        "repro.circuits.manufacture._SnapshotPickler.reducer_override",
        "pickle calls it",
    ),
    (
        "repro.experiments.figure9.Figure9Result.accessible_fraction",
        "Figure 9's headline ratio",
    ),
)

PATH_LIKE = re.compile(r"[\w.:]+")


def _reads(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads, less docstrings and export tables."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "attach":
            skip.update(map(id, ast.walk(node)))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if PATH_LIKE.fullmatch(node.value):
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _definitions(body: list[ast.stmt], prefix: str):
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            yield from _definitions(node.body + node.orelse, prefix)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield f"{prefix}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}.{node.name}")


def test_every_definition_is_read_outside_the_tests():
    read = set()
    for top in ("src", "examples", "benchmarks", "tools"):
        for path in (ROOT / top).rglob("*.py"):
            read |= _reads(ast.parse(path.read_text()))
    defined = {}
    for path in (ROOT / "src").rglob("*.py"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts).removesuffix(".__init__")
        if not module.startswith("repro.lint"):
            tree = ast.parse(path.read_text())
            defined.update(_definitions(tree.body, module))

    def covers(entry: str, qualname: str) -> bool:
        return qualname == entry or qualname.startswith(entry + ".")

    for entry, _ in KEPT:
        assert any(covers(entry, qualname) for qualname in defined), entry
    unread = sorted(
        qualname
        for qualname, name in defined.items()
        if name not in read
        and not (name.startswith("__") and name.endswith("__"))
        and not any(covers(entry, qualname) for entry, _ in KEPT)
    )
    assert unread == []
