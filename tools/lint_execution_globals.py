#!/usr/bin/env python
"""AST lint: no direct mutation of execution-engine globals.

Every execution decision resolves through the engine's scoped
``ExecutionPolicy`` (see DESIGN §10); the whole design collapses if
code pokes the underlying process globals directly — a write to
``_BASE_POLICY`` from a grid module bypasses the lock, the scope
stack, and the deprecation story all at once.  This lint walks the
AST of every Python file under the checked trees and rejects

* assignments (plain, augmented, annotated, starred/tuple targets),
* ``global`` declarations, and
* ``del`` statements

whose target is one of the execution globals below — whether spelled
as a bare name (``_BASE_POLICY = ...``) or as a module attribute
(``policy._BASE_POLICY = ...``).

Allowed: the engine package itself (``src/repro/engine/`` owns the
state and its locked mutation points) and the legacy-setter shim
modules (which are expected to *delegate* to
``engine.policy.update_base_policy`` but are exempted so their
save/restore helpers cannot trip the lint).  Everything else —
including tests, benchmarks and examples — must go through
``engine.scope(...)`` / ``update_base_policy(...)``.

Exit status: 0 clean, 1 with violations (one per line on stderr).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Engine-owned execution globals, plus the pre-engine toggle globals
#: they replaced (banned everywhere so the old pattern cannot creep
#: back in under the old names), plus the telemetry layer's state —
#: rebinding the registry or trace buffer from outside the telemetry
#: package would silently detach every already-imported seam from the
#: exporters.
EXECUTION_GLOBALS = frozenset({
    "_BASE_POLICY",          # repro.engine.policy — the base policy
    "_SCOPED",               # repro.engine.policy — the scope stack
    "_CONFIG",               # legacy repro.perf module global
    "_FALLBACK_ENABLED",     # legacy repro.simd.registry module global
    "_TELEMETRY_REGISTRY",   # repro.telemetry.metrics — the registry
    "_TRACE_BUFFER",         # repro.telemetry.trace — the span buffer
    "_ACTIVE_SPAN",          # repro.telemetry.trace — span nesting var
})

#: Files allowed to mutate them: the engine (owner), the
#: deprecation-shim modules, and the telemetry modules that own the
#: telemetry globals.
ALLOWLIST = frozenset({
    "src/repro/engine/policy.py",
    "src/repro/perf/__init__.py",
    "src/repro/simd/registry.py",
    "src/repro/telemetry/metrics.py",
    "src/repro/telemetry/trace.py",
})

DEFAULT_TREES = ("src", "tests", "benchmarks", "examples", "tools")


def _target_name(node: ast.AST) -> str:
    """The banned-name candidate of an assignment target, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _flatten_targets(node: ast.AST):
    """Yield leaf targets of (possibly tuple/list/starred) assignment."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _flatten_targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _flatten_targets(node.value)
    else:
        yield node


def check_source(path: str, source: str) -> list:
    """All violations in one file as ``(lineno, message)`` tuples."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [(exc.lineno or 0, f"syntax error: {exc.msg}")]
    out = []

    def hit(node: ast.AST, name: str, what: str) -> None:
        out.append((
            node.lineno,
            f"{what} of execution global {name!r}; use "
            f"repro.engine.scope(...) or update_base_policy(...)",
        ))

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for raw in targets:
                for target in _flatten_targets(raw):
                    name = _target_name(target)
                    if name in EXECUTION_GLOBALS:
                        hit(node, name, "direct mutation")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = _target_name(target)
                if name in EXECUTION_GLOBALS:
                    hit(node, name, "deletion")
        elif isinstance(node, ast.Global):
            for name in node.names:
                if name in EXECUTION_GLOBALS:
                    hit(node, name, "'global' declaration")
    return out


def lint_paths(root: Path, trees) -> list:
    """All violations under ``trees`` as ``(relpath, lineno, msg)``."""
    violations = []
    for tree in trees:
        base = root / tree
        if not base.exists():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel in ALLOWLIST:
                continue
            for lineno, msg in check_source(rel, path.read_text()):
                violations.append((rel, lineno, msg))
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", default=list(DEFAULT_TREES),
                        help="directories to lint (default: %(default)s)")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args(argv)
    violations = lint_paths(Path(args.root).resolve(), args.trees)
    for rel, lineno, msg in violations:
        print(f"{rel}:{lineno}: {msg}", file=sys.stderr)
    if violations:
        print(f"{len(violations)} execution-global violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
