#!/usr/bin/env python
"""Docs gate: run the public-API doctests and link-check docs/ pages.

Two checks, both hard failures:

1. **Doctests** — ``doctest.testmod`` over every module in
   ``DOCTEST_MODULES`` (the public-API docstrings that advertise
   runnable examples: ``lpq_quantize``, ``lpq_quantize_many``,
   ``ExecutorConfig``, ``SearchScheduler``, ``LPQEngine``).  The
   modules use package-relative imports, so they are imported through
   the package rather than handed to ``python -m doctest`` as files.
2. **Reference link-check** — every ``path/to/file.py:symbol``
   reference in ``docs/*.md`` and ``README.md`` must point at an
   existing file that actually defines the symbol (``def``/``class``
   or module-level assignment; dotted symbols check their last
   component).  Plain file references (``path/to/file.py`` with no
   symbol) must exist too.

Usage::

    python scripts/check_docs.py [--verbose]
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

#: modules whose docstring examples are part of the documented API
DOCTEST_MODULES = (
    "repro.quant.ptq",  # lpq_quantize
    "repro.quant.genetic",  # LPQEngine
    "repro.parallel.executor",  # ExecutorConfig
    "repro.serve.scheduler",  # SearchScheduler
    "repro.serve.api",  # lpq_quantize_many
    "repro.serve.remote",  # remote worker fleet round trip
    "repro.serve.resilience",  # RetryPolicy backoff determinism
    "repro.serve.chaos",  # FaultPlan round trip + committed plans
    "repro.serve.server",  # SearchServer + SearchClient quickstart
    "repro.serve.store",  # journal replay + atomic result store
    "repro.spec.registry",  # register/resolve/names
    "repro.spec.spec",  # SearchSpec round trip + digest
    "repro.spec.sweep",  # expand_sweep
    "repro.spec.wire",  # frame codec
    "repro.spec.blob",  # content-addressed blob store
    "repro.numerics.registry",  # make_format
    "repro.numerics.logposit",  # lp_quantize(_many): signed zero / NaN
    "repro.numerics.posit",  # posit_encode: signed zero / NaN / NaR
    "repro.obs.hub",  # MetricsHub publish/subscribe
    "repro.obs.emitter",  # MetricsEmitter delta sampling
    "repro.obs.timeseries",  # TimeSeriesStore replay + merge_samples
)

#: markdown files whose file.py:symbol references are link-checked
DOC_PAGES = ("docs/*.md", "README.md")

#: `path/to/file.py` optionally followed by `:symbol` (possibly dotted);
#: a trailing `:123` line number is accepted and checked as file-only
_REF = re.compile(
    r"(?P<path>[\w./-]+\.py)(?::(?P<symbol>[A-Za-z_][\w.]*))?"
)

#: how a symbol may be defined at module level
_DEF_TEMPLATES = (
    r"^\s*def\s+{name}\b",
    r"^\s*class\s+{name}\b",
    r"^{name}\s*[:=]",
    r'^\s*"{name}"',  # __all__ entries for re-exported names
)


def run_doctests(verbose: bool) -> int:
    failures = 0
    for module_name in DOCTEST_MODULES:
        module = importlib.import_module(module_name)
        result = doctest.testmod(
            module, verbose=verbose, report=True,
            optionflags=doctest.NORMALIZE_WHITESPACE,
        )
        status = "ok" if result.failed == 0 else "FAIL"
        print(
            f"doctest {module_name}: {result.attempted} examples "
            f"[{status}]"
        )
        if result.attempted == 0:
            print(f"doctest {module_name}: FAIL — no examples found "
                  "(documented API must keep runnable examples)")
            failures += 1
        failures += result.failed
    return failures


def _symbol_defined(text: str, symbol: str) -> bool:
    name = re.escape(symbol.rsplit(".", maxsplit=1)[-1])
    return any(
        re.search(template.format(name=name), text, flags=re.MULTILINE)
        for template in _DEF_TEMPLATES
    )


def check_references(verbose: bool) -> int:
    failures = 0
    pages: list[Path] = []
    for pattern in DOC_PAGES:
        pages.extend(sorted(REPO.glob(pattern)))
    if not any(page.parent.name == "docs" for page in pages):
        print("link-check: FAIL — no docs/ pages found")
        return 1
    checked = 0
    for page in pages:
        text = page.read_text()
        for match in _REF.finditer(text):
            rel = match.group("path")
            symbol = match.group("symbol")
            target = REPO / rel
            checked += 1
            if not target.exists():
                print(f"link-check {page.relative_to(REPO)}: FAIL — "
                      f"missing file {rel}")
                failures += 1
                continue
            if symbol and not _symbol_defined(target.read_text(), symbol):
                print(f"link-check {page.relative_to(REPO)}: FAIL — "
                      f"{rel} does not define {symbol!r}")
                failures += 1
            elif verbose:
                ref = f"{rel}:{symbol}" if symbol else rel
                print(f"link-check {page.relative_to(REPO)}: ok {ref}")
    print(f"link-check: {checked} references across {len(pages)} pages, "
          f"{failures} broken")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    failures = run_doctests(args.verbose)
    failures += check_references(args.verbose)
    if failures:
        print(f"check_docs: {failures} failure(s)")
        return 1
    print("check_docs: all good")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
