"""CLI for FlexLint: ``python -m repro.tools.flexlint [paths...]``.

Exits non-zero when any active (non-waived, non-baselined) finding
remains.  Typical use::

    PYTHONPATH=src python -m repro.tools.flexlint src/

Options:

* ``--json`` — machine-readable output (one object per finding).
* ``--rule FXLnnn`` — restrict to one rule (repeatable).
* ``--show-waived`` — also print findings silenced by waivers or the
  baseline.
* ``--list-rules`` — print the rule table and exit.
* ``--sarif PATH`` — also write a SARIF 2.1.0 report.
* ``--baseline PATH`` — suppression file (default:
  ``.flexlint-baseline.json`` when it exists); ``--update-baseline``
  rewrites it from the currently active findings.
* ``--cache PATH`` / ``--no-cache`` — content-hash incremental cache
  (default: ``.flexlint-cache.json``); a warm run re-parses only
  changed files.
* ``--stats-json PATH`` — dump run stats (files, cache hits/misses)
  for CI cache-effectiveness assertions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, TextIO

from repro.analysis.driver import run
from repro.analysis.flexlint import RULES, Finding

DEFAULT_BASELINE = ".flexlint-baseline.json"
DEFAULT_CACHE = ".flexlint-cache.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.flexlint",
        description="FlexIO project-invariant linter (rules FXL001-FXL013).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/"],
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON")
    parser.add_argument("--rule", action="append", default=None,
                        metavar="FXLnnn", help="only report this rule "
                        "(repeatable)")
    parser.add_argument("--show-waived", action="store_true",
                        help="also print waived/baselined findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--sarif", metavar="PATH", default=None,
                        help="write a SARIF 2.1.0 report to PATH")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help=f"baseline/suppression file (default: "
                        f"{DEFAULT_BASELINE} when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the currently "
                        "active findings, then exit 0")
    parser.add_argument("--cache", metavar="PATH", default=None,
                        help=f"incremental cache file (default: "
                        f"{DEFAULT_CACHE})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental cache")
    parser.add_argument("--stats-json", metavar="PATH", default=None,
                        help="write run stats (cache hits/misses) to PATH")
    return parser


def _finding_dict(f: Finding) -> dict:
    return f.to_dict()


def main(argv: Optional[Sequence[str]] = None, out: TextIO = sys.stdout) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.title}", file=out)
            print(f"        {rule.description}", file=out)
        return 0

    cache_path = None if args.no_cache else (args.cache or DEFAULT_CACHE)
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        if args.update_baseline or os.path.exists(DEFAULT_BASELINE):
            baseline_path = DEFAULT_BASELINE
    if args.no_baseline:
        baseline_path = None

    result = run(
        args.paths,
        cache_path=cache_path,
        baseline_path=baseline_path,
        update_baseline=args.update_baseline,
    )
    findings = result.findings
    if args.rule:
        wanted = set(args.rule)
        findings = [f for f in findings if f.rule in wanted]

    active = [f for f in findings if f.active]
    waived = [f for f in findings if f.waived]
    baselined = [f for f in findings if f.baselined]
    shown = findings if args.show_waived else active

    if args.sarif:
        from repro.analysis.sarif import write_sarif

        write_sarif(findings, args.sarif)
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            json.dump(result.stats.to_dict(), fh, indent=2)
            fh.write("\n")

    if args.as_json:
        print(json.dumps([_finding_dict(f) for f in shown], indent=2),
              file=out)
    else:
        for f in shown:
            print(f.format(), file=out)
        summary = f"flexlint: {len(active)} finding(s)"
        if waived:
            summary += f", {len(waived)} waived"
        if baselined:
            summary += f", {len(baselined)} baselined"
        stats = result.stats
        summary += (
            f" [{stats.files} files, {stats.cache_hits} cached, "
            f"{stats.cache_misses} analyzed]"
        )
        print(summary, file=out)

    if args.update_baseline:
        return 0
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
