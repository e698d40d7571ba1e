"""File walking, rule execution, reporting, and the CLI entry point."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .baseline import BASELINE_NAME, Baseline
from .callgraph import build_project
from .findings import Finding
from .registry import ModuleSource, all_rules, rule_catalog


def _package_rel(path: str) -> str:
    """Path relative to the ``repro`` package root, posix separators.

    ``src/repro/yarn/scheduler.py`` -> ``yarn/scheduler.py``. Files outside
    a ``repro`` directory fall back to their basename-joined tail so rule
    scoping still behaves sensibly on fixture trees.
    """
    parts = os.path.abspath(path).replace(os.sep, "/").split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        tail = parts[idx + 1:]
        if tail:
            return "/".join(tail)
    return parts[-1]


def collect_files(paths: Sequence[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(path)
    return files


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: list[tuple[Finding, str]] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    new: list[Finding] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)
    files_checked: int = 0
    #: Baseline keys whose accepted findings no longer occur (file gone,
    #: line edited, or bug fixed) — the entry should be pruned.
    stale_baseline: list[str] = field(default_factory=list)
    #: Call-graph size.
    project_stats: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        new_keys = {id(f) for f in self.new}
        return {
            "version": 2,
            "files_checked": self.files_checked,
            "rules": rule_catalog(),
            "findings": [
                {**f.to_dict(), "baselined": id(f) not in new_keys}
                for f, _ in self.findings
            ],
            "new_count": len(self.new),
            "parse_errors": self.parse_errors,
            "stale_baseline": self.stale_baseline,
            "project": self.project_stats,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _stale_entries(baseline: Baseline,
                   findings: list[tuple[Finding, str]]) -> list[str]:
    """Accepted keys with more budget than current occurrences."""
    used: dict[str, int] = {}
    for finding, line_text in findings:
        key = finding.baseline_key(line_text)
        used[key] = used.get(key, 0) + 1
    return sorted(key for key, count in baseline.entries.items()
                  if used.get(key, 0) < count)


def analyze_paths(paths: Sequence[str],
                  baseline: Optional[Baseline] = None,
                  codes: Optional[set[str]] = None,
                  report_only: Optional[set[str]] = None) -> AnalysisResult:
    """Run every registered rule over ``paths``.

    ``baseline=None`` means "no baseline": every finding is new.
    ``codes`` restricts to a subset of rule codes. ``report_only``
    filters *reported* findings to the given package-relative paths —
    the rules still see every file (a changed caller can break an
    invariant in an unchanged callee and vice versa), only the report is
    scoped.
    """
    started = time.perf_counter()
    result = AnalysisResult()
    rules = [r for r in all_rules() if codes is None or r.code in codes]
    modules: list[ModuleSource] = []
    for file_path in collect_files(paths):
        try:
            with open(file_path, encoding="utf-8") as f:
                text = f.read()
            module = ModuleSource.parse(file_path, _package_rel(file_path), text)
        except (SyntaxError, UnicodeDecodeError) as exc:
            result.parse_errors.append(f"{file_path}: {exc}")
            continue
        result.files_checked += 1
        modules.append(module)

    if rules and modules:
        project = build_project(modules)
        result.project_stats = project.stats()
        for rule in rules:
            for finding in rule.check(project):
                mod = project.by_rel.get(finding.path)
                line_text = mod.line_text(finding.line) if mod else ""
                result.findings.append((finding, line_text))

    if report_only is not None:
        result.findings = [
            (f, t) for f, t in result.findings if f.path in report_only]
    result.findings.sort(key=lambda pair: pair[0])
    if baseline is None:
        baseline = Baseline()
    result.baselined, result.new = baseline.split(result.findings)
    # Stale detection only makes sense against the full finding set: a
    # scoped report would see every unrelated entry as unused.
    if report_only is None:
        result.stale_baseline = _stale_entries(baseline, result.findings)
    result.elapsed_s = time.perf_counter() - started
    return result


def _render_text(result: AnalysisResult, verbose: bool) -> str:
    lines = []
    shown = result.findings if verbose else [
        (f, t) for f, t in result.findings if f in result.new]
    baselined_keys = {id(f) for f in result.baselined}
    for finding, _ in shown:
        suffix = "  [baselined]" if id(finding) in baselined_keys else ""
        lines.append(finding.render() + suffix)
    for err in result.parse_errors:
        lines.append(f"PARSE-ERROR {err}")
    lines.append(
        f"{result.files_checked} files checked: {len(result.new)} new "
        f"finding(s), {len(result.baselined)} baselined")
    return "\n".join(lines)


def changed_files(base: str = "HEAD",
                  cwd: Optional[str] = None) -> Optional[list[str]]:
    """Python files changed vs ``base`` (committed, staged, and untracked).

    Returns absolute paths, or None if git is unavailable / not a repo.
    """
    def _git(*args: str) -> Optional[list[str]]:
        try:
            proc = subprocess.run(
                ["git", *args], capture_output=True, text=True,
                cwd=cwd, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return [line for line in proc.stdout.splitlines() if line.strip()]

    top_lines = _git("rev-parse", "--show-toplevel")
    if not top_lines:
        return None
    top = top_lines[0]
    diffed = _git("diff", "--name-only", base, "--")
    if diffed is None:
        return None
    untracked = _git("ls-files", "--others", "--exclude-standard") or []
    out = []
    for name in {*diffed, *untracked}:
        if not name.endswith(".py"):
            continue
        path = os.path.join(top, name)
        if os.path.isfile(path):
            out.append(path)
    return sorted(out)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Domain-specific static analyzer for the MRapid "
                    "reproduction (rules MR102-MR105 and MR201-MR203).")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to check (default: src/repro)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit machine-readable findings on stdout")
    parser.add_argument("--rules", metavar="CODES",
                        help="comma-separated rule codes to run (e.g. MR102,MR201)")
    parser.add_argument("--baseline", metavar="PATH",
                        help=f"baseline file (default: nearest {BASELINE_NAME})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline; report every finding as new")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the current findings as the new baseline "
                             "(prunes stale entries, preserves justifications "
                             "of surviving entries)")
    parser.add_argument("--fail-stale", action="store_true",
                        help="exit non-zero if the baseline contains entries "
                             "that no longer match any finding (CI gate "
                             "against baseline rot)")
    parser.add_argument("--changed-only", action="store_true",
                        help="report findings only for files changed vs "
                             "--base (the whole-program pass still reads "
                             "the full tree)")
    parser.add_argument("--base", default="HEAD", metavar="REF",
                        help="git ref --changed-only diffs against "
                             "(default: HEAD)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="also print baselined findings")
    parser.add_argument("--sanitize", action="store_true",
                        help="run the dynamic determinism sanitizer (the "
                             "identity registry in two subprocesses under "
                             "different PYTHONHASHSEED)")
    parser.add_argument("--sanitize-races", action="store_true",
                        help="run the same-timestamp race sanitizer (permute "
                             "dispatch order among events sharing a "
                             "(time, priority) class; observables must not "
                             "move)")
    parser.add_argument("--seeds", nargs=2, type=int, default=(1, 2),
                        metavar=("A", "B"),
                        help="seeds for --sanitize / --sanitize-races "
                             "(default: 1 2)")
    parser.add_argument("--digest", action="store_true",
                        help=argparse.SUPPRESS)  # sanitizer child mode
    return parser


def _default_paths() -> list[str]:
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [here]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)

    if args.digest:
        # Sanitizer child mode: the positional arguments name scenarios.
        from .sanitize import child_digests
        print(json.dumps(child_digests(args.paths), sort_keys=True))
        return 0

    if args.list_rules:
        for code, info in rule_catalog().items():
            print(f"{code} {info['name']}: {info['rationale']}")
        return 0

    if args.sanitize:
        from .sanitize import run_sanitizer
        return run_sanitizer(tuple(args.seeds), echo=print)

    if args.sanitize_races:
        from .sanitize import run_race_sanitizer
        return run_race_sanitizer(tuple(args.seeds), echo=print)

    paths = list(args.paths) or _default_paths()
    codes = set(args.rules.split(",")) if args.rules else None

    report_only: Optional[set[str]] = None
    if args.changed_only:
        changed = changed_files(args.base)
        if changed is None:
            print("--changed-only: not a git checkout (or git missing); "
                  "checking everything")
        else:
            report_only = {_package_rel(p) for p in changed}
            if not report_only:
                print("--changed-only: no python files changed vs "
                      f"{args.base}; nothing to report")
                return 0

    if args.no_baseline:
        baseline: Optional[Baseline] = Baseline()
    elif args.baseline:
        baseline = Baseline.load(args.baseline)
    else:
        baseline = Baseline.find(os.path.dirname(os.path.abspath(paths[0]))
                                 if os.path.isfile(paths[0]) else paths[0])

    result = analyze_paths(paths, baseline=baseline, codes=codes,
                           report_only=report_only)

    if args.update_baseline:
        target = args.baseline or baseline.path or BASELINE_NAME
        refreshed = Baseline.from_findings(result.findings, notes=baseline.notes)
        # Prune notes whose entry no longer exists — a justification for
        # a fixed finding must not outlive it.
        refreshed.notes = {k: v for k, v in refreshed.notes.items()
                           if k in refreshed.entries}
        refreshed.save(target)
        pruned = [k for k in baseline.entries if k not in refreshed.entries]
        print(f"wrote {target} ({sum(refreshed.entries.values())} accepted "
              f"finding(s), {len(pruned)} stale entr"
              f"{'y' if len(pruned) == 1 else 'ies'} pruned)")
        return 0

    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(_render_text(result, verbose=args.verbose))

    if args.fail_stale and result.stale_baseline:
        for key in result.stale_baseline:
            print(f"STALE-BASELINE {key}")
        print(f"{len(result.stale_baseline)} baseline entr"
              f"{'y' if len(result.stale_baseline) == 1 else 'ies'} no "
              f"longer match any finding — regenerate with "
              f"--update-baseline")
        return 1

    if result.parse_errors:
        return 2
    return 1 if result.new else 0
