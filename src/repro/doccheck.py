"""Executable documentation checker (``repro doccheck``).

Docs rot: CLI surface grows PR by PR and the fenced examples in
README.md / EXPERIMENTS.md / docs/*.md silently drift (renamed flags,
removed subcommands, stale file paths).  This module makes the docs executable:
it extracts every ``repro …`` command from fenced ```bash/```console
blocks, rewrites it with tiny smoke budgets (2 connections per
configuration, 1-second captures), and runs it in-process against
:func:`repro.cli.main` in a scratch working directory.  An unknown flag
(argparse exit 2) or a non-zero exit fails the check — and CI.

Ground rules for doc authors:

* commands in one fenced block share a scratch directory and run in
  order, so multi-step examples (``campaign run`` → ``resume`` →
  ``report``) must stay in a single block;
* non-``repro`` commands (``pip``, ``pytest``, ``wireshark``…) are
  ignored, as are ``repro doccheck`` itself and lines marked
  ``# doccheck: skip``;
* leading ``VAR=value`` assignments become environment for that command;
* a token naming an existing repo file (``examples/….json``) is
  absolutised so the example works from the scratch directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

#: Fence info strings whose blocks are scanned for commands.
COMMAND_FENCES = ("bash", "console", "sh", "shell")

#: Marker comment that excludes one command line from checking.
SKIP_MARKER = "doccheck: skip"

_ENV_ASSIGNMENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")


@dataclass(frozen=True)
class DocCommand:
    """One checkable ``repro`` invocation found in a markdown file.

    Attributes:
        path: markdown file the command came from.
        lineno: 1-based line of the command inside that file.
        block: index of the fenced block within the file (commands of
            one block share a scratch directory).
        argv: the command tokens, starting with ``repro``.
        env: leading ``VAR=value`` assignments.
    """

    path: Path
    lineno: int
    block: int
    argv: Tuple[str, ...]
    env: Tuple[Tuple[str, str], ...] = ()


@dataclass
class DocCheckResult:
    """Outcome of smoke-running one documented command."""

    command: DocCommand
    argv: Tuple[str, ...]
    status: str  # "ok" | "failed"
    exit_code: Optional[int] = None
    detail: str = ""
    output_tail: str = ""


def iter_fenced_blocks(text: str) -> List[Tuple[int, str, List[Tuple[int,
                                                                     str]]]]:
    """Yield ``(start line, info string, [(lineno, line), …])`` per fence."""
    blocks = []
    fence_info: Optional[str] = None
    start = 0
    lines: List[Tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("```"):
            if fence_info is None:
                fence_info = stripped[3:].strip().lower()
                start = lineno
                lines = []
            else:
                blocks.append((start, fence_info, lines))
                fence_info = None
        elif fence_info is not None:
            lines.append((lineno, line))
    return blocks


def _join_continuations(lines: List[Tuple[int, str]]
                        ) -> List[Tuple[int, str]]:
    """Merge backslash-continued lines, keeping the first line number."""
    merged: List[Tuple[int, str]] = []
    pending: Optional[Tuple[int, str]] = None
    for lineno, line in lines:
        if pending is not None:
            lineno, line = pending[0], pending[1] + " " + line.strip()
        if line.rstrip().endswith("\\"):
            pending = (lineno, line.rstrip()[:-1].rstrip())
        else:
            merged.append((lineno, line))
            pending = None
    if pending is not None:
        merged.append(pending)
    return merged


def extract_commands(path: Path) -> List[DocCommand]:
    """All checkable ``repro`` commands in one markdown file, in order."""
    commands: List[DocCommand] = []
    text = path.read_text()
    for block_index, (_, info, lines) in enumerate(iter_fenced_blocks(text)):
        if info not in COMMAND_FENCES:
            continue
        for lineno, raw in _join_continuations(lines):
            line = raw.strip()
            if line.startswith("$"):  # console transcripts: $ marks input
                line = line[1:].strip()
            if not line or line.startswith("#"):
                continue
            if SKIP_MARKER in line:
                continue
            try:
                tokens = shlex.split(line, comments=True)
            except ValueError:
                continue
            env: List[Tuple[str, str]] = []
            while tokens and _ENV_ASSIGNMENT.match(tokens[0]):
                name, _, value = tokens.pop(0).partition("=")
                env.append((name, value))
            if tokens[:3] == ["python", "-m", "repro"]:
                tokens = ["repro"] + tokens[3:]
            if not tokens or tokens[0] != "repro":
                continue
            if tokens[1:2] == ["doccheck"]:
                continue  # no recursion
            commands.append(DocCommand(
                path=path, lineno=lineno, block=block_index,
                argv=tuple(tokens), env=tuple(env)))
    return commands


def _set_flag(argv: List[str], flag: str, value: str) -> List[str]:
    """Force ``flag value`` in ``argv``, replacing an existing setting."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == flag:
            i += 2
            continue
        if token.startswith(flag + "="):
            i += 1
            continue
        out.append(token)
        i += 1
    out.extend([flag, value])
    return out


def budget_argv(argv: Sequence[str]) -> List[str]:
    """Rewrite a documented command with tiny smoke budgets.

    The docs show paper-faithful budgets (25 connections per
    configuration); the checker only needs to prove the command line
    still parses and the code path still runs, so sweeps are cut to 2
    connections (empirically still 100 % injection success at the
    documented seeds), profiles to 1, and captures to 1 simulated
    second.  Campaign examples run unmodified — their specs are
    required to be smoke-sized.
    """
    argv = list(argv)
    sub = argv[1] if len(argv) > 1 else ""
    if sub in ("experiment", "metrics"):
        argv = _set_flag(argv, "--connections", "2")
    elif sub == "profile":
        argv = _set_flag(argv, "--connections", "1")
        argv = _set_flag(argv, "--top", "5")
    elif sub == "capture":
        argv = _set_flag(argv, "--duration", "1")
    return argv


def default_doc_paths(root: Path) -> List[Path]:
    """The markdown files checked by default: README.md, EXPERIMENTS.md
    and every handbook under ``docs/`` (sorted for stable order)."""
    paths = [path for name in ("README.md", "EXPERIMENTS.md")
             if (path := root / name).exists()]
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        paths.extend(sorted(docs_dir.glob("*.md")))
    return paths


def find_repo_root() -> Path:
    """The documentation root: cwd if it has a README, else the checkout
    above an editable ``src/`` install of this package."""
    cwd = Path.cwd()
    if (cwd / "README.md").exists():
        return cwd
    return Path(__file__).resolve().parent.parent.parent


def _absolutize(argv: List[str], root: Path) -> List[str]:
    """Point tokens naming existing repo files at their absolute paths."""
    out = []
    for token in argv:
        if not token.startswith("-") and "/" in token or \
                token.endswith((".json", ".md")):
            candidate = root / token
            if candidate.exists():
                out.append(str(candidate))
                continue
        out.append(token)
    return out


def run_command(command: DocCommand, cwd: Path, root: Path,
                budget: bool = True) -> DocCheckResult:
    """Smoke-run one documented command in-process under ``cwd``."""
    argv = list(command.argv)
    if budget:
        argv = budget_argv(argv)
    argv = _absolutize(argv, root)
    buffer = io.StringIO()
    old_cwd = os.getcwd()
    old_env = {name: os.environ.get(name) for name, _ in command.env}
    exit_code: Optional[int] = None
    detail = ""
    try:
        os.chdir(cwd)
        for name, value in command.env:
            os.environ[name] = value
        from repro.cli import main as cli_main

        with contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(buffer):
            try:
                exit_code = cli_main(argv[1:])
            except SystemExit as exc:  # argparse: unknown flag/subcommand
                exit_code = int(exc.code or 0)
                if exit_code == 2:
                    detail = "argparse rejected the command (flag drift?)"
    except Exception as exc:  # noqa: BLE001 — any crash is a doc failure
        detail = f"{type(exc).__name__}: {exc}"
        exit_code = None
    finally:
        os.chdir(old_cwd)
        for name, value in old_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    ok = exit_code == 0
    tail = "\n".join(buffer.getvalue().splitlines()[-8:])
    return DocCheckResult(
        command=command, argv=tuple(argv),
        status="ok" if ok else "failed",
        exit_code=exit_code,
        detail=detail or ("" if ok else f"exit code {exit_code}"),
        output_tail="" if ok else tail)


@dataclass
class DocCheckReport:
    """All results of one doccheck run."""

    results: List[DocCheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No documented command failed."""
        return all(r.status == "ok" for r in self.results)

    @property
    def failures(self) -> List[DocCheckResult]:
        """The failed results, in document order."""
        return [r for r in self.results if r.status != "ok"]

    def render_text(self) -> str:
        """Human-readable summary."""
        lines = []
        for result in self.results:
            where = (f"{result.command.path.name}:"
                     f"{result.command.lineno}")
            cmd = " ".join(result.command.argv)
            lines.append(f"[{result.status:>6}] {where:<24} {cmd}")
            if result.status != "ok":
                if result.detail:
                    lines.append(f"         ↳ {result.detail}")
                for out_line in result.output_tail.splitlines():
                    lines.append(f"         | {out_line}")
        counts = (f"{len(self.results)} command(s), "
                  f"{len(self.failures)} failure(s)")
        lines.append(counts)
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable report (CI artifact)."""
        return json.dumps({
            "ok": self.ok,
            "results": [{
                "file": str(r.command.path),
                "line": r.command.lineno,
                "command": list(r.command.argv),
                "ran": list(r.argv),
                "status": r.status,
                "exit_code": r.exit_code,
                "detail": r.detail,
            } for r in self.results],
        }, indent=2)


def check_docs(paths: Optional[Sequence[Path]] = None,
               root: Optional[Path] = None,
               budget: bool = True,
               stream: Optional[TextIO] = None) -> DocCheckReport:
    """Extract and smoke-run every documented ``repro`` command.

    Commands of one fenced block run sequentially in a shared scratch
    directory (with ``$REPRO_CACHE_DIR`` pointed at a scratch lint
    cache), so multi-step examples compose and nothing touches the
    user's state.
    """
    root = Path(root) if root is not None else find_repo_root()
    doc_paths = ([Path(p) for p in paths] if paths
                 else default_doc_paths(root))
    report = DocCheckReport()
    with tempfile.TemporaryDirectory(prefix="repro-doccheck-") as tmp:
        tmp_path = Path(tmp)
        old_cache = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        try:
            for path in doc_paths:
                block_dirs: Dict[int, Path] = {}
                for command in extract_commands(path):
                    cwd = block_dirs.get(command.block)
                    if cwd is None:
                        cwd = tmp_path / f"{path.stem}-{command.block:02d}"
                        cwd.mkdir(parents=True, exist_ok=True)
                        block_dirs[command.block] = cwd
                    result = run_command(command, cwd=cwd, root=root,
                                         budget=budget)
                    report.results.append(result)
                    if stream is not None:
                        print(f"[{result.status:>6}] "
                              f"{path.name}:{command.lineno} "
                              f"{' '.join(command.argv)}",
                              file=stream, flush=True)
        finally:
            if old_cache is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = old_cache
    return report
