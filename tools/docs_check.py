#!/usr/bin/env python3
"""Docs command checker: every ppsim_run/bench_* invocation
quoted in README.md and docs/ must actually run.

For each command found in fenced code blocks or inline code spans:
  1. the binary must exist in the build directory;
  2. every --flag it uses must be registered by that binary's source
     (benches register flags via Cli::get_*; typos rot silently otherwise);
  3. the command is executed at smoke scale: size/trial flags are
     overridden with tiny values (the Cli parser is last-flag-wins, so
     appending overrides preserves the documented flags while shrinking the
     run), inside a scratch directory so report files never pollute the
     repo. A run fails on crash, on exit codes >= 2 (usage errors), or on a
     "error:" line in stderr (CheckFailure); exit code 1 without one is a
     science verdict (bound violated at toy scale) and is accepted.

A documented --cache-dir is rewritten to one cell cache inside the scratch
directory, so a quoted cold/warm recipe replays its own cold run.

The "Paper claims → benches" table in docs/REPRODUCING.md must list exactly
the bench/bench_*.cpp sources: a bench without a row, or a row without a
bench, is a failure.

Usage: tools/docs_check.py [--build-dir build] [--repo-root .]
"""

import argparse
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

# Smoke-scale overrides, applied only when the binary registers the flag.
SMOKE_OVERRIDES = {
    "n": "20000",
    "trials": "1",
    "threads": "1",
    "kmin": "4",
    "kmax": "4",
    "walks": "200",
    "samples": "60",
    "max-parallel": "2000",
}
PER_COMMAND_TIMEOUT = 180  # seconds

BENCH_TABLE_HEADING = "## Paper claims → benches"
BENCH_ROW_RE = re.compile(r"^\| `(bench_[a-z0-9_]+)` \|", flags=re.MULTILINE)

# Commands sharing one scratch directory run in document order, so a cold
# then warm --cache-dir recipe replays its own cold run as quoted.
COMMAND_RE = re.compile(r"(?:\./build/)?(bench_[a-z0-9_]+|ppsim_run)\b")
FLAG_REGISTRATION_RE = re.compile(
    r'get_(?:int|double|string|bool)\(\s*"([a-z0-9-]+)"')


def doc_files(root: pathlib.Path):
    files = [root / "README.md"]
    files += sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def bench_table_failures(root: pathlib.Path):
    """Differences between the bench sources and the REPRODUCING.md table."""
    doc = root / "docs" / "REPRODUCING.md"
    text = doc.read_text()
    start = text.find(BENCH_TABLE_HEADING)
    if start < 0:
        return [f"{doc.relative_to(root)}: no '{BENCH_TABLE_HEADING}' section"]
    section = text[start:].split("\n## ", 1)[0]
    rows = set(BENCH_ROW_RE.findall(section))
    sources = {f.stem for f in (root / "bench").glob("bench_*.cpp")}
    return ([f"bench/{b}.cpp has no row in the {BENCH_TABLE_HEADING[3:]} table"
             for b in sorted(sources - rows)] +
            [f"{doc.relative_to(root)}: row `{b}` has no bench/{b}.cpp"
             for b in sorted(rows - sources)])


def looks_like_command(text: str) -> bool:
    """True iff `text` is a binary invocation, not a prose mention: after the
    binary token every argument must be a --flag or a flag's value."""
    try:
        tokens = shlex.split(text)
    except ValueError:
        return False
    if not tokens or not COMMAND_RE.fullmatch(tokens[0].removeprefix("./build/")):
        return False
    expecting_value = False
    for t in tokens[1:]:
        if t.startswith("--"):
            expecting_value = "=" not in t
        elif expecting_value:
            expecting_value = False
        else:
            return False  # bare word after the binary: prose, not a command
    return True


def extract_commands(text: str):
    """Yields command strings from fenced code blocks and inline code."""
    commands = []
    fenced = re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.DOTALL)
    for block in fenced:
        for line in block.splitlines():
            line = line.strip().lstrip("$ ").rstrip("\\").strip()
            line = line.split(" #", 1)[0].strip()  # strip trailing comments
            if line.startswith("#") or not COMMAND_RE.search(line):
                continue
            m = COMMAND_RE.search(line)
            candidate = line[m.start():]
            if looks_like_command(candidate):
                commands.append(candidate)
    for span in re.findall(r"`([^`\n]+)`", text):
        span = span.strip()
        if COMMAND_RE.match(span) and looks_like_command(span):
            commands.append(span)
    return commands


def registered_flags(binary: str, root: pathlib.Path):
    """Flags the binary's source registers with Cli::get_*."""
    subdir = "bench" if binary.startswith("bench_") else "examples"
    source = root / subdir / f"{binary}.cpp"
    if not source.is_file():
        return None
    text = source.read_text()
    flags = set(FLAG_REGISTRATION_RE.findall(text))
    if "read_sweep_flags" in text:
        flags |= {"trials", "min-trials", "max-trials", "seed", "threads",
                  "json"}
    return flags


def command_flags(tokens):
    return [t[2:].split("=", 1)[0] for t in tokens if t.startswith("--")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--repo-root", default=".")
    args = parser.parse_args()
    root = pathlib.Path(args.repo_root).resolve()
    build = (root / args.build_dir).resolve()

    commands = []
    for f in doc_files(root):
        for cmd in extract_commands(f.read_text()):
            commands.append((f.relative_to(root), cmd))
    if not commands:
        print("docs-check: no ppsim_run/bench_* commands found — extraction broken?")
        return 1

    seen = set()
    failures = bench_table_failures(root)
    print(f"docs-check: bench table vs bench/ sources, "
          f"{len(failures)} mismatches")
    checked = 0
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="ppsim-docs-check-"))
    for source_file, cmd in commands:
        # Keep only the command tail starting at the binary token.
        m = COMMAND_RE.search(cmd)
        cmd = cmd[m.start():]
        if cmd in seen:
            continue
        seen.add(cmd)
        tokens = shlex.split(cmd)
        binary = tokens[0].split("/")[-1]
        binary_path = build / binary
        if not binary_path.is_file():
            failures.append(f"{source_file}: `{cmd}` — binary {binary} not in {build}")
            continue
        flags = registered_flags(binary, root)
        if flags is None:
            failures.append(f"{source_file}: `{cmd}` — no source for {binary}")
            continue
        unknown = [f for f in command_flags(tokens) if f not in flags]
        if unknown:
            failures.append(
                f"{source_file}: `{cmd}` — flags not registered by {binary}: "
                + ", ".join("--" + f for f in unknown))
            continue
        if len(tokens) == 1:
            # Bare prose mention (`bench_foo`): the existence check above is
            # the whole contract; executing an all-defaults run would only
            # duplicate the real quoted invocations.
            continue
        smoke = [str(binary_path)] + tokens[1:]
        for flag, value in SMOKE_OVERRIDES.items():
            if flag in flags:
                smoke += [f"--{flag}", value]
        if "json" in flags:
            smoke += ["--json", str(scratch / f"{binary}.json")]
        if "cache-dir" in command_flags(tokens):
            smoke += ["--cache-dir", str(scratch / "cell-cache")]
        checked += 1
        print(f"docs-check [{checked}] {cmd}")
        try:
            proc = subprocess.run(smoke, cwd=scratch, capture_output=True,
                                  text=True, timeout=PER_COMMAND_TIMEOUT)
        except subprocess.TimeoutExpired:
            failures.append(f"{source_file}: `{cmd}` — smoke run timed out")
            continue
        if proc.returncode not in (0, 1):  # signal exits are negative, caught too
            failures.append(
                f"{source_file}: `{cmd}` — exit {proc.returncode}\n{proc.stderr.strip()}")
        elif "error:" in proc.stderr:
            failures.append(
                f"{source_file}: `{cmd}` — stderr: {proc.stderr.strip()}")

    print(f"\ndocs-check: {checked} unique commands executed, "
          f"{len(failures)} failures")
    for f in failures:
        print(f"  FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
