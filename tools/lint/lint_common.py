"""Helpers shared by the repo's linters (chase_lint.py, arch_lint.py).

Stdlib-only, like the linters themselves; each script imports this module
from its own directory. The fixture suites under tests/lint import its
test driver (run_linter and the shared checks at the bottom) too.
"""

import os
import subprocess
import sys

CC_EXTENSIONS = (".h", ".cc", ".cpp")
# Directory walks skip the lint fixtures (known-bad snippets); explicitly
# listed files are always linted.
FIXTURE_DIR_MARKER = os.path.join("tests", "lint", "fixtures")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)


def strip_code_noise(line):
    """Removes // comments and blanks out string/char literal contents so
    code patterns don't match inside either. Heuristic (no multi-line
    strings), which is all this codebase uses."""
    out = []
    i = 0
    n = len(line)
    in_string = None
    while i < n:
        c = line[i]
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == in_string:
                in_string = None
                out.append(c)
            else:
                out.append(" ")  # blank literal contents
            i += 1
            continue
        if c in ('"', "'"):
            in_string = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is comment
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            # Block comments are rare here; blank to the close or EOL.
            close = line.find("*/", i + 2)
            if close == -1:
                break
            i = close + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def collect_suppressions(lines, suppress_re):
    """Parses the `// <linter>: allow(<rule>) <reason>` comments matched by
    `suppress_re` (groups: rule id, reason). Returns (allowed_by_line,
    bare_allows): allowed_by_line maps a 1-based line number to the set of
    rule ids allowed there — a suppression covers its own line and, when
    the rest of the line is only the comment, the next code line (the
    reason may wrap onto continuation comment lines, which are skipped
    over); bare_allows lists (line, rule) for each suppression without a
    reason."""
    allowed = {}
    bare_allows = []
    for i, line in enumerate(lines, start=1):
        for match in suppress_re.finditer(line):
            rule = match.group(1)
            if not match.group(2).strip():
                bare_allows.append((i, rule))
            allowed.setdefault(i, set()).add(rule)
            if line.lstrip().startswith("//"):
                target = i + 1
                while (target <= len(lines) and
                       lines[target - 1].lstrip().startswith("//")):
                    target += 1
                allowed.setdefault(target, set()).add(rule)
    return allowed, bare_allows


def bare_allow_findings(relpath, bare_allows):
    """One bare-allow finding per reasonless suppression."""
    return [Finding(relpath, lineno, "bare-allow",
                    f"suppression allow({rule}) without a reason — state "
                    "the invariant that replaces the rule")
            for lineno, rule in bare_allows]


def rel_to_root(path, root):
    try:
        return os.path.relpath(os.path.abspath(path), root)
    except ValueError:
        return path


# ---------------------------------------------------------------------------
# Golden-fixture test driver for tests/lint/lint_test.py and
# tests/lint/arch_lint_test.py.

def run_linter(linter, args):
    """Runs the linter script with `args`. Returns (exit code, sorted rule
    ids of the findings it printed, combined stdout+stderr)."""
    proc = subprocess.run(
        [sys.executable, linter] + args,
        capture_output=True, text=True, check=False)
    rules = []
    for line in proc.stdout.splitlines():
        # "path:line: [rule] message"
        if "] " in line and "[" in line:
            rules.append(line.split("[", 1)[1].split("]", 1)[0])
    return proc.returncode, sorted(rules), proc.stdout + proc.stderr


def check_case(failures, label, linter, args, expected):
    """Exactly the `expected` rule ids (a multiset) must be reported, with
    exit 1 if any are expected and 0 otherwise."""
    code, rules, output = run_linter(linter, args)
    want_code = 1 if expected else 0
    if code != want_code:
        failures.append(f"{label}: exit {code}, want {want_code}\n{output}")
    if rules != sorted(expected):
        failures.append(
            f"{label}: findings {rules}, want {sorted(expected)}\n{output}")


def check_walk_skips_fixtures(failures, linter, repo):
    """Linting the real repo's tests/ stays clean despite every known-bad
    snippet parked in its fixture tree."""
    check_case(failures, "tests/ walk (must skip fixtures)", linter,
               ["--root", repo, os.path.join(repo, "tests")], [])


def check_usage_error(failures, label, linter, args):
    """A usage error is exit 2, distinct from findings (exit 1)."""
    code, _, _ = run_linter(linter, args)
    if code != 2:
        failures.append(f"{label}: exit {code}, want 2")


def report(name, failures, summary):
    """Prints the verdict; returns the suite's exit code."""
    print(f"{name}: " + ("FAILED" if failures else f"OK ({summary})"))
    for failure in failures:
        print(" -", failure)
    return 1 if failures else 0
