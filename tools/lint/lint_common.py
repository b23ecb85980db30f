"""Helpers shared by the repo's linters (chase_lint.py, arch_lint.py).

Stdlib-only, like the linters themselves; each script imports this module
from its own directory.
"""

import os

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


def rel_to_root(path, root):
    try:
        return os.path.relpath(os.path.abspath(path), root)
    except ValueError:
        return path
