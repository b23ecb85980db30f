#!/usr/bin/env python3
"""arch_lint: whole-repo architecture analyzer for the chase codebase.

chase_lint.py polices spot patterns (determinism, parsing, spawning);
this tool polices structure. It parses every #include in src/, tools/,
tests/, and bench/ into a file-level include graph and enforces the
declared layer DAG of tools/lint/layers.toml:

  arch-cycle          No include cycles anywhere, at file granularity
                      (reported once per strongly connected component,
                      with the cycle path spelled out).

  layer-violation     Every cross-subsystem include edge must be allowed
                      by the manifest: a file under src/<sub>/ may only
                      include headers of <sub> itself and of the
                      subsystems listed for <sub> in layers.toml.
                      tools/, tests/, and bench/ are pseudo-subsystems
                      with their own entries ("*" = anything).

  transitive-include  No "lucky" includes: a file that uses a type,
                      function, macro, or alias declared in a src/
                      header it only reaches transitively must name that
                      header directly (mirrors chase_lint's own-header
                      member resolution). Heuristic: only identifiers
                      with exactly one declaring header among the file's
                      includes are checked, so ambiguous names never
                      fire. Scoped to src/ and tools/.

  missing-guard       Every header carries an include guard (#ifndef/
                      #define pair) or #pragma once.

  nodiscard-status    Status / StatusOr<T>-returning function
                      declarations in src/ headers carry [[nodiscard]]
                      (the class types are themselves [[nodiscard]];
                      the per-API annotation keeps the discipline
                      visible at the declaration and survives
                      by-reference wrappers). Enforced at compile time
                      repo-wide by -Werror=unused-result; this rule
                      keeps new declarations from shipping bare.

Suppressions: append `// arch-lint: allow(<rule>) <reason>` to the
offending line, or put it in a comment on the line directly above. The
reason is mandatory (a bare allow is itself a finding: bare-allow) —
it documents the invariant that replaces the rule. Cycles cannot be
suppressed: there is no line to hang a reason on that both sides of the
cycle would see.

Usage: arch_lint.py [--root DIR] [--manifest FILE] [paths...]
Paths default to `src tools tests bench` under --root (default: the
repo root inferred from this script's location). Directory walks skip
tests/lint/fixtures (known-bad lint snippets). Exits 0 when clean, 1
with file:line: diagnostics otherwise, 2 on usage/manifest errors.
"""

import argparse
import os
import re
import sys
import tomllib

from lint_common import (CC_EXTENSIONS, FIXTURE_DIR_MARKER, Finding,
                         rel_to_root, strip_code_noise)

HEADER_EXTENSIONS = (".h",)
TOP_DIRS = ("src", "tools", "tests", "bench")

SUPPRESS_RE = re.compile(r"//\s*arch-lint:\s*allow\(([\w-]+)\)\s*(.*)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)")

# Declared-name collection (transitive-include rule). Only namespace-scope
# declarations count; the scanner tracks brace depth and treats namespace
# braces as transparent.
NAMESPACE_RE = re.compile(r"\bnamespace\s+[\w:]*\s*\{")
CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(?:\[\[\w+\]\]\s+|\w+\([^)]*\)\s+|"
    r"SCOPED_CAPABILITY\s+)*([A-Z]\w*)")
ENUM_RE = re.compile(r"\benum\s+(?:class\s+|struct\s+)?([A-Z]\w*)")
USING_RE = re.compile(r"\busing\s+([A-Z]\w*)\s*=")
MACRO_RE = re.compile(r"^\s*#\s*define\s+([A-Z][A-Z0-9_]+)[\s(]")
# A free function: a declaration line whose name starts uppercase and is
# directly followed by '(' — `StatusOr<...> FindShapes(`, `Status Save(`.
FUNC_RE = re.compile(r"^[\w:<>,*&\s\[\]]*?[\s>&*]([A-Z]\w*)\s*\(")

# nodiscard-status rule: a header line declaring a function that returns
# Status / StatusOr by value. The name-followed-by-paren shape excludes
# locals like `Status status = Foo(...)`.
STATUS_DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+|friend\s+|explicit\s+|inline\s+|"
    r"constexpr\s+)*(?:chase::)?(?:Status|StatusOr<[^;={()]*>)\s+"
    r"(\w+)\s*\(")
NODISCARD_RE = re.compile(r"\[\[nodiscard\]\]")


class SourceFile:
    """One parsed translation unit / header: raw lines, noise-stripped
    code, resolved includes, suppressions."""

    def __init__(self, relpath, lines, root):
        self.relpath = relpath
        self.lines = lines
        self.code = [strip_code_noise(line) for line in lines]
        self.root = root
        self.includes = []  # (lineno, include_text, resolved_relpath|None)
        self.suppressions = {}
        self.bare_allows = []  # (lineno, rule)
        self._parse_includes()
        self._collect_suppressions()

    @property
    def subsystem(self):
        parts = self.relpath.split(os.sep)
        if parts[0] == "src" and len(parts) > 1:
            return parts[1]
        return parts[0]  # tools / tests / bench

    def _resolve(self, inc):
        """Resolution order mirrors the build: the including file's own
        directory (bench/common.h style), then the src/ include root,
        then the repo root."""
        candidates = [
            os.path.normpath(os.path.join(os.path.dirname(self.relpath),
                                          inc)),
            os.path.normpath(os.path.join("src", inc)),
            os.path.normpath(inc),
        ]
        for cand in candidates:
            if os.path.isfile(os.path.join(self.root, cand)):
                return cand
        return None

    def _parse_includes(self):
        # Raw lines, not noise-stripped code: stripping blanks string
        # literal contents, and the include path IS a string literal.
        for i, line in enumerate(self.lines, start=1):
            match = INCLUDE_RE.match(line)
            if match:
                inc = match.group(1)
                self.includes.append((i, inc, self._resolve(inc)))

    def _collect_suppressions(self):
        """Maps 1-based line number -> allowed rule ids; a comment-only
        suppression also covers the next code line (reason lines may wrap
        as further comment lines, which are skipped)."""
        for i, line in enumerate(self.lines, start=1):
            for match in SUPPRESS_RE.finditer(line):
                rule = match.group(1)
                reason = match.group(2).strip()
                if not reason:
                    self.bare_allows.append((i, rule))
                self.suppressions.setdefault(i, set()).add(rule)
                if line.lstrip().startswith("//"):
                    target = i + 1
                    while (target <= len(self.lines) and
                           self.lines[target - 1].lstrip().startswith("//")):
                        target += 1
                    self.suppressions.setdefault(target, set()).add(rule)

    def allowed(self, lineno, rule):
        return rule in self.suppressions.get(lineno, set())

    def declared_names(self):
        """Identifiers this file declares at namespace scope: classes,
        structs, enums (forward declarations count — they satisfy a
        pointer/reference use), using-aliases, macros, and free
        functions. Used both as the declaring-header inventory and as
        the uses-own-declaration filter."""
        names = set()
        depth = 0
        for code in self.code:
            if depth == 0:
                for regex in (CLASS_RE, ENUM_RE, USING_RE):
                    for match in regex.finditer(code):
                        names.add(match.group(1))
                func = FUNC_RE.match(code)
                if func:
                    names.add(func.group(1))
            match = MACRO_RE.match(code)
            if match:
                names.add(match.group(1))
            opens = code.count("{") - len(NAMESPACE_RE.findall(code))
            depth += opens - code.count("}")
            if depth < 0:
                depth = 0
        return names


def load_manifest(path):
    """Parses layers.toml: a [layers] table mapping subsystem name ->
    list of subsystems it may include (or "*"). Returns (layers, error).
    Every value must be a list of strings or the string "*"."""
    try:
        with open(path, "rb") as f:
            data = tomllib.load(f)
    except OSError as err:
        return None, f"cannot read manifest {path}: {err}"
    except tomllib.TOMLDecodeError as err:
        return None, f"manifest parse error in {path}: {err}"
    layers = data.get("layers")
    if not isinstance(layers, dict):
        return None, f"manifest {path} has no [layers] table"
    for name, deps in layers.items():
        if deps == "*":
            continue
        if (not isinstance(deps, list) or
                any(not isinstance(d, str) for d in deps)):
            return None, (f"manifest {path}: layers.{name} must be a list "
                          "of subsystem names or \"*\"")
        for dep in deps:
            if dep != "*" and dep not in layers:
                return None, (f"manifest {path}: layers.{name} allows "
                              f"unknown subsystem '{dep}'")
    return layers, None


def collect_files(paths, root):
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(rel_to_root(path, root))
            continue
        if not os.path.isdir(path):
            print(f"arch_lint: no such path: {path}", file=sys.stderr)
            return None
        for dirpath, dirnames, filenames in os.walk(path):
            if FIXTURE_DIR_MARKER in rel_to_root(dirpath, root):
                dirnames[:] = []
                continue
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CC_EXTENSIONS):
                    files.append(
                        rel_to_root(os.path.join(dirpath, name), root))
    return sorted(set(files))


class Analyzer:
    def __init__(self, root, layers, relpaths):
        self.root = root
        self.layers = layers
        self.files = {}
        self.findings = []
        for relpath in relpaths:
            try:
                with open(os.path.join(root, relpath), encoding="utf-8",
                          errors="replace") as f:
                    lines = f.read().splitlines()
            except OSError as err:
                self.findings.append(Finding(relpath, 0, "io-error",
                                             str(err)))
                continue
            self.files[relpath] = SourceFile(relpath, lines, root)
        # Pull transitively referenced repo files that were not listed
        # (a partial run must still see the full graph below its inputs).
        queue = list(self.files.values())
        while queue:
            sf = queue.pop()
            for _, _, resolved in sf.includes:
                if resolved is None or resolved in self.files:
                    continue
                try:
                    with open(os.path.join(root, resolved),
                              encoding="utf-8", errors="replace") as f:
                        lines = f.read().splitlines()
                except OSError:
                    continue
                self.files[resolved] = SourceFile(resolved, lines, root)
                queue.append(self.files[resolved])
        self.listed = set(relpaths)

    def report(self, sf, lineno, rule, message):
        if sf.allowed(lineno, rule):
            return
        self.findings.append(Finding(sf.relpath, lineno, rule, message))

    # -- rules ---------------------------------------------------------------

    def check_bare_allows(self):
        for sf in self.files.values():
            if sf.relpath not in self.listed:
                continue
            for lineno, rule in sf.bare_allows:
                self.findings.append(Finding(
                    sf.relpath, lineno, "bare-allow",
                    f"suppression allow({rule}) without a reason — state "
                    "the invariant that replaces the rule"))

    def check_guards(self):
        for sf in self.files.values():
            if sf.relpath not in self.listed:
                continue
            if not sf.relpath.endswith(HEADER_EXTENSIONS):
                continue
            guard_ok = False
            pending_guard = None
            for code in sf.code:
                if not code.strip():
                    continue
                if PRAGMA_ONCE_RE.match(code):
                    guard_ok = True
                    break
                ifndef = IFNDEF_RE.match(code)
                if ifndef and pending_guard is None:
                    pending_guard = ifndef.group(1)
                    continue
                define = DEFINE_RE.match(code)
                if (define and pending_guard is not None and
                        define.group(1) == pending_guard):
                    guard_ok = True
                break
            if not guard_ok:
                self.report(sf, 1, "missing-guard",
                            "header has neither an include guard "
                            "(#ifndef/#define pair) nor #pragma once")

    def check_cycles(self):
        """Tarjan SCC over the resolved include graph; every component
        with more than one file (or a self-include) is a cycle. Not
        suppressible — a cycle has no single owning line."""
        graph = {rel: sorted({resolved
                              for _, _, resolved in sf.includes
                              if resolved is not None})
                 for rel, sf in self.files.items()}
        index_of = {}
        lowlink = {}
        on_stack = set()
        stack = []
        counter = [0]
        sccs = []

        def strongconnect(v):
            # Iterative Tarjan: recursion depth could exceed the
            # interpreter limit on deep include chains.
            work = [(v, 0)]
            while work:
                node, pi = work[-1]
                if pi == 0:
                    index_of[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                succs = graph.get(node, [])
                while pi < len(succs):
                    succ = succs[pi]
                    pi += 1
                    if succ not in index_of:
                        work[-1] = (node, pi)
                        work.append((succ, 0))
                        recurse = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[succ])
                if recurse:
                    continue
                if lowlink[node] == index_of[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    sccs.append(sorted(scc))
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for v in sorted(graph):
            if v not in index_of:
                strongconnect(v)

        for scc in sorted(sccs):
            self_loop = (len(scc) == 1 and scc[0] in graph.get(scc[0], []))
            if len(scc) < 2 and not self_loop:
                continue
            head = scc[0]
            path = " -> ".join(scc + [head])
            self.findings.append(Finding(
                head, 1, "arch-cycle",
                f"include cycle among {len(scc)} file(s): {path}"))

    def check_layers(self):
        for sf in self.files.values():
            if sf.relpath not in self.listed:
                continue
            sub = sf.subsystem
            allowed = self.layers.get(sub)
            if allowed is None:
                self.report(sf, 1, "layer-violation",
                            f"subsystem '{sub}' is not declared in the "
                            "layer manifest (tools/lint/layers.toml)")
                continue
            if allowed == "*" or "*" in allowed:
                continue
            for lineno, inc, resolved in sf.includes:
                if resolved is None:
                    continue
                target = self.files.get(resolved)
                tsub = (target.subsystem if target is not None
                        else resolved.split(os.sep)[0])
                if tsub == sub or tsub in allowed:
                    continue
                self.report(
                    sf, lineno, "layer-violation",
                    f"'{sub}' may not include '{inc}' (subsystem "
                    f"'{tsub}'); allowed: {', '.join(sorted(allowed))} — "
                    "fix the layering or amend tools/lint/layers.toml")

    def check_transitive_includes(self):
        """A file using an identifier whose only declaring header among
        its transitive includes is one it never names directly relies on
        a lucky include chain."""
        decls = {rel: sf.declared_names()
                 for rel, sf in self.files.items()
                 if rel.startswith("src" + os.sep) and rel.endswith(".h")}
        closure_cache = {}

        def closure(rel):
            if rel in closure_cache:
                return closure_cache[rel]
            seen = set()
            queue = [rel]
            while queue:
                node = queue.pop()
                sf = self.files.get(node)
                if sf is None:
                    continue
                for _, _, resolved in sf.includes:
                    if resolved is not None and resolved not in seen:
                        seen.add(resolved)
                        queue.append(resolved)
            closure_cache[rel] = seen
            return seen

        for sf in self.files.values():
            if sf.relpath not in self.listed:
                continue
            if not (sf.relpath.startswith("src" + os.sep) or
                    sf.relpath.startswith("tools" + os.sep)):
                continue
            direct = {resolved for _, _, resolved in sf.includes
                      if resolved is not None}
            trans = closure(sf.relpath) - direct - {sf.relpath}
            trans_headers = [h for h in sorted(trans) if h in decls]
            if not trans_headers:
                continue
            # An identifier is checked only when exactly one header in
            # the whole closure declares it (ambiguous names never fire)
            # and the file does not declare it itself.
            declarer = {}
            for header in sorted(closure(sf.relpath) | direct):
                for name in decls.get(header, ()):
                    declarer[name] = (None if name in declarer
                                      else header)
            own = sf.declared_names()
            candidates = {}
            for header in trans_headers:
                for name in decls[header]:
                    if declarer.get(name) == header and name not in own:
                        candidates[name] = header
            if not candidates:
                continue
            pattern = re.compile(
                r"\b(?:" + "|".join(
                    re.escape(n) for n in sorted(candidates)) + r")\b")
            reported = set()
            for i, code in enumerate(sf.code, start=1):
                if INCLUDE_RE.match(code):
                    continue
                for match in pattern.finditer(code):
                    name = match.group(0)
                    if name in reported:
                        continue
                    reported.add(name)
                    header = candidates[name].replace(os.sep, "/")
                    rel_header = (header[4:] if header.startswith("src/")
                                  else header)
                    self.report(
                        sf, i, "transitive-include",
                        f"uses '{name}' declared in {header} without "
                        f"including it directly — add #include "
                        f"\"{rel_header}\"")

    def check_nodiscard(self):
        for sf in self.files.values():
            if sf.relpath not in self.listed:
                continue
            if not (sf.relpath.startswith("src" + os.sep) and
                    sf.relpath.endswith(".h")):
                continue
            for i, code in enumerate(sf.code, start=1):
                match = STATUS_DECL_RE.match(code)
                if not match:
                    continue
                if "return" in code or "using" in code:
                    continue
                if NODISCARD_RE.search(code):
                    continue
                if i > 1 and NODISCARD_RE.search(sf.code[i - 2]):
                    continue
                self.report(
                    sf, i, "nodiscard-status",
                    f"'{match.group(1)}' returns Status/StatusOr without "
                    "[[nodiscard]]; annotate the declaration so dropped "
                    "errors fail the build")

    def run(self):
        self.check_bare_allows()
        self.check_guards()
        self.check_cycles()
        self.check_layers()
        self.check_transitive_includes()
        self.check_nodiscard()
        self.findings.sort(key=Finding.sort_key)
        return self.findings


def main(argv):
    parser = argparse.ArgumentParser(
        prog="arch_lint.py",
        description="architecture analyzer (see the module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root for rule scoping (default: "
                        "inferred from this script's location)")
    parser.add_argument("--manifest", default=None,
                        help="layer manifest (default: "
                        "<root>/tools/lint/layers.toml)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tools "
                        "tests bench under the root)")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root if args.root is not None
        else os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "..", ".."))
    manifest_path = (args.manifest if args.manifest is not None
                     else os.path.join(root, "tools", "lint", "layers.toml"))
    layers, error = load_manifest(manifest_path)
    if error is not None:
        print(f"arch_lint: {error}", file=sys.stderr)
        return 2

    paths = args.paths or [os.path.join(root, d) for d in TOP_DIRS
                           if os.path.isdir(os.path.join(root, d))]
    relpaths = collect_files(paths, root)
    if relpaths is None:
        return 2

    findings = Analyzer(root, layers, relpaths).run()
    for finding in findings:
        print(finding)
    if findings:
        print(f"arch_lint: {len(findings)} finding(s) in "
              f"{len(relpaths)} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
