#!/usr/bin/env python3
"""chase_lint: repo-invariant linter for the chase-termination codebase.

The differential test harness can only *sample* the determinism contract
(bit-identical output at any thread count); this linter enforces the source
patterns that protect it, on every file, in CI:

  unordered-iter   Range-for over a std::unordered_{map,set} in a
                   canonical-output path (src/core/, src/chase/,
                   src/index/). Hash-table iteration order is
                   implementation-defined, so every such loop must either
                   sort before emitting or be a commutative fold — and must
                   say so in a suppression comment. Locals bound through
                   `auto` (`auto& live = shards_;`) inherit the container's
                   unordered-ness, resolved to a fixpoint.

  banned-nondet    Nondeterminism sources outside the sanctioned homes
                   (src/base/rng.h, src/base/hash.h): rand/srand,
                   std::random_device, std::mt19937, std::hash of a pointer
                   type, and reinterpret_cast<[u]intptr_t> (pointer-valued
                   ordering keys change run to run under ASLR).

  raw-sto          std::sto* / ato* conversions. They throw (or worse,
                   silently truncate) on garbage; all flag/string parsing
                   goes through a validated parser (see chasectl's
                   ParseU64Flag: strtoull + errno + end-pointer checks).

  naked-thread     std::thread creation outside the sanctioned spawners
                   (WorkerPool in src/exec/frontier_pool,
                   ProgressReporter/MetricsDumper in src/obs/progress).
                   One pool, one reporter tick — nothing else spawns.

  envelope-io      Binary envelope magics ("CHBN", "CHSI", "CHCK") outside
                   src/io/binary_io.{h,cc}. Envelope bytes are written only
                   through the io/binary_io helpers so the
                   checksum/version/limits discipline cannot be bypassed.

  signal-handler   Signal-handler discipline. Two checks: (a) handler
                   registration (signal()/sigaction()) outside the
                   sanctioned shim src/base/signal_flag.{h,cc} — the
                   checkpoint protocol owns SIGUSR1/SIGTERM and a second
                   registrar would silently steal them; (b) inside any
                   handler function body, calls that are not
                   async-signal-safe: heap allocation, locking, stdio and
                   iostreams. A conforming handler is a single store to a
                   lock-free std::atomic, nothing more.

  node-shape-container
                   std::unordered_{set,map} keyed on Shape under src/.
                   A node-based table pays a heap node and a heap
                   id-tuple per shape and a pointer chase per probe; the
                   flat ShapeSet (base/flat_set.h, probed through
                   ShapeView) serves the scan plan and shape interning
                   without either. A table that needs erase (FlatSet has
                   none) says so in a suppression.

  node-string-container
                   std::unordered_{set,map} keyed on std::string or
                   std::string_view under src/. Such a table pays a heap
                   node per name and a pointer chase per probe, and a
                   string_view key needs a second, owning copy of every
                   name elsewhere; SymbolTable (logic/symbols.h) interns
                   names into one flat FlatSet (base/flat_set.h) probed by
                   string_view, and a handful of names is a vector
                   searched linearly. A table that needs erase says so in
                   a suppression.

  node-row-container
                   std::unordered_{set,map} keyed on GroundAtom,
                   std::vector<uint64_t> or std::vector<Term> under
                   src/chase/. Such a table stores a second copy of
                   every row in its own heap block, behind a node and a
                   pointer chase per probe; the chase keeps atoms and
                   fired-trigger keys in flat RowSets
                   (chase/instance.h) instead.

  scan-id-alloc    The allocating IdOf( and ShapeOfTuple( under
                   src/storage/, src/pager/ and src/index/, the layers
                   that scan relations. Both build a heap IdTuple, so
                   one creeping into a scan loop pays an allocation per
                   tuple; the scan kernel classifies tuples by equality
                   mask and writes an id-tuple only into a stack
                   IdBuffer (WriteIdOf, ShapeViewOfTuple in
                   logic/shape.h).

Suppressions: append `// chase-lint: allow(<rule>) <reason>` to the
offending line, or put it in a comment on the line directly above. The
reason is mandatory — a suppression documents the invariant that replaces
the rule (e.g. "sorted before emit below").

Usage: chase_lint.py [--root DIR] [paths...]
Paths default to `src tools tests` under --root (default: the repo root
inferred from this script's location). Directory walks skip
tests/lint/fixtures (the lint test's known-bad snippets); explicitly
listed files are always linted. Exits 0 when clean, 1 with
file:line: diagnostics otherwise, 2 on usage errors.
"""

import argparse
import os
import re
import sys

from lint_common import (CC_EXTENSIONS, FIXTURE_DIR_MARKER, Finding,
                         bare_allow_findings, collect_suppressions,
                         rel_to_root, strip_code_noise)

SUPPRESS_RE = re.compile(r"//\s*chase-lint:\s*allow\(([\w-]+)\)\s*(.*)")

# unordered-iter ------------------------------------------------------------
CANONICAL_DIRS = (
    os.path.join("src", "core"),
    os.path.join("src", "chase"),
    os.path.join("src", "index"),
)
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{}]*>\s+(\w+)")
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std::)?unordered_(?:map|set)\b")
# `auto` locals bound to another object (by value, reference, or
# dereference) — if the initializer resolves to a known unordered
# container, the local inherits its unordered-ness; see unordered_names().
UNORDERED_AUTO_RE = re.compile(
    r"\b(?:const\s+)?auto\s*(?:&&?|\*)?\s*(\w+)\s*=\s*([^;={}]+);")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*([^)]+)\)")
TRAILING_IDENT_RE = re.compile(r"(\w+)\s*$")

# banned-nondet -------------------------------------------------------------
NONDET_HOMES = (
    os.path.join("src", "base", "rng.h"),
    os.path.join("src", "base", "hash.h"),
)
NONDET_PATTERNS = (
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bstd::hash\s*<[^>]*\*\s*>"), "std::hash of a pointer"),
    (re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\b"),
     "pointer-to-integer cast (ASLR-dependent value)"),
)

# raw-sto -------------------------------------------------------------------
RAW_STO_RE = re.compile(r"\b(?:std::sto(?:i|l|ll|ul|ull|f|d|ld)"
                        r"|ato(?:i|l|ll|f))\s*\(")

# naked-thread --------------------------------------------------------------
THREAD_SPAWNERS = (
    os.path.join("src", "exec", "frontier_pool.h"),
    os.path.join("src", "exec", "frontier_pool.cc"),
    os.path.join("src", "obs", "progress.h"),
    os.path.join("src", "obs", "progress.cc"),
)
THREAD_RE = re.compile(r"\bstd::thread\b")
# Tests and examples drive concurrency scenarios directly; the spawn rule
# polices the library and tools.
THREAD_SCOPE = (os.path.join("src", ""), os.path.join("tools", ""))

# node-shape-container ------------------------------------------------------
NODE_SHAPE_CONTAINER_RE = re.compile(
    r"\bunordered_(?:set|map)\s*<\s*(?:(?:::)?chase::)?Shape\b")

# node-string-container -----------------------------------------------------
NODE_STRING_CONTAINER_RE = re.compile(
    r"\bunordered_(?:set|map)\s*<\s*(?:(?:::)?std::)?(?:string|string_view)"
    r"\s*[,>]")

# node-row-container --------------------------------------------------------
ROW_CONTAINER_DIRS = (os.path.join("src", "chase"),)
NODE_ROW_CONTAINER_RE = re.compile(
    r"\bunordered_(?:set|map)\s*<\s*(?:(?:::)?chase::)?"
    r"(?:GroundAtom\b|(?:std::)?vector\s*<\s*"
    r"(?:(?:std::)?uint64_t|(?:(?:::)?chase::)?Term)\s*>)")

# scan-id-alloc -------------------------------------------------------------
SCAN_ID_ALLOC_DIRS = (os.path.join("src", "storage"),
                      os.path.join("src", "pager"),
                      os.path.join("src", "index"))
SCAN_ID_ALLOC_RE = re.compile(
    r"\b(?:IdOf|ShapeOfTuple)\s*(?:<[^<>;()]*>\s*)?\(")

# envelope-io ---------------------------------------------------------------
ENVELOPE_HOME = (
    os.path.join("src", "io", "binary_io.h"),
    os.path.join("src", "io", "binary_io.cc"),
)
MAGIC_RE = re.compile(r'"CH(?:BN|SI|CK)"')

# signal-handler ------------------------------------------------------------
SIGNAL_HOME = (
    os.path.join("src", "base", "signal_flag.h"),
    os.path.join("src", "base", "signal_flag.cc"),
)
SIGNAL_REGISTER_RE = re.compile(r"\b(?:std::)?(?:signal|sigaction)\s*\(")
# Handler names: assigned into sigaction::sa_handler or passed to signal().
HANDLER_ASSIGN_RE = re.compile(
    r"(?:\bsa_handler\s*=\s*|\bsignal\s*\(\s*\w+\s*,\s*)&?(\w+)")
# ...or defined with a handler-shaped name and signature.
HANDLER_DEF_NAME_RE = re.compile(
    r"\bvoid\s+(\w*[Hh]andler\w*)\s*\(\s*int\b")
UNSAFE_IN_HANDLER = (
    (re.compile(r"\b(?:malloc|calloc|realloc|free)\s*\("),
     "heap allocation"),
    (re.compile(r"\bnew\b"), "heap allocation (new)"),
    (re.compile(r"\b(?:f?printf|puts|fputs|fopen|fwrite|fflush|fclose)"
                r"\s*\("), "stdio"),
    (re.compile(r"\bstd::c(?:out|err|log)\b"), "iostream"),
    (re.compile(r"\.lock\s*\(|\b[Mm]utex\b"), "locking"),
)


def in_dirs(relpath, prefixes):
    return any(relpath == p.rstrip(os.sep) or relpath.startswith(p)
               for p in (q if q.endswith(os.sep) else q + os.sep
                         for q in prefixes))


class FileLinter:
    def __init__(self, path, relpath, lines, header_code=()):
        self.path = path
        self.relpath = relpath
        self.lines = lines
        # code[i] is lines[i] with comments and literal contents blanked;
        # raw strings are kept for the envelope-io rule and suppressions.
        self.code = [strip_code_noise(line) for line in lines]
        # Noise-stripped lines of the file's own quoted includes — a .cc's
        # unordered members are declared in its header, so name collection
        # must see both.
        self.header_code = list(header_code)
        self.suppressions, self.bare_allows = collect_suppressions(
            lines, SUPPRESS_RE)
        self.findings = []

    def allowed(self, lineno, rule):
        return rule in self.suppressions.get(lineno, set())

    def report(self, lineno, rule, message):
        if self.allowed(lineno, rule):
            return
        self.findings.append(Finding(self.relpath, lineno, rule, message))

    def check_reasonless_suppressions(self):
        self.findings.extend(bare_allow_findings(self.relpath,
                                                 self.bare_allows))

    # -- rules --------------------------------------------------------------

    def unordered_names(self):
        names = set()
        aliases = set()
        decl_sources = self.code + self.header_code
        for code in decl_sources:
            for match in UNORDERED_ALIAS_RE.finditer(code):
                aliases.add(match.group(1))
            for match in UNORDERED_DECL_RE.finditer(code):
                names.add(match.group(1))
        if aliases:
            alias_decl = re.compile(
                r"\b(?:" + "|".join(re.escape(a) for a in aliases) +
                r")\s*&?\s+(\w+)")
            for code in decl_sources:
                for match in alias_decl.finditer(code):
                    names.add(match.group(1))
        # An `auto` local bound to an unordered container is the same hash
        # table under a new name — `auto& live = shards_;` then range-for
        # over `live` is exactly as order-unstable as iterating shards_
        # directly. The initializer's trailing identifier is resolved the
        # same way the range expression is, and the set is closed to a
        # fixpoint so chained rebinds (`auto& a = m; auto& b = a;`)
        # propagate.
        changed = True
        while changed:
            changed = False
            for code in decl_sources:
                for match in UNORDERED_AUTO_RE.finditer(code):
                    new_name, init = match.group(1), match.group(2)
                    source = TRAILING_IDENT_RE.search(init.strip())
                    if (source and source.group(1) in names
                            and new_name not in names):
                        names.add(new_name)
                        changed = True
        return names

    def check_unordered_iter(self):
        if not in_dirs(self.relpath, CANONICAL_DIRS):
            return
        names = self.unordered_names()
        if not names:
            return
        for i, code in enumerate(self.code, start=1):
            for match in RANGE_FOR_RE.finditer(code):
                range_expr = match.group(1).strip()
                ident = TRAILING_IDENT_RE.search(range_expr)
                if ident and ident.group(1) in names:
                    self.report(
                        i, "unordered-iter",
                        f"iteration over unordered container "
                        f"'{ident.group(1)}' in a canonical-output path; "
                        "sort before emit (or document the commutative "
                        "fold) and add "
                        "`// chase-lint: allow(unordered-iter) <why>`")

    def check_banned_nondet(self):
        if self.relpath in NONDET_HOMES:
            return
        if not in_dirs(self.relpath, ("src", "tools")):
            return
        for i, code in enumerate(self.code, start=1):
            for pattern, what in NONDET_PATTERNS:
                if pattern.search(code):
                    self.report(
                        i, "banned-nondet",
                        f"{what} outside src/base/rng.h / src/base/hash.h; "
                        "deterministic runs require the sanctioned "
                        "SplitMix64/xoshiro paths")

    def check_raw_sto(self):
        for i, code in enumerate(self.code, start=1):
            if RAW_STO_RE.search(code):
                self.report(
                    i, "raw-sto",
                    "raw string-to-number conversion; use a validated "
                    "parser (strtoull + errno/end checks, cf. chasectl "
                    "ParseU64Flag) so garbage is a diagnosed failure")

    def check_naked_thread(self):
        if self.relpath in THREAD_SPAWNERS:
            return
        if not in_dirs(self.relpath, ("src", "tools")):
            return
        for i, code in enumerate(self.code, start=1):
            if THREAD_RE.search(code):
                self.report(
                    i, "naked-thread",
                    "std::thread outside the sanctioned spawners "
                    "(WorkerPool, ProgressReporter/MetricsDumper); "
                    "run work on a WorkerPool")

    def check_node_shape_container(self):
        if not in_dirs(self.relpath, ("src",)):
            return
        for i, code in enumerate(self.code, start=1):
            if NODE_SHAPE_CONTAINER_RE.search(code):
                self.report(
                    i, "node-shape-container",
                    "node-based hash container keyed on Shape; use the "
                    "flat ShapeSet (base/flat_set.h) probed through "
                    "ShapeView, or say why it needs erase in "
                    "`// chase-lint: allow(node-shape-container) <why>`")

    def check_node_string_container(self):
        if not in_dirs(self.relpath, ("src",)):
            return
        for i, code in enumerate(self.code, start=1):
            if NODE_STRING_CONTAINER_RE.search(code):
                self.report(
                    i, "node-string-container",
                    "node-based hash container keyed on a string; intern "
                    "names in a SymbolTable (logic/symbols.h), search a "
                    "short vector, or say why it needs erase in "
                    "`// chase-lint: allow(node-string-container) <why>`")

    def check_node_row_container(self):
        if not in_dirs(self.relpath, ROW_CONTAINER_DIRS):
            return
        for i, code in enumerate(self.code, start=1):
            if NODE_ROW_CONTAINER_RE.search(code):
                self.report(
                    i, "node-row-container",
                    "node-based hash container keyed on a row of terms; "
                    "keep rows in a flat RowSet (chase/instance.h), or say "
                    "why it needs erase in "
                    "`// chase-lint: allow(node-row-container) <why>`")

    def check_scan_id_alloc(self):
        if not in_dirs(self.relpath, SCAN_ID_ALLOC_DIRS):
            return
        for i, code in enumerate(self.code, start=1):
            if SCAN_ID_ALLOC_RE.search(code):
                self.report(
                    i, "scan-id-alloc",
                    "allocating IdOf/ShapeOfTuple in a scan layer; write "
                    "the id-tuple into a stack IdBuffer (WriteIdOf, "
                    "ShapeViewOfTuple), or say why this is off the scan "
                    "path in `// chase-lint: allow(scan-id-alloc) <why>`")

    def check_envelope_io(self):
        if self.relpath in ENVELOPE_HOME:
            return
        for i, line in enumerate(self.lines, start=1):
            code_with_strings = strip_comment_only(line)
            if MAGIC_RE.search(code_with_strings):
                self.report(
                    i, "envelope-io",
                    "binary envelope magic outside io/binary_io; write "
                    "envelopes only through the io/binary_io helpers")

    def _handler_names(self):
        names = set()
        for code in self.code:
            for match in HANDLER_ASSIGN_RE.finditer(code):
                name = match.group(1)
                if not name.startswith("SIG_"):  # SIG_IGN / SIG_DFL
                    names.add(name)
            for match in HANDLER_DEF_NAME_RE.finditer(code):
                names.add(match.group(1))
        return names

    def check_signal_handler(self):
        if not in_dirs(self.relpath, ("src", "tools")):
            return
        if self.relpath not in SIGNAL_HOME:
            for i, code in enumerate(self.code, start=1):
                if SIGNAL_REGISTER_RE.search(code):
                    self.report(
                        i, "signal-handler",
                        "signal()/sigaction() outside the sanctioned shim "
                        "(src/base/signal_flag); the checkpoint protocol "
                        "owns SIGUSR1/SIGTERM — register through "
                        "ScopedSignalFlags")
        # Scan every identified handler body — including the shim's own —
        # for calls that are not async-signal-safe.
        names = self._handler_names()
        if not names:
            return
        def_res = {name: re.compile(rf"\bvoid\s+{re.escape(name)}\s*\(")
                   for name in names}
        for name, def_re in sorted(def_res.items()):
            start = None
            for i, code in enumerate(self.code):
                # A definition opens a brace on this line or the next; a
                # declaration/assignment ends with ';'.
                if def_re.search(code) and ";" not in code:
                    start = i
                    break
            if start is None:
                continue
            depth = 0
            opened = False
            for i in range(start, len(self.code)):
                code = self.code[i]
                if opened and depth > 0:
                    for pattern, what in UNSAFE_IN_HANDLER:
                        if pattern.search(code):
                            self.report(
                                i + 1, "signal-handler",
                                f"{what} inside signal handler '{name}'; "
                                "handlers may only store to a lock-free "
                                "std::atomic flag")
                depth += code.count("{") - code.count("}")
                if "{" in code:
                    opened = True
                if opened and depth <= 0:
                    break

    def run(self):
        self.check_reasonless_suppressions()
        self.check_unordered_iter()
        self.check_banned_nondet()
        self.check_raw_sto()
        self.check_naked_thread()
        self.check_node_shape_container()
        self.check_node_string_container()
        self.check_node_row_container()
        self.check_scan_id_alloc()
        self.check_envelope_io()
        self.check_signal_handler()
        return self.findings


def strip_comment_only(line):
    """Removes // comments but keeps string literal contents (for rules
    that match inside literals)."""
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
            i += 1
            continue
        if c in ('"', "'"):
            in_string = c
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            return line[:i]
        i += 1
    return line


INCLUDE_RE = re.compile(r'#include\s+"([^"]+)"')


def own_header_code(lines, root):
    """Noise-stripped lines of the file's quoted includes that resolve
    under <root>/src — where a .cc's class members are declared."""
    code = []
    for line in lines:
        match = INCLUDE_RE.match(line.strip())
        if not match:
            continue
        header = os.path.join(root, "src", match.group(1))
        if not os.path.isfile(header):
            continue
        try:
            with open(header, encoding="utf-8", errors="replace") as f:
                code.extend(strip_code_noise(l) for l in
                            f.read().splitlines())
        except OSError:
            continue
    return code


def lint_file(path, root):
    relpath = rel_to_root(path, root)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as err:
        print(f"chase_lint: cannot read {path}: {err}", file=sys.stderr)
        return [Finding(relpath, 0, "io-error", str(err))]
    header_code = ()
    if path.endswith((".cc", ".cpp")) and in_dirs(relpath, CANONICAL_DIRS):
        header_code = own_header_code(lines, root)
    return FileLinter(path, relpath, lines, header_code).run()


def collect_files(paths, root):
    files = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)  # explicit files are always linted
            continue
        if not os.path.isdir(path):
            print(f"chase_lint: no such path: {path}", file=sys.stderr)
            return None
        for dirpath, dirnames, filenames in os.walk(path):
            if FIXTURE_DIR_MARKER in rel_to_root(dirpath, root):
                dirnames[:] = []
                continue
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CC_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        prog="chase_lint.py",
        description="repo-invariant linter (see the module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root for rule scoping (default: "
                        "inferred from this script's location)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tools "
                        "tests under the root)")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root if args.root is not None
        else os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "..", ".."))
    paths = args.paths or [
        os.path.join(root, d) for d in ("src", "tools", "tests")]

    files = collect_files(paths, root)
    if files is None:
        return 2
    findings = []
    for path in files:
        findings.extend(lint_file(path, root))
    for finding in findings:
        print(finding)
    if findings:
        print(f"chase_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
