#!/usr/bin/env python3
"""Golden-fixture test for tools/lint/chase_lint.py.

Each fixture under tests/lint/fixtures mirrors the repo layout (the linter
scopes rules by path relative to --root, so a fixture at src/index/foo.cc
is linted as a canonical-output file). bad_* fixtures must produce exactly
the expected rule ids; good_* fixtures and the sanctioned-home fixtures
must come back clean. A final case checks that directory walks skip the
fixture tree, so the repo-wide lint gate stays green despite the known-bad
snippets parked here.

Usage: lint_test.py  (paths are inferred from this file's location)
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, os.path.join(REPO, "tools", "lint"))
import lint_common  # noqa: E402

LINTER = os.path.join(REPO, "tools", "lint", "chase_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# fixture path (relative to the fixture root) -> multiset of expected rule
# ids, one entry per expected finding. Empty list = must be clean.
CASES = {
    # Their string-keyed `counts` maps also trip node-string-container.
    os.path.join("src", "index", "bad_unordered_iter.cc"):
        ["unordered-iter", "unordered-iter", "node-string-container"],
    os.path.join("src", "index", "good_unordered_iter.cc"): [],
    os.path.join("src", "index", "bad_unordered_auto.cc"):
        ["unordered-iter", "unordered-iter", "node-string-container"],
    os.path.join("src", "index", "good_unordered_auto.cc"): [],
    os.path.join("src", "core", "bad_nondet.cc"):
        ["banned-nondet"] * 5,
    os.path.join("src", "base", "rng.h"): [],
    os.path.join("src", "chase", "bad_raw_sto.cc"):
        ["raw-sto", "raw-sto"],
    os.path.join("tools", "good_raw_sto.cc"): [],
    os.path.join("src", "core", "bad_naked_thread.cc"):
        ["naked-thread", "naked-thread"],
    os.path.join("src", "exec", "frontier_pool.cc"): [],
    os.path.join("src", "core", "bad_envelope.cc"): ["envelope-io"],
    os.path.join("src", "io", "binary_io.cc"): [],
    os.path.join("src", "index", "bad_bare_allow.cc"): ["bare-allow"],
    # One registration outside the shim + stdio/malloc/free in the body.
    os.path.join("src", "core", "bad_signal.cc"):
        ["signal-handler"] * 4,
    os.path.join("src", "base", "signal_flag.cc"): [],
    os.path.join("src", "storage", "bad_node_shape_container.cc"):
        ["node-shape-container"] * 3,
    os.path.join("src", "storage", "good_node_shape_container.cc"): [],
    os.path.join("src", "logic", "bad_node_string_container.cc"):
        ["node-string-container"] * 4,
    os.path.join("src", "logic", "good_node_string_container.cc"): [],
    os.path.join("src", "chase", "bad_node_row_container.cc"):
        ["node-row-container"] * 4,
    os.path.join("src", "chase", "good_node_row_container.cc"): [],
    os.path.join("src", "core", "good_node_row_container.cc"): [],
    os.path.join("src", "storage", "bad_scan_id_alloc.cc"):
        ["scan-id-alloc"] * 4,
    os.path.join("src", "pager", "good_scan_id_alloc.cc"): [],
}


def main():
    failures = []
    for relpath, expected in sorted(CASES.items()):
        fixture = os.path.join(FIXTURES, relpath)
        if not os.path.isfile(fixture):
            failures.append(f"{relpath}: fixture file missing")
            continue
        lint_common.check_case(failures, relpath, LINTER,
                               ["--root", FIXTURES, fixture], expected)
    lint_common.check_walk_skips_fixtures(failures, LINTER, REPO)
    lint_common.check_usage_error(
        failures, "nonexistent path", LINTER,
        [os.path.join(FIXTURES, "no_such_file.cc")])
    return lint_common.report(
        "lint_test", failures,
        f"{len(CASES)} fixtures + walk/usage checks")


if __name__ == "__main__":
    sys.exit(main())
