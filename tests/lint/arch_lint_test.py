#!/usr/bin/env python3
"""Golden-fixture test for tools/lint/arch_lint.py.

Each case under tests/lint/fixtures/arch/ is a miniature repo root (its
own src/ tree); the analyzer runs with --root at the case directory and
the shared fixture manifest, so every structural rule is pinned against
a tree purpose-built to trip (or not trip) it. A case that carries its
own tools/lint/layers.toml runs against that manifest instead, as a
whole-tree run, which is what enables the stale-edge rule. A final pair of checks
makes sure real-repo directory walks skip the fixture tree and that
usage errors exit 2, distinct from findings.

Usage: arch_lint_test.py  (paths are inferred from this file's location)
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, os.path.join(REPO, "tools", "lint"))
import lint_common  # noqa: E402

LINTER = os.path.join(REPO, "tools", "lint", "arch_lint.py")
ARCH_FIXTURES = os.path.join(HERE, "fixtures", "arch")
MANIFEST = os.path.join(ARCH_FIXTURES, "layers.toml")

# case directory -> multiset of expected rule ids, one entry per expected
# finding. Empty list = the case must come back clean.
CASES = {
    "cycle": ["arch-cycle"],
    "layer_violation": ["layer-violation"],
    "transitive": ["transitive-include"],
    "missing_guard": ["missing-guard"],
    "bad_suppression": ["bare-allow"],
    "nodiscard": ["nodiscard-status"],
    "stale_edge": ["stale-edge"],
    "good": [],
}


def main():
    failures = []
    for case, expected in sorted(CASES.items()):
        case_dir = os.path.join(ARCH_FIXTURES, case)
        if not os.path.isdir(case_dir):
            failures.append(f"{case}: fixture directory missing")
            continue
        own_manifest = os.path.isfile(
            os.path.join(case_dir, "tools", "lint", "layers.toml"))
        args = ["--root", case_dir]
        if not own_manifest:
            args += ["--manifest", MANIFEST]
        lint_common.check_case(failures, case, LINTER, args, expected)
    # A partial run cannot see every include, so it reports no stale edge.
    stale_case = os.path.join(ARCH_FIXTURES, "stale_edge")
    lint_common.check_case(
        failures, "stale_edge (partial run)", LINTER,
        ["--root", stale_case, os.path.join(stale_case, "src")], [])
    lint_common.check_walk_skips_fixtures(failures, LINTER, REPO)
    # Usage errors: a nonexistent path and a missing manifest.
    lint_common.check_usage_error(
        failures, "nonexistent path", LINTER,
        [os.path.join(ARCH_FIXTURES, "no_such_dir")])
    lint_common.check_usage_error(
        failures, "missing manifest", LINTER,
        ["--manifest", os.path.join(ARCH_FIXTURES, "no_such.toml")])
    return lint_common.report(
        "arch_lint_test", failures,
        f"{len(CASES)} cases + walk/usage checks")


if __name__ == "__main__":
    sys.exit(main())
