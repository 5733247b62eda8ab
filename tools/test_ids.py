#!/usr/bin/env python3
"""Test-id diff: which ctest ids a change removes, adds or renames.

    python3 tools/test_ids.py OLD_BUILD_DIR NEW_BUILD_DIR

Lists the tests of both configured build directories with `ctest -N` and
prints three sections. An id is *renamed* when only the part after
`# GetParam()` changed: a value-parameterized gtest id ends in a print of
its parameter, so the stable prefix before it names the test. Every other
difference is a removal or an addition.

Stdlib only. Exit code 0 = no id removed; 1 = at least one removed.
"""

import re
import subprocess
import sys

TEST_LINE = re.compile(r"^\s*Test\s+#\d+: (.*)$")
PARAM_MARK = "# GetParam()"


def list_ids(build_dir):
    out = subprocess.run(["ctest", "-N", "--test-dir", build_dir],
                         check=True, capture_output=True, text=True).stdout
    ids = []
    for line in out.splitlines():
        m = TEST_LINE.match(line)
        if m:
            ids.append(m.group(1).rstrip())
    return ids


def stable_prefix(test_id):
    return test_id.split(PARAM_MARK, 1)[0].rstrip()


def diff(old_ids, new_ids):
    old, new = set(old_ids), set(new_ids)
    gone = sorted(old - new)
    came = sorted(new - old)
    came_by_prefix = {}
    for test_id in came:
        if PARAM_MARK in test_id:
            came_by_prefix.setdefault(stable_prefix(test_id), []).append(test_id)
    renamed, removed = [], []
    for test_id in gone:
        matches = came_by_prefix.get(stable_prefix(test_id), [])
        if PARAM_MARK in test_id and len(matches) == 1:
            renamed.append((test_id, matches[0]))
        else:
            removed.append(test_id)
    renamed_to = {new_id for _, new_id in renamed}
    added = [test_id for test_id in came if test_id not in renamed_to]
    return removed, added, renamed


def main(argv):
    if len(argv) != 3:
        print("usage: tools/test_ids.py OLD_BUILD_DIR NEW_BUILD_DIR",
              file=sys.stderr)
        return 2
    old_ids, new_ids = list_ids(argv[1]), list_ids(argv[2])
    removed, added, renamed = diff(old_ids, new_ids)
    print(f"old: {len(old_ids)} tests, new: {len(new_ids)} tests")
    print(f"removed ({len(removed)}):")
    for test_id in removed:
        print(f"  {test_id}")
    print(f"added ({len(added)}):")
    for test_id in added:
        print(f"  {test_id}")
    print(f"renamed ({len(renamed)}):")
    for old_id, new_id in renamed:
        print(f"  {stable_prefix(old_id)}  {PARAM_MARK} = …  ->  {new_id}")
    return 1 if removed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
