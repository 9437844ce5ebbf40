#!/usr/bin/env python3
"""Compare two run directories file by file.

Prints every file, by path relative to its run directory, whose SHA-256
differs between the two trees or that exists in only one of them.  Exits 0
when the trees are byte-identical, 1 when any file differs, 2 on bad
arguments:

    python3 scripts/compare_runs.py runs/before runs/after
"""

import hashlib
import os
import sys


def tree_digests(root):
    """Relative path -> SHA-256 of every file under ``root``."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 22), b""):
                    h.update(chunk)
            out[os.path.relpath(path, root).replace(os.sep, "/")] = h.hexdigest()
    return out


def main(argv):
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (tree_digests(d) for d in argv)
    differ = 0
    for rel in sorted(set(a) | set(b)):
        if rel not in b:
            print(f"only in {argv[0]}: {rel}")
        elif rel not in a:
            print(f"only in {argv[1]}: {rel}")
        elif a[rel] != b[rel]:
            print(f"differs: {rel}")
        else:
            continue
        differ += 1
    print(f"{differ} of {len(set(a) | set(b))} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
