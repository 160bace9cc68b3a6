#!/usr/bin/env python3
"""List the optional arguments of a library that no caller sets.

Usage: scripts/check_options.py DIR...

For every `?label:` in the signatures of DIR's .mli files, search each
.ml file under lib, bench, benchmark, bin, examples and test, except the
module's own .ml, for `~label` or `?label`. An option that no such file
mentions has no caller: print it and exit 1.

The search is by label, not by call site. A label that also appears
elsewhere (another function's argument of the same name, or a wrapper
forwarding it) counts as a caller, so an unused option can be missed,
but an option that has a caller is never flagged.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCH = ["lib", "bench", "benchmark", "bin", "examples", "test"]


def strip_comments(src: str) -> str:
    """Blank out OCaml comments (nested) so doc text is never parsed."""
    out, depth, i = [], 0, 0
    while i < len(src):
        two = src[i : i + 2]
        if two == "(*":
            depth += 1
            i += 2
        elif two == "*)" and depth > 0:
            depth -= 1
            i += 2
        else:
            out.append(src[i] if depth == 0 or src[i] == "\n" else " ")
            i += 1
    return "".join(out)


def options(mli: Path):
    """(value name, label) for every optional argument in [mli]'s vals."""
    val = None
    for line in strip_comments(mli.read_text()).splitlines():
        m = re.match(r"\s*(?:val|external)\s+([a-z_][A-Za-z0-9_']*)", line)
        if m:
            val = m.group(1)
        elif re.match(r"\s*(?:type|module|exception|include|open)\b", line):
            val = None
        if val is not None:
            for label in re.findall(r"\?([a-z_][A-Za-z0-9_']*)\s*:", line):
                yield val, label


def main(argv) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sources = {
        p: p.read_text()
        for d in SEARCH
        if (ROOT / d).is_dir()
        for p in (ROOT / d).rglob("*.ml")
        if "_build" not in p.parts
    }
    unused = []
    for d in argv:
        for mli in sorted(Path(d).resolve().glob("*.mli")):
            own = mli.with_suffix(".ml")
            module = mli.stem.capitalize()
            for val, label in options(mli):
                pat = re.compile(r"[~?]" + re.escape(label) + r"(?![A-Za-z0-9_'])")
                if not any(pat.search(src) for p, src in sources.items() if p != own):
                    unused.append(f"{mli.relative_to(ROOT)}: {module}.{val} ?{label}")
    for line in unused:
        print(line)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
