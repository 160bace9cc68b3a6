#!/usr/bin/env python3
"""List the exported values and optional arguments of a library that no caller uses.

Usage: scripts/check_callers.py DIR...

For every `val` (or `external`) in DIR's .mli files, search each .ml
file under lib, bench, benchmark, bin, examples and test, except the
module's own .ml, for the value's name; for every `?label:` in those
signatures, search the same files for `~label` or `?label`. A value or
option that no such file mentions has no caller outside its module:
print it and exit 1.

The search is by name, not by call site. A name that also appears
elsewhere (another module's value or field of the same name, a label,
a wrapper forwarding it) counts as a caller, so an unused value or
option can be missed, but one that has a caller is never flagged.
Comments are ignored; string and character literals are kept, so a
`(*` inside one opens no comment.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCH = ["lib", "bench", "benchmark", "bin", "examples", "test"]
IDENT = "[a-z_][A-Za-z0-9_']*"
CHAR = re.compile(r"'(?:[^\\'\n]|\\(?:[\\\"'ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def literal_end(src: str, i: int):
    """End of the string or character literal starting at [i], if one does."""
    c = src[i]
    if c == '"':
        j = i + 1
        while j < len(src) and src[j] != '"':
            j += 2 if src[j] == "\\" else 1
        return j + 1
    if c == "{":
        m = QUOTED.match(src, i)
        if m:
            close = src.find("|" + m.group(1) + "}", m.end())
            return len(src) if close < 0 else close + len(m.group(1)) + 2
    if c == "'" and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] in "_'")):
        m = CHAR.match(src, i)
        if m:
            return m.end()
    return None


def strip_comments(src: str) -> str:
    """Blank out OCaml comments (nested) so doc text is never parsed.

    String and character literals are lexed as OCaml does, inside
    comments too, so a `(*` or `*)` inside one neither opens nor closes
    a comment."""
    out, depth, i = [], 0, 0
    while i < len(src):
        end = literal_end(src, i)
        if end is not None:
            lit = src[i:end]
            out.append(lit if depth == 0 else re.sub(r"[^\n]", " ", lit))
            i = end
        elif src.startswith("(*", i):
            depth += 1
            i += 2
        elif src.startswith("*)", i) and depth > 0:
            depth -= 1
            i += 2
        else:
            out.append(src[i] if depth == 0 or src[i] == "\n" else " ")
            i += 1
    return "".join(out)


def signatures(mli: Path):
    """(value name, optional labels) for every val in [mli]."""
    val, labels = None, []
    for line in strip_comments(mli.read_text()).splitlines():
        m = re.match(r"\s*(?:val|external)\s+(" + IDENT + ")", line)
        if m or re.match(r"\s*(?:type|module|exception|include|open|end)\b", line):
            if val is not None:
                yield val, labels
            val, labels = (m.group(1) if m else None), []
        if val is not None:
            labels += re.findall(r"\?(" + IDENT + r")\s*:", line)
    if val is not None:
        yield val, labels


def mentioned(name: str, sigil: str, sources) -> bool:
    pat = re.compile(sigil + re.escape(name) + r"(?![A-Za-z0-9_'])")
    return any(pat.search(src) for src in sources)


def main(argv) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sources = {
        p: strip_comments(p.read_text())
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
            others = [src for p, src in sources.items() if p != own]
            where = f"{mli.relative_to(ROOT)}: {module}"
            for val, labels in signatures(mli):
                if not mentioned(val, r"(?<![A-Za-z0-9_'])", others):
                    unused.append(f"{where}.{val}")
                for label in labels:
                    if not mentioned(label, "[~?]", others):
                        unused.append(f"{where}.{val} ?{label}")
    for line in unused:
        print(line)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
