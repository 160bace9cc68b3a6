#!/usr/bin/env python3
"""List the exported values and optional arguments of a library that no caller uses.

Usage: scripts/check_callers.py DIR...

For every `val` (or `external`) in DIR's .mli files, search each .ml
file under lib, bench, benchmark, bin, examples and test, except the
module's own .ml, for a use of that value. A value `v` of module `M`
(or of `M.Sub`, for a val declared inside `module Sub : sig`) is used
by a file that names it

  - as `M.v` (or `M.Sub.v`): inside M's library as it stands, anywhere
    else through the library's wrapper, with any prefix
    (`Ukvfs.Blockfs.v`), so a same-named module of another library
    (`Ukapps.Store`, `Ukstore.Store`) keeps nothing alive;
  - as `X.v`, where the file binds `module X = ...M` (or `...M.Sub`),
    or opens a module whose .ml binds it (bench's `open Common` brings
    `Cfg = Unikraft.Config`);
  - as a bare `v`, where the file opens `M` (or `M.Sub`) with `open`,
    `open!`, `include`, `let open` or `M.( ... )`; a file that opens
    `M` may also write `Sub.v`.

A file's aliases and opens hold for the whole file, so a file that
names a module, or opens one, anywhere counts everywhere; an unused
value can still be missed, but one that has a caller is never flagged.
For every `?label:` in a val's signature, search the files that name
that val, as above, for `~label` or `?label`, so an option nobody
passes is not kept alive by a same-named label of another function.
Labels declared in a `type` (such as `Httpd.make`, the type
`Httpd.serve` returns) belong to no val and are outside the check. A
value or option with no such use has no caller outside its module:
print it and exit 1. On success print how many interfaces, values and
options were examined; a run that examined no value exits 1.

Comments are ignored; string and character literals are kept, so a
`(*` inside one opens no comment.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCH = ["lib", "bench", "benchmark", "bin", "examples", "test"]
IDENT = "[a-z_][A-Za-z0-9_']*"
MPATH = r"[A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*"
CHAR = re.compile(r"'(?:[^\\'\n]|\\(?:[\\\"'ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
QUOTED = re.compile(r"\{([a-z_]*)\|")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*(" + MPATH + ")")
OPEN = re.compile(r"\b(?:open!?|include)\s+(" + MPATH + r")|(?<![A-Za-z0-9_'.])(" + MPATH + r")\.[(\[{]")
QUALIFIED = re.compile(r"(?<![A-Za-z0-9_'.])(" + MPATH + r")\.(" + IDENT + ")")
BARE = re.compile(r"(?<![A-Za-z0-9_'.])" + IDENT)


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
    """(submodule path, value name, optional labels) for every val in [mli].

    The submodule path is () for a top-level val and ("Sub",) for one
    declared inside `module Sub : sig ... end`."""
    subs, val, labels = [], None, []
    for line in strip_comments(mli.read_text()).splitlines():
        m = re.match(r"\s*(?:val|external)\s+(" + IDENT + ")", line)
        if m or re.match(r"\s*(?:type|module|exception|include|open|end)\b", line):
            if val is not None:
                yield tuple(subs), val, labels
            val, labels = (m.group(1) if m else None), []
        sub = re.match(r"\s*module\s+([A-Z][A-Za-z0-9_']*)\s*:\s*sig\b", line)
        if sub:
            subs.append(sub.group(1))
        elif re.match(r"\s*end\b", line) and subs:
            subs.pop()
        if val is not None:
            labels += re.findall(r"\?(" + IDENT + r")\s*:", line)
    if val is not None:
        yield tuple(subs), val, labels


def resolve(path: str, aliases):
    """Every module path [path] may denote, its head read through [aliases]."""
    head, *rest = path.split(".")
    return {t + tuple(rest) for t in aliases.get(head, ())} | {(head, *rest)}


def aliases_of(src: str):
    """The `module X = P` bindings of [src]: X -> the paths P may denote."""
    aliases = {}
    for m in ALIAS.finditer(src):
        aliases.setdefault(m.group(1), set()).update(resolve(m.group(2), aliases))
    return aliases


class Uses:
    """What one .ml file names: each qualified value under every module
    path it may denote, the modules it opens, and its bare identifiers.
    [library] is the wrapper of the library the file belongs to, if any;
    [bound] maps a module name to the aliases its .ml binds, which a file
    that opens that module can use too."""

    def __init__(self, src: str, library, bound):
        aliases = aliases_of(src)
        named = [m.group(1) or m.group(2) for m in OPEN.finditer(src)]
        for o in {o for n in named for o in resolve(n, aliases)}:
            for x, targets in bound.get(o[-1], {}).items():
                aliases.setdefault(x, set()).update(targets)
        opens = {o for n in named for o in resolve(n, aliases)}
        # `open Ukalloc` then `open Alloc` opens Ukalloc.Alloc.
        self.opens = opens | {a + b for a in opens for b in opens}
        self.qualified = {}
        for m in QUALIFIED.finditer(src):
            self.qualified.setdefault(m.group(2), set()).update(resolve(m.group(1), aliases))
        self.bare = set(BARE.findall(src))
        self.library = library

    def names(self, library, module, val: str) -> bool:
        """Does this file name [val] of [module] (a path: the module, then
        its submodules) of [library]? Outside [library] the path must
        start at the library's wrapper, so a same-named module of another
        library keeps nothing alive."""
        full = (library, *module) if library else module
        short = module if library == self.library else None
        denotes = lambda p: p[len(p) - len(full):] == full or p == short
        if val in self.bare and any(denotes(o) for o in self.opens):
            return True
        return any(denotes(p) or any(denotes(o + p) for o in self.opens) for p in self.qualified.get(val, ()))


def wrapper(d: Path):
    """The module wrapping the dune library in [d] (None outside one)."""
    dune = d / "dune"
    m = re.search(r"\(library\s+\(name\s+(\w+)\)", dune.read_text()) if dune.is_file() else None
    return m.group(1).capitalize() if m else None


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
    bound = {}
    for p, src in sources.items():
        for x, targets in aliases_of(src).items():
            bound.setdefault(p.stem.capitalize(), {}).setdefault(x, set()).update(targets)
    uses = {p: Uses(src, wrapper(p.parent), bound) for p, src in sources.items()}
    unused, interfaces, values, options = [], 0, 0, 0
    for d in argv:
        for mli in sorted(Path(d).resolve().glob("*.mli")):
            own = mli.with_suffix(".ml")
            library = wrapper(mli.parent)
            module = mli.stem.capitalize()
            others = [p for p in sources if p != own]
            interfaces += 1
            for subs, val, labels in signatures(mli):
                name = ".".join((module, *subs, val))
                where = f"{mli.relative_to(ROOT)}: {name}"
                values += 1
                options += len(labels)
                callers = [p for p in others if uses[p].names(library, (module, *subs), val)]
                if not callers:
                    unused.append(where)
                for label in labels:
                    if not mentioned(label, "[~?]", [sources[p] for p in callers]):
                        unused.append(f"{where} ?{label}")
    for line in unused:
        print(line)
    if values == 0:
        print(f"FAIL: no val examined in {' '.join(argv)}")
        return 1
    if not unused:
        print(f"ok: {interfaces} interfaces, {values} values and {options} options examined, each has a caller")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
