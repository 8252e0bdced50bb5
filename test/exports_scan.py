#!/usr/bin/env python3
"""List library exports that no other module references.

Every top-level `val` in lib/*/*.mli is an export. An export counts as
used when some other .ml/.mli file under lib/, bin/, test/, examples/ or
perfbench/ names it: a qualified reference `M.name` (through any module
alias such as `module Comm = Loggp.Comm_model`), or a bare `name` in a
file that opens or includes the module. Comments and string literals are
ignored. The module's own .ml and .mli do not count: a value only its
own module uses belongs in the .ml alone, where the compiler's
unused-value warning guards it.

Exports kept public on purpose are listed in ALLOWLIST with a reason.
Any other export without an outside reference, and any allowlist entry
that names no such export, makes the script exit 1.

    python3 test/exports_scan.py
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ["lib", "bin", "test", "examples", "perfbench"]

# "Library.Module.value" -> why it stays public without an outside caller.
ALLOWLIST = {
    "Obs.Ledger.schema":
        "schema id of the ledger's JSONL records, which readers check",
    "Obs.Timeline_stream.schema":
        "schema id of the streamed timeline export, which readers check",
}

IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
MODPATH = r"[A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*"

# Where a comment, string, quoted string or char literal may start; inside
# a comment also where one ends, since comments nest.
OPENER = re.compile(r"\(\*|\"|\{[a-z_]*\||'")
IN_COMMENT = re.compile(r"\(\*|\*\)|\"|\{[a-z_]*\||'")
STRING = re.compile(r'"(?:[^"\\]|\\.)*"', re.S)
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2})|[^\\'\n])'")
NOT_NEWLINE = re.compile(r"[^\n]")


def strip(src):
    """Blank out comments, string and char literals, keeping newlines."""
    n = len(src)

    def skip_string(i):  # src[i] == '"'; returns the index past the close
        m = STRING.match(src, i)
        return m.end() if m else n + 1

    def skip_quoted(i):  # src[i:] opens {id|...|id}; returns the index past it
        id_ = src[i + 1:src.index("|", i)]
        close = src.find("|" + id_ + "}", i + len(id_) + 2)
        return n if close < 0 else close + len(id_) + 2

    def skip_char(i):  # src[i] == "'"; returns the index past it, or None
        if i > 0 and (src[i - 1].isalnum() or src[i - 1] in "_'"):
            return None  # a primed identifier such as x'
        m = CHAR.match(src, i)
        return m.end() if m else None

    def skip_comment(i):  # src[i:i+2] == "(*"; comments nest
        depth = 0
        while True:
            m = IN_COMMENT.search(src, i)
            if not m:
                return n
            i, tok = m.start(), m.group()
            if tok == "(*":
                depth += 1
                i += 2
            elif tok == "*)":
                depth -= 1
                i += 2
                if depth == 0:
                    return i
            elif tok == '"':
                i = skip_string(i)
            elif tok == "'":
                i = skip_char(i) or i + 1
            else:
                i = skip_quoted(i)

    out, kept, i = [], 0, 0

    def blank(a, b):
        out.append(src[kept:a])
        out.append(NOT_NEWLINE.sub(" ", src[a:b]))
        return b

    while True:
        m = OPENER.search(src, i)
        if not m:
            break
        i, tok = m.start(), m.group()
        if tok == "(*":
            i = kept = blank(i, skip_comment(i))
        elif tok == '"':
            j = skip_string(i)
            kept = blank(i + 1, j - 1)
            i = j
        elif tok == "'":
            j = skip_char(i)
            if j is None:
                i += 1
            else:
                kept = blank(i + 1, j - 1)
                i = j
        else:
            i = kept = blank(i, skip_quoted(i))
    out.append(src[kept:])
    return "".join(out)


def top_level_vals(sig):
    """Names of the `val`s declared outside any nested sig/object."""
    depth, vals, expect = 0, [], False
    for m in re.finditer(r"\(\s*([^\s()*]+)\s*\)|" + IDENT, sig):
        tok = m.group(0)
        if expect:
            vals.append(m.group(1) or tok)
            expect = False
        elif tok in ("sig", "object", "struct"):
            depth += 1
        elif tok == "end":
            depth -= 1
        elif tok == "val" and depth == 0:
            expect = True
    return vals


def source_files():
    for d in SCAN_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [x for x in dirnames if not x.startswith(("_", "."))]
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def main():
    cache = {}

    def stripped(path):
        if path not in cache:
            cache[path] = strip(open(path).read())
        return cache[path]

    # Library wrapper name -> its modules; each module's exports.
    libs, exports, homes = {}, {}, {}
    for path in sorted(source_files()):
        rel = os.path.relpath(path, ROOT).split(os.sep)
        if rel[0] != "lib" or len(rel) != 3:
            continue
        dune = open(os.path.join(ROOT, "lib", rel[1], "dune")).read()
        lib = re.search(r"\(name\s+(\w+)\)", dune).group(1).capitalize()
        mod = os.path.splitext(rel[2])[0].capitalize()
        libs.setdefault(lib, set()).add(mod)
        homes[os.path.join("lib", rel[1])] = lib
        if path.endswith(".mli"):
            exports[(lib, mod)] = top_level_vals(stripped(path))

    uses = {(lib, mod, v): 0 for (lib, mod), vs in exports.items() for v in vs}

    for path in source_files():
        rel = os.path.relpath(path, ROOT)
        own_lib = homes.get(os.path.dirname(rel))
        own_mod = os.path.splitext(os.path.basename(rel))[0].capitalize()
        text = stripped(path)

        aliases = dict(
            re.findall(r"\bmodule\s+([A-Z]\w*)\s*=\s*(" + MODPATH + r")\b(?!\s*[.(])",
                       text))
        opened = re.findall(r"\b(?:open!?|include)\s+(" + MODPATH + ")", text)
        opened += re.findall(r"(" + MODPATH + r")\.\(", text)

        def resolve(p, seen=()):
            """The (library, module) pairs a module path can name here."""
            parts = p.split(".")
            if parts[0] in aliases and parts[0] not in seen:
                target = aliases[parts[0]] + "".join("." + x for x in parts[1:])
                return resolve(target, seen + (parts[0],))
            if len(parts) == 2 and parts[1] in libs.get(parts[0], ()):
                return {(parts[0], parts[1])}
            if len(parts) != 1:
                return set()
            scope = {own_lib} | {o for o in opened if o in libs}
            return {(lib, parts[0]) for lib in scope if parts[0] in libs.get(lib, ())}

        def count(lib, mod, name):
            if (lib, mod) == (own_lib, own_mod):
                return
            if (lib, mod, name) in uses:
                uses[(lib, mod, name)] += 1

        for m in re.finditer(r"\b(" + MODPATH + r")\.(" + IDENT + ")", text):
            for lib, mod in resolve(m.group(1)):
                count(lib, mod, m.group(2))
        for o in opened:
            for lib, mod in resolve(o):
                if (lib, mod) == (own_lib, own_mod):
                    continue
                for v in exports.get((lib, mod), ()):
                    if re.search(r"(?<![.\w'])" + re.escape(v) + r"(?![\w'])", text):
                        count(lib, mod, v)

    unused = sorted(k for k, n in uses.items() if n == 0)
    status = 0
    for k in unused:
        name = ".".join(k)
        if name in ALLOWLIST:
            print("kept  %s: %s" % (name, ALLOWLIST[name]))
        else:
            print("UNREFERENCED  %s" % name)
            status = 1
    for name in sorted(set(ALLOWLIST) - {".".join(k) for k in unused}):
        print("STALE ALLOWLIST ENTRY  %s (not an export, or it has a caller)" % name)
        status = 1
    print("%d exports, %d without an outside reference, %d of them allowlisted"
          % (len(uses), len(unused), sum(".".join(k) in ALLOWLIST for k in unused)))
    return status


if __name__ == "__main__":
    sys.exit(main())
