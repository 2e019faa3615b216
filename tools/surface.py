#!/usr/bin/env python3
"""Library surface gate: every exported value must be referenced by code.

Each tracked `lib/**/*.mli` exports two kinds of value:

- a `val` at the top level, or inside a nested `module Sub : sig ...
  end` (at any depth), is runtime API and needs a reference from a
  tracked `.ml`/`.mli` under lib, bin, bench or examples, outside its
  own module (its `.ml` and `.mli`);
- a `val` inside `module For_testing : sig ... end` is a test hook (an
  audit, an introspection or a differential oracle) and needs a
  reference from a tracked file under test.

Vals of a `module type` or of a functor's result signature are not
values of the module and are not gated.

What counts as a reference is read from code only: OCaml comments
(nested) and string literals are blanked first.  A reference is then a
qualified `Module.value` (`Module.Sub.value` for a nested signature,
`Module.For_testing.value` for a test hook), through any library
prefix or `module X = Module` alias, or the bare `value` where the
module (`Module.Sub`) is open; `Sub.value` counts where `Module` is
open.  A top-level `open` or `include`
opens it for the whole file; `let open Module in e` only for `e`, and a
local open `Module.( ... )` only inside its brackets.  The body `e` of a
`let open` ends at the first bracket, `end` or `done` it did not open,
an `in` with no `let` of its own, `;;`, or a line indented less than
the `let open` (no more than the `let open`'s line, when the `let open`
follows other code on that line).

Every value that lacks its reference is reported as `Module.value`
(`Module.Sub.value`, `Module.For_testing.value`).  The script exits 1 when a reported value
is missing from the allowlist (tools/surface.allow) or an allowlisted
value is no longer reported, and 0 otherwise.  Run it from the
repository root:

    python3 tools/surface.py              # the gate
    python3 tools/surface.py --self-test  # the rule on inline fixtures
"""

import os
import re
import subprocess
import sys

RUNTIME_ROOTS = ["lib", "bin", "bench", "examples"]
TEST_ROOTS = ["test"]
ALLOWLIST = os.path.join(os.path.dirname(__file__), "surface.allow")
TESTING = "For_testing"

IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
UIDENT = r"[A-Z][A-Za-z0-9_']*"
PATH = rf"{UIDENT}(?:\s*\.\s*{UIDENT})*"
SIG_TOKEN = re.compile(
    rf"\bmodule\s+({UIDENT})\s*:\s*sig\b|\b(sig|struct|object|begin)\b|\b(end)\b"
    rf"|\bval\s+({IDENT})\s*:")
BLOCK = re.compile(r"\b(sig|struct|object|begin|end)\b")
ALIAS = re.compile(rf"\bmodule\s+({UIDENT})\s*=\s*({PATH})(?!\s*[.(])")
OPEN = re.compile(rf"(\blet\s+)?\b(?:open!?|include)\s+({PATH})(?!\s*[.(])(\s+in\b)?")
LOCAL_OPEN = re.compile(rf"({PATH})\s*\.\s*(?=[([{{])")
TOKEN = re.compile(r"[a-z_][A-Za-z0-9_']*|;;|[()\[\]{}]")
OPENERS = {"(", "[", "{", "begin", "struct", "sig", "object", "do"}
CLOSERS = {")", "]", "}", "end", "done"}
QUALIFIED = re.compile(rf"(?<![\w'.])({PATH})\s*\.\s*([a-z_][A-Za-z0-9_']*)")
BARE = re.compile(rf"(?<![\w'.])([a-z_][A-Za-z0-9_']*)")
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def blank(text):
    """`text` with comments and string literals replaced by spaces
    (newlines kept, so line anchors still hold)."""
    out = list(text)
    n = len(text)

    def erase(i, j):
        for k in range(i, j):
            if out[k] != "\n":
                out[k] = " "

    def string_end(i):
        # i is just past the opening quote
        while i < n:
            if text[i] == "\\":
                i += 2
            elif text[i] == '"':
                return i + 1
            else:
                i += 1
        return n

    def quoted_end(i, tag):
        close = text.find("|" + tag + "}", i)
        return n if close < 0 else close + len(tag) + 2

    def char_end(i):
        # i is at a quote: the end of a char literal there, or None (a
        # type variable or a prime inside an identifier)
        if i > 0 and re.match(r"[\w']", text[i - 1]):
            return None
        m = CHAR.match(text, i)
        return m.end() if m else None

    i = 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            start, depth = i, 0
            while i < n:
                if text.startswith("(*", i):
                    depth += 1
                    i += 2
                elif text.startswith("*)", i):
                    depth -= 1
                    i += 2
                    if depth == 0:
                        break
                elif text[i] == '"':
                    i = string_end(i + 1)
                elif text[i] == "'" and (j := char_end(i)):
                    i = j
                else:
                    m = QUOTED.match(text, i)
                    i = quoted_end(m.end(), m.group(1)) if m else i + 1
            erase(start, i)
        elif c == '"':
            j = string_end(i + 1)
            erase(i, j)
            i = j
        elif c == "{" and (m := QUOTED.match(text, i)):
            j = quoted_end(m.end(), m.group(1))
            erase(i, j)
            i = j
        elif c == "'" and (j := char_end(i)):
            erase(i, j)
            i = j
        else:
            i += 1
    return "".join(out)


def components(path):
    return [p for p in re.split(r"\s*\.\s*", path) if p]


def keys(parts):
    """The exports a module path may name: its last component (`M`
    through any library prefix) and its last two (`M.Sub`,
    `M.For_testing`)."""
    out = {parts[-1]}
    if len(parts) >= 2:
        out.add(f"{parts[-2]}.{parts[-1]}")
    return out


def indent(code, i):
    """The column of the first non-blank character on i's line."""
    start = j = code.rfind("\n", 0, i) + 1
    while j < len(code) and code[j] in " \t":
        j += 1
    return j - start


def scope_end(code, i, stop_at_dedent):
    """Where the expression starting at i ends: at the first closer it
    did not open, an `in` it has no `let` for, `;;`, or (when
    stop_at_dedent) the first line indented less than `stop_at_dedent`."""
    depth = lets = 0
    for m in TOKEN.finditer(code, i):
        tok = m.group()
        if stop_at_dedent is not None and depth == 0:
            line = code.rfind("\n", i, m.start())
            if line >= 0 and indent(code, m.start()) < stop_at_dedent \
                    and not code[line + 1:m.start()].strip():
                return m.start()
        if tok in OPENERS:
            depth += 1
        elif tok in CLOSERS:
            if depth == 0:
                return m.start()
            depth -= 1
        elif depth == 0 and tok == ";;":
            return m.start()
        elif depth == 0 and tok == "let":
            lets += 1
        elif depth == 0 and tok == "in":
            if lets == 0:
                return m.start()
            lets -= 1
    return len(code)


def let_open_scope(code, m):
    """The span `let open M in e` opens M for: e."""
    line = code.rfind("\n", 0, m.start()) + 1
    col = indent(code, m.start())
    first = not code[line:m.start()].strip()
    return m.end(), scope_end(code, m.end(), col if first else col + 1)


class Source:
    """The references one file's code makes."""

    def __init__(self, text):
        code = blank(text)
        aliases = {}
        for name, path in ALIAS.findall(code):
            aliases[name] = components(path)

        def expand(path):
            parts = components(path)
            if parts[0] in aliases:
                parts = aliases[parts[0]] + parts[1:]
            return parts

        # module key -> spans of code where it is open
        self.opened = {}

        def open_in(path, span):
            parts = expand(path)
            # opening M brings M.For_testing into scope as `For_testing`
            for k in keys(parts) | {f"{parts[-1]}.{TESTING}"}:
                self.opened.setdefault(k, []).append(span)

        for m in OPEN.finditer(code):
            if m.group(1) and m.group(3):
                open_in(m.group(2), let_open_scope(code, m))
            elif not m.group(1):
                open_in(m.group(2), (0, len(code)))
        for m in LOCAL_OPEN.finditer(code):
            open_in(m.group(1), (m.end(), scope_end(code, m.end() + 1, None)))

        def open_at(module, pos):
            return any(a <= pos < b for a, b in self.opened.get(module, ()))

        self.qualified = set()
        for m in QUALIFIED.finditer(code):
            parts = expand(m.group(1))
            for k in keys(parts):
                self.qualified.add((k, m.group(2)))
            # `Sub.v` where M is open names M.Sub.v
            if len(parts) == 1:
                for k in list(self.opened):
                    if "." not in k and open_at(k, m.start()):
                        self.qualified.add((f"{k}.{parts[0]}", m.group(2)))
        self.bare = {}
        for m in BARE.finditer(code):
            self.bare.setdefault(m.group(1), []).append(m.start())
        self.open_at = open_at

    def names(self, module, value):
        return (module, value) in self.qualified or any(
            self.open_at(module, pos) for pos in self.bare.get(value, ())
        )


def sig_end(code, i):
    """Where the signature whose body starts at i ends: at its `end`."""
    depth = 0
    for m in BLOCK.finditer(code, i):
        if m.group(1) != "end":
            depth += 1
        elif depth == 0:
            return m.start()
        else:
            depth -= 1
    return len(code)


def sig_vals(code, start, stop, path):
    """(path, value) for each val of the signature body code[start:stop]
    and, recursively, of its nested `module Sub : sig ... end`s; vals
    inside any other block (a module type, a functor's result) are
    skipped."""
    out = []
    depth = 0
    i = start
    while (m := SIG_TOKEN.search(code, i, stop)):
        sub, opener, end, val = m.groups()
        i = m.end()
        if sub:
            close = sig_end(code, m.end())
            if depth == 0:
                out += sig_vals(code, m.end(), close, path + [sub])
            i = close + len("end")
        elif opener:
            depth += 1
        elif end:
            depth -= 1
        elif depth == 0:
            out.append((path, val))
    return out


def exports(mli_text):
    """(path, value) pairs: the nested signature path of each exported
    val, [] at the top level and [..., "For_testing"] for a test hook."""
    code = blank(mli_text)
    return sig_vals(code, 0, len(code), [])


def under(path, roots):
    return any(path.startswith(r + "/") for r in roots)


def unreferenced(files):
    """Report every export in `files` (path -> text) that lacks its
    reference."""
    sources = {p: Source(t) for p, t in files.items()}
    report = []
    for mli in sorted(p for p in files if p.startswith("lib/") and p.endswith(".mli")):
        own = mli[: -len(".mli")]
        module = os.path.basename(own).capitalize()
        for path, value in exports(files[mli]):
            full = [module] + path
            roots = TEST_ROOTS if path[-1:] == [TESTING] else RUNTIME_ROOTS
            refs = [
                s for p, s in sources.items()
                if under(p, roots) and os.path.splitext(p)[0] != own
            ]
            if not any(s.names(".".join(full[-2:]), value) for s in refs):
                report.append(".".join(full + [value]))
    return report


def tracked_sources():
    out = subprocess.run(
        ["git", "ls-files", "--"] + RUNTIME_ROOTS + TEST_ROOTS,
        check=True, capture_output=True, text=True,
    ).stdout
    paths = [p for p in out.split("\n") if p.endswith((".ml", ".mli"))]
    files = {}
    for p in paths:
        with open(p, encoding="utf-8") as f:
            files[p] = f.read()
    return files


def allowlist():
    entries = set()
    with open(ALLOWLIST, encoding="utf-8") as f:
        for line in f.read().splitlines():
            entry = line.split("#", 1)[0].strip()
            if entry:
                entries.add(entry)
    return entries


PLAIN = "val v : int\n"
HOOK = "module For_testing : sig\n  val h : int\nend\n"
NESTED = "module Sub : sig\n  val n : int\nend\n"

SELF_TESTS = [
    # (what it shows, lib/m.mli, the other files, expected report)
    ("a qualified reference counts",
     PLAIN, {"bin/a.ml": "let _ = M.v"}, []),
    ("a library prefix counts",
     PLAIN, {"bin/a.ml": "let _ = Wf_lib.M.v"}, []),
    ("a mention in a comment does not count",
     PLAIN, {"bin/a.ml": "(* M.v (* nested *) M.v *) let x = 1"}, ["M.v"]),
    ("a comment ends only at its matching close",
     PLAIN, {"bin/a.ml": "(* (* *) M.v *) let x = 1"}, ["M.v"]),
    ("a mention in a string does not count",
     PLAIN, {"bin/a.ml": 'let s = "M.v" let t = {|M.v|}'}, ["M.v"]),
    ("a string inside a comment does not end it",
     PLAIN, {"bin/a.ml": '(* "*)" M.v *) let x = 1'}, ["M.v"]),
    ("a char literal does not start a string",
     PLAIN, {"bin/a.ml": "let q = '\"' let _ = M.v let r = '\"'"}, []),
    ("a char literal inside a comment does not start a string",
     PLAIN, {"bin/a.ml": "(* a '\"' quote *) let _ = M.v"}, []),
    ("an open counts a bare name",
     PLAIN, {"bin/a.ml": "open M\nlet _ = v"}, []),
    ("a let open counts a bare name",
     PLAIN, {"bin/a.ml": "let _ = let open Wf_lib.M in v"}, []),
    ("a local open counts a bare name",
     PLAIN, {"bin/a.ml": "let _ = M.(v + 1)"}, []),
    ("a bare name inside a local open's brackets counts",
     PLAIN, {"bin/a.ml": "let _ = M.(f (g v))"}, []),
    ("a bare name after a local open's brackets does not count",
     PLAIN, {"bin/a.ml": "let _ = M.(f 1) + v"}, ["M.v"]),
    ("a bare name after a scoped let open does not count",
     PLAIN, {"bin/a.ml": "let f () =\n  let open M in\n  w\n\nlet g = v"},
     ["M.v"]),
    ("a let open inside brackets ends at the close",
     PLAIN, {"bin/a.ml": "let _ = (let open M in w) + v"}, ["M.v"]),
    ("a let open ends at an in it has no let for",
     PLAIN, {"bin/a.ml": "let _ =\n  let x = let open M in w in\n  x + v"},
     ["M.v"]),
    ("a let open covers its nested lets",
     PLAIN, {"bin/a.ml": "let _ =\n  let open M in\n  let x = 1 in\n  x + v"},
     []),
    ("a same-named local definition elsewhere does not count",
     PLAIN, {"bin/a.ml": "let v = 1\nlet f () =\n  let open M in\n  w + 1\n"},
     ["M.v"]),
    ("a functor application is not an alias",
     PLAIN, {"bin/a.ml": "module X = F (M)\nlet _ = X.v"}, ["M.v"]),
    ("an alias counts",
     PLAIN, {"bin/a.ml": "module X = Wf_lib.M\nlet _ = X.v"}, []),
    ("a bare name without an open does not count",
     PLAIN, {"bin/a.ml": "let _ = v"}, ["M.v"]),
    ("a field of another module does not count",
     PLAIN, {"bin/a.ml": "open M\nlet _ = N.v"}, ["M.v"]),
    ("its own implementation does not count",
     PLAIN, {"lib/m.ml": "let v = 1 let _ = M.v"}, ["M.v"]),
    ("a plain export whose only reference is a test fails",
     PLAIN, {"test/t.ml": "let _ = M.v"}, ["M.v"]),
    ("a test hook with a test reference passes",
     HOOK, {"test/t.ml": "let _ = M.For_testing.h"}, []),
    ("a test hook through an opened module passes",
     HOOK, {"test/t.ml": "open M\nlet _ = For_testing.h"}, []),
    ("a test hook through an alias passes",
     HOOK, {"test/t.ml": "module T = M.For_testing\nlet _ = T.h"}, []),
    ("a test hook with no test reference fails",
     HOOK, {"bin/a.ml": "let _ = M.For_testing.h"}, ["M.For_testing.h"]),
    ("a plain name does not reach a test hook",
     HOOK, {"test/t.ml": "let _ = M.h"}, ["M.For_testing.h"]),
    ("a nested signature's val is gated",
     NESTED, {"bin/a.ml": "let x = 1"}, ["M.Sub.n"]),
    ("a nested val with a qualified reference passes",
     NESTED, {"bin/a.ml": "let _ = Wf_lib.M.Sub.n"}, []),
    ("a nested val whose only reference is a test fails",
     NESTED, {"test/t.ml": "let _ = M.Sub.n"}, ["M.Sub.n"]),
    ("a nested val through an opened parent passes",
     NESTED, {"bin/a.ml": "open M\nlet _ = Sub.n"}, []),
    ("a nested val through an opened signature passes",
     NESTED, {"bin/a.ml": "open M.Sub\nlet _ = n"}, []),
    ("a nested val through an alias passes",
     NESTED, {"bin/a.ml": "module S = M.Sub\nlet _ = S.n"}, []),
    ("a same-named top-level val does not reach a nested one",
     NESTED, {"bin/a.ml": "let _ = M.n"}, ["M.Sub.n"]),
    ("a module type's vals are not gated",
     "module type S = sig\n  val t : int\nend\n", {"bin/a.ml": "let x = 1"}, []),
    ("a functor's result vals are not gated",
     "module Make (X : S) : sig\n  val f : int\nend\n", {"bin/a.ml": "let x = 1"},
     []),
    ("a test hook inside a nested signature needs a test reference",
     "module Sub : sig\n  module For_testing : sig\n    val h : int\n  end\nend\n",
     {"test/t.ml": "let _ = M.Sub.For_testing.h"}, []),
]


def self_test():
    failed = 0
    for name, mli, others, expected in SELF_TESTS:
        got = unreferenced({"lib/m.mli": mli, **others})
        ok = got == expected
        failed += not ok
        print(("ok   " if ok else "FAIL ") + name
              + ("" if ok else f": got {got}, want {expected}"))
    print(f"surface self-test: {len(SELF_TESTS) - failed}/{len(SELF_TESTS)} passed")
    return 1 if failed else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if argv[1:]:
        print(f"usage: {argv[0]} [--self-test]", file=sys.stderr)
        return 2
    report = unreferenced(tracked_sources())
    allowed = allowlist()
    new = [v for v in report if v not in allowed]
    stale = sorted(allowed - set(report))
    for v in new:
        print(f"unreferenced export (not allowlisted): {v}")
    for v in stale:
        print(f"allowlist entry no longer reported: {v}")
    print(f"surface: {len(report)} unreferenced, {len(allowed)} allowlisted")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
