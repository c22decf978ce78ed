#!/usr/bin/env python3
"""Static contract linter for the MDN tree: real-time purity + determinism.

Two contracts that the test suite checks stochastically at runtime are
enforced here over the whole tree on every CI run:

Real-time purity
    Functions annotated ``MDN_REALTIME`` (src/common/annotations.h) are
    the audio hot path: ToneDetector::detect_into / set_levels_into,
    FftPlan::execute / RealFftPlan::execute, the SIMD kernel dispatch
    (simd::active_kernels), GoertzelBank evaluation, RingBuffer
    push/pop, Journal::append, StreamRuntime block processing
    (process_block), the MicSignalEstimator health hooks
    (begin_block / observe_watch / end_block / queue_alert) and the
    metrics-timeline sampling hook (Timeline::sample — it runs inside
    the event loop's periodic callback, so it must stay pure relaxed
    loads plus array stores into its preallocated ring).  The
    linter builds
    a call graph from the sources and *transitively* rejects calls to
    allocation, locking, I/O and throwing-STL entry points reachable
    from an annotated function.  Deliberate exceptions (a bounded
    mutex on the journal, grow-once scratch buffers, precondition
    guards) are declared in scripts/mdn_lint_allowlist.txt with a
    reason each.

Determinism
    The canonical artifacts (journal.jsonl, bench JSON, .prom exports)
    are byte-identical across runs and worker counts.  The linter bans
    the constructs that silently break that — rand()/srand()/
    random_device, wall clocks (system_clock/steady_clock/
    high_resolution_clock), getenv(), time() — everywhere under src/,
    and bans unordered-container iteration in the exporter layer
    (src/obs), again modulo the allowlist.

Memory orders
    Every *weaker-than-seq_cst* atomic operation under src/ must carry
    an adjacent ``// mo: <why>`` justification (same line or within the
    two lines above) *and* match an allowlisted ``(file, op, order)``
    tuple in scripts/mdn_lint_allowlist.txt — so a relaxed load can
    never silently appear on a new code path: adding one forces both a
    written rationale at the site and an allowlist diff in review.

Lock order
    Builds the mutex-acquisition graph from ``MDN_ACQUIRED_BEFORE`` /
    ``MDN_ACQUIRED_AFTER`` annotations (declared edges) plus observed
    ``MutexLock`` nesting inside each function body, and fails on any
    cycle — the static complement to the model checker's per-schedule
    deadlock detection (src/common/check.h).

Front ends
    When the ``clang.cindex`` bindings are importable the linter uses
    libclang to locate annotated functions and function extents from
    the AST (exact, macro-expanded).  Otherwise it falls back to a
    built-in comment/string-stripping scanner with namespace/class
    brace tracking — no dependencies beyond the standard library, so
    the lint runs identically in the bare container and in CI.  Banned
    tokens are matched over function bodies by both front ends.

Usage:
    mdn_lint.py [--compdb BUILDDIR] [--root DIR] [--allowlist FILE]
                [--only realtime|determinism|memory-order|lock-order]
                [--memory-order] [--lock-order] [files...]

When the default src/ glob is scanned, every allowlist entry must be
*used* by the run — an entry excusing a violation that no longer exists
is reported as stale and fails the lint, so the allowlist can only
shrink.

Exit status: 0 clean, 1 violations found, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Banned entry points, by contract category.

BANNED_ALLOC = {
    "malloc", "calloc", "realloc", "free", "aligned_alloc", "strdup",
    "posix_memalign", "make_unique", "make_shared", "push_back",
    "emplace_back", "emplace", "resize", "reserve", "insert", "assign",
    "shrink_to_fit", "to_string", "substr", "stringstream",
    "ostringstream",
}
BANNED_LOCK = {
    "lock", "unlock", "try_lock", "lock_guard", "unique_lock",
    "scoped_lock", "MutexLock", "condition_variable", "wait",
    "notify_one", "notify_all", "sleep_for", "sleep_until", "yield",
}
BANNED_IO = {
    "printf", "fprintf", "vfprintf", "puts", "fputs", "putchar",
    "fwrite", "fread", "fopen", "fclose", "fflush", "scanf", "fscanf",
    "getline", "cout", "cerr", "cin", "clog", "endl", "ofstream",
    "ifstream", "fstream", "write_file", "system",
}
BANNED_THROW = {
    "at", "stoi", "stol", "stoll", "stoul", "stoull", "stod", "stof",
}
# Keyword-level bans need their own regexes (they are not call syntax).
KEYWORD_BANS = [
    ("alloc", re.compile(r"\bnew\b")),
    ("throw", re.compile(r"\bthrow\b(?!\s*;?\s*$)")),
    # RAII lock declarations: `std::lock_guard<std::mutex> g(mu)` keeps
    # the type name away from the `(` so the call regex misses it.
    ("lock", re.compile(
        r"\b(lock_guard|unique_lock|scoped_lock|shared_lock|MutexLock)\b")),
]

REALTIME_BAN_CATEGORY = {}
for _name in BANNED_ALLOC:
    REALTIME_BAN_CATEGORY[_name] = "alloc"
for _name in BANNED_LOCK:
    REALTIME_BAN_CATEGORY[_name] = "lock"
for _name in BANNED_IO:
    REALTIME_BAN_CATEGORY[_name] = "io"
for _name in BANNED_THROW:
    REALTIME_BAN_CATEGORY[_name] = "throw"

# Tokens whose presence anywhere in src/ breaks run-to-run determinism.
DETERMINISM_BANS = [
    ("rand", re.compile(r"\brand\s*\(")),
    ("srand", re.compile(r"\bsrand\s*\(")),
    ("random_device", re.compile(r"\brandom_device\b")),
    ("system_clock", re.compile(r"\bsystem_clock\b")),
    ("steady_clock", re.compile(r"\bsteady_clock\b")),
    ("high_resolution_clock", re.compile(r"\bhigh_resolution_clock\b")),
    ("getenv", re.compile(r"\bgetenv\b")),
    ("time", re.compile(r"\bstd::time\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)")),
]
# Exporters must iterate ordered containers only; canonical artifact
# bytes must not depend on hash-table layout.
UNORDERED_BAN = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\b")

# Call-graph recursion skips names that are ubiquitous accessors — they
# resolve to many unrelated definitions and none allocate.
BORING_CALLEES = {
    "size", "empty", "value", "count", "capacity", "config", "data",
    "begin", "end", "bins", "scratch_size", "frequencies_hz",
    "sample_rate", "enabled", "c_str", "load", "store", "fetch_add",
    "fetch_sub", "compare_exchange_weak", "compare_exchange_strong",
    "min", "max", "abs", "clamp", "fill", "copy", "copy_n", "move",
    "swap", "front", "back", "clear", "span", "first", "subspan",
    "get", "inc", "add", "set", "record", "name", "mic_count",
    "watch_count",
}
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof",
    "alignof", "alignas", "decltype", "noexcept", "static_assert",
    "defined", "assert",
}

H_EXT = (".h", ".hpp", ".hh")
CPP_EXT = (".cpp", ".cc", ".cxx") + H_EXT


# ---------------------------------------------------------------------------
# Source model shared by both front ends.

class FunctionDef:
    """One function definition: qualified name, file, line and body."""

    def __init__(self, qual_name, file, line, body):
        self.qual_name = qual_name      # e.g. mdn::core::ToneDetector::detect_into
        self.file = file
        self.line = line
        self.body = body                # comment/string-stripped body text

    @property
    def simple_name(self):
        return self.qual_name.rsplit("::", 1)[-1]


class Violation:
    def __init__(self, contract, file, line, function, token, reason,
                 path=()):
        self.contract = contract        # "realtime" | "determinism"
        self.file = file
        self.line = line
        self.function = function        # containing function ("" for file scope)
        self.token = token
        self.reason = reason
        self.path = path                # annotated root -> ... -> function

    def render(self, root):
        rel = os.path.relpath(self.file, root)
        where = f"{rel}:{self.line}"
        chain = " -> ".join(self.path) if self.path else self.function
        scope = f" [{chain}]" if chain else ""
        return f"{where}: {self.contract}: {self.reason}{scope}"


def strip_code(text):
    """Removes comments and string/char literals, preserving newlines so
    offsets map back to line numbers."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j < 0:
                break
            i = j  # keep the newline
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                break
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^(]*)\(', text[i:])
            if m:
                end = text.find(")" + m.group(1) + '"', i)
                if end < 0:
                    break
                seg = text[i:end + len(m.group(1)) + 2]
                out.append('""' + "\n" * seg.count("\n"))
                i = end + len(m.group(1)) + 2
            else:
                out.append(c)
                i += 1
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            seg = text[i:j + 1]
            out.append(quote + quote + "\n" * seg.count("\n"))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Fallback front end: namespace/class scope tracking + definition finder.

ATTR_MACRO = re.compile(r"\bMDN_[A-Z_]+\s*(?:\([^()]*\))?")
SCOPE_OPEN = re.compile(
    r"\b(namespace|class|struct)\s+((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)"
    r"[^;{}()]*\{")
FUNC_DEF = re.compile(
    r"(?:^|[;{}])\s*"                                # statement boundary
    r"(?:template\s*<[^;{}]*>\s*)?"                  # template header
    r"(?:\[\[[^;{}\[\]]*\]\]\s*)*"                  # [[attributes]]
    r"(?:[A-Za-z_][\w:<>,*&\s]*?[\s*&])??"           # return type (optional
    r"((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)\s*"  #   for ctor/dtor)
    r"\(([^;{}]*)\)\s*"                              # parameter list
    r"((?:const|noexcept|override|final|mutable)\s*)*"
    r"(?::[^;{}]*?)?"                                # ctor initializer list
    r"\{", re.S)
REALTIME_DECL = re.compile(
    r"\bMDN_REALTIME\b"
    r"[\w:<>,*&\s~]*?"
    r"\b((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\(")
CALL = re.compile(r"(?<![\w:])((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\(")
CTOR_USE = re.compile(r"\b([A-Z]\w*)\s+[A-Za-z_]\w*\s*\(")


def _matching_brace(code, open_idx):
    depth = 0
    for k in range(open_idx, len(code)):
        if code[k] == "{":
            depth += 1
        elif code[k] == "}":
            depth -= 1
            if depth == 0:
                return k
    return -1


_PREPROC_LINE = re.compile(r"^[ \t]*#.*$", re.M)


def _blank_preprocessor(code):
    """Blanks `#...` lines (macro definitions would otherwise read as
    code — e.g. the MDN_REALTIME definition is not a realtime root)."""
    return _PREPROC_LINE.sub(lambda m: " " * len(m.group(0)), code)


def _scope_intervals(code):
    """Returns [(start, end, name, kind)] for namespace/class/struct
    bodies, outer scopes first."""
    intervals = []
    for m in SCOPE_OPEN.finditer(code):
        # "enum class" is a scope-less value list, not a class scope.
        if code[max(0, m.start() - 8):m.start()].rstrip().endswith("enum"):
            continue
        open_idx = m.end() - 1
        close = _matching_brace(code, open_idx)
        if close < 0:
            continue
        name = re.sub(r"\s+", "", m.group(2))
        intervals.append((open_idx, close, name, m.group(1)))
    return intervals


def _qualifier_at(intervals, pos):
    parts = []
    for start, end, name, _kind in intervals:
        if start < pos <= end and name != "":
            parts.append(name)
    return "::".join(parts)


class FallbackIndex:
    """Pure-Python source index: function definitions + MDN_REALTIME
    roots, resolved with brace-tracked namespace/class qualifiers."""

    def __init__(self):
        self.defs_by_name = {}      # simple name -> [FunctionDef]
        self.realtime_roots = []    # [(qual_name, file, line)]

    def add_file(self, path, text):
        stripped = _blank_preprocessor(strip_code(text))
        code = ATTR_MACRO.sub(lambda m: " " * len(m.group(0)), stripped)
        raw = stripped              # keeps MDN_REALTIME for root discovery
        intervals = _scope_intervals(code)

        for m in FUNC_DEF.finditer(code):
            name = re.sub(r"\s+", "", m.group(1))
            simple = name.rsplit("::", 1)[-1]
            if simple in CONTROL_KEYWORDS:
                continue
            open_idx = m.end() - 1
            close = _matching_brace(code, open_idx)
            if close < 0:
                continue
            qual = _qualifier_at(intervals, open_idx)
            qual_name = f"{qual}::{name}" if qual else name
            line = code.count("\n", 0, m.start(1)) + 1
            body = code[open_idx + 1:close]
            fn = FunctionDef(qual_name, path, line, body)
            self.defs_by_name.setdefault(
                simple.lstrip("~"), []).append(fn)

        for m in REALTIME_DECL.finditer(raw):
            name = re.sub(r"\s+", "", m.group(1))
            qual = _qualifier_at(intervals, m.start())
            qual_name = f"{qual}::{name}" if qual else name
            line = raw.count("\n", 0, m.start()) + 1
            self.realtime_roots.append((qual_name, path, line))


# ---------------------------------------------------------------------------
# Optional libclang front end: exact roots and extents from the AST.

def try_libclang_index(files, compdb_dir):
    """Builds the same index shape via libclang; returns None when the
    bindings (or a parsable TU set) are unavailable."""
    try:
        from clang import cindex
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
    except Exception:
        return None

    result = FallbackIndex()
    args_by_file = {}
    if compdb_dir:
        try:
            db = cindex.CompilationDatabase.fromDirectory(compdb_dir)
            for f in files:
                cmds = db.getCompileCommands(f)
                if cmds:
                    args = [a for a in list(cmds[0].arguments)[1:]
                            if a != f and not a.startswith("-o")]
                    args_by_file[f] = args
        except Exception:
            pass

    def qualified(cursor):
        parts = []
        c = cursor
        while c is not None and c.kind != cindex.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    parsed_any = False
    for f in files:
        if not f.endswith(CPP_EXT) or f.endswith(H_EXT):
            continue
        args = args_by_file.get(f, ["-std=c++20", "-Isrc"])
        try:
            tu = index.parse(f, args=args)
        except Exception:
            continue
        parsed_any = True
        text = read_text(f)
        code = strip_code(text) if text else ""
        for cursor in tu.cursor.walk_preorder():
            if cursor.location.file is None:
                continue
            if cursor.kind not in (
                    cindex.CursorKind.FUNCTION_DECL,
                    cindex.CursorKind.CXX_METHOD,
                    cindex.CursorKind.FUNCTION_TEMPLATE,
                    cindex.CursorKind.CONSTRUCTOR,
                    cindex.CursorKind.DESTRUCTOR):
                continue
            is_realtime = any(
                ch.kind == cindex.CursorKind.ANNOTATE_ATTR and
                ch.spelling == "mdn_realtime"
                for ch in cursor.get_children())
            if is_realtime:
                result.realtime_roots.append(
                    (qualified(cursor), str(cursor.location.file),
                     cursor.location.line))
            if cursor.is_definition() and \
                    str(cursor.location.file) == f and code:
                ext = cursor.extent
                body = code[ext.start.offset:ext.end.offset]
                brace = body.find("{")
                if brace < 0:
                    continue
                fn = FunctionDef(qualified(cursor), f,
                                 cursor.location.line, body[brace + 1:])
                result.defs_by_name.setdefault(
                    fn.simple_name.lstrip("~"), []).append(fn)
    return result if parsed_any else None


# ---------------------------------------------------------------------------
# Allowlist.

class AllowEntry:
    """One allowlist line, with usage tracked for staleness checks."""

    def __init__(self, line_no, fields, reason):
        self.line_no = line_no
        self.fields = fields        # ("scope", "token") or
                                    # ("mo", file, op, order)
        self.reason = reason
        self.used = False

    def render(self):
        return " ".join(self.fields)


class Allowlist:
    """Entries of the form

        <scope> <token> reason=<why>
        mo <file-suffix> <op> <order> reason=<why>

    Scope is a qualified-function suffix (::-boundary) or a file-path
    suffix, token a banned name or `*`.  `mo` entries allow one
    weaker-than-seq_cst (file, op, order) tuple for the memory-order
    pass.  `reason=` is mandatory on every entry; lines without one are
    a parse error (exit 2).  Entries that a full-tree run never uses
    are reported stale and fail the lint."""

    def __init__(self, path):
        self.path = path
        self.entries = []       # scope/token entries
        self.mo_entries = []    # (file, op, order) entries
        if not path or not os.path.exists(path):
            return
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                reason_idx = next(
                    (i for i, f in enumerate(fields)
                     if f.startswith("reason=")), -1)
                if reason_idx < 0 or reason_idx == len(fields) - 1 and \
                        fields[reason_idx] == "reason=":
                    print(f"mdn_lint: {path}:{line_no}: allowlist entry "
                          f"without a reason= (every entry must say why)",
                          file=sys.stderr)
                    sys.exit(2)
                reason = " ".join(fields[reason_idx:])[len("reason="):]
                fields = fields[:reason_idx]
                if fields and fields[0] == "mo":
                    if len(fields) != 4:
                        print(f"mdn_lint: {path}:{line_no}: mo entry "
                              f"must be `mo <file> <op> <order> "
                              f"reason=...`", file=sys.stderr)
                        sys.exit(2)
                    self.mo_entries.append(
                        AllowEntry(line_no, tuple(fields), reason))
                elif len(fields) == 2:
                    self.entries.append(
                        AllowEntry(line_no, tuple(fields), reason))
                else:
                    print(f"mdn_lint: {path}:{line_no}: malformed "
                          f"allowlist entry: {line}", file=sys.stderr)
                    sys.exit(2)

    @staticmethod
    def _scope_matches(scope, function, file):
        if function and (function == scope or
                         function.endswith("::" + scope)):
            return True
        norm = file.replace(os.sep, "/")
        return norm == scope or norm.endswith("/" + scope)

    def allows(self, function, file, token):
        hit = False
        for entry in self.entries:
            scope, allowed = entry.fields
            if allowed not in ("*", token):
                continue
            if self._scope_matches(scope, function, file):
                entry.used = True
                hit = True
        return hit

    def allows_mo(self, file, op, order):
        norm = file.replace(os.sep, "/")
        hit = False
        for entry in self.mo_entries:
            _mo, suffix, allowed_op, allowed_order = entry.fields
            if allowed_op != op or allowed_order != order:
                continue
            if norm == suffix or norm.endswith("/" + suffix):
                entry.used = True
                hit = True
        return hit

    def stale_entries(self, include_scoped, include_mo):
        stale = []
        if include_scoped:
            stale.extend(e for e in self.entries if not e.used)
        if include_mo:
            stale.extend(e for e in self.mo_entries if not e.used)
        return stale


# ---------------------------------------------------------------------------
# Real-time check: transitive banned-call scan over the call graph.

# The model checker (src/common/check.h + scheduler) exists only under
# -DMDN_MODEL_CHECK, where every atomic/mutex op deliberately becomes a
# blocking scheduling point — the realtime contract is about the
# *normal* build, where the shim compiles to plain std::atomic and the
# scheduler is not in the call graph at all.  The text-level walker
# cannot see the #ifdef, so it skips these files explicitly (the same
# set is exempt from the memory-order audit: the shim must spell every
# order to forward them).
CHECK_SHIM_FILES = (
    "src/common/atomic.h",
    "src/common/check.h",
    "src/common/check_scheduler.cpp",
)


def _is_shim_file(path):
    norm = path.replace(os.sep, "/")
    return any(norm.endswith(e) for e in CHECK_SHIM_FILES)

def scan_body_direct(fn, allowlist, path):
    """Banned tokens appearing directly in `fn`'s body."""
    found = []
    for m in CALL.finditer(fn.body):
        simple = re.sub(r"\s+", "", m.group(1)).rsplit("::", 1)[-1]
        category = REALTIME_BAN_CATEGORY.get(simple)
        if category is None:
            continue
        if allowlist.allows(fn.qual_name, fn.file, simple):
            continue
        line = fn.line + fn.body.count("\n", 0, m.start())
        found.append(Violation(
            "realtime", fn.file, line, fn.qual_name, simple,
            f"{category} call '{simple}()' on a MDN_REALTIME path",
            path))
    for token, pattern in KEYWORD_BANS:
        for m in pattern.finditer(fn.body):
            word = fn.body[m.start():m.end()].strip()
            if allowlist.allows(fn.qual_name, fn.file, word):
                continue
            line = fn.line + fn.body.count("\n", 0, m.start())
            found.append(Violation(
                "realtime", fn.file, line, fn.qual_name, word,
                f"{token} keyword '{word}' on a MDN_REALTIME path",
                path))
    return found


def callees_of(fn):
    names = set()
    for m in CALL.finditer(fn.body):
        names.add(re.sub(r"\s+", "", m.group(1)).rsplit("::", 1)[-1])
    for m in CTOR_USE.finditer(fn.body):
        names.add(m.group(1))
    return {n for n in names
            if n not in CONTROL_KEYWORDS and n not in BORING_CALLEES}


def resolve_defs(index, root_qual, name):
    """Project definitions a call to `name` may reach.  When the root's
    class has a definition of that name, prefer it; otherwise scan every
    project definition of the name (conservative)."""
    candidates = index.defs_by_name.get(name, [])
    if not candidates:
        return []
    root_class = root_qual.rsplit("::", 2)
    if len(root_class) >= 2:
        cls = "::".join(root_class[:-1])
        same_class = [d for d in candidates
                      if d.qual_name.startswith(cls + "::")]
        if same_class:
            return same_class
    return candidates


def check_realtime(index, allowlist):
    violations = []
    seen_roots = set()
    for qual_name, file, line in index.realtime_roots:
        if qual_name in seen_roots:
            continue
        seen_roots.add(qual_name)
        simple = qual_name.rsplit("::", 1)[-1]
        defs = [d for d in index.defs_by_name.get(simple, [])
                if d.qual_name == qual_name or
                qual_name.endswith("::" + d.qual_name) or
                d.qual_name.endswith("::" + qual_name) or
                _same_tail(d.qual_name, qual_name)]
        if not defs:
            violations.append(Violation(
                "realtime", file, line, qual_name, simple,
                f"MDN_REALTIME function '{qual_name}' has no definition "
                f"the linter can see (is the .cpp in the scan set?)"))
            continue
        for d in defs:
            violations.extend(_walk(index, allowlist, d, (qual_name,),
                                    visited=set()))
    return violations


def _same_tail(a, b):
    ta = a.split("::")[-2:]
    tb = b.split("::")[-2:]
    return ta == tb


def _walk(index, allowlist, fn, path, visited, depth=0):
    if fn.qual_name in visited or depth > 8 or _is_shim_file(fn.file):
        return []
    visited.add(fn.qual_name)
    violations = scan_body_direct(fn, allowlist, path)
    for name in sorted(callees_of(fn)):
        for d in resolve_defs(index, fn.qual_name, name):
            if d.qual_name in visited:
                continue
            violations.extend(
                _walk(index, allowlist, d, path + (d.qual_name,),
                      visited, depth + 1))
    return violations


# ---------------------------------------------------------------------------
# Determinism check: per-file token scan.

def check_determinism(files, root, allowlist, extra_files):
    violations = []
    src_root = os.path.join(root, "src") + os.sep
    for path in sorted(files):
        in_src = os.path.abspath(path).startswith(src_root)
        if not in_src and path not in extra_files:
            continue
        text = read_text(path)
        if text is None:
            continue
        code = strip_code(text)
        for token, pattern in DETERMINISM_BANS:
            for m in pattern.finditer(code):
                if allowlist.allows("", path, token):
                    continue
                line = code.count("\n", 0, m.start()) + 1
                violations.append(Violation(
                    "determinism", path, line, "", token,
                    f"'{token}' breaks run-to-run determinism of the "
                    f"canonical artifacts"))
        exporter = "/obs/" in path.replace(os.sep, "/") or \
            path in extra_files
        if exporter:
            for m in UNORDERED_BAN.finditer(code):
                token = m.group(0)
                if allowlist.allows("", path, token):
                    continue
                line = code.count("\n", 0, m.start()) + 1
                violations.append(Violation(
                    "determinism", path, line, "", token,
                    f"'{token}' iteration order feeds exporters; use an "
                    f"ordered container"))
    return violations


# ---------------------------------------------------------------------------
# Memory-order audit: every weaker-than-seq_cst atomic op needs an
# adjacent `// mo:` justification and an allowlisted (file, op, order).

MEMORY_ORDER = re.compile(
    r"\bmemory_order(?:_|::\s*)(relaxed|consume|acquire|release|acq_rel)\b")
# Atomic entry points a weak order can ride on; longest names first so
# the backwards search prefers the most specific match.
ATOMIC_OPS = (
    "compare_exchange_strong", "compare_exchange_weak",
    "atomic_thread_fence", "atomic_signal_fence", "test_and_set",
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "exchange", "store", "load", "clear", "wait",
)
_ATOMIC_OP_RE = re.compile(
    r"\b(" + "|".join(ATOMIC_OPS) + r")\s*\(")
MO_COMMENT = re.compile(r"//\s*mo:\s*\S")


def _blank_preprocessor_full(code):
    """Like _blank_preprocessor, but also blanks backslash-continuation
    lines so a multi-line #define never reads as code."""
    lines = code.split("\n")
    in_directive = False
    for i, line in enumerate(lines):
        starts = bool(re.match(r"[ \t]*#", line))
        if starts or in_directive:
            in_directive = line.rstrip().endswith("\\")
            lines[i] = " " * len(line)
        else:
            in_directive = False
    return "\n".join(lines)


def _op_before(code, pos):
    """The atomic entry point the order expression at `pos` belongs to:
    the closest preceding op name within the same statement."""
    window = code[max(0, pos - 300):pos]
    stop = max(window.rfind(";"), window.rfind("{"), window.rfind("}"))
    if stop >= 0:
        window = window[stop + 1:]
    last = None
    for m in _ATOMIC_OP_RE.finditer(window):
        last = m.group(1)
    return last or "?"


def check_memory_order(files, root, allowlist, extra_files):
    violations = []
    src_root = os.path.join(root, "src") + os.sep
    for path in sorted(files):
        in_src = os.path.abspath(path).startswith(src_root)
        if not in_src and path not in extra_files:
            continue
        # The shim/checker are the *mechanism* the audit rides on: they
        # must spell every order to forward and interpret them (the CAS
        # failure-order mapping, the scheduler's acquire/release
        # classifiers), so auditing them per-site is circular.
        if _is_shim_file(path):
            continue
        text = read_text(path)
        if text is None:
            continue
        raw_lines = text.split("\n")
        code = _blank_preprocessor_full(strip_code(text))
        for m in MEMORY_ORDER.finditer(code):
            order = m.group(1)
            line = code.count("\n", 0, m.start()) + 1
            op = _op_before(code, m.start())
            # Adjacent = same line or up to three lines above (weak
            # orders often sit on the continuation line of a wrapped
            # CAS statement whose mo: comment precedes the statement).
            justified = any(
                MO_COMMENT.search(raw_lines[i])
                for i in range(max(0, line - 4), min(line, len(raw_lines))))
            if not justified:
                violations.append(Violation(
                    "memory-order", path, line, "", order,
                    f"memory_order_{order} ({op}) lacks an adjacent "
                    f"'// mo: <why>' justification"))
            if not allowlist.allows_mo(path, op, order):
                violations.append(Violation(
                    "memory-order", path, line, "", f"{op}/{order}",
                    f"memory_order_{order} on '{op}' is not allowlisted "
                    f"(add `mo <file> {op} {order} reason=...` to "
                    f"scripts/mdn_lint_allowlist.txt)"))
    return violations


# ---------------------------------------------------------------------------
# Lock-order audit: acquisition graph from MDN_ACQUIRED_BEFORE/AFTER
# declarations + observed MutexLock nesting; any cycle is a potential
# deadlock.

MUTEX_LOCK_USE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*([^();]+?)\s*\)")
ACQUIRED_DECL = re.compile(
    r"\b(\w+)\s+MDN_ACQUIRED_(BEFORE|AFTER)\s*\(\s*([^()]+?)\s*\)")


def _mutex_node(arg, owner_qual):
    """Canonical graph-node name for a mutex expression: bare member
    names are qualified by the owning class/namespace so `a.mu_` and
    `b.mu_` of different classes stay distinct nodes."""
    name = re.sub(r"\s+", "", arg)
    name = name.lstrip("&*")
    if name.startswith("this->"):
        name = name[len("this->"):]
    if re.fullmatch(r"[A-Za-z_]\w*", name) and owner_qual:
        return f"{owner_qual}::{name}"
    return name


def check_lock_order(files, root):
    # edges[(a, b)] = (file, line, why): a must be acquired before b.
    edges = {}

    def add_edge(a, b, file, line, why):
        if a != b:
            edges.setdefault((a, b), (file, line, why))

    for path in sorted(files):
        text = read_text(path)
        if text is None:
            continue
        stripped = _blank_preprocessor(strip_code(text))
        intervals = _scope_intervals(
            ATTR_MACRO.sub(lambda m: " " * len(m.group(0)), stripped))

        # Declared edges: `Mutex a MDN_ACQUIRED_BEFORE(b);` (and the
        # AFTER spelling, reversed).
        for m in ACQUIRED_DECL.finditer(stripped):
            owner = _qualifier_at(intervals, m.start())
            this_node = _mutex_node(m.group(1), owner)
            line = stripped.count("\n", 0, m.start()) + 1
            for other in m.group(3).split(","):
                other_node = _mutex_node(other, owner)
                if m.group(2) == "BEFORE":
                    add_edge(this_node, other_node, path, line, "declared")
                else:
                    add_edge(other_node, this_node, path, line, "declared")

        # Observed edges: a MutexLock taken while an earlier MutexLock
        # in the same body is still in scope (brace depth never dropped
        # below the earlier lock's block).
        index = FallbackIndex()
        index.add_file(path, text)
        for defs in index.defs_by_name.values():
            for fn in defs:
                locks = [(m.start(), m.end(),
                          _mutex_node(m.group(1),
                                      fn.qual_name.rsplit("::", 1)[0]
                                      if "::" in fn.qual_name else ""))
                         for m in MUTEX_LOCK_USE.finditer(fn.body)]
                for i in range(len(locks)):
                    for j in range(i + 1, len(locks)):
                        between = fn.body[locks[i][1]:locks[j][0]]
                        depth = 0
                        alive = True
                        for c in between:
                            if c == "{":
                                depth += 1
                            elif c == "}":
                                depth -= 1
                                if depth < 0:
                                    alive = False
                                    break
                        if not alive:
                            continue
                        line = fn.line + fn.body.count(
                            "\n", 0, locks[j][0])
                        add_edge(locks[i][2], locks[j][2], fn.file, line,
                                 f"nested in {fn.qual_name}")

    # Cycle detection: DFS with a recursion stack.
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, []).append(b)
    violations = []
    state = {}  # node -> 1 (in stack) | 2 (done)
    stack = []

    def visit(node):
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, [])):
            if state.get(nxt) == 1:
                cycle = stack[stack.index(nxt):] + [nxt]
                file, line, why = edges[(node, nxt)]
                violations.append(Violation(
                    "lock-order", file, line, "", nxt,
                    f"lock-order cycle: {' -> '.join(cycle)} "
                    f"(closing edge {why})"))
            elif nxt not in state:
                visit(nxt)
        stack.pop()
        state[node] = 2

    for node in sorted(graph):
        if node not in state:
            visit(node)
    return violations


# ---------------------------------------------------------------------------
# Driver.

def read_text(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def collect_files(args, root):
    files = set()
    if args.compdb:
        compdb = os.path.join(args.compdb, "compile_commands.json")
        if not os.path.exists(compdb):
            print(f"mdn_lint: no compile_commands.json in {args.compdb} "
                  f"(configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON)",
                  file=sys.stderr)
            sys.exit(2)
        with open(compdb, encoding="utf-8") as fh:
            for entry in json.load(fh):
                f = os.path.normpath(
                    os.path.join(entry["directory"], entry["file"]))
                if os.path.abspath(f).startswith(root + os.sep) and \
                        "/build" not in f.replace(root, ""):
                    files.add(f)
    if not args.no_default_sources:
        for pattern in ("src/**/*.h", "src/**/*.cpp"):
            for f in glob.glob(os.path.join(root, pattern),
                               recursive=True):
                files.add(os.path.normpath(f))
    extra = set()
    for f in args.files:
        f = os.path.normpath(os.path.abspath(f))
        if not os.path.exists(f):
            print(f"mdn_lint: no such file: {f}", file=sys.stderr)
            sys.exit(2)
        files.add(f)
        extra.add(f)
    return files, extra


def main():
    parser = argparse.ArgumentParser(
        description="MDN real-time / determinism static linter")
    parser.add_argument("--compdb", metavar="BUILDDIR",
                        help="directory holding compile_commands.json")
    parser.add_argument("--root", default=None,
                        help="repository root (default: the linter's "
                        "parent directory)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: "
                        "scripts/mdn_lint_allowlist.txt)")
    parser.add_argument("--only",
                        choices=("realtime", "determinism",
                                 "memory-order", "lock-order"),
                        help="run a single contract check")
    parser.add_argument("--memory-order", action="store_true",
                        help="shorthand for --only memory-order")
    parser.add_argument("--lock-order", action="store_true",
                        help="shorthand for --only lock-order")
    parser.add_argument("--no-default-sources", action="store_true",
                        help="scan only --compdb and explicit files "
                        "(skip the src/ glob)")
    parser.add_argument("--no-libclang", action="store_true",
                        help="force the built-in parser even when "
                        "clang.cindex is importable")
    parser.add_argument("files", nargs="*",
                        help="extra files to lint (e.g. fixtures)")
    args = parser.parse_args()
    if args.memory_order and args.lock_order:
        print("mdn_lint: --memory-order and --lock-order are exclusive; "
              "run twice or use the default all-passes mode",
              file=sys.stderr)
        sys.exit(2)
    if args.memory_order:
        args.only = "memory-order"
    if args.lock_order:
        args.only = "lock-order"

    root = os.path.abspath(
        args.root or os.path.join(os.path.dirname(__file__), os.pardir))
    allowlist = Allowlist(args.allowlist or os.path.join(
        root, "scripts", "mdn_lint_allowlist.txt"))
    files, extra = collect_files(args, root)

    index = None
    if not args.no_libclang:
        index = try_libclang_index(sorted(files), args.compdb)
    if index is None:
        index = FallbackIndex()
    # The fallback scan always runs over headers (inline definitions and
    # annotated declarations live there and libclang only parses TUs).
    fallback = FallbackIndex()
    for f in sorted(files):
        text = read_text(f)
        if text is not None:
            fallback.add_file(f, text)
    if not index.realtime_roots and not index.defs_by_name:
        index = fallback
    else:
        for name, defs in fallback.defs_by_name.items():
            known = {d.qual_name for d in index.defs_by_name.get(name, [])}
            for d in defs:
                if d.qual_name not in known:
                    index.defs_by_name.setdefault(name, []).append(d)
        known_roots = {q for q, _f, _l in index.realtime_roots}
        for q, f, l in fallback.realtime_roots:
            if q not in known_roots:
                index.realtime_roots.append((q, f, l))

    violations = []
    if args.only in (None, "realtime"):
        violations.extend(check_realtime(index, allowlist))
    if args.only in (None, "determinism"):
        violations.extend(check_determinism(files, root, allowlist, extra))
    if args.only in (None, "memory-order"):
        violations.extend(check_memory_order(files, root, allowlist, extra))
    if args.only in (None, "lock-order"):
        violations.extend(check_lock_order(files, root))

    # Staleness: over a full default-source scan, an allowlist entry the
    # run never used excuses a violation that no longer exists — fail so
    # the allowlist can only shrink.  Scoped entries need both contracts
    # that consult them to have run; mo entries just the memory-order
    # pass.
    if not args.no_default_sources:
        stale = allowlist.stale_entries(
            include_scoped=args.only is None,
            include_mo=args.only in (None, "memory-order"))
        for entry in stale:
            violations.append(Violation(
                "allowlist", allowlist.path, entry.line_no, "",
                entry.render(),
                f"stale allowlist entry '{entry.render()}' — nothing in "
                f"the tree needs it any more; delete it"))

    unique = {}
    for v in violations:
        unique[(v.file, v.line, v.token, v.contract)] = v
    ordered = sorted(unique.values(),
                     key=lambda v: (v.file, v.line, v.token))
    for v in ordered:
        print(v.render(root))
    if ordered:
        print(f"mdn_lint: {len(ordered)} violation(s)", file=sys.stderr)
        return 1
    print(f"mdn_lint: clean ({len(files)} files, "
          f"{len(set(q for q, _, _ in index.realtime_roots))} "
          f"MDN_REALTIME roots)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
