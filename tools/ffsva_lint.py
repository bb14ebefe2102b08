#!/usr/bin/env python3
"""Project-specific concurrency lint for the FFS-VA tree.

Six rules, each enforcing a structural invariant the compiler cannot:

  raw-thread         std::thread may only appear under src/runtime/ (the
                     supervised-thread vocabulary lives there). Elsewhere a
                     site must carry a `// thread-ok: <reason>` marker — the
                     per-stream prefetch threads and the fixed stage threads
                     in core/pipeline.cpp are the intended users.

  relaxed-order      std::memory_order_relaxed is only legal in files whose
                     header carries a `// relaxed-ok: <reason>` audit
                     paragraph explaining where the happens-before edge
                     comes from instead.

  unbounded-channel  std::queue / std::deque declarations must carry a
                     `// bounded-ok: <reason>` marker saying why the
                     container cannot grow without bound (or is not an
                     inter-thread channel at all). Back-pressure is the
                     paper's central mechanism; an unbounded channel would
                     silently defeat it.

  naked-detach       .detach() may only appear under src/runtime/supervision
                     or with a `// detach-ok: <reason>` marker. The engine
                     joins every thread it starts (DESIGN.md Section 14);
                     a detach hides a lifetime from the supervisor.

  raw-socket         Raw socket syscalls (::socket/::bind/::connect/
                     ::accept/::send/::recv/...) may only appear under
                     src/net/ — the tree's single home for the syscall
                     surface (net/socket.hpp declares the invariant).
                     Elsewhere a site must carry a `// socket-ok: <reason>`
                     marker; everything above src/net/ speaks framed
                     messages through net::Channel, so a stray syscall
                     bypasses the wire protocol, its version gate, and the
                     net.* byte accounting.

  uncancellable-block  std::this_thread::sleep_for/sleep_until must sit
                     within MARKER_WINDOW lines of a cancellation check
                     (cancel_requested / check_cancel / stop_requested /
                     aborted / cancelled) or carry a `// cancel-ok: <reason>`
                     marker saying why the block is bounded without one. A
                     worker loop that sleeps blind cannot be wound down by
                     stop() or the watchdog's escalation (DESIGN.md
                     Section 14).

A marker counts when it appears on the flagged line or within the
MARKER_WINDOW preceding lines, and must be followed by a non-empty reason.
Markers without a reason are themselves violations (bare-marker).

Rules are matched against a *code view* of each file: string/char literal
contents, // comments, and /* */ blocks are blanked out first, so a
"::connect" inside a log message or a std::thread in a design comment
never needs a marker. Markers themselves are matched against the raw
lines — they live in comments by design.

Usage:
  tools/ffsva_lint.py [--root DIR] [paths...]   # default: scan DIR/src
  tools/ffsva_lint.py --self-test               # verify rules on fixtures

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

MARKER_WINDOW = 6  # lines above a site in which a marker still applies
RELAXED_HEADER_LINES = 40  # relaxed-ok must appear this early in the file

CPP_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h", ".inl")

MARKER_RE = {
    "thread-ok": re.compile(r"//.*\bthread-ok:\s*(\S.*)?"),
    "relaxed-ok": re.compile(r"//.*\brelaxed-ok:\s*(\S.*)?"),
    "bounded-ok": re.compile(r"//.*\bbounded-ok:\s*(\S.*)?"),
    "detach-ok": re.compile(r"//.*\bdetach-ok:\s*(\S.*)?"),
    "cancel-ok": re.compile(r"//.*\bcancel-ok:\s*(\S.*)?"),
    "socket-ok": re.compile(r"//.*\bsocket-ok:\s*(\S.*)?"),
}


@dataclass
class Violation:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str) -> list[str]:
    """Per-line *code view* of a translation unit: string/char literal
    contents, line comments, and block comments are blanked with spaces
    (newlines preserved), so rule regexes never fire on `log("::connect")`
    or on tokens inside a /* ... */ paragraph. The quotes themselves are
    kept so adjacent tokens stay separated. Raw strings (R"delim(...)delim")
    are handled; markers are matched against the *raw* lines, never this
    view, since they live in comments by design."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    delim = ""  # raw-string delimiter, ')delim"' form, when in a raw string
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("\n")
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string? Scan back over the prefix for R (u8R, LR, ...).
                j = i - 1
                while j >= 0 and text[j] in "uUL8":
                    j -= 1
                if j >= 0 and text[j] == "R":
                    k = text.find("(", i + 1)
                    if k < 0:
                        out.append(c)
                        i += 1
                        continue
                    delim = ")" + text[i + 1 : k] + '"'
                    state = "raw_string"
                    out.append('"')
                    i = k + 1
                else:
                    state = "string"
                    out.append('"')
                    i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state in ("line_comment", "block_comment"):
            if state == "block_comment" and c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(" ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                if nxt == "\n":  # line continuation: keep the newline
                    out.append(" ")
                    i += 1
                else:
                    out.append("  ")
                    i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # raw_string
            if text.startswith(delim, i):
                state = "code"
                out.append(" " * (len(delim) - 1) + '"')
                i += len(delim)
            else:
                out.append(" ")
                i += 1
    return "".join(out).splitlines()


def has_marker(lines: list[str], idx: int, marker: str) -> bool:
    """True when `marker` (with a reason) covers line index `idx` (0-based)."""
    pat = MARKER_RE[marker]
    lo = max(0, idx - MARKER_WINDOW)
    for probe in lines[lo : idx + 1]:
        m = pat.search(probe)
        if m and m.group(1):
            return True
    return False


def marker_without_reason(lines: list[str]) -> list[tuple[int, str]]:
    """(line_index, marker) pairs for markers that carry no reason."""
    out = []
    for i, line in enumerate(lines):
        for marker, pat in MARKER_RE.items():
            m = pat.search(line)
            if m and not m.group(1):
                out.append((i, marker))
    return out


THREAD_RE = re.compile(r"\bstd::thread\b(?!::)")  # ::hardware_concurrency ok
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
CHANNEL_RE = re.compile(r"\bstd::(?:queue|deque)\s*<")
DETACH_RE = re.compile(r"\.\s*detach\s*\(")
SLEEP_RE = re.compile(r"\bsleep_(?:for|until)\s*\(")
# Global-scope socket syscalls only: the lookbehind rejects qualified names
# (net::Channel::send definitions are not syscalls).
SOCKET_RE = re.compile(
    r"(?<![\w>])::(?:socket|bind|connect|accept4?|listen|send|recv|sendto|"
    r"recvfrom|sendmsg|recvmsg|shutdown|getsockopt|setsockopt)\s*\("
)
CANCEL_CHECK_RE = re.compile(
    r"\b(?:cancel_requested|check_cancel|cancelled|stop_requested|aborted)\b"
)


def has_cancel_check(code_lines: list[str], idx: int) -> bool:
    """True when a cancellation check appears in the *code view* (comments
    and strings blanked) of line `idx` or the MARKER_WINDOW lines above it —
    the shape of every sliced polling loop in the tree."""
    lo = max(0, idx - MARKER_WINDOW)
    return any(
        CANCEL_CHECK_RE.search(probe) for probe in code_lines[lo : idx + 1]
    )


def scan_file(relpath: str, text: str) -> list[Violation]:
    """Lint one file. `relpath` is the repo-relative path (forward slashes);
    path-based exemptions key off it."""
    relpath = relpath.replace(os.sep, "/")
    lines = text.splitlines()
    # Rules match the code view (strings/comments blanked); markers match
    # the raw lines (they live in comments).
    code_lines = strip_code(text)
    out: list[Violation] = []

    in_runtime = relpath.startswith("src/runtime/")
    in_supervision = relpath.startswith("src/runtime/supervision")
    in_net = relpath.startswith("src/net/")

    relaxed_headered = any(
        MARKER_RE["relaxed-ok"].search(line) for line in lines[:RELAXED_HEADER_LINES]
    )

    for i in range(len(lines)):
        code = code_lines[i] if i < len(code_lines) else ""
        lineno = i + 1

        if not in_runtime and THREAD_RE.search(code):
            if not has_marker(lines, i, "thread-ok"):
                out.append(
                    Violation(
                        relpath,
                        lineno,
                        "raw-thread",
                        "std::thread outside src/runtime/ without a "
                        "'// thread-ok: <reason>' marker",
                    )
                )

        if RELAXED_RE.search(code) and not relaxed_headered:
            out.append(
                Violation(
                    relpath,
                    lineno,
                    "relaxed-order",
                    "memory_order_relaxed in a file without a "
                    f"'// relaxed-ok: <reason>' header (first "
                    f"{RELAXED_HEADER_LINES} lines)",
                )
            )

        if CHANNEL_RE.search(code) and not has_marker(lines, i, "bounded-ok"):
            out.append(
                Violation(
                    relpath,
                    lineno,
                    "unbounded-channel",
                    "std::queue/std::deque without a "
                    "'// bounded-ok: <reason>' marker",
                )
            )

        if not in_supervision and DETACH_RE.search(code):
            if not has_marker(lines, i, "detach-ok"):
                out.append(
                    Violation(
                        relpath,
                        lineno,
                        "naked-detach",
                        ".detach() outside supervision without a "
                        "'// detach-ok: <reason>' marker",
                    )
                )

        if not in_net and SOCKET_RE.search(code):
            if not has_marker(lines, i, "socket-ok"):
                out.append(
                    Violation(
                        relpath,
                        lineno,
                        "raw-socket",
                        "raw socket syscall outside src/net/ without a "
                        "'// socket-ok: <reason>' marker",
                    )
                )

        if SLEEP_RE.search(code):
            if not has_cancel_check(code_lines, i) and not has_marker(
                lines, i, "cancel-ok"
            ):
                out.append(
                    Violation(
                        relpath,
                        lineno,
                        "uncancellable-block",
                        "blocking sleep with no cancellation check within "
                        f"{MARKER_WINDOW} lines and no "
                        "'// cancel-ok: <reason>' marker",
                    )
                )

    for i, marker in marker_without_reason(lines):
        out.append(
            Violation(
                relpath,
                i + 1,
                "bare-marker",
                f"'{marker}:' marker with no reason — say why",
            )
        )

    return out


def collect_files(root: str, paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of C++ sources."""
    found: list[str] = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            found.append(full)
        elif os.path.isdir(full):
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(CPP_EXTENSIONS):
                        found.append(os.path.join(dirpath, name))
        else:
            raise FileNotFoundError(p)
    return found


def run_lint(root: str, paths: list[str]) -> int:
    violations: list[Violation] = []
    for path in collect_files(root, paths):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as fh:
            violations.extend(scan_file(rel, fh.read()))
    for v in violations:
        print(v)
    if violations:
        print(f"ffsva_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on its seeded fixture and stay silent on
# the clean fixture. Fixture files live in tests/lint/fixtures/ and are
# scanned under fake src/-relative paths so the path exemptions engage.


def self_test(root: str) -> int:
    fixtures = os.path.join(root, "tests", "lint", "fixtures")
    # fixture file -> (pretend relpath, exactly-expected rule ids)
    cases = {
        "bad_thread.cpp": ("src/core/bad_thread.cpp", {"raw-thread"}),
        "bad_relaxed.cpp": ("src/core/bad_relaxed.cpp", {"relaxed-order"}),
        "bad_queue.hpp": ("src/core/bad_queue.hpp", {"unbounded-channel"}),
        "bad_detach.cpp": ("src/core/bad_detach.cpp", {"naked-detach"}),
        "bad_marker.cpp": ("src/core/bad_marker.cpp", {"bare-marker"}),
        "bad_sleep.cpp": ("src/core/bad_sleep.cpp", {"uncancellable-block"}),
        "bad_socket.cpp": ("src/core/bad_socket.cpp", {"raw-socket"}),
        "good_socket.cpp": ("src/core/good_socket.cpp", set()),
        "good_sleep.cpp": ("src/core/good_sleep.cpp", set()),
        "clean.cpp": ("src/core/clean.cpp", set()),
        # Rule tokens inside string literals / block comments are data, not
        # code — the code-view pass must keep every rule silent.
        "good_string_literal.cpp": ("src/core/good_string_literal.cpp", set()),
        "good_block_comment.cpp": ("src/core/good_block_comment.cpp", set()),
        # The same thread fixture under src/runtime/ must pass: the rule is
        # a location rule, not a token ban.
        "bad_thread.cpp#runtime": ("src/runtime/bad_thread.cpp", set()),
        # Same for sockets: the syscalls are legal in their one home.
        "bad_socket.cpp#net": ("src/net/bad_socket.cpp", set()),
    }
    failures = 0
    for key, (relpath, expected) in cases.items():
        fname = key.split("#")[0]
        with open(os.path.join(fixtures, fname), encoding="utf-8") as fh:
            got = {v.rule for v in scan_file(relpath, fh.read())}
        if got != expected:
            print(
                f"self-test FAILED: {fname} as {relpath}: "
                f"expected rules {sorted(expected)}, got {sorted(got)}",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        return 1
    print(f"ffsva_lint self-test: {len(cases)} fixture cases ok")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=None, help="repo root (default: parent of tools/)"
    )
    parser.add_argument(
        "--self-test", action="store_true", help="verify the rules on fixtures"
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to scan (default: src)"
    )
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return self_test(root)
    try:
        return run_lint(root, args.paths or ["src"])
    except FileNotFoundError as exc:
        print(f"ffsva_lint: no such path: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
