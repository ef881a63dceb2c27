#!/usr/bin/env python3
"""Sperke determinism & hygiene lint (DESIGN.md §11).

Every figure this repo reproduces depends on the simulation being a pure
function of its seeds. This lint is the machine check for the conventions
that keep it that way. It scans ``src/``, ``tests/``, ``bench/``,
``examples/`` and ``tools/`` and fails (exit 1) on:

  wall-clock          Wall-clock time APIs (``std::chrono::system_clock``,
                      ``time()``, ``gettimeofday``, ...) anywhere, and
                      ``steady_clock`` inside ``src/`` (monotonic wall
                      timing is legitimate in benches, never in the
                      simulation itself — sim code uses ``sim::Time``).
  ambient-entropy     ``std::random_device``, bare ``rand()``/``srand()``,
                      ``std::random_shuffle``. All randomness must flow
                      through an explicitly seeded ``sperke::Rng``.
  unordered-iteration Iteration over an ``unordered_map``/``unordered_set``
                      whose loop body feeds an output path (metrics,
                      traces, exporters, ``merge_from``, CSV/stream
                      writes). Hash-order is not deterministic across
                      libstdc++ versions; ordered containers or sorted
                      snapshots are.
  catch-all           ``catch (...)`` that swallows without capturing
                      (``std::current_exception``) or rethrowing. Silent swallows turn invariant
                      violations into wrong numbers.
  include-hygiene     Public headers under ``src/`` that use a std
                      vocabulary type without directly including its
                      canonical header (transitive-include reliance; the
                      compile-in-isolation side is tests/headers_compile).
  header-guard        Headers missing ``#pragma once``.
  abr-factory         Direct construction of a concrete tile-ABR policy
                      (``SperkeVra``, ``KnapsackVra``, ``ConsistencyVra``,
                      ``FullPanoramaVra``) outside ``src/abr/``. Product
                      code and benches must go through ``abr::make_policy``
                      so every policy stays selectable by name (the arena
                      contract). ``tests/`` and ``tools/`` are exempt —
                      unit tests exercise the concrete classes directly.
  link-construction   Direct construction of ``net::Link`` in ``src/``
                      outside ``src/net/`` and ``src/cdn/``. Product code
                      fetches through the ``net::ChunkSource`` seam
                      (``cdn::Topology`` hands out sources), so links are
                      wired by the net/cdn layers only. References,
                      pointers and ``net::LinkConfig`` stay fair game;
                      ``tests/``/``bench/``/``examples/`` build link
                      fixtures directly and are out of scope.
  metric-name         Metric registration sites (``.counter(`` /
                      ``.gauge(`` / ``.histogram(`` in ``src``, ``bench``
                      and ``examples``) whose name is not a string literal
                      matching ``[a-z0-9_.]+``. Metric and SLO names share
                      one style rule (obs/slo.h); literal names keep the
                      exported CSV/series schema greppable. ``tests/`` is
                      exempt so hostile-name escaping tests can exist.
  format-basics       Tabs, trailing whitespace, CRLF line endings,
                      missing final newline. The floor below
                      ``format-check`` (clang-format, when installed).

Suppress a finding with a trailing or preceding-line comment::

    std::chrono::steady_clock::now();  // sperke-lint: allow(wall-clock)

Suppressions are themselves audited: ``tools/sperke_analyze.py`` re-runs
this lint and fails on any ``allow(<rule>)`` comment that no longer
matches a finding (the ``stale-suppression`` rule), so suppressions
cannot outlive the code they excuse. ``Linter.used_allows`` records the
``(path, line, rule)`` of every comment that actually suppressed
something, which is what that audit consumes.

``--fix`` rewrites the mechanical ``format-basics`` findings in place
(CRLF endings, tab characters, trailing whitespace, missing final
newline) and is idempotent — a second pass changes nothing. Tabs are
replaced with two spaces even inside string literals: the rule bans the
raw character everywhere (``"\t"`` escapes are the idiom for tab data).

Usage:
    sperke_lint.py [--root DIR] [--list-rules] [--self-test] [--fix]
"""

import argparse
import pathlib
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
CXX_SUFFIXES = {".cpp", ".h"}

ALLOW_RE = re.compile(r"sperke-lint:\s*allow\(([a-z\-, ]+)\)")

# Wall-clock APIs that are never acceptable: they make output depend on
# when (or where) the process ran.
WALL_CLOCK_RE = re.compile(
    r"std::chrono::system_clock|\bsystem_clock\b|\bgettimeofday\b"
    r"|\bclock_gettime\b|\bstd::time\s*\(|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"
    r"|\blocaltime\b|\bgmtime\b|\bstrftime\b"
)
# steady_clock is monotonic, so it is fine for *measuring* a bench's wall
# speed — but simulation code must advance sim::Time, never read a clock.
STEADY_CLOCK_RE = re.compile(r"\bsteady_clock\b")

ENTROPY_RE = re.compile(
    r"std::random_device|\brandom_device\b|(?<![\w:])s?rand\s*\("
    r"|std::random_shuffle|\brandom_shuffle\b"
)

CATCH_ALL_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
CATCH_HANDLED_RE = re.compile(
    r"current_exception|rethrow_exception|\bthrow\s*;|FAIL\(\)"
)

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*>\s+(\w+)\s*[;{=]"
)
SINK_RE = re.compile(
    r"\bobserve\s*\(|\bcounter\s*\(|\bgauge\s*\(|\bhistogram\s*\(|merge_from"
    r"|\btrace\b|\bexport\w*\s*\(|\brecord\w*\s*\(|write_row|\bcsv\b|<<"
)

# Metric registration calls: member access (``.`` or ``->``) into one of
# the three MetricsRegistry instrument factories. Runs on blanked text
# (length-preserving), so the name literal is recovered from the raw text
# at the same indices.
METRIC_REG_RE = re.compile(r"[.>](counter|gauge|histogram)\s*\(")
METRIC_NAME_RE = re.compile(r"[a-z0-9_.]+\Z")
METRIC_NAME_DIRS = ("src", "bench", "examples")

# std vocabulary types headers must include directly (IWYU-lite). The map is
# deliberately small: high-signal types whose canonical header is unambiguous.
STD_NEEDS = {
    "std::shared_ptr": "memory",
    "std::unique_ptr": "memory",
    "std::weak_ptr": "memory",
    "std::make_shared": "memory",
    "std::make_unique": "memory",
    "std::string_view": "string_view",
    "std::string": "string",
    "std::vector": "vector",
    "std::map": "map",
    "std::set": "set",
    "std::unordered_map": "unordered_map",
    "std::unordered_set": "unordered_set",
    "std::function": "functional",
    "std::optional": "optional",
    "std::span": "span",
    "std::deque": "deque",
    "std::array": "array",
    "std::pair": "utility",
    "std::move": "utility",
    "std::atomic": "atomic",
    "std::mutex": "mutex",
    "std::jthread": "thread",
    "std::int64_t": "cstdint",
    "std::uint64_t": "cstdint",
    "std::int32_t": "cstdint",
    "std::uint32_t": "cstdint",
    "std::uint8_t": "cstdint",
    "std::size_t": "cstddef",
}
# string_view also exports std::string? No — but <string> provides
# std::string_view's header transitively on libstdc++; require the direct
# include anyway, except these pragmatic equivalences:
PROVIDES = {
    "cstddef": {"cstddef", "cstdio", "cstdlib", "cstring", "ctime"},
}

RULES = (
    "wall-clock",
    "ambient-entropy",
    "unordered-iteration",
    "catch-all",
    "include-hygiene",
    "header-guard",
    "abr-factory",
    "link-construction",
    "metric-name",
    "format-basics",
)

# Concrete tile-ABR policy classes; only src/abr/ itself (and tests/tools)
# may name them — everything else goes through abr::make_policy.
ABR_CONCRETE_RE = re.compile(
    r"\b(SperkeVra|KnapsackVra|ConsistencyVra|FullPanoramaVra)\b(?!Config)"
)
ABR_FACTORY_DIRS = ("src", "bench", "examples")

# Direct net::Link construction: owning smart-pointer factories, bare new,
# or a stack/member instance (``net::Link name(...)`` / ``{...}``). The
# trailing [({] keeps ``net::Link&`` parameters (a link passed on as the
# direct ``net::ChunkSource``), ``net::Link*`` pointers and
# ``net::LinkConfig`` out of the net.
LINK_CONSTRUCT_RE = re.compile(
    r"make_unique<\s*net::Link\s*>|make_shared<\s*net::Link\s*>"
    r"|\bnew\s+net::Link\b|\bnet::Link\s+\w+\s*[({]"
)
LINK_EXEMPT_SUBDIRS = ("net", "cdn")


def blank_comments_and_strings(text):
    """Replace comment/string contents with spaces, preserving line structure.

    Keeps ``sperke-lint`` allow-comments findable by scanning the raw text
    separately; everything rule-matching runs on the blanked text so that
    documentation mentioning ``system_clock`` does not trip the lint.
    """
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif mode in ("str", "chr"):
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.findings = []
        self.unordered_names = set()
        # (relative path, comment line, rule) of every allow() comment that
        # suppressed at least one finding — consumed by sperke_analyze's
        # stale-suppression audit.
        self.used_allows = set()

    def report(self, path, lineno, rule, message, raw_lines):
        # sperke-lint: allow(<rule>) on the offending or preceding line.
        rel = path.relative_to(self.root)
        for probe in (lineno, lineno - 1):
            if 1 <= probe <= len(raw_lines):
                m = ALLOW_RE.search(raw_lines[probe - 1])
                if m and rule in [r.strip() for r in m.group(1).split(",")]:
                    self.used_allows.add((str(rel), probe, rule))
                    return
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def cxx_files(self):
        files = []
        for d in SCAN_DIRS:
            base = self.root / d
            if not base.is_dir():
                continue
            files.extend(
                p for p in sorted(base.rglob("*")) if p.suffix in CXX_SUFFIXES
            )
        return files

    def collect_unordered_decls(self, blanked_by_file):
        for text in blanked_by_file.values():
            for m in UNORDERED_DECL_RE.finditer(text):
                self.unordered_names.add(m.group(1))

    def loop_extent(self, lines, start, col=0):
        """Lines of the block starting at `start` (0-based), by braces.

        `col` skips text before the construct on the first line, so a
        leading ``}`` (as in ``} catch (...) {``) does not end the extent
        before it begins.
        """
        depth = 0
        opened = False
        end = start
        for j in range(start, min(start + 60, len(lines))):
            segment = lines[j][col:] if j == start else lines[j]
            depth += segment.count("{") - segment.count("}")
            if "{" in segment:
                opened = True
            end = j
            if opened and depth <= 0:
                break
        return lines[start : end + 1]

    def check_file(self, path, raw, blanked):
        raw_lines = raw.splitlines()
        lines = blanked.splitlines()
        in_src = "src" in path.relative_to(self.root).parts[:1]
        is_header = path.suffix == ".h"

        for idx, line in enumerate(lines, start=1):
            if WALL_CLOCK_RE.search(line):
                self.report(
                    path, idx, "wall-clock",
                    "wall-clock API; simulation output must be a pure "
                    "function of seeds (use sim::Time)", raw_lines,
                )
            elif in_src and STEADY_CLOCK_RE.search(line):
                self.report(
                    path, idx, "wall-clock",
                    "steady_clock inside src/; monotonic wall timing is for "
                    "benches only — sim code advances sim::Time", raw_lines,
                )
            if ENTROPY_RE.search(line):
                self.report(
                    path, idx, "ambient-entropy",
                    "ambient entropy source; use an explicitly seeded "
                    "sperke::Rng", raw_lines,
                )

        # catch-all swallows.
        for idx, line in enumerate(lines, start=1):
            m = CATCH_ALL_RE.search(line)
            if m:
                body = "\n".join(self.loop_extent(lines, idx - 1, m.start()))
                if not CATCH_HANDLED_RE.search(body):
                    self.report(
                        path, idx, "catch-all",
                        "catch (...) that neither captures nor rethrows — "
                        "silent swallows corrupt results",
                        raw_lines,
                    )

        # unordered iteration feeding an output path.
        if self.unordered_names:
            names = "|".join(re.escape(n) for n in sorted(self.unordered_names))
            range_for = re.compile(
                r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))?(" + names + r")\s*\)"
            )
            iter_for = re.compile(
                r"for\s*\([^;]*=\s*(?:\w+(?:\.|->))?(" + names + r")\.(?:c?begin)\s*\("
            )
            for idx, line in enumerate(lines, start=1):
                if range_for.search(line) or iter_for.search(line):
                    body = "\n".join(self.loop_extent(lines, idx - 1))
                    if SINK_RE.search(body):
                        self.report(
                            path, idx, "unordered-iteration",
                            "iterating a hash container into an output path "
                            "(metrics/trace/export/merge); hash order is not "
                            "deterministic — use an ordered container or "
                            "sort a snapshot first", raw_lines,
                        )

        if path.relative_to(self.root).parts[0] in METRIC_NAME_DIRS:
            self.check_metric_names(path, raw, blanked, raw_lines)

        self.check_abr_factory(path, blanked, raw_lines)
        self.check_link_construction(path, blanked, raw_lines)

        if is_header:
            if "#pragma once" not in raw:
                self.report(
                    path, 1, "header-guard", "header missing #pragma once",
                    raw_lines,
                )
            if in_src:
                self.check_include_hygiene(path, blanked, raw_lines)

        self.check_format_basics(path, raw, raw_lines)

    def check_metric_names(self, path, raw, blanked, raw_lines):
        """Metric names must be well-formed string literals where registered.

        ``blank_comments_and_strings`` is length-preserving, so the literal's
        characters sit at the same indices in ``raw`` as its (blanked-out)
        placeholder does in ``blanked``.
        """
        for m in METRIC_REG_RE.finditer(blanked):
            lineno = blanked.count("\n", 0, m.start()) + 1
            i = m.end()
            while i < len(blanked) and blanked[i] in " \t\n":
                i += 1
            if i >= len(blanked) or blanked[i] != '"':
                self.report(
                    path, lineno, "metric-name",
                    f"{m.group(1)}() registration without a string-literal "
                    "name; pass the name as a literal so exported schemas "
                    "stay greppable (or allow(metric-name) for deliberately "
                    "dynamic names)", raw_lines,
                )
                continue
            j = blanked.find('"', i + 1)
            if j < 0:
                continue
            name = raw[i + 1 : j]
            if not METRIC_NAME_RE.fullmatch(name):
                self.report(
                    path, lineno, "metric-name",
                    f'metric name "{name}" violates [a-z0-9_.]+ (the shared '
                    "metric/SLO name rule, obs/slo.h)", raw_lines,
                )

    def check_abr_factory(self, path, blanked, raw_lines):
        """Concrete tile-ABR classes are an abr/-internal detail.

        Outside ``src/abr/`` (and the exempt ``tests``/``tools`` trees),
        naming ``SperkeVra`` & co. directly bypasses ``abr::make_policy`` —
        the config-name dispatch the arena bench and mixed-population
        worlds rely on. ``*Config`` structs stay fair game: they are the
        factory's own parameter surface.
        """
        parts = path.relative_to(self.root).parts
        if parts[0] not in ABR_FACTORY_DIRS:
            return
        if parts[0] == "src" and len(parts) > 1 and parts[1] == "abr":
            return
        for idx, line in enumerate(blanked.splitlines(), start=1):
            m = ABR_CONCRETE_RE.search(line)
            if m:
                self.report(
                    path, idx, "abr-factory",
                    f"direct use of {m.group(1)} outside src/abr/; construct "
                    "tile-ABR policies via abr::make_policy so they stay "
                    "selectable by name", raw_lines,
                )

    def check_link_construction(self, path, blanked, raw_lines):
        """Links are wired by src/net and src/cdn; everyone else fetches.

        Since the ChunkSource redesign (DESIGN.md §15), product code takes
        a ``net::ChunkSource&`` (or asks ``cdn::Topology`` for one) instead
        of owning a ``net::Link``. Direct construction elsewhere in
        ``src/`` reopens the seam the CDN tier sits behind. Test/bench/
        example trees build link fixtures on purpose and are out of scope.
        """
        parts = path.relative_to(self.root).parts
        if parts[0] != "src":
            return
        if len(parts) > 1 and parts[1] in LINK_EXEMPT_SUBDIRS:
            return
        for idx, line in enumerate(blanked.splitlines(), start=1):
            if LINK_CONSTRUCT_RE.search(line):
                self.report(
                    path, idx, "link-construction",
                    "direct net::Link construction outside src/net//src/cdn; "
                    "fetch through a net::ChunkSource (cdn::Topology hands "
                    "them out) so the CDN tier stays in the path",
                    raw_lines,
                )

    def check_include_hygiene(self, path, blanked, raw_lines):
        included = set(re.findall(r'#include <([^>]+)>', blanked))
        for token, header in sorted(STD_NEEDS.items()):
            if header in included:
                continue
            if any(p in included for p in PROVIDES.get(header, ())):
                continue
            m = re.search(re.escape(token) + r"\b", blanked)
            if m:
                lineno = blanked.count("\n", 0, m.start()) + 1
                self.report(
                    path, lineno, "include-hygiene",
                    f"uses {token} without directly including <{header}> "
                    "(transitive-include reliance)", raw_lines,
                )

    def check_format_basics(self, path, raw, raw_lines):
        if "\r" in raw:
            self.report(path, 1, "format-basics", "CRLF line endings",
                        raw_lines)
        if raw and not raw.endswith("\n"):
            self.report(path, len(raw_lines), "format-basics",
                        "missing final newline", raw_lines)
        for idx, line in enumerate(raw_lines, start=1):
            if "\t" in line:
                self.report(path, idx, "format-basics",
                            "tab character (indent with spaces)", raw_lines)
            if line != line.rstrip():
                self.report(path, idx, "format-basics",
                            "trailing whitespace", raw_lines)

    def run(self):
        files = self.cxx_files()
        blanked_by_file = {}
        raw_by_file = {}
        for path in files:
            raw = path.read_text(encoding="utf-8", errors="replace")
            raw_by_file[path] = raw
            blanked_by_file[path] = blank_comments_and_strings(raw)
        self.collect_unordered_decls(blanked_by_file)
        for path in files:
            self.check_file(path, raw_by_file[path], blanked_by_file[path])
        return self.findings, len(files)


def fix_format_basics(root):
    """Rewrite the mechanical format-basics findings in place (``--fix``).

    CRLF → LF, tab → two spaces, trailing whitespace stripped, final
    newline appended. Returns the repo-relative paths of changed files;
    idempotent by construction (every rewrite is a fixed point).
    """
    linter = Linter(root)
    changed = []
    for path in linter.cxx_files():
        raw = path.read_text(encoding="utf-8", errors="replace")
        text = raw.replace("\r\n", "\n").replace("\r", "\n")
        text = text.replace("\t", "  ")
        text = "\n".join(line.rstrip() for line in text.split("\n"))
        if text and not text.endswith("\n"):
            text += "\n"
        if text != raw:
            path.write_text(text, encoding="utf-8")
            changed.append(str(path.relative_to(linter.root)))
    return changed


def self_test():
    """Exercise the factory rules on a synthetic tree (ctest lint-selftest).

    abr-factory: violation in src/ and bench/, the src/abr/ and tests/
    scope exemptions, ``*Config`` structs staying legal, comment mentions
    not firing (blanked text), and allow-comment suppression.

    link-construction: make_unique and stack-instance violations in src/,
    the src/net//src/cdn exemptions, tests/ being out of scope,
    references/LinkConfig not firing, and allow-comment suppression.
    """
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)

        def put(rel, text):
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text, encoding="utf-8")

        put("src/core/bad.cpp", "abr::SperkeVra vra(video, cfg);\n")
        put("bench/bad.cpp", "abr::FullPanoramaVra vra(video, {});\n")
        put("src/abr/ok.cpp", "SperkeVra vra(video, cfg);\n")
        put("tests/ok_test.cpp", "abr::KnapsackVra vra(video, {});\n")
        put("examples/ok_config.cpp",
            "// SperkeVra is built by the factory from this.\n"
            "abr::SperkeVraConfig cfg;\n")
        put("examples/ok_allowed.cpp",
            "// sperke-lint: allow(abr-factory)\n"
            "abr::ConsistencyVra vra(video, {});\n")

        put("src/engine/bad_link.cpp",
            "links_.push_back(std::make_unique<net::Link>(sim, cfg));\n")
        put("src/core/bad_link.cpp", "net::Link link(simulator, config);\n")
        put("src/net/ok_link.cpp",
            "auto l = std::make_unique<net::Link>(sim, cfg);\n")
        put("src/cdn/ok_link.cpp", "net::Link backhaul{sim, cfg};\n")
        put("tests/ok_link_test.cpp", "net::Link link(sim, cfg);\n")
        put("src/mp/ok_link_ref.cpp",
            "net::LinkConfig cfg;\n"
            "net::Link& link = topology.access_link(0);\n"
            "void wire(net::Link* l);\n")
        put("src/live/ok_link_allowed.cpp",
            "// sperke-lint: allow(link-construction)\n"
            "uplink_ = std::make_unique<net::Link>(sim, cfg);\n")

        findings, _ = Linter(root).run()
        for rule, expected in (
            ("abr-factory", ["bench/bad.cpp:1:", "src/core/bad.cpp:1:"]),
            ("link-construction",
             ["src/core/bad_link.cpp:1:", "src/engine/bad_link.cpp:1:"]),
        ):
            got = sorted(
                f.split(" ")[0] for f in findings if f"[{rule}]" in f
            )
            if got != expected:
                print(f"sperke_lint: SELF-TEST FAIL — {rule} findings "
                      f"{got} != {expected}", file=sys.stderr)
                for f in findings:
                    print(f"  {f}", file=sys.stderr)
                return 1

        # --fix: every mechanical format-basics finding is rewritten, the
        # result is clean, and a second pass is a no-op (idempotence).
        put("src/util/messy.cpp", "int a;\t\nint b; \r\nint c;")
        changed = fix_format_basics(root)
        if changed != ["src/util/messy.cpp"]:
            print(f"sperke_lint: SELF-TEST FAIL — --fix changed {changed}, "
                  "expected exactly src/util/messy.cpp", file=sys.stderr)
            return 1
        fixed = (root / "src/util/messy.cpp").read_text(encoding="utf-8")
        if fixed != "int a;\nint b;\nint c;\n":
            print("sperke_lint: SELF-TEST FAIL — --fix produced "
                  f"{fixed!r}", file=sys.stderr)
            return 1
        if fix_format_basics(root) != []:
            print("sperke_lint: SELF-TEST FAIL — --fix is not idempotent",
                  file=sys.stderr)
            return 1
        refindings, _ = Linter(root).run()
        if any("[format-basics]" in f and "messy" in f for f in refindings):
            print("sperke_lint: SELF-TEST FAIL — format-basics findings "
                  "survive --fix", file=sys.stderr)
            return 1
    print("sperke_lint: self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the lint's own rule tests and exit")
    parser.add_argument("--fix", action="store_true",
                        help="rewrite mechanical format-basics findings "
                        "(CRLF, tabs, trailing whitespace, final newline) "
                        "in place, then exit")
    args = parser.parse_args()
    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        return self_test()
    if args.fix:
        changed = fix_format_basics(args.root)
        for rel in changed:
            print(f"fixed {rel}")
        print(f"sperke_lint: --fix rewrote {len(changed)} file(s)")
        return 0

    linter = Linter(args.root)
    findings, nfiles = linter.run()
    for finding in findings:
        print(finding)
    if findings:
        print(f"\nsperke_lint: FAIL — {len(findings)} finding(s) "
              f"across {nfiles} files", file=sys.stderr)
        return 1
    print(f"sperke_lint: OK — {nfiles} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
