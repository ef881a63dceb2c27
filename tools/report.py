#!/usr/bin/env python3
"""Self-contained HTML run report for Sperke observability exports.

Takes the artifacts a traced run writes — the sampled time series CSV
(obs::write_timeseries_csv), the SLO rollup CSV (obs::write_slo_csv) and
the event timeline JSONL (obs::write_trace_jsonl) — and renders one static
HTML page: an inline-SVG chart per series, the SLO table with breached
rows highlighted, and the top-N slowest fetch spans reconstructed from the
causal request ids. Pure stdlib, no network, deterministic: the same
inputs always produce byte-identical HTML (the property ``--check``
asserts, which is why it can run as a ctest gate on machines with nothing
installed but Python).

Usage:
    report.py [--series S.csv] [--slo S.csv] [--trace T.jsonl]
              [--top N] [-o report.html]
    report.py --check       # self-test on synthetic inputs, exit 0 on OK

Example:
    ./vod_streaming --trace /tmp/run.json
    tools/report.py --series /tmp/run.json.series.csv \\
                    --trace /tmp/run.json.jsonl -o /tmp/report.html
"""

import argparse
import csv
import html
import io
import json
import sys

CHART_W = 640
CHART_H = 96
PAD = 8


def fmt(v):
    """Shortest stable decimal for report text (mirrors C++ %.12g)."""
    return f"{v:.12g}"


# ---- input parsing --------------------------------------------------------

def read_series(fp):
    """timeseries CSV -> ordered list of {name, kind, points:[(t_s, value)]}.

    Counters chart their per-interval delta, gauges the sample, histograms
    the interval p99 bound (the SLO-relevant tail).
    """
    out = []
    index = {}
    for row in csv.DictReader(fp):
        name, kind = row["name"], row["kind"]
        if name not in index:
            index[name] = len(out)
            out.append({"name": name, "kind": kind, "points": []})
        value = row["value"] if kind in ("counter", "gauge") else row["p99"]
        out[index[name]]["points"].append((float(row["t_s"]), float(value)))
    return out


def read_slo(fp):
    return list(csv.DictReader(fp))


def read_trace(fp):
    return [json.loads(line) for line in fp if line.strip()]


def top_spans(events, top_n):
    """Slowest closed fetch spans, via the causal request ids.

    Dispatch/completion pairs match on args.request, the same pairing rule
    as obs::write_chrome_trace.
    """
    open_spans = {}
    spans = []
    for e in events:
        args = e["args"]
        rid = args.get("request", 0)
        if e["event"] == "FetchDispatched":
            open_spans[rid] = e
        elif e["event"] in ("FetchDone", "FetchDropped"):
            begin = open_spans.pop(rid, None)
            if begin is None:
                continue
            spans.append({
                "name": ("FetchDropped" if e["event"] == "FetchDropped"
                         else "FetchRetry" if args.get("parent", 0)
                         else "Fetch"),
                "start_s": begin["ts_us"] / 1e6,
                "dur_ms": (e["ts_us"] - begin["ts_us"]) / 1e3,
                "tile": args["tile"],
                "chunk": args["chunk"],
                "quality": args["quality"],
                "bytes": args["bytes"],
                "request": rid,
                "parent": args.get("parent", 0),
            })
    # Slowest first; (start, request) tie-break keeps the order total.
    spans.sort(key=lambda s: (-s["dur_ms"], s["start_s"], s["request"]))
    return spans[:top_n]


# ---- rendering ------------------------------------------------------------

def svg_chart(points):
    ys = [y for _, y in points]
    lo, hi = min(ys), max(ys)
    span = (hi - lo) or 1.0
    xs = [x for x, _ in points]
    xspan = (xs[-1] - xs[0]) or 1.0
    coords = " ".join(
        f"{PAD + (x - xs[0]) / xspan * (CHART_W - 2 * PAD):.1f},"
        f"{CHART_H - PAD - (y - lo) / span * (CHART_H - 2 * PAD):.1f}"
        for x, y in points)
    return (
        f'<svg width="{CHART_W}" height="{CHART_H}" '
        f'viewBox="0 0 {CHART_W} {CHART_H}">'
        f'<rect width="{CHART_W}" height="{CHART_H}" fill="#fafafa"/>'
        f'<polyline points="{coords}" fill="none" stroke="#2458a0" '
        'stroke-width="1.5"/>'
        f'<text x="{PAD}" y="12" font-size="10" fill="#666">{fmt(hi)}</text>'
        f'<text x="{PAD}" y="{CHART_H - 2}" font-size="10" fill="#666">'
        f'{fmt(lo)}</text></svg>')


def render(series, slos, spans):
    out = io.StringIO()
    w = out.write
    w("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
      "<title>Sperke run report</title><style>\n"
      "body{font:14px/1.4 sans-serif;margin:24px;color:#222}\n"
      "table{border-collapse:collapse;margin:8px 0}\n"
      "td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}\n"
      "th,td:first-child{text-align:left}\n"
      "tr.breached{background:#fde8e8}\n"
      "h2{margin-top:28px}\n"
      ".series{margin:12px 0}\n"
      "</style></head><body>\n<h1>Sperke run report</h1>\n")

    w("<h2>SLOs</h2>\n")
    if slos:
        w("<table><tr><th>slo</th><th>evaluated</th><th>breached</th>"
          "<th>breaches</th><th>budget burn %</th><th>at end</th>"
          "<th>last signal</th></tr>\n")
        for row in slos:
            evaluated = int(row["evaluated_intervals"])
            breached = int(row["breached_intervals"])
            burn = 100.0 * breached / evaluated if evaluated else 0.0
            at_end = row["breached_at_end"] not in ("0", "false", "")
            w(f'<tr class="{"breached" if at_end else "ok"}">'
              f"<td>{html.escape(row['name'])}</td><td>{evaluated}</td>"
              f"<td>{breached}</td><td>{int(row['breach_events'])}</td>"
              f"<td>{burn:.1f}</td>"
              f"<td>{'BREACHED' if at_end else 'ok'}</td>"
              f"<td>{fmt(float(row['last_signal']))}</td></tr>\n")
        w("</table>\n")
    else:
        w("<p>No SLO rollup supplied.</p>\n")

    w("<h2>Slowest fetch spans</h2>\n")
    if spans:
        w("<table><tr><th>span</th><th>start s</th><th>dur ms</th>"
          "<th>tile</th><th>chunk</th><th>quality</th><th>bytes</th>"
          "<th>request</th><th>parent</th></tr>\n")
        for s in spans:
            w(f"<tr><td>{html.escape(s['name'])}</td>"
              f"<td>{s['start_s']:.3f}</td><td>{s['dur_ms']:.2f}</td>"
              f"<td>{s['tile']}</td><td>{s['chunk']}</td>"
              f"<td>{s['quality']}</td><td>{s['bytes']}</td>"
              f"<td>{s['request']}</td><td>{s['parent']}</td></tr>\n")
        w("</table>\n")
    else:
        w("<p>No trace supplied.</p>\n")

    w("<h2>Time series</h2>\n")
    if series:
        for s in series:
            label = (f"{s['name']} ({s['kind']}"
                     f"{', p99' if s['kind'] == 'histogram' else ''})")
            w(f'<div class="series"><div>{html.escape(label)}</div>'
              f"{svg_chart(s['points'])}</div>\n")
    else:
        w("<p>No time series supplied.</p>\n")

    w("</body></html>\n")
    return out.getvalue()


# ---- self-test ------------------------------------------------------------

SYNTH_SERIES = """\
name,kind,interval,t_s,value,count,sum,p50,p90,p99
session.stalled,gauge,0,0.5,0,,,,,
session.stalled,gauge,1,1,1,,,,,
session.stalled,gauge,2,1.5,0,,,,,
fetch.bytes,counter,0,0.5,1000,,,,,
fetch.bytes,counter,1,1,0,,,,,
fetch.bytes,counter,2,1.5,2500,,,,,
fetch.latency_s,histogram,0,0.5,,3,0.21,0.05,0.1,0.1
fetch.latency_s,histogram,1,1,,0,0,0,0,0
fetch.latency_s,histogram,2,1.5,,1,0.4,0.5,0.5,0.5
"""

SYNTH_SLO = """\
name,evaluated_intervals,breached_intervals,breach_events,breached_at_end,last_signal
vod.stall_ratio,3,1,1,0,0
fetch.p99,3,3,1,1,0.5
"""

SYNTH_TRACE_EVENTS = [
    {"event": "FetchDispatched", "ts_us": 0,
     "args": {"tile": 1, "chunk": 0, "quality": 2, "bytes": 0,
              "request": 1, "parent": 0}},
    {"event": "FetchDispatched", "ts_us": 100,
     "args": {"tile": 2, "chunk": 0, "quality": 1, "bytes": 0,
              "request": 2, "parent": 0}},
    {"event": "FetchDone", "ts_us": 90_000,
     "args": {"tile": 1, "chunk": 0, "quality": 2, "bytes": 4000,
              "request": 1, "parent": 0}},
    # Retry of request 1 dispatched under a new id, linked by parent.
    {"event": "FetchDispatched", "ts_us": 95_000,
     "args": {"tile": 1, "chunk": 0, "quality": 0, "bytes": 0,
              "request": 3, "parent": 1}},
    {"event": "FetchDone", "ts_us": 300_000,
     "args": {"tile": 1, "chunk": 0, "quality": 0, "bytes": 900,
              "request": 3, "parent": 1}},
    {"event": "FetchDropped", "ts_us": 50_000,
     "args": {"tile": 2, "chunk": 0, "quality": 1, "bytes": 0,
              "request": 2, "parent": 0}},
    # Completion without a dispatch: must be skipped, not crash.
    {"event": "FetchDone", "ts_us": 5000,
     "args": {"tile": 8, "chunk": 8, "quality": 0, "bytes": 1,
              "request": 77, "parent": 0}},
]


def self_check():
    series = read_series(io.StringIO(SYNTH_SERIES))
    slos = read_slo(io.StringIO(SYNTH_SLO))
    trace_jsonl = "".join(json.dumps(e) + "\n" for e in SYNTH_TRACE_EVENTS)
    events = read_trace(io.StringIO(trace_jsonl))
    spans = top_spans(events, 3)

    assert [s["name"] for s in series] == [
        "session.stalled", "fetch.bytes", "fetch.latency_s"], series
    assert all(len(s["points"]) == 3 for s in series), series
    assert series[2]["points"][2][1] == 0.5, "histogram charts its p99"

    assert len(spans) == 3, spans
    assert [s["name"] for s in spans] == ["FetchRetry", "Fetch",
                                          "FetchDropped"], spans
    assert spans[0]["request"] == 3 and spans[0]["parent"] == 1, spans
    assert abs(spans[0]["dur_ms"] - 205.0) < 1e-9, spans
    assert len(top_spans(events, 10)) == 3, "unmatched completion skipped"

    page = render(series, slos, spans)
    assert page == render(series, slos, spans), "render is not deterministic"
    assert page.count('class="breached"') == 1, "one SLO breached at end"
    assert "fetch.latency_s" in page and "<svg" in page, page[:200]

    empty = render([], [], [])
    assert empty == render([], [], []), "empty render is not deterministic"
    assert "No time series supplied" in empty
    print("report.py --check: OK")


# ---- main -----------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--series", help="timeseries CSV (write_timeseries_csv)")
    parser.add_argument("--slo", help="SLO rollup CSV (write_slo_csv)")
    parser.add_argument("--trace", help="trace JSONL (write_trace_jsonl)")
    parser.add_argument("--top", type=int, default=20,
                        help="slowest spans to list (default 20)")
    parser.add_argument("-o", "--output", default="report.html")
    parser.add_argument("--check", action="store_true",
                        help="self-test on synthetic inputs and exit")
    args = parser.parse_args()

    if args.check:
        self_check()
        return 0
    if not (args.series or args.slo or args.trace):
        parser.error("nothing to report: pass --series, --slo or --trace "
                     "(or --check)")

    series, slos, spans = [], [], []
    if args.series:
        with open(args.series, newline="") as fp:
            series = read_series(fp)
    if args.slo:
        with open(args.slo, newline="") as fp:
            slos = read_slo(fp)
    if args.trace:
        with open(args.trace) as fp:
            spans = top_spans(read_trace(fp), args.top)

    with open(args.output, "w") as fp:
        fp.write(render(series, slos, spans))
    print(f"wrote {args.output}: {len(series)} series, {len(slos)} SLOs, "
          f"{len(spans)} spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
