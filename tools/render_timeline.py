#!/usr/bin/env python3
"""Render a --timeline-out incident timeline (JSONL) as ASCII or markdown.

The simulator's unified incident timeline merges fault injections, circuit
breaker transitions, degradation hot-marks/sheds, deadline-miss spikes, SLO
burn-rate alerts, and surge windows into one sim-time-ordered JSONL stream
(one object per line: run, at_ms, kind, subject, optional detail/value).
This renderer turns that stream into a human-readable incident narrative --
the thing you paste into a postmortem or a README.

Usage:
    render_timeline.py TIMELINE.jsonl [--format ascii|markdown]
                       [--run LABEL] [--kind PREFIX] [--max-events N]

`--run` keeps only events from one labelled run (e.g. resilience-off);
`--kind` keeps only kinds under a dotted prefix (e.g. `breaker.` or `slo.`);
`--max-events` elides the middle of very long timelines, keeping the head
and tail so onset and recovery both stay visible.

Exit status: 0 = rendered, 2 = usage/input error.

Stdlib only -- this repo adds no Python dependencies.
"""

from __future__ import annotations

import argparse
import json
import sys

# One marker per event family; unknown kinds fall back to '*'.
MARKERS = {
    "fault.fail": "x",
    "fault.recover": "+",
    "breaker.open": "O",
    "breaker.half-open": "o",
    "breaker.closed": ".",
    "degradation.hot-mark": "~",
    "degradation.shed": "v",
    "flight-recorder.trip": "!",
    "slo.alert-fire": "#",
    "slo.alert-resolve": "=",
    "surge.begin": ">",
    "surge.end": "<",
}


def load_events(path):
    """Parses the JSONL file into a list of event dicts (file order)."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as err:
                raise SystemExit(f"{path}:{lineno}: bad JSON line: {err}")
            for key in ("at_ms", "kind", "subject"):
                if key not in event:
                    raise SystemExit(f"{path}:{lineno}: missing '{key}'")
            events.append(event)
    return events


def format_time(at_ms):
    """Sim-time label: seconds with millisecond precision, trailing-zero trimmed."""
    text = f"{at_ms / 1000.0:.3f}"
    return text.rstrip("0").rstrip(".") + "s"


def describe(event):
    """One-line human description of an event."""
    parts = [event["subject"]]
    if event.get("detail"):
        parts.append(event["detail"])
    if event.get("value"):
        parts.append(f"value={event['value']:g}")
    return "  ".join(parts)


def elide(events, max_events):
    """Keeps head and tail of an over-long timeline; returns (events, elided)."""
    if max_events <= 0 or len(events) <= max_events:
        return events, 0
    head = max_events // 2
    tail = max_events - head
    return events[:head] + events[len(events) - tail:], len(events) - max_events


def render_ascii(events, elided, out):
    width = max((len(format_time(e["at_ms"])) for e in events), default=0)
    kind_width = max((len(e["kind"]) for e in events), default=0)
    for i, event in enumerate(events):
        marker = MARKERS.get(event["kind"], "*")
        run = f"[{event['run']}] " if event.get("run") else ""
        out.write(
            f"{format_time(event['at_ms']):>{width}} {marker} "
            f"{event['kind']:<{kind_width}}  {run}{describe(event)}\n"
        )
        if elided and i + 1 == (len(events) + 1) // 2:
            out.write(f"{'...':>{width}}   ({elided} events elided)\n")


def render_markdown(events, elided, out):
    out.write("| sim time | kind | run | event |\n")
    out.write("|---------:|------|-----|-------|\n")
    for i, event in enumerate(events):
        run = event.get("run", "")
        out.write(
            f"| {format_time(event['at_ms'])} | `{event['kind']}` "
            f"| {run} | {describe(event)} |\n"
        )
        if elided and i + 1 == (len(events) + 1) // 2:
            out.write(f"| ... | | | {elided} events elided |\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Render an incident timeline (JSONL) as ASCII or markdown."
    )
    parser.add_argument("timeline", help="path to a --timeline-out JSONL file")
    parser.add_argument(
        "--format", choices=("ascii", "markdown"), default="ascii",
        help="output format (default: ascii)",
    )
    parser.add_argument(
        "--run", default=None,
        help="keep only events from this labelled run (e.g. resilience-off)",
    )
    parser.add_argument(
        "--kind", default=None,
        help="keep only kinds under this dotted prefix (e.g. 'breaker.')",
    )
    parser.add_argument(
        "--max-events", type=int, default=0, metavar="N",
        help="elide the middle beyond N events (0: render everything)",
    )
    args = parser.parse_args(argv)

    events = load_events(args.timeline)
    if args.run is not None:
        events = [e for e in events if e.get("run") == args.run]
    if args.kind is not None:
        events = [e for e in events if e["kind"].startswith(args.kind)]
    # The producer writes sim-time order per run; a merged multi-run file
    # interleaves runs back into one global order here.  Python's sort is
    # stable, so same-timestamp events keep their file (= producer) order.
    events.sort(key=lambda e: e["at_ms"])
    if not events:
        print("(no events matched)", file=sys.stderr)
        return 0

    events, elided = elide(events, args.max_events)
    render = render_markdown if args.format == "markdown" else render_ascii
    render(events, elided, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
