"""Report bundle rendering.

Turns the stage artifacts into the final tables: activity totals, theme
distribution, network properties, per-topic stance scores, structural
scores, and the cross-topic matrices. Indices print with two decimals,
counts with thousands separators, and undefined values as dashes. The
metrics stage writes its scoreboards at full precision; this module is
the only code that formats them (``scoreboard``).
"""

from __future__ import annotations

import csv
import json
import shutil
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Optional

from .annotate import theme_distribution, theme_store
from .config import config_hash
from .files import open_new

DASH = "--"

TABLE4_HEADER = [
    "topic", "pct_a", "pct_neutral", "pct_b", "simpson", "assortativity",
    "aei", "coleman_a", "coleman_b", "dominant_stance",
]

TABLE5_HEADER = [
    "topic", "mean_aei", "max_aei", "min_aei", "n_groups", "max_ds", "min_ds",
]


def fmt_index(value: Optional[float]) -> str:
    return DASH if value is None else f"{value:.2f}"


def fmt_matrix(value: Optional[float]) -> str:
    return DASH if value is None else f"{value:.6f}"


def fmt_count(value: int) -> str:
    return f"{value:,}"


def table4_row(r: dict) -> list[str]:
    return [
        r["topic"],
        fmt_index(r["fraction_a"]),
        fmt_index(r["fraction_neutral"]),
        fmt_index(r["fraction_b"]),
        fmt_index(r["simpson"]),
        fmt_index(r["assortativity"]),
        fmt_index(r["aei"]),
        fmt_index(r["coleman_a"]),
        fmt_index(r["coleman_b"]),
        r["dominant_stance"],
    ]


def table5_row(r: dict) -> list[str]:
    # a single structural group has no between-group scores and no
    # per-group stance spread: everything but the group count is a dash
    if r["n_groups"] <= 1:
        return [r["topic"], DASH, DASH, DASH, str(r["n_groups"]), DASH, DASH]
    return [
        r["topic"],
        fmt_index(r["mean_aei"]),
        fmt_index(r["max_aei"]),
        fmt_index(r["min_aei"]),
        str(r["n_groups"]),
        fmt_index(r["max_ds"]),
        fmt_index(r["min_ds"]),
    ]


# each grouping's table: its header and the formatter of one metrics row
SCOREBOARDS = {
    "stance": (TABLE4_HEADER, table4_row),
    "structural": (TABLE5_HEADER, table5_row),
}


def scoreboard(grouping: str, src: Path) -> tuple[list[str], list[list[str]]]:
    """Table 4 (``stance``) or table 5 (``structural``): its header and its
    rows, formatted from the full-precision rows the metrics stage wrote
    to ``src``."""
    header, row = SCOREBOARDS[grouping]
    rows = json.loads(src.read_text(encoding="utf-8"))["rows"]
    return header, [row(r) for r in rows]


def write_json(path: Path, payload) -> None:
    with open_new(path, encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header: list, rows: list) -> None:
    with open_new(path, newline="", encoding="utf-8") as fh:
        write_csv_to(fh, header, rows)


def write_csv_to(fh, header: list, rows: list) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _copy(src: Path, dst: Path) -> None:
    with src.open("rb") as fsrc, open_new(dst, "xb") as fdst:
        shutil.copyfileobj(fsrc, fdst)


def _pretty_table(title: str, header: list, rows: list) -> str:
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines) + "\n"


# (per_type key, table label) of the activity table's rows, and its columns
ACTIVITY_ROWS = (
    ("like", "Likes"), ("post", "Posts"), ("repost", "Reposts"),
    ("block", "Blocks"), ("follow", "Follows"), ("profile", "Sign-ups"),
)
ACTIVITY_COLUMNS = (
    "daily_average_actions", "daily_average_authors", "total_actions", "total_author_days",
)


def _activity(src: Path, dst: Path) -> str:
    per_type = json.loads(src.read_text(encoding="utf-8"))["per_type"]
    types = [(label, per_type[kind]) for kind, label in ACTIVITY_ROWS if kind in per_type]
    # the totals are integers, which round() leaves as they are
    write_csv(dst, ["action_type", "daily_average_actions", "daily_average_authors",
                    "total_actions", "total_authors"],
              [[label] + [round(t[c], 1) for c in ACTIVITY_COLUMNS] for label, t in types])
    return _pretty_table(
        "Activity by action type",
        ["Action", "Daily actions", "Daily authors", "Total actions", "Total authors"],
        [[label] + [fmt_count(round(t[c])) for c in ACTIVITY_COLUMNS] for label, t in types],
    )


def _themes(src: Path, dst: Path) -> Optional[str]:
    counts = Counter(theme_store(src).mapping().values())
    if not counts:
        return None
    dist = theme_distribution(counts)
    rows = [
        [theme, f"{dist.share_of_all[theme]:.3f}",
         f"{dist.share_of_political[theme]:.3f}" if theme in dist.share_of_political else DASH,
         dist.counts[theme]]
        for theme in sorted(dist.counts)
    ]
    write_csv(dst, ["theme", "share_of_all", "share_of_political", "posts"], rows)
    return _pretty_table(
        "Posts by political theme",
        ["Theme", "% of all", "% of political", "Posts"],
        [[r[0], r[1], r[2], fmt_count(r[3])] for r in rows],
    )


def _networks(src: Path, dst: Path) -> str:
    gstats = json.loads(src.read_text(encoding="utf-8"))
    rows = [
        [topic, s["nodes"], s["edges"], f"{s['average_degree']:.2f}"]
        for topic, s in sorted(gstats["topics"].items())
    ]
    write_csv(dst, ["topic", "nodes", "edges", "average_degree"], rows)
    return _pretty_table(
        "Network properties",
        ["Topic", "Nodes", "Edges", "Avg degree"],
        [[r[0], fmt_count(r[1]), fmt_count(r[2]), r[3]] for r in rows],
    )


def _scoreboard(grouping: str, title: str, src: Path, dst: Path) -> str:
    header, rows = scoreboard(grouping, src)
    write_csv(dst, header, rows)
    return _pretty_table(title, header, rows)


# Each report section: its name in summary.json, the run-directory path it
# renders, the bundle file it writes, and its renderer, which writes that
# file and returns the section of report.txt (None: nothing to render).
SECTIONS = (
    ("activity", "stats/activity_stats.json", "table1_activity.csv", _activity),
    ("themes", "labels/themes.jsonl", "table2_themes.csv", _themes),
    ("networks", "graphs/stats.json", "table3_networks.csv", _networks),
    ("stance", "metrics/stance_report.json", "table4_stance.csv",
     partial(_scoreboard, "stance", "Stance-group scores")),
    ("structural", "metrics/structural_report.json", "table5_structural.csv",
     partial(_scoreboard, "structural", "Structural-group scores")),
)


def render_report(config, run_dir: Path, inputs: dict[str, str]):
    """Write the report bundle from the stage outputs in ``inputs``.

    ``inputs`` maps run-directory paths to hashes: the outputs the runner
    verified, of the stages that have a manifest. A section renders exactly
    when its path is among them; the others, and an empty theme store, are
    listed as missing in summary.json, so a partial pipeline still yields a
    valid (partial) bundle. The cross-topic files travel into the bundle
    unchanged.
    """
    report_dir = run_dir / "report"
    outputs, pretty, sections = [], [], {}
    for name, src, bundle_file, render in SECTIONS:
        text = render(run_dir / src, report_dir / bundle_file) if src in inputs else None
        sections[name] = "missing" if text is None else "ok"
        if text is not None:
            outputs.append(report_dir / bundle_file)
            pretty.append(text)

    cross = sorted(rel for rel in inputs if rel.startswith("crosstopic/"))
    for rel in cross:
        dst = report_dir / Path(rel).name
        _copy(run_dir / rel, dst)
        outputs.append(dst)
    sections["crosstopic"] = "ok" if cross else "missing"

    write_json(report_dir / "summary.json",
               {"config_hash": config_hash(config), "sections": sections})
    with open_new(report_dir / "report.txt", encoding="utf-8") as fh:
        fh.write("\n".join(pretty))
    return outputs + [report_dir / "summary.json", report_dir / "report.txt"]
