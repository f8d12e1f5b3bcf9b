"""Static HTML dashboards and regression diffing over analysis documents.

Four JSON document shapes flow through this module, each tagged with its
schema string: the **run summary** (``repro.run-summary/v1``, from
:meth:`repro.obs.analyze.RunAnalysis.to_dict`) and the three campaign-shaped
reports of :mod:`repro.experiments` -- reliability, tournament and sweep.

:func:`report_html` renders the first three into a self-contained HTML page --
inline CSS, inline markup, zero external assets -- so a dashboard written
to CI artifacts renders anywhere, offline, forever.  The styling follows
the repository's chart conventions: CSS custom properties with light and
dark scopes (OS preference *and* an explicit ``data-theme`` override),
thin marks with surface-colored gaps between stacked segments, and text
that always wears ink tokens rather than series colors.

:func:`diff_reports` compares two documents of the same schema metric by
metric with a configurable relative threshold (default 10%) and per-metric
overrides.  Every metric carries a direction: for latencies and makespans
*lower* is better; for durability and completed-job counts *higher* is.
``repro obs diff`` turns :func:`has_regression` into exit code 4.
"""

from __future__ import annotations

import html
import math

from repro.obs.analyze import RUN_SUMMARY_SCHEMA
from repro.obs.digest import LatencyDigest

#: Schema tag of reliability-campaign reports (kept as a literal so the
#: analysis layer never imports the campaign driver).
CAMPAIGN_SCHEMA = "repro.reliability-campaign/v1"

#: Schema tag of policy-tournament reports (repro.experiments.tournament).
TOURNAMENT_SCHEMA = "repro.tournament-report/v1"

#: Schema tag of ``repro campaign`` sweep reports (diffable; no HTML page).
SWEEP_SCHEMA = "repro.campaign-report/v1"

#: Default relative-change threshold for ``repro obs diff``.
DEFAULT_THRESHOLD = 0.10

#: Relative changes below this are float noise, never a regression.
_NOISE = 1e-9

#: Map categories in dashboard order (mirrors repro.obs.analyze).
_CATEGORIES = ("node-local", "rack-local", "remote", "degraded")


# -- regression diffing --------------------------------------------------------


def _digest_percentiles(payload: dict | None) -> dict:
    """Percentiles of a serialised digest (empty block when absent)."""
    if not payload:
        return {"count": 0, "p50": None, "p95": None, "p99": None}
    return LatencyDigest.from_dict(payload).percentiles()


def _run_metrics(summary: dict) -> dict[str, dict]:
    """The diffable metric set of one run summary."""
    breakdown = summary.get("breakdown", {})
    degraded = breakdown.get("degraded", {})
    map_total = sum(
        breakdown.get(label, {}).get("total_s", 0.0) for label in _CATEGORIES
    )
    tails = _digest_percentiles(summary.get("digests", {}).get("degraded_read"))
    return {
        "makespan_s": {"value": summary.get("makespan_s"), "direction": "lower"},
        "map_total_s": {"value": map_total, "direction": "lower"},
        "degraded_read_s": {"value": degraded.get("read_s", 0.0), "direction": "lower"},
        "degraded_tasks": {"value": degraded.get("tasks", 0), "direction": "lower"},
        "degraded_p50_s": {"value": tails["p50"], "direction": "lower"},
        "degraded_p99_s": {"value": tails["p99"], "direction": "lower"},
    }


def _at(*path: str, default=None):
    """A getter for ``row[path[0]][path[1]]...`` that tolerates absences."""

    def get(row: dict):
        for key in path[:-1]:
            row = row.get(key, {})
        return row.get(path[-1], default)

    return get


#: The per-row (policy / scheduler) diff columns of the campaign-shaped
#: schemas: ``{schema: {metric: (direction, getter)}}``.
_ROW_METRICS = {
    CAMPAIGN_SCHEMA: {
        "degraded_p50_s": ("lower", _at("degraded_read_seconds", "p50")),
        "degraded_p99_s": ("lower", _at("degraded_read_seconds", "p99")),
        "sojourn_mean_s": ("lower", _at("sojourn", "mean")),
        "jobs_completed": ("higher", _at("jobs", "completed")),
        "data_loss_windows": ("lower", _at("data_loss_windows", default=0)),
    },
    TOURNAMENT_SCHEMA: {
        "makespan_mean_s": ("lower", _at("makespan_mean_s")),
        "makespan_p50_s": ("lower", _at("makespan_seconds", "p50")),
        "degraded_p99_s": ("lower", _at("degraded_read_seconds", "p99")),
        "jobs_completed": ("higher", _at("jobs", "completed")),
    },
    SWEEP_SCHEMA: {
        "makespan_p50_s": ("lower", _at("makespan_seconds", "p50")),
        "degraded_p50_s": ("lower", _at("degraded_read_seconds", "p50")),
        "degraded_p99_s": ("lower", _at("degraded_read_seconds", "p99")),
        "jobs_completed": ("higher", _at("jobs", "completed")),
    },
}


def _row_metrics(document: dict) -> dict[str, dict]:
    """``{row}:{metric}`` for every row of a campaign-shaped document."""
    rows = document.get("policies") or document.get("schedulers") or {}
    return {
        f"{name}:{metric}": {"value": getter(row), "direction": direction}
        for name, row in rows.items()
        for metric, (direction, getter) in _ROW_METRICS[document["schema"]].items()
    }


def _metrics_of(document: dict) -> dict[str, dict]:
    schema = document.get("schema")
    if schema == RUN_SUMMARY_SCHEMA:
        return _run_metrics(document)
    if schema not in _ROW_METRICS:
        raise ValueError(f"unrecognised analysis document schema: {schema!r}")
    metrics = _row_metrics(document)
    if schema == CAMPAIGN_SCHEMA:
        availability = document.get("availability", {})
        metrics["durability"] = {
            "value": availability.get("durability"),
            "direction": "higher",
        }
        metrics["backlog_peak"] = {
            "value": availability.get("backlog", {}).get("peak"),
            "direction": "lower",
        }
    return metrics


def diff_reports(
    baseline: dict,
    candidate: dict,
    threshold: float = DEFAULT_THRESHOLD,
    overrides: dict[str, float] | None = None,
) -> list[dict]:
    """Metric-by-metric comparison of two same-schema documents.

    Each row carries ``metric``, both values, the signed absolute ``delta``
    and relative ``change`` (None when the baseline is 0), the metric's
    ``direction``, the ``threshold`` applied, and a ``status``:

    * ``"regression"`` -- moved the *bad* way by more than the threshold;
    * ``"improved"`` -- moved the *good* way by more than the threshold;
    * ``"ok"`` -- within the threshold;
    * ``"n/a"`` -- either side missing (e.g. no degraded reads occurred).

    ``overrides`` maps metric names to per-metric thresholds.
    """
    if baseline.get("schema") != candidate.get("schema"):
        raise ValueError(
            f"cannot diff documents of different schemas: "
            f"{baseline.get('schema')!r} vs {candidate.get('schema')!r}"
        )
    overrides = overrides or {}
    base_metrics = _metrics_of(baseline)
    cand_metrics = _metrics_of(candidate)
    rows: list[dict] = []
    for name in sorted(base_metrics.keys() | cand_metrics.keys()):
        direction = (base_metrics.get(name) or cand_metrics[name])["direction"]
        limit = overrides.get(name, threshold)
        before = (base_metrics.get(name) or {}).get("value")
        after = (cand_metrics.get(name) or {}).get("value")
        row = {
            "metric": name,
            "baseline": before,
            "candidate": after,
            "direction": direction,
            "threshold": limit,
            "delta": None,
            "change": None,
            "status": "n/a",
        }
        if before is not None and after is not None:
            delta = after - before
            row["delta"] = delta
            change = delta / abs(before) if before else None
            row["change"] = change
            # The bad direction is "up" for lower-is-better metrics and
            # "down" for higher-is-better ones.
            bad = delta if direction == "lower" else -delta
            if abs(delta) <= _NOISE:
                row["status"] = "ok"
            elif before == 0:
                row["status"] = "regression" if bad > 0 else "improved"
            elif bad > limit * abs(before):
                row["status"] = "regression"
            elif bad < -limit * abs(before):
                row["status"] = "improved"
            else:
                row["status"] = "ok"
        rows.append(row)
    return rows


def has_regression(rows: list[dict]) -> bool:
    """True when any diff row regressed past its threshold."""
    return any(row["status"] == "regression" for row in rows)


def render_diff_text(rows: list[dict]) -> str:
    """The ``repro obs diff`` table, one metric per line."""
    lines = [
        f"{'metric':<28} {'baseline':>12} {'candidate':>12} "
        f"{'change':>9}  status"
    ]
    for row in rows:
        change = (
            f"{100.0 * row['change']:+8.1f}%" if row["change"] is not None else "      n/a"
        )
        lines.append(
            f"{row['metric']:<28} {_num(row['baseline']):>12} "
            f"{_num(row['candidate']):>12} {change:>9}  {row['status']}"
        )
    regressions = sum(1 for row in rows if row["status"] == "regression")
    lines.append(
        f"-- {len(rows)} metric(s), {regressions} regression(s)"
        + ("" if regressions else "; within thresholds")
    )
    return "\n".join(lines)


def _num(value) -> str:
    """Compact numeric cell: ints verbatim, floats to 3 significant-ish."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if not math.isfinite(value):
        return str(value)
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


# -- HTML rendering ------------------------------------------------------------

# Light/dark token pairs straight from the house chart palette; declared
# under both the media query and the data-theme scopes so an explicit
# toggle beats the OS setting either way.
_STYLE = """
:root { color-scheme: light dark; }
.viz-root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --gridline: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100;
  --status-good: #006300; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --gridline: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500;
    --status-good: #0ca30c; --status-critical: #d03b3b;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page: #0d0d0d; --surface-1: #1a1a19;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
  --gridline: #2c2c2a; --baseline: #383835;
  --border: rgba(255,255,255,0.10);
  --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  --series-4: #c98500;
  --status-good: #0ca30c; --status-critical: #d03b3b;
}
.viz-root {
  margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
.viz-root main { max-width: 920px; margin: 0 auto; }
h1 { font-size: 20px; font-weight: 600; margin: 0 0 2px; }
h2 { font-size: 14px; font-weight: 600; margin: 0 0 10px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; }
.hero { font-size: 48px; font-weight: 600; line-height: 1.1; }
.hero-label { color: var(--text-secondary); margin-bottom: 2px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin-bottom: 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 16px; margin-bottom: 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 128px; flex: 1;
}
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 22px; font-weight: 600; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 5px 10px 5px 0; }
td.n, th.n { text-align: right; font-variant-numeric: tabular-nums; }
th {
  color: var(--text-muted); font-size: 12px; font-weight: 500;
  border-bottom: 1px solid var(--baseline);
}
tr + tr td { border-top: 1px solid var(--gridline); }
.bar-row { display: flex; align-items: center; margin: 6px 0; }
.bar-label { width: 110px; color: var(--text-secondary); flex: none; }
.bar-track { flex: 1; display: flex; }
.bar-seg { height: 18px; }
.bar-seg + .bar-seg { margin-left: 2px; }
.bar-seg.last { border-radius: 0 4px 4px 0; }
.bar-value {
  margin-left: 8px; color: var(--text-secondary);
  font-variant-numeric: tabular-nums; white-space: nowrap;
}
.legend {
  display: flex; gap: 16px; color: var(--text-secondary);
  font-size: 12px; margin-bottom: 8px;
}
.legend .swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; vertical-align: -1px;
}
.ok { color: var(--status-good); }
.bad { color: var(--status-critical); font-weight: 600; }
.muted { color: var(--text-muted); }
footer { color: var(--text-muted); font-size: 12px; margin-top: 20px; }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _page(title: str, body: str) -> str:
    """Wrap rendered sections into the self-contained document."""
    return (
        "<!doctype html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_STYLE}</style>\n"
        '</head>\n<body class="viz-root">\n<main>\n'
        f"{body}\n"
        "<footer>repro obs report &mdash; generated offline, no external "
        "assets; simulated-time quantities only.</footer>\n"
        "</main>\n</body>\n</html>\n"
    )


def _tile(label: str, value: str) -> str:
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div></div>'
    )


def _seconds(value) -> str:
    return "n/a" if value is None else f"{value:,.1f} s"


def _stacked_bars(rows: list[tuple[str, list[tuple[str, float, str]]]]) -> str:
    """Horizontal stacked bars: (label, [(series, value, css-color)]) rows.

    Segment widths share one scale (the widest row spans the track); 2px
    surface gaps separate segments; the data-end corner is rounded.  Values
    ride the bar tip; per-segment values live in the native tooltip and the
    accompanying table.
    """
    peak = max(
        (sum(value for _name, value, _color in segments) for _label, segments in rows),
        default=0.0,
    )
    if peak <= 0:
        return '<p class="muted">no samples</p>'
    parts = []
    for label, segments in rows:
        total = sum(value for _name, value, _color in segments)
        visible = [seg for seg in segments if seg[1] > 0]
        cells = []
        for index, (name, value, color) in enumerate(visible):
            width = 100.0 * value / peak
            last = " last" if index == len(visible) - 1 else ""
            cells.append(
                f'<div class="bar-seg{last}" '
                f'style="width:{width:.2f}%;background:var({color})" '
                f'title="{_esc(name)}: {value:,.1f} s"></div>'
            )
        parts.append(
            '<div class="bar-row">'
            f'<div class="bar-label">{_esc(label)}</div>'
            f'<div class="bar-track">{"".join(cells)}</div>'
            f'<div class="bar-value">{total:,.1f} s</div>'
            "</div>"
        )
    return "".join(parts)


def _legend(entries: list[tuple[str, str]]) -> str:
    spans = [
        f'<span><span class="swatch" style="background:var({color})"></span>'
        f"{_esc(label)}</span>"
        for label, color in entries
    ]
    return f'<div class="legend">{"".join(spans)}</div>'


def _percentile_table(digests: dict) -> str:
    rows = []
    for name, payload in sorted(digests.items()):
        p = _digest_percentiles(payload)
        rows.append(
            f"<tr><td>{_esc(name)}</td><td class=n>{p['count']:,}</td>"
            f"<td class=n>{_esc(_num(p['p50']))}</td>"
            f"<td class=n>{_esc(_num(p['p95']))}</td>"
            f"<td class=n>{_esc(_num(p['p99']))}</td></tr>"
        )
    return (
        "<table><thead><tr><th>digest</th><th class=n>n</th>"
        "<th class=n>p50 (s)</th><th class=n>p95 (s)</th><th class=n>p99 (s)</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def run_report_html(summary: dict) -> str:
    """Render one run summary as a self-contained dashboard page."""
    if summary.get("schema") != RUN_SUMMARY_SCHEMA:
        raise ValueError(f"not a run summary: schema {summary.get('schema')!r}")
    scheduler = summary.get("scheduler", "?")
    seed = summary.get("seed")
    breakdown = summary.get("breakdown", {})
    audit = summary.get("audit")
    path = summary.get("critical_path", {})
    sections = []

    subtitle = f"{scheduler} scheduler"
    if seed is not None:
        subtitle += f", seed {seed}"
    failed = summary.get("failed_nodes") or []
    if failed:
        subtitle += f", failed node(s) {', '.join(str(n) for n in failed)}"
    sections.append(
        f"<h1>Run analysis</h1><p class=subtitle>{_esc(subtitle)}</p>"
        '<div class="card"><div class="hero-label">Makespan</div>'
        f'<div class="hero">{_esc(_seconds(summary.get("makespan_s")))}</div></div>'
    )

    degraded = breakdown.get("degraded", {})
    tiles = [
        _tile("Jobs", f"{len(summary.get('jobs', {})):,}"),
        _tile("Tasks", f"{summary.get('tasks', 0):,}"),
        _tile("Degraded tasks", f"{degraded.get('tasks', 0):,}"),
    ]
    if audit:
        tiles.append(_tile("Locality rate", _rate_text(audit.get("locality_rate"))))
        tiles.append(_tile("Degraded rate", _rate_text(audit.get("degraded_rate"))))
    sections.append(f'<div class="tiles">{"".join(tiles)}</div>')

    bar_rows = []
    table_rows = []
    for label in (*_CATEGORIES, "reduce"):
        row = breakdown.get(label)
        if not row or not row.get("tasks"):
            continue
        bar_rows.append(
            (
                label,
                [
                    ("read", row.get("read_s", 0.0), "--series-1"),
                    ("compute", row.get("compute_s", 0.0), "--series-2"),
                ],
            )
        )
        mean = row.get("mean_s")
        table_rows.append(
            f"<tr><td>{_esc(label)}</td><td class=n>{row['tasks']:,}</td>"
            f"<td class=n>{row['read_s']:,.1f}</td>"
            f"<td class=n>{row['compute_s']:,.1f}</td>"
            f"<td class=n>{row['total_s']:,.1f}</td>"
            f"<td class=n>{_esc(_num(mean))}</td></tr>"
        )
    sections.append(
        '<div class="card"><h2>Task-time breakdown</h2>'
        + _legend([("read", "--series-1"), ("compute", "--series-2")])
        + _stacked_bars(bar_rows)
        + "<table><thead><tr><th>category</th><th class=n>tasks</th>"
        "<th class=n>read (s)</th><th class=n>compute (s)</th>"
        "<th class=n>total (s)</th><th class=n>mean (s)</th></tr></thead>"
        f"<tbody>{''.join(table_rows)}</tbody></table></div>"
    )

    steps = path.get("steps", [])
    coverage = path.get("coverage", 0.0)
    step_rows = [
        f"<tr><td>{_esc(step.get('edge'))}</td><td class=n>{step.get('job')}</td>"
        f"<td>{_esc(step.get('kind'))}</td>"
        f"<td>{_esc(step.get('category') or '-')}</td>"
        f"<td class=n>{step.get('node')}</td>"
        f"<td class=n>{step.get('launch', 0.0):,.1f}</td>"
        f"<td class=n>{step.get('finish', 0.0):,.1f}</td>"
        f"<td class=n>{step.get('read_s', 0.0):,.1f}</td>"
        f"<td class=n>{step.get('compute_s', 0.0):,.1f}</td></tr>"
        for step in steps
    ]
    sections.append(
        f'<div class="card"><h2>Critical path &mdash; {len(steps)} step(s), '
        f"{100.0 * coverage:.0f}% of makespan</h2>"
        "<table><thead><tr><th>edge</th><th class=n>job</th><th>kind</th>"
        "<th>category</th><th class=n>node</th><th class=n>launch</th>"
        "<th class=n>finish</th><th class=n>read (s)</th>"
        "<th class=n>compute (s)</th></tr></thead>"
        f"<tbody>{''.join(step_rows)}</tbody></table></div>"
    )

    if audit:
        assigned = audit.get("assigned", {})
        skipped = audit.get("skipped", {})
        guard = audit.get("guard", {})
        audit_rows = [
            f"<tr><td>assign</td><td>{_esc(category)}</td>"
            f"<td class=n>{count:,}</td></tr>"
            for category, count in assigned.items()
            if count
        ] + [
            f"<tr><td>skip</td><td>{_esc(reason)}</td><td class=n>{count:,}</td></tr>"
            for reason, count in sorted(skipped.items())
        ]
        sections.append(
            f'<div class="card"><h2>Scheduler decisions '
            f"({_esc(audit.get('scheduler', '?'))})</h2>"
            "<table><thead><tr><th>action</th><th>category / reason</th>"
            f"<th class=n>count</th></tr></thead><tbody>{''.join(audit_rows)}"
            "</tbody></table>"
            f'<p class="muted">EDF guard: {guard.get("admitted", 0)} admitted, '
            f"{guard.get('slave_rejected', 0)} slave-rejected, "
            f"{guard.get('rack_rejected', 0)} rack-rejected; "
            f"{audit.get('pacing_deferrals', 0)} pacing deferral(s).</p></div>"
        )

    digests = summary.get("digests", {})
    if digests:
        sections.append(
            '<div class="card"><h2>Latency digests</h2>'
            + _percentile_table(digests)
            + "</div>"
        )

    counts = summary.get("event_counts", {})
    if counts:
        count_rows = [
            f"<tr><td>{_esc(kind)}</td><td class=n>{count:,}</td></tr>"
            for kind, count in sorted(counts.items())
        ]
        sections.append(
            '<div class="card"><h2>Events by kind</h2>'
            "<table><thead><tr><th>kind</th><th class=n>count</th></tr></thead>"
            f"<tbody>{''.join(count_rows)}</tbody></table></div>"
        )

    return _page(f"Run analysis — {scheduler}", "".join(sections))


def _rate_text(value) -> str:
    return "n/a" if value is None else f"{100.0 * value:.0f}%"


def campaign_report_html(report: dict) -> str:
    """Render one reliability-campaign report as a dashboard page."""
    if report.get("schema") != CAMPAIGN_SCHEMA:
        raise ValueError(f"not a campaign report: schema {report.get('schema')!r}")
    config = report.get("config", {})
    availability = report.get("availability", {})
    backlog = availability.get("backlog", {})
    cluster = config.get("cluster", {})
    sections = []

    year = 365.25 * 24 * 3600.0
    horizon_years = config.get("horizon", 0.0) / year
    subtitle = (
        f"{config.get('model', {}).get('kind', '?')} failures, "
        f"{config.get('arrivals', {}).get('kind', '?')} arrivals, "
        f"{horizon_years:.2f} simulated year(s) × "
        f"{config.get('iterations', '?')} iteration(s), seed {config.get('seed')}"
    )
    durability = availability.get("durability")
    sections.append(
        f"<h1>Reliability campaign</h1><p class=subtitle>{_esc(subtitle)}</p>"
        '<div class="card"><div class="hero-label">Durability</div>'
        '<div class="hero">'
        + (_esc(f"{durability:.9f}") if durability is not None else "n/a")
        + "</div></div>"
    )

    if availability.get("censored"):
        bound = availability.get("mttdl_lower_bound")
        mttdl = f"≥ {bound / year:.2f} yr" if bound else "n/a"
    else:
        mttdl = (
            f"{availability['mttdl'] / year:.3f} yr"
            if availability.get("mttdl")
            else "n/a"
        )
    tiles = [
        _tile("MTTDL", mttdl),
        _tile("Loss events", f"{availability.get('loss_events', 0):,}"),
        _tile("Blocks repaired", f"{availability.get('blocks_repaired', 0):,}"),
        _tile("Backlog peak", f"{backlog.get('peak', 0):,}"),
        _tile(
            "Backlog",
            ("bounded" if backlog.get("bounded") else "UNBOUNDED")
            + (", drained" if backlog.get("drained") else ""),
        ),
    ]
    sections.append(f'<div class="tiles">{"".join(tiles)}</div>')

    policies = report.get("policies", {})
    bar_rows = []
    policy_rows = []
    for policy, row in policies.items():
        latency = row.get("degraded_read_seconds", {})
        jobs = row.get("jobs", {})
        sojourn = row.get("sojourn", {})
        p99 = latency.get("p99")
        if p99 is not None:
            bar_rows.append((policy, [("degraded p99", p99, "--series-1")]))
        stability = row.get("stability", "?")
        stability_cell = (
            f'<span class="bad">{_esc(stability)}</span>'
            if stability == "saturated"
            else f'<span class="ok">{_esc(stability)}</span>'
            if stability == "stable"
            else _esc(stability)
        )
        policy_rows.append(
            f"<tr><td>{_esc(policy)}</td>"
            f"<td class=n>{latency.get('count', 0):,}</td>"
            f"<td class=n>{_esc(_num(latency.get('p50')))}</td>"
            f"<td class=n>{_esc(_num(latency.get('p95')))}</td>"
            f"<td class=n>{_esc(_num(p99))}</td>"
            f"<td class=n>{jobs.get('completed', 0):,}/{jobs.get('submitted', 0):,}</td>"
            f"<td class=n>{_esc(_num(sojourn.get('mean')))}</td>"
            f"<td>{stability_cell}</td>"
            f"<td class=n>{row.get('data_loss_windows', 0):,}</td></tr>"
        )
    sections.append(
        '<div class="card"><h2>Degraded-read p99 by policy</h2>'
        + _stacked_bars(bar_rows)
        + "<table><thead><tr><th>policy</th><th class=n>reads</th>"
        "<th class=n>p50 (s)</th><th class=n>p95 (s)</th><th class=n>p99 (s)</th>"
        "<th class=n>jobs</th><th class=n>sojourn mean (s)</th>"
        "<th>stability</th><th class=n>loss windows</th></tr></thead>"
        f"<tbody>{''.join(policy_rows)}</tbody></table></div>"
    )

    telemetry_sections = []
    for policy, row in policies.items():
        telemetry = row.get("telemetry")
        if telemetry:
            telemetry_sections.append(
                f"<h2>{_esc(policy)} digests</h2>" + _percentile_table(telemetry)
            )
    if telemetry_sections:
        sections.append('<div class="card">' + "".join(telemetry_sections) + "</div>")

    windows = report.get("windows", [])
    if windows:
        window_rows = [
            f"<tr><td class=n>{index}</td>"
            f"<td class=n>{window.get('start', 0.0):,.0f}</td>"
            f"<td class=n>{window.get('duration', 0.0):,.0f}</td>"
            f"<td class=n>{window.get('events', 0):,}</td>"
            f"<td class=n>{window.get('jobs', 0):,}</td></tr>"
            for index, window in enumerate(windows)
        ]
        sections.append(
            '<div class="card"><h2>Windows</h2>'
            "<table><thead><tr><th class=n>#</th><th class=n>start (s)</th>"
            "<th class=n>duration (s)</th><th class=n>fault events</th>"
            "<th class=n>jobs</th></tr></thead>"
            f"<tbody>{''.join(window_rows)}</tbody></table></div>"
        )

    cluster_note = (
        f"{cluster.get('num_nodes', '?')} nodes, "
        f"({cluster.get('code', ['?', '?'])[0]},{cluster.get('code', ['?', '?'])[1]}) "
        f"code, {cluster.get('num_stripes', '?')} stripes"
    )
    sections.append(f'<p class="muted">{_esc(cluster_note)}</p>')
    return _page("Reliability campaign", "".join(sections))


def tournament_report_html(report: dict) -> str:
    """Render one policy-tournament report as a leaderboard dashboard."""
    if report.get("schema") != TOURNAMENT_SCHEMA:
        raise ValueError(f"not a tournament report: schema {report.get('schema')!r}")
    spec = report.get("tournament", {})
    accounting = report.get("accounting", {})
    leaderboard = report.get("leaderboard", [])
    policies = report.get("policies", {})
    sections = []

    scenario_names = [entry.get("name", "?") for entry in spec.get("scenarios", [])]
    subtitle = (
        f"{len(spec.get('policies', []))} policies × "
        f"{len(scenario_names)} scenario(s) × {len(spec.get('seeds', []))} seed(s)"
    )
    winner = leaderboard[0]["policy"] if leaderboard else "n/a"
    sections.append(
        f"<h1>Policy tournament</h1><p class=subtitle>{_esc(subtitle)}</p>"
        '<div class="card"><div class="hero-label">Winner (lowest mean makespan)</div>'
        f'<div class="hero">{_esc(winner)}</div></div>'
    )

    tiles = [
        _tile("Trials", f"{accounting.get('submitted', 0):,}"),
        _tile("Done", f"{accounting.get('done', 0):,}"),
        _tile("Failed", f"{accounting.get('failed', 0):,}"),
        _tile("Quarantined", f"{accounting.get('quarantined', 0):,}"),
    ]
    sections.append(f'<div class="tiles">{"".join(tiles)}</div>')

    bar_rows = []
    ranking_rows = []
    for entry in leaderboard:
        mean = entry.get("makespan_mean_s")
        if mean is not None:
            bar_rows.append(
                (entry["policy"], [("makespan mean", mean, "--series-1")])
            )
        ranking_rows.append(
            f"<tr><td class=n>{entry.get('rank')}</td>"
            f"<td>{_esc(entry.get('policy', '?'))}</td>"
            f"<td class=n>{_esc(_num(mean))}</td>"
            f"<td class=n>{_esc(_num(entry.get('makespan_p50_s')))}</td>"
            f"<td class=n>{_esc(_num(entry.get('degraded_p99_s')))}</td>"
            f"<td class=n>{entry.get('jobs_completed', 0):,}</td>"
            f"<td class=n>{entry.get('trials_done', 0):,}</td>"
            f"<td class=n>{entry.get('refused', 0):,}</td></tr>"
        )
    sections.append(
        '<div class="card"><h2>Leaderboard</h2>'
        + _stacked_bars(bar_rows)
        + "<table><thead><tr><th class=n>rank</th><th>policy</th>"
        "<th class=n>makespan mean (s)</th><th class=n>makespan p50 (s)</th>"
        "<th class=n>degraded p99 (s)</th><th class=n>jobs done</th>"
        "<th class=n>trials</th><th class=n>refused</th></tr></thead>"
        f"<tbody>{''.join(ranking_rows)}</tbody></table></div>"
    )

    telemetry_sections = []
    for policy in sorted(policies):
        telemetry = policies[policy].get("telemetry")
        if telemetry:
            telemetry_sections.append(
                f"<h2>{_esc(policy)} digests</h2>" + _percentile_table(telemetry)
            )
    if telemetry_sections:
        sections.append('<div class="card">' + "".join(telemetry_sections) + "</div>")

    failures = report.get("failures", [])
    if failures:
        failure_rows = [
            f"<tr><td class=n>{failure.get('index')}</td>"
            f"<td>{_esc(failure.get('kind', '?'))}</td>"
            f"<td class=n>{failure.get('attempts', 0)}</td>"
            f"<td>{_esc(failure.get('message', ''))}</td></tr>"
            for failure in failures
        ]
        sections.append(
            '<div class="card"><h2>Failures</h2>'
            "<table><thead><tr><th class=n>trial</th><th>kind</th>"
            "<th class=n>attempts</th><th>message</th></tr></thead>"
            f"<tbody>{''.join(failure_rows)}</tbody></table></div>"
        )

    sections.append(
        f'<p class="muted">scenarios: {_esc(", ".join(scenario_names))}</p>'
    )
    return _page("Policy tournament", "".join(sections))


def report_html(document: dict) -> str:
    """Render whichever analysis document this is (dispatch on schema)."""
    schema = document.get("schema")
    if schema == RUN_SUMMARY_SCHEMA:
        return run_report_html(document)
    if schema == CAMPAIGN_SCHEMA:
        return campaign_report_html(document)
    if schema == TOURNAMENT_SCHEMA:
        return tournament_report_html(document)
    raise ValueError(f"unrecognised analysis document schema: {schema!r}")
