"""The run explorer: one self-contained HTML page per recorded run.

:func:`render_report` turns a :class:`~taureau.obs.record.RunArtifact`
into a single HTML document with zero external references — no CDN
scripts, no stylesheets, no fonts, no network access of any kind.  The
artifact JSON is inlined into a ``<script type="application/json">``
block and a fixed vanilla-JS payload renders it client-side:

* a **time explorer** — every sampled series as a scrubbable sparkline
  lane (queue depth, warm pool, cold fraction, per-topic backlog, SLO
  error-ratio / budget / burn-rate), with overlay lanes marking chaos
  faults, control actuations, alert events and breaker transitions on
  the shared virtual-time axis;
* a **trace timeline** — per-trace span bars with critical-path
  highlighting and a span inspector;
* a **topology panel** — machines, Pulsar brokers/bookies, Jiffy memory
  nodes, wired services and deployed functions, dead components marked;
* an **icicle flamegraph** over the folded profile, click-to-zoom;
* **cost tables** per function and per tenant.

Byte-stability contract: the page is ``TEMPLATE.replace(marker, json)``
where the JSON is the artifact's canonical encoding — so two same-seed
runs render byte-identical HTML.  The ``report`` scenario of
``tests/test_golden.py`` checks both properties (stability and
self-containedness).
"""

from __future__ import annotations

import json

from taureau.obs.record import ARTIFACT_VERSION, ArtifactVersionError

__all__ = ["render_report"]

_DATA_MARKER = "__TAUREAU_DATA__"


def render_report(artifact) -> str:
    """``artifact`` (a ``RunArtifact`` or its data dict) as HTML text."""
    data = getattr(artifact, "data", artifact)
    version = data.get("artifact_version") if isinstance(data, dict) else None
    if version != ARTIFACT_VERSION:
        raise ArtifactVersionError(
            f"artifact version {version!r} does not match this "
            f"renderer's version {ARTIFACT_VERSION}"
        )
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    # "</" would terminate the inline <script> block early; the JSON
    # escape "<\/" is byte-stable and decodes identically.
    payload = payload.replace("</", "<\\/")
    return _TEMPLATE.replace(_DATA_MARKER, payload)


_TEMPLATE = r"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>taureau run explorer</title>
<style>
:root {
  --bg: #11141a; --panel: #191e27; --ink: #d8dee9; --dim: #7b8496;
  --line: #2b3646; --accent: #e8a33d; --crit: #e05555;
  --ok: #6fbf73; --warn: #e8a33d; --bad: #e05555; --lane: #283040;
}
* { box-sizing: border-box; }
body {
  margin: 0; background: #11141a; color: #d8dee9;
  font: 13px/1.45 "SFMono-Regular", Consolas, Menlo, monospace;
}
header {
  padding: 14px 20px; border-bottom: 1px solid #283040;
  display: flex; align-items: baseline; gap: 16px; flex-wrap: wrap;
}
header h1 { font-size: 16px; margin: 0; color: #e8a33d; }
.chip {
  background: #191e27; border: 1px solid #283040; border-radius: 4px;
  padding: 2px 8px; color: #7b8496;
}
.chip b { color: #d8dee9; font-weight: 600; }
main { padding: 12px 20px 60px; max-width: 1280px; margin: 0 auto; }
section { margin: 22px 0; }
h2 {
  font-size: 13px; text-transform: uppercase; letter-spacing: 1.5px;
  color: #7b8496; border-bottom: 1px solid #283040; padding-bottom: 4px;
}
.panel { background: #191e27; border: 1px solid #283040;
  border-radius: 6px; padding: 10px 12px; }
.lane { display: flex; align-items: center; gap: 8px; margin: 2px 0; }
.lane .name { width: 320px; color: #7b8496; overflow: hidden;
  text-overflow: ellipsis; white-space: nowrap; flex: none; }
.lane .val { width: 90px; text-align: right; color: #e8a33d; flex: none; }
.lane svg { flex: 1 1 auto; display: block; background: #11141a;
  border: 1px solid #232a38; border-radius: 3px; }
#scrub { width: 100%; margin: 10px 0 2px; }
#scrub-time { color: #e8a33d; }
.evlane text { fill: #7b8496; font-size: 10px; }
#event-log { max-height: 160px; overflow-y: auto; margin-top: 8px;
  border-top: 1px dashed #283040; padding-top: 6px; color: #9aa3b5; }
#event-log .t { color: #7b8496; }
#event-log .k-fault { color: #e05555; }
#event-log .k-action { color: #6fbf73; }
#event-log .k-alert { color: #e8a33d; }
#event-log .k-breaker { color: #c792ea; }
select { background: #191e27; color: #d8dee9; border: 1px solid #283040;
  border-radius: 4px; padding: 3px 6px; font: inherit; }
.spanrow { display: flex; align-items: center; gap: 8px; margin: 1px 0; }
.spanrow .sname { width: 340px; color: #9aa3b5; overflow: hidden;
  text-overflow: ellipsis; white-space: nowrap; flex: none; }
.spanbar { position: relative; flex: 1 1 auto; height: 14px;
  background: #11141a; border-radius: 2px; }
.spanbar i { position: absolute; top: 2px; bottom: 2px;
  background: #4a6fa5; border-radius: 2px; min-width: 2px; cursor: pointer; }
.spanbar i.crit { background: #e05555; }
.spanbar i.err { outline: 1px solid #e8a33d; }
#span-detail { margin-top: 8px; white-space: pre-wrap; color: #9aa3b5;
  border-top: 1px dashed #283040; padding-top: 6px; }
.topo { display: flex; gap: 24px; flex-wrap: wrap; }
.topo .col h3 { font-size: 12px; color: #7b8496; margin: 4px 0; }
.node {
  display: inline-block; margin: 2px; padding: 3px 8px;
  background: #232a38; border: 1px solid #32405a; border-radius: 4px;
}
.node.dead { background: #3a2026; border-color: #e05555;
  color: #e05555; text-decoration: line-through; }
#flame { line-height: 0; }
#flame .frame { display: inline-block; height: 18px; overflow: hidden;
  font-size: 10px; line-height: 18px; color: #11141a; cursor: pointer;
  border-right: 1px solid #11141a; white-space: nowrap;
  vertical-align: top; }
#flame .frow { white-space: nowrap; }
#flame-note { color: #7b8496; margin: 6px 0; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { border: 1px solid #283040; padding: 3px 10px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { color: #7b8496; font-weight: 600; }
.cursor-line { stroke: #e8a33d; stroke-width: 1; }
.empty { color: #7b8496; font-style: italic; }
</style>
</head>
<body>
<header>
  <h1>taureau run explorer</h1>
  <span class="chip">seed <b id="h-seed"></b></span>
  <span class="chip">virtual end <b id="h-end"></b></span>
  <span class="chip">config <b id="h-digest"></b></span>
  <span class="chip">cadence <b id="h-interval"></b></span>
  <span class="chip">samples <b id="h-samples"></b></span>
  <span class="chip">artifact v<b id="h-version"></b></span>
</header>
<main>
<section id="time-section">
  <h2>Time explorer</h2>
  <div class="panel">
    <div id="event-lanes"></div>
    <div id="series-lanes"></div>
    <input id="scrub" type="range" min="0" max="0" value="0">
    <div>t = <span id="scrub-time">-</span> s (drag to replay the run)</div>
    <div id="event-log"></div>
  </div>
</section>
<section id="trace-section">
  <h2>Trace timeline</h2>
  <div class="panel">
    <div><label>trace <select id="trace-pick"></select></label>
      <span class="chip">critical path highlighted in
        <b style="color:#e05555">red</b></span></div>
    <div id="trace-view"></div>
    <div id="span-detail">click a span for details</div>
  </div>
</section>
<section id="topo-section">
  <h2>Topology</h2>
  <div class="panel topo" id="topo"></div>
</section>
<section id="flame-section">
  <h2>Flamegraph</h2>
  <div class="panel">
    <div id="flame-note">click a frame to zoom; click the root to reset</div>
    <div id="flame"></div>
  </div>
</section>
<section id="cost-section">
  <h2>Cost</h2>
  <div class="panel" id="cost"></div>
</section>
</main>
<script id="taureau-data" type="application/json">__TAUREAU_DATA__</script>
<script>
"use strict";
var DATA = JSON.parse(document.getElementById("taureau-data").textContent);
var TIMES = DATA.samples.times;
var SERIES = DATA.samples.series;
var W = 700, H = 26;

function esc(s) {
  return String(s).replace(/&/g, "&amp;").replace(/</g, "&lt;")
    .replace(/>/g, "&gt;").replace(/"/g, "&quot;");
}
function fmt(v) {
  if (v === null || v === undefined) { return "-"; }
  if (typeof v !== "number") { return String(v); }
  if (Number.isInteger(v)) { return String(v); }
  var a = Math.abs(v);
  return v.toFixed(a >= 100 ? 1 : a >= 1 ? 2 : 4);
}
function byId(id) { return document.getElementById(id); }

/* ---- header ---- */
byId("h-seed").textContent = DATA.run_info.seed;
byId("h-end").textContent = fmt(DATA.run_info.virtual_time_s) + "s";
byId("h-digest").textContent = DATA.run_info.config_digest;
byId("h-interval").textContent = fmt(DATA.interval_s) + "s";
byId("h-samples").textContent = TIMES.length;
byId("h-version").textContent = DATA.artifact_version;

/* ---- time axis ---- */
var T0 = TIMES.length ? TIMES[0] : 0;
var T1 = TIMES.length ? TIMES[TIMES.length - 1] : 1;
if (T1 <= T0) { T1 = T0 + 1; }
function tx(t) { return ((t - T0) / (T1 - T0)) * W; }

/* ---- event overlay lanes ---- */
var EVENT_KINDS = [
  ["faults", "fault", "#e05555",
    function (e) { return e.kind + " " + e.target + " - " + e.detail; }],
  ["actions", "action", "#6fbf73",
    function (e) { return e.policy + ": " + e.verb + " " + e.function +
      (e.value === null ? "" : " = " + fmt(e.value)); }],
  ["alerts", "alert", "#e8a33d",
    function (e) { return e.kind + " " + e.name + " [" + e.severity + "]"; }],
  ["breakers", "breaker", "#c792ea",
    function (e) { return e.function + ": " + e.from + " to " + e.to; }]
];
var ALL_EVENTS = [];
(function renderEventLanes() {
  var html = "";
  EVENT_KINDS.forEach(function (spec) {
    var key = spec[0], label = spec[1], color = spec[2], describe = spec[3];
    var events = DATA.events[key] || [];
    events.forEach(function (e) {
      ALL_EVENTS.push({ time: e.time, kind: label, text: describe(e) });
    });
    var marks = events.map(function (e) {
      return '<line x1="' + tx(e.time).toFixed(2) + '" y1="3" x2="' +
        tx(e.time).toFixed(2) + '" y2="15" stroke="' + color +
        '" stroke-width="2"><title>' + esc("t=" + fmt(e.time) + "s " +
        describe(e)) + "</title></line>";
    }).join("");
    html += '<div class="lane"><span class="name">' + label + " (" +
      events.length + ')</span><span class="val"></span>' +
      '<svg class="evlane" viewBox="0 0 ' + W + ' 18" height="18">' +
      marks + '<line class="cursor-line cursor" x1="0" y1="0" x2="0" y2="18"/>' +
      "</svg></div>";
  });
  byId("event-lanes").innerHTML = html;
})();
ALL_EVENTS.sort(function (a, b) { return a.time - b.time; });

/* ---- series sparkline lanes ---- */
var LANES = [];
(function renderSeriesLanes() {
  var names = Object.keys(SERIES);
  if (!names.length) {
    byId("series-lanes").innerHTML =
      '<div class="empty">no samples recorded</div>';
    return;
  }
  var html = names.map(function (name, i) {
    var values = SERIES[name];
    var lo = Math.min.apply(null, values), hi = Math.max.apply(null, values);
    if (hi <= lo) { hi = lo + 1; }
    var pts = values.map(function (v, j) {
      var x = TIMES.length > 1 ? (j / (TIMES.length - 1)) * W : 0;
      var y = H - 3 - ((v - lo) / (hi - lo)) * (H - 6);
      return x.toFixed(2) + "," + y.toFixed(2);
    }).join(" ");
    return '<div class="lane"><span class="name" title="' + esc(name) +
      '">' + esc(name) + '</span><span class="val" id="lv' + i +
      '"></span><svg viewBox="0 0 ' + W + " " + H + '" height="' + H +
      '"><polyline fill="none" stroke="#4a6fa5" stroke-width="1.2" points="' +
      pts + '"/><line class="cursor-line cursor" x1="0" y1="0" x2="0" y2="' +
      H + '"/></svg></div>';
  }).join("");
  byId("series-lanes").innerHTML = html;
  names.forEach(function (name, i) {
    LANES.push({ values: SERIES[name], val: byId("lv" + i) });
  });
})();

/* ---- scrubber ---- */
var scrub = byId("scrub");
scrub.max = Math.max(0, TIMES.length - 1);
function setCursor(index) {
  var t = TIMES.length ? TIMES[index] : 0;
  byId("scrub-time").textContent = fmt(t);
  var x = TIMES.length > 1 ? (index / (TIMES.length - 1)) * W : 0;
  var cursors = document.querySelectorAll(".cursor");
  for (var c = 0; c < cursors.length; c++) {
    cursors[c].setAttribute("x1", x.toFixed(2));
    cursors[c].setAttribute("x2", x.toFixed(2));
  }
  LANES.forEach(function (lane) {
    lane.val.textContent = fmt(lane.values[index]);
  });
  var visible = ALL_EVENTS.filter(function (e) { return e.time <= t; });
  var tail = visible.slice(-12).reverse();
  byId("event-log").innerHTML = tail.length
    ? tail.map(function (e) {
        return '<div><span class="t">' + fmt(e.time) +
          's</span> <span class="k-' + e.kind + '">[' + e.kind + "]</span> " +
          esc(e.text) + "</div>";
      }).join("")
    : '<div class="empty">no events at or before the cursor</div>';
}
scrub.addEventListener("input", function () { setCursor(+scrub.value); });
setCursor(TIMES.length ? TIMES.length - 1 : 0);
scrub.value = scrub.max;

/* ---- trace timeline ---- */
(function renderTraces() {
  var pick = byId("trace-pick");
  if (!DATA.traces.length) {
    byId("trace-view").innerHTML =
      '<div class="empty">no traces recorded</div>';
    pick.disabled = true;
    return;
  }
  DATA.traces.forEach(function (trace, i) {
    var root = trace.spans.length ? trace.spans[0] : null;
    var dur = root && root.end !== null ? root.end - root.start : 0;
    var opt = document.createElement("option");
    opt.value = i;
    opt.textContent = trace.trace_id.slice(0, 12) + " " +
      (root ? root.name : "?") + " (" + fmt(dur) + "s, " +
      trace.spans.length + " spans)";
    pick.appendChild(opt);
  });
  function show(index) {
    var trace = DATA.traces[index];
    var crit = {};
    trace.critical_path.forEach(function (id) { crit[id] = true; });
    var s0 = Infinity, s1 = -Infinity;
    trace.spans.forEach(function (s) {
      s0 = Math.min(s0, s.start);
      s1 = Math.max(s1, s.end === null ? s.start : s.end);
    });
    if (s1 <= s0) { s1 = s0 + 1e-9; }
    var depth = {};
    trace.spans.forEach(function (s) {
      depth[s.id] = s.parent && depth[s.parent] !== undefined
        ? depth[s.parent] + 1 : 0;
    });
    byId("trace-view").innerHTML = trace.spans.map(function (s, i) {
      var left = ((s.start - s0) / (s1 - s0)) * 100;
      var end = s.end === null ? s1 : s.end;
      var width = Math.max(((end - s.start) / (s1 - s0)) * 100, 0.15);
      var cls = (crit[s.id] ? "crit " : "") +
        (s.status !== "ok" ? "err" : "");
      var pad = new Array((depth[s.id] || 0) + 1).join("  ");
      return '<div class="spanrow"><span class="sname">' + pad +
        esc(s.name) + '</span><span class="spanbar"><i class="' + cls +
        '" data-i="' + i + '" style="left:' + left.toFixed(3) +
        "%;width:" + width.toFixed(3) + '%" title="' +
        esc(s.name + " " + fmt(end - s.start) + "s") + '"></i></span></div>';
    }).join("");
    var bars = byId("trace-view").querySelectorAll("i[data-i]");
    for (var b = 0; b < bars.length; b++) {
      bars[b].addEventListener("click", function () {
        var s = trace.spans[+this.getAttribute("data-i")];
        byId("span-detail").textContent =
          s.name + "\n  span " + s.id + " parent " + (s.parent || "-") +
          "\n  " + fmt(s.start) + "s to " + fmt(s.end) + "s (" +
          fmt((s.end === null ? s.start : s.end) - s.start) + "s) status " +
          s.status + (crit[s.id] ? "  [on critical path]" : "") +
          "\n  attrs " + JSON.stringify(s.attrs);
      });
    }
  }
  pick.addEventListener("change", function () { show(+pick.value); });
  show(0);
})();

/* ---- topology ---- */
(function renderTopology() {
  var topo = DATA.topology;
  function col(title, items, render) {
    if (!items.length) { return ""; }
    return '<div class="col"><h3>' + title + " (" + items.length +
      ")</h3>" + items.map(render).join("") + "</div>";
  }
  function chip(label, alive) {
    return '<span class="node' + (alive === false ? " dead" : "") + '">' +
      esc(label) + "</span>";
  }
  var html =
    col("machines", topo.machines, function (m) { return chip(m, true); }) +
    col("brokers", topo.brokers,
      function (b) { return chip(b.id, b.alive); }) +
    col("bookies", topo.bookies,
      function (b) { return chip(b.id, b.alive); }) +
    col("jiffy nodes", topo.jiffy_nodes,
      function (n) { return chip(n.id, n.alive); }) +
    col("services", topo.services, function (s) { return chip(s, true); }) +
    col("functions", topo.functions, function (f) { return chip(f, true); });
  byId("topo").innerHTML =
    html || '<div class="empty">idealized elastic backend (no topology)</div>';
})();

/* ---- flamegraph (icicle, click to zoom) ---- */
(function renderFlame() {
  var folds = DATA.flamegraph;
  if (!folds.length) {
    byId("flame").innerHTML = '<div class="empty">no profile recorded</div>';
    return;
  }
  var root = { name: "all", value: 0, children: {} };
  folds.forEach(function (line) {
    var at = line.lastIndexOf(" ");
    var frames = line.slice(0, at).split(";");
    var value = parseFloat(line.slice(at + 1));
    root.value += value;
    var node = root;
    frames.forEach(function (frame) {
      if (!node.children[frame]) {
        node.children[frame] = { name: frame, value: 0, children: {} };
      }
      node = node.children[frame];
      node.value += value;
    });
  });
  var PALETTE = ["#e8a33d", "#d98a3a", "#c97737", "#e0b45c", "#d9985a"];
  var zoom = root;
  function draw() {
    var rows = [];
    function place(node, d, offset, scale) {
      if (!rows[d]) { rows[d] = []; }
      rows[d].push({ node: node, offset: offset, scale: scale });
      var at = offset;
      Object.keys(node.children).forEach(function (key) {
        var child = node.children[key];
        var share = (child.value / node.value) * scale;
        place(child, d + 1, at, share);
        at += share;
      });
    }
    place(zoom, 0, 0, 1);
    var html = rows.map(function (row, d) {
      var cells = [];
      var at = 0;
      row.forEach(function (cell) {
        if (cell.offset > at) {
          cells.push('<span class="frame" style="width:' +
            ((cell.offset - at) * 100).toFixed(3) +
            '%;visibility:hidden"></span>');
        }
        var color = PALETTE[(cell.node.name.length + d) % PALETTE.length];
        cells.push('<span class="frame" data-name="' + esc(cell.node.name) +
          '" style="width:' + (cell.scale * 100).toFixed(3) +
          "%;background:" + color + '" title="' +
          esc(cell.node.name + " " + fmt(cell.node.value) + "s") + '">' +
          esc(cell.node.name) + "</span>");
        at = cell.offset + cell.scale;
      });
      return '<div class="frow">' + cells.join("") + "</div>";
    }).join("");
    byId("flame").innerHTML = html;
    var frames = byId("flame").querySelectorAll(".frame[data-name]");
    for (var f = 0; f < frames.length; f++) {
      frames[f].addEventListener("click", function () {
        var name = this.getAttribute("data-name");
        zoom = name === zoom.name ? root : (findNode(zoom, name) || root);
        draw();
      });
    }
  }
  function findNode(node, name) {
    if (node.name === name) { return node; }
    var keys = Object.keys(node.children);
    for (var k = 0; k < keys.length; k++) {
      var hit = findNode(node.children[keys[k]], name);
      if (hit) { return hit; }
    }
    return null;
  }
  draw();
})();

/* ---- cost tables ---- */
(function renderCost() {
  function table(title, rows) {
    var keys = Object.keys(rows);
    if (!keys.length) { return ""; }
    return "<h3>" + title + "</h3><table><tr><th>" + title +
      "</th><th>requests</th><th>GB-s</th><th>cost (USD)</th></tr>" +
      keys.map(function (key) {
        var r = rows[key];
        return "<tr><td>" + esc(key) + "</td><td>" + fmt(r.requests) +
          "</td><td>" + fmt(r.gb_s) + "</td><td>" + fmt(r.cost_usd) +
          "</td></tr>";
      }).join("") + "</table>";
  }
  var html = table("function", DATA.cost.by_function) +
    table("tenant", DATA.cost.by_tenant);
  byId("cost").innerHTML =
    html || '<div class="empty">no cost recorded</div>';
})();
</script>
</body>
</html>
"""
