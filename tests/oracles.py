"""Independent reference implementations used to cross-check the package.

Everything in this module is written the slow, obvious way: dict
adjacency, per-element loops, textbook formulas, exact rational
arithmetic where rounding matters.  Nothing here imports awareflow, so a
bug in the package cannot hide in its own oracle.
"""

import datetime
import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------


def average_ranks(values):
    """1-based ranks, ties sharing the average of their positions."""
    values = list(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def spearman_rank_then_pearson(xs, ys):
    return pearson(average_ranks(xs), average_ranks(ys))


# ---------------------------------------------------------------------------
# graphs: neighbor fractions and the aware/unaware ratio
# ---------------------------------------------------------------------------


def neighbor_fraction_table(n_nodes, edges, aware):
    """node -> aware-neighbor fraction; degree-0 nodes are absent.

    ``aware`` is a set of node rows or a boolean mask over rows.
    """
    if isinstance(aware, np.ndarray) and aware.dtype == bool:
        aware = {int(v) for v in np.flatnonzero(aware)}
    else:
        aware = set(aware)
    adj = {v: set() for v in range(n_nodes)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = {}
    for v in range(n_nodes):
        if adj[v]:
            out[v] = sum(1 for w in adj[v] if w in aware) / len(adj[v])
    return out


def neighborhood_ratio_brute(n_nodes, edges, aware):
    """(value, numerator, denominator); None value when undefined."""
    if isinstance(aware, np.ndarray) and aware.dtype == bool:
        aware = {int(v) for v in np.flatnonzero(aware)}
    else:
        aware = set(aware)
    frac = neighbor_fraction_table(n_nodes, edges, aware)
    num_side = [frac[v] for v in frac if v in aware]
    den_side = [frac[v] for v in frac if v not in aware]
    if not num_side or not den_side:
        return None, None, None
    num = sum(num_side) / len(num_side)
    den = sum(den_side) / len(den_side)
    if den > 0:
        return num / den, num, den
    if num > 0:
        return math.inf, num, den
    return None, num, den


# ---------------------------------------------------------------------------
# shared-address clique inference
# ---------------------------------------------------------------------------

KIND_LAYER = {"home": "family", "school_dorm": "schoolmate", "company": "workmate"}


def clique_edges_scan(records, caps):
    """Edge sets per layer from (individual_id, address_id, kind, start, end)
    records: pairwise interval overlap within each address group, groups
    over the size cap dropped whole."""
    by_group = defaultdict(list)
    for iid, aid, kind, s, e in records:
        by_group[(kind, aid)].append((iid, s, e))
    edges = {layer: set() for layer in KIND_LAYER.values()}
    for (kind, _aid), members in by_group.items():
        ids = sorted({m[0] for m in members})
        if len(ids) < 2 or len(ids) > caps[kind]:
            continue
        overlap = all(
            a[1] <= b[2] and b[1] <= a[2]
            for i, a in enumerate(members)
            for b in members[i + 1 :]
        )
        if not overlap:
            continue
        for i, x in enumerate(ids):
            for y in ids[i + 1 :]:
                edges[KIND_LAYER[kind]].add((x, y))
    return edges


def edge_file_scan(data, ids):
    """Edge sets per layer of the bytes of an edge file, or the (line number,
    stripped line) of its first bad line.

    Lines end where text mode ends them ("\\n", "\\r\\n" or "\\r"), undecodable
    bytes read as U+FFFD, and fields are split at any whitespace.  A line
    is good when it is blank or names a known layer and two distinct ids
    of ``ids``.
    """
    known = {int(i) for i in ids}
    edges = {layer: set() for layer in KIND_LAYER.values()}
    text = data.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    for line_no, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            layer, a, b = fields[0], int(fields[1]), int(fields[2])
        except (IndexError, ValueError):
            return line_no, line.strip()
        if len(fields) != 3 or layer not in edges or a == b or not {a, b} <= known:
            return line_no, line.strip()
        edges[layer].add((min(a, b), max(a, b)))
    return edges


def tsv_file_scan(data, columns, header=True):
    """Parsed columns of the bytes of a TSV file (one list of cells per
    column), or the (line number, message) of its first bad line.

    Lines end where text mode ends them ("\\n", "\\r\\n" or "\\r"),
    undecodable bytes read as U+FFFD, and fields are split at tabs.  Each
    cell goes through its column's parse; one that raises ValueError or
    OverflowError is bad.
    """
    names = [name for name, _ in columns]
    text = data.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":  # the newline that ends the last line starts no line
        lines.pop()
    if header:
        found = lines.pop(0).split("\t") if lines else [""]
        if found != names:
            return 1, f"expected header {names}, found {found}"
    cells = [[] for _ in columns]
    for line_no, line in enumerate(lines, start=1 + header):
        fields = line.split("\t")
        if len(fields) != len(columns):
            return line_no, f"expected {len(columns)} fields, found {len(fields)}"
        for (name, parse), field, column in zip(columns, fields, cells):
            try:
                column.append(parse(field))
            except (ValueError, OverflowError):
                return line_no, f"bad {name} {field!r}"
    return cells


def jsonl_file_scan(data, fields):
    """The values of the bytes of a JSONL file of ``fields`` (key -> the
    values of the lines that carry the key, in line order), or the (line
    number, message) of its first bad line.

    The file must be UTF-8: else its first line with a byte that is not is
    bad.  Lines end where text mode ends them ("\\n", "\\r\\n" or "\\r")
    and blank ones are skipped.  Each other line is one ``json.loads`` of an
    object, whose keys are checked in field order by ``Field.problem``; a
    field with ``when`` only on the lines whose first field names that code.
    """
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    for line_no, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return line_no, "not valid UTF-8"
    values = {f.key: [] for f in fields}
    for line_no, line in enumerate(lines, start=1):
        line = line.decode("utf-8").strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an int with too many digits
            return line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}"
        except RecursionError:
            return line_no, "invalid JSON: nested too deeply"
        if not isinstance(obj, dict):
            return line_no, "expected a JSON object"
        for f in fields:
            if f.when is not None and fields[0].names.index(obj[fields[0].key]) != f.when:
                continue
            if f.key not in obj:
                return line_no, f"missing field {f.key!r}"
            problem = f.problem(obj[f.key])
            if problem:
                return line_no, f"{f.key} {problem}"
            values[f.key].append(obj[f.key])
    return values


def jsonl_values(fields, columns, pool):
    """read_jsonl's columns and text pool as jsonl_file_scan gives its values."""
    out = {}
    for f in fields:
        rows = slice(None) if f.when is None else columns[fields[0].column] == f.when
        values = [list(v) for v in zip(*(columns[c][rows].tolist() for c in f.columns))]
        if f.kind != "interval":
            values = [v for v, in values]
        if f.kind in ("enum", "text"):
            values = [(f.names or pool)[v] for v in values]
        elif f.kind == "counts":
            values = [list(v) for v in values]
        out[f.key] = values
    return out


def group_edges_scan(ids, groups):
    """{(lo_id, hi_id)} of every two distinct members sharing one of the
    row groups ``groups``."""
    edges = set()
    for members in groups:
        for a in members:
            for b in members:
                x, y = int(ids[a]), int(ids[b])
                if x < y:
                    edges.add((x, y))
    return edges


def graph_edge_sets(graph):
    """awareflow MultiplexGraph -> {layer: set of (lo_id, hi_id)}."""
    out = {}
    for name, layer in graph.layers.items():
        pairs = set()
        for a, b in layer.edges:
            x, y = int(graph.ids[a]), int(graph.ids[b])
            pairs.add((min(x, y), max(x, y)))
        out[name] = pairs
    return out


# ---------------------------------------------------------------------------
# phase segmentation by literal day-by-day threshold scan
# ---------------------------------------------------------------------------


def growth_rate_scan(series):
    """Relative day-over-day growth; None on day 0, inf for rise from 0."""
    rates = [None]
    for d in range(1, len(series)):
        prev, cur = series[d - 1], series[d]
        if prev > 0:
            rates.append((cur - prev) / prev)
        elif cur > 0:
            rates.append(math.inf)
        else:
            rates.append(0.0)
    return rates


def phase_scan(
    province_pct,
    national_pct,
    growth_high=1.0,
    national_begin=1e-5,
    growth_peak=0.10,
    national_peak=1e-3,
    province_share=0.95,
    sustain_days=3,
):
    """Phase boundaries as {name: (start_day, end_day)} from the raw rules."""
    P = len(province_pct)
    D = len(national_pct)
    rates = [growth_rate_scan(p) for p in province_pct]

    def begins(d):
        hot = any(
            rates[p][d] is not None and rates[p][d] > growth_high for p in range(P)
        )
        return hot and national_pct[d] > national_begin

    def peaks(d):
        warm = sum(
            1
            for p in range(P)
            if rates[p][d] is not None and rates[p][d] > growth_peak
        )
        return warm / P > province_share and national_pct[d] > national_peak

    def cools(d):
        cool = sum(
            1
            for p in range(P)
            if rates[p][d] is not None and rates[p][d] < growth_peak
        )
        return cool / P > province_share

    b = next((d for d in range(D) if begins(d)), None)
    g = None
    if b is not None:
        g = next((d for d in range(b + 1, D) if begins(d)), None)
    pk = None
    if g is not None:
        pk = next((d for d in range(g + 1, D) if peaks(d)), None)
    pp = None
    if pk is not None:
        for d in range(pk + 1, D - sustain_days + 1):
            if all(cools(d + k) for k in range(sustain_days)):
                pp = d
                break

    bounds = [0, b, g, pk, pp, D]
    names = ("Normal", "Beginning", "Growth", "Peak", "PostPeak")
    out = {}
    for i, name in enumerate(names):
        start = bounds[i]
        if start is None:
            break
        nxt = next(v for v in bounds[i + 1 :] if v is not None)
        if nxt - 1 >= start:
            out[name] = (start, nxt - 1)
    return out


def two_province_fixture():
    """A 20-day, 2-province series engineered to cross each phase rule on
    a known day.  Returns (province_pct, national_pct, expected_bounds)."""
    count_a = [0, 0, 0, 0, 0, 2, 5, 12, 30, 70, 150, 350, 500, 600, 680, 700, 710, 715, 718, 720]
    count_b = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 30, 60, 90, 120, 125, 128, 130, 131, 132]
    size = 1000
    pct_a = [c / size for c in count_a]
    pct_b = [c / size for c in count_b]
    national = [(a + b) / (2 * size) for a, b in zip(count_a, count_b)]
    expected = {
        "Normal": (0, 4),
        "Beginning": (5, 5),
        "Growth": (6, 10),
        "Peak": (11, 14),
        "PostPeak": (15, 19),
    }
    return [pct_a, pct_b], national, expected


# ---------------------------------------------------------------------------
# logistic regression: likelihood maximization without Newton steps
# ---------------------------------------------------------------------------


def loglik_scan(X, y, beta):
    """Bernoulli log likelihood, log(1+e^eta) via the stable split form."""
    eta = np.asarray(X) @ np.asarray(beta)
    log_denom = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
    return float(np.sum(np.asarray(y) * eta - log_denom))


def golden_max(f, lo, hi, tol=1e-12):
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def maximize_loglik_coordinate(X, y, span=25.0, sweeps=300, tol=1e-10):
    """Coordinate-wise ascent of the log likelihood, no Newton steps.

    Concave objective, so per-coordinate slices are unimodal and cycling
    bounded 1-D maximizations converges to the maximum-likelihood point
    when one exists.  Function-value-only search has a location noise
    floor around 1e-7; callers should compare no tighter than 1e-6.
    """
    from scipy.optimize import minimize_scalar

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    k = X.shape[1]
    beta = np.zeros(k)
    eta = X @ beta
    width = np.full(k, span)
    for _ in range(sweeps):
        moved = 0.0
        for j in range(k):
            xj = X[:, j]
            base = eta - beta[j] * xj  # linear predictor with slot j empty

            def neg_slice_ll(v):
                e = base + v * xj
                denom = np.maximum(e, 0.0) + np.log1p(np.exp(-np.abs(e)))
                return -float(np.sum(y * e - denom))

            while True:
                res = minimize_scalar(
                    neg_slice_ll,
                    bounds=(beta[j] - width[j], beta[j] + width[j]),
                    method="bounded",
                    options={"xatol": 1e-12},
                )
                new = float(res.x)
                if abs(new - beta[j]) < width[j] * 0.98:
                    break
                width[j] *= 4.0  # maximum hugged the bracket edge; widen
            move = abs(new - beta[j])
            moved = max(moved, move)
            beta[j] = new
            eta = base + new * xj
            # shrink the bracket toward recent movement, keep a floor
            width[j] = float(min(max(8.0 * move, 1e-5), span))
        if moved < tol:
            break
    return beta


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros(len(x))
    for j in range(len(x)):
        e = np.zeros(len(x))
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# calendar months, checkpoints, hysteresis
# ---------------------------------------------------------------------------

CHINA_OFFSET = 8 * 3600


def month_key(ts):
    dt = datetime.datetime.fromtimestamp(int(ts) + CHINA_OFFSET, tz=datetime.timezone.utc)
    return dt.year * 12 + dt.month - 1


def months_before(start_ts, n):
    """The n month keys immediately before the month containing start_ts."""
    first = month_key(start_ts)
    return set(range(first - n, first))


def qualified_scan(purchases_by_id, required_months, min_per_month=1):
    """ids whose purchases hit every required month at least min_per_month
    times; purchases outside the required months are ignored."""
    out = []
    for iid, ts_list in purchases_by_id.items():
        per_month = defaultdict(int)
        for t in ts_list:
            per_month[month_key(t)] += 1
        if all(per_month[m] >= min_per_month for m in required_months):
            out.append(iid)
    return sorted(out)


def checkpoint_times_scan(sorted_ts, n_cohort, pct_lo, pct_hi):
    """pct -> first timestamp where the aware count reaches pct% of the
    cohort; exact rational rounding, absent when never reached."""
    out = {}
    for k in range(pct_lo, pct_hi + 1):
        need = math.ceil(Fraction(k * n_cohort, 100))
        if need <= len(sorted_ts):
            out[k] = int(sorted_ts[need - 1])
    return out


def hysteresis_scan(sorted_ts, event_ts, threshold):
    """Seconds until the aware count reaches (1 + threshold) times its
    value at event_ts; threshold interpreted as the decimal it prints as."""
    ts = sorted(int(t) for t in sorted_ts)
    n_e = sum(1 for t in ts if t <= event_ts)
    if n_e == 0:
        return "zero-baseline"
    target = n_e + math.ceil(Fraction(str(threshold)) * n_e)
    if target > len(ts):
        return None
    return ts[target - 1] - event_ts


def first_aware_scan(events_by_individual, match_fn, threshold=3):
    """id -> timestamp of the threshold-th matching query, else absent.

    events_by_individual maps id to a list of (timestamp, text) queries.
    """
    out = {}
    for iid, queries in events_by_individual.items():
        hits = sorted(t for t, text in queries if match_fn(text))
        if len(hits) >= threshold:
            out[iid] = hits[threshold - 1]
    return out


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------


def write_events_rows(path, kind, individual_id, timestamp, text, is_ppe):
    """events.jsonl, one json.dumps per row; kind 0 is a query, any other a
    purchase."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, i, t, x, p in zip(kind, individual_id, timestamp, text, is_ppe):
            if k == 0:
                obj = {"type": "query", "individual_id": int(i), "timestamp": int(t), "query_text": x}
            else:
                obj = {
                    "type": "purchase", "individual_id": int(i), "timestamp": int(t),
                    "category": x, "is_ppe": bool(p),
                }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def jsonl_rows(fields, columns, text_pool):
    """The line of each row of a JSONL table's columns, one json.dumps of
    an object built key by key: a field with ``when`` only where the first
    field's code is its ``when``."""
    first = columns[fields[0].column]
    lines = []
    for k in range(len(first)):
        obj = {}
        for f in fields:
            if f.when is not None and first[k] != f.when:
                continue
            v = columns[f.columns[0]][k]
            if f.kind == "enum":
                v = f.names[v]
            elif f.kind == "text":
                v = text_pool[v]
            elif f.kind == "bool":
                v = bool(v)
            elif f.kind == "number":
                v = float(v)
            elif f.kind == "counts":
                v = list(v)
            elif f.kind == "interval":
                v = [int(v), int(columns[f.columns[1]][k])]
            else:
                v = int(v)
            obj[f.key] = v
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return lines


def qualified_two_pass(kind, individual_id, timestamp, window, min_per_month=1, purchase=1):
    """The ids of the buyers inside ``window`` (first month number, months)
    whose purchases per month, counted in one buyers x months table, reach
    min_per_month in every month: the two passes filter_qualified once made."""
    first_month, n_months = window
    days = (np.asarray(timestamp, dtype=np.int64) + 8 * 3600) // 86400  # China local days
    months = days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64) - first_month
    buy = (kind == purchase) & (months >= 0) & (months < n_months)
    buyers, row = np.unique(individual_id[buy], return_inverse=True)
    counts = np.zeros((len(buyers), n_months), dtype=np.int64)
    np.add.at(counts, (row, months[buy]), 1)
    return buyers[(counts >= min_per_month).all(axis=1)]
