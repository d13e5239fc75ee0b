"""Canonical report serialization.

Reports are machine-readable JSON, written with sorted keys and fixed
separators so identical manifests produce byte-identical files; human
tables are derived from the same payloads.  Matrices serialize with exact
field elements as strings ("p/q" over the rationals).
"""

import hashlib
import json

FORMAT_TAG = "icsheaf-report-v1"


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_of(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def simplex_key(K, sid):
    return " ".join(str(v) for v in K.simplices[sid])


def table_doc(K, table):
    """{simplex: {degree: dim}} with string keys, zero rows omitted."""
    out = {}
    for sid, degs in sorted(table.items()):
        row = {str(q): d for q, d in sorted(degs.items()) if d}
        if row:
            out[simplex_key(K, sid)] = row
    return out


def dims_doc(dims):
    return {str(q): d for q, d in sorted(dims.items()) if d}


def sheaf_complex_doc(S):
    """The document of a SheafComplex: domain, stalk dims and every matrix.

    Equal matrices share one document list for the call: a complex holds
    many references to few distinct values (shared blocks, identities and
    0/1 selections), and equal values print the same, so each is written
    once.  `json` encodes a shared list in full wherever it appears.
    """
    K = S.complex
    F = S.F
    docs = {}

    def mdoc(m):
        key = tuple(map(tuple, m))
        got = docs.get(key)
        if got is None:
            got = docs[key] = [[F.to_str(x) for x in row] for row in key]
        return got

    doc = {"field": F.name,
           "domain": [list(K.simplices[i]) for i in sorted(S.domain.ids)],
           "stalk_dims": {}, "differentials": {}, "restrictions": {}}
    for sid in sorted(S.dims):
        doc["stalk_dims"][simplex_key(K, sid)] = dims_doc(S.dims[sid])
    for sid in sorted(S.diffs):
        row = {str(q): mdoc(m) for q, m in sorted(S.diffs[sid].items())}
        if row:
            doc["differentials"][simplex_key(K, sid)] = row
    for (s, t) in sorted(S.restrictions):
        row = {str(q): mdoc(m) for q, m in sorted(S.restrictions[(s, t)].items())}
        if row:
            doc["restrictions"]["%s|%s" % (simplex_key(K, s), simplex_key(K, t))] = row
    return doc


def bundle_doc(bundle):
    strat = bundle.stratification
    return {
        "convention": bundle.convention,
        "field": bundle.field.name,
        "naive_filtration": bundle.naive,
        "stratification_hash": sha256_of(strat.levels_doc()),
        "construction_log": bundle.log,
        "trust_note": bundle.trust_note,
        "stalk_table": table_doc(strat.complex, bundle.stalk_table()),
        "complex": sheaf_complex_doc(bundle.ic),
    }


def filtration_doc(filt):
    strat = filt.stratification
    K = strat.complex

    def fmt(sset):
        return [list(K.simplices[i]) for i in sorted(sset.ids)]

    rows = []
    for k in sorted(filt.U):
        rows.append({"k": k,
                     "W_k": fmt(filt.W[k]) if filt.W else None,
                     "U_k": fmt(filt.U[k])})
    return {
        "canonical": filt.canonical,
        "n": filt.n,
        "U_m": {str(m): fmt(s) for m, s in sorted(filt.U_m.items())},
        "X_m": {str(m): fmt(s) for m, s in sorted(filt.X_m.items())},
        "rows": rows,
        # compute_open_filtration raises on a failed identity; the naive
        # filtration runs none
        "identity_checks": {"passed": True, "failures": []} if filt.canonical else None,
    }


def filtration_table_text(filt):
    strat = filt.stratification
    K = strat.complex

    def short(sset):
        ids = sorted(sset.ids)
        names = ["{%s}" % ",".join(map(str, K.simplices[i])) for i in ids[:6]]
        if len(ids) > 6:
            names.append("… (%d total)" % len(ids))
        return " ".join(names) if names else "∅"

    lines = []
    lines.append("open filtration (n = %d, %s)" %
                 (filt.n, "canonical" if filt.canonical else "naive"))
    for m in sorted(filt.U_m):
        lines.append("  U^%d: %-60s X^%d: %d simplices"
                     % (m, short(filt.U_m[m]), m, len(filt.X_m[m])))
    for k in sorted(filt.U):
        lines.append("  k=%d  |W_k|=%-4s |U_k|=%-4d  %s"
                     % (k, (len(filt.W[k]) if filt.W else "-"), len(filt.U[k]),
                        "" if filt.W else "(naive)"))
    if filt.canonical:
        lines.append("  identity checks: all hold")
    return "\n".join(lines)


def write_report(path, manifest, payload):
    doc = {"format": FORMAT_TAG, "manifest": manifest, "report": payload}
    data = canonical_json(doc)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(data)
    return path
