"""Canonical report serialization.

Reports are machine-readable JSON, written with sorted keys and fixed
separators so identical manifests produce byte-identical files; human
tables are derived from the same payloads.  Matrices serialize with exact
field elements as strings ("p/q" over the rationals).

`write_report` streams the document to disk: it writes the sorted keys of
every dict itself and encodes each other value with one `json` call, each
distinct list once, so neither the whole text nor the encoder's list of
its tokens is ever held; a `Rows` section is made row by row as it is
written.  The bytes equal `canonical_json` of the same
document.  It writes through `write_json`, as the CLI writes the files of a
bundled space: a temporary file beside the target is moved into place, so
a failed or stopped write leaves no partial file.
"""

import hashlib
import json
import os
from json.encoder import encode_basestring_ascii

FORMAT_TAG = "icsheaf-report-v1"


class Rows:
    """A document dict whose rows are made as they are read.

    `items()` yields the (key, value) pairs in sorted key order from a
    fresh call of `make`, so no row outlives its turn.  `write_report`
    streams it row by row; `canonical_json` encodes it as the dict it
    stands for.
    """

    def __init__(self, make):
        self.make = make

    def items(self):
        return self.make()


def _expand(obj):
    if type(obj) is Rows:
        return dict(obj.items())
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_expand)


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_expand) + "\n"


def sha256_of(obj):
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _dump(doc, write, texts):
    """Write canonical_json(doc) for a dict doc, without its newline.

    Strings and ints are written as `json` writes them; texts maps id(lst)
    to the text of a list already written: a document shares each distinct
    matrix among its references, so each is encoded once.  The document
    holds every list it keys alive for the call.
    """
    sep = "{"
    for k, v in doc.items() if type(doc) is Rows else sorted(doc.items()):
        # json's own rule for a key that is not a string
        key = encode_basestring_ascii(k) if isinstance(k, str) \
            else _ENCODER.encode({k: 0})[1:-3]
        t = type(v)
        if t is dict or t is Rows:
            write(sep + key + ":")
            _dump(v, write, texts)
        else:
            if t is str:
                text = encode_basestring_ascii(v)
            elif t is int:
                text = int.__repr__(v)
            else:
                text = texts.get(id(v))
                if text is None:
                    text = _ENCODER.encode(v)
                    if t is list:
                        texts[id(v)] = text
            write(sep + key + ":" + text)
        sep = ","
    write("{}" if sep == "{" else "}")


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

    A missing matrix is zero; the writer spells out the canonical keys:
    every degree q of a simplex's value that also has degree q + 1, and
    every degree of either end of a cover pair, each written as the zero
    matrix of its shape where the complex stores none.  Equal matrices
    share one document list for the call: a complex holds many references
    to few distinct values (shared blocks, identities, 0/1 selections and
    zero blocks), and equal values print the same, so each is written
    once.  `json` encodes a shared list in full wherever it appears.  The
    entries share their strings the same way: most are a few values (0, 1,
    −1), and each distinct one is printed once per call.  The stalk dims,
    differentials and restrictions are `Rows` made from the complex as
    they are written, in order of simplex key, so a report never holds a
    section whole: the complex's maps are shared and never mutated, so
    they are read, not copied, while the report is written.
    """
    K = S.complex
    F = S.F
    docs, strs, zeros = {}, {}, {}
    none = {}

    def estr(x):
        got = strs.get(x)
        if got is None:
            got = strs[x] = F.to_str(x)
        return got

    def mdoc(m):
        key = tuple(map(tuple, m))
        got = docs.get(key)
        if got is None:
            got = docs[key] = [[estr(x) for x in row] for row in key]
        return got

    def zero(rows, cols):
        got = zeros.get((rows, cols))
        if got is None:
            got = zeros[(rows, cols)] = mdoc(((F.zero,) * cols,) * rows)
        return got

    def sid_key(sid):
        return simplex_key(K, sid)

    def pair_key(p):
        return "%s|%s" % (sid_key(p[0]), sid_key(p[1]))

    def stalk_rows():
        for sid in sorted(S.dims, key=sid_key):
            yield sid_key(sid), dims_doc(S.dims[sid])

    def differential_rows():
        for sid in sorted(S.dims, key=sid_key):
            qs, ms = S.dims[sid], S.diffs.get(sid, none)
            row = {str(q): mdoc(ms[q]) if q in ms else zero(qs[q + 1], d)
                   for q, d in sorted(qs.items()) if q + 1 in qs}
            if row:
                yield sid_key(sid), row

    def restriction_rows():
        pairs = [p for p in K.cover_pairs(S.domain) if p[0] in S.dims or p[1] in S.dims]
        for p in sorted(pairs, key=pair_key):
            qs, qt = S.dims.get(p[0], none), S.dims.get(p[1], none)
            ms = S.restrictions.get(p, none)
            yield pair_key(p), {
                str(q): mdoc(ms[q]) if q in ms else zero(qt.get(q, 0), qs.get(q, 0))
                for q in sorted(qs.keys() | qt.keys())}

    return {"field": F.name,
            "domain": [list(K.simplices[i]) for i in sorted(S.domain)],
            "stalk_dims": Rows(stalk_rows),
            "differentials": Rows(differential_rows),
            "restrictions": Rows(restriction_rows)}


def bundle_doc(bundle):
    strat = bundle.stratification
    return {
        "convention": bundle.convention,
        "field": bundle.field.name,
        "naive_filtration": bundle.naive,
        "stratification_hash": sha256_of(strat.levels_doc()),
        "construction_log": bundle.log,
        "trust_note": bundle.trust_note,
        "stalk_table": table_doc(strat.complex, bundle.ic.stalk_table()),
        "complex": sheaf_complex_doc(bundle.ic),
    }


def filtration_doc(filt):
    strat = filt.stratification
    K = strat.complex

    def fmt(ids):
        return [list(K.simplices[i]) for i in sorted(ids)]

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

    def short(ids):
        ids = sorted(ids)
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


def write_json(path, doc):
    """Stream canonical_json(doc) of a dict doc to path, or leave path as it was.

    The text goes to a temporary file beside path, named for this process,
    which replaces path only once it is complete: a document `json` cannot
    encode raises, and a reader, or a job run after one that was stopped
    partway, never finds a partial file at path.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name("%s.%d.tmp" % (path.name, os.getpid()))
    try:
        with open(tmp, "w", encoding="ascii") as f:
            _dump(doc, f.write, {})
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_report(path, manifest, payload):
    """Stream the canonical JSON of the report document to path (`write_json`)."""
    return write_json(path, {"format": FORMAT_TAG, "manifest": manifest, "report": payload})
