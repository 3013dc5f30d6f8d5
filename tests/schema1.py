"""Render a schema-3 book as schema 2 or schema 1, independently of realbook.

Schema 2 is schema 3 plus two kinds of derived data: a zero
`current_class` row on every reference arc, and the disjoint pairs that
the book's provenance gives (oracle_pairs), written with the root's
pairs as one sorted list.  Schema 1 is schema 2 with two derived tables
on every curve: `pairings` (the page form J times the curve's class)
and `arc_pairings` (the dot of the class with each reference-arc row,
in sorted boundary order).  Everything is computed here over the JSON
itself, by dense products and the replayed construction rule, and each
text is rendered as its own writers rendered it: schema 2 one compact
top-level field per line, schema 1 with indent 2, both with sorted keys.
"""

import json

# the types whose new curves miss the older ones; IV's two chords cross
PAIRING_TYPES = ("II", "III", "IV", "IX")


def oracle_pairs(names, provenance):
    """The pairs the builder's old mark_disjoint loop made, replayed over
    the provenance records of a written book: at each step of a pairing
    type, each new curve (the record's sigma names) with every curve the
    page then had, and the new curves with each other unless the type
    is IV.  The root curves are the names no record makes."""
    made = {name for rec in provenance for name, _ in rec["sigma"]}
    classes = [name for name in names if name not in made]
    pairs = set()
    for rec in provenance:
        new = [name for name, _ in rec["sigma"]]
        classes += new
        if rec["type"] in PAIRING_TYPES:
            for u in classes:
                for n in new:
                    if u != n and not (rec["type"] == "IV" and u in new):
                        pairs.add(frozenset((u, n)))
    return pairs


def dot(row, vec):
    return sum(r * x for r, x in zip(row, vec))


def _compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def as_schema2(text: str) -> str:
    obj = json.loads(text)
    obj["schema"] = 2
    rank = len(obj["page"]["basis"])
    for arc in obj["ref_arcs"]:
        arc["current_class"] = [0] * rank
    names = [curve["name"] for curve in obj["alphabet"]]
    pairs = {frozenset(pair) for pair in obj["disjoint"]}
    pairs |= oracle_pairs(names, obj["provenance"])
    obj["disjoint"] = sorted(sorted(pair) for pair in pairs)
    return "{\n" + ",\n".join(f"{_compact(k)}:{_compact(obj[k])}" for k in sorted(obj)) + "\n}"


def as_schema1(text: str) -> str:
    obj = json.loads(text)
    obj["schema"] = 1
    form = obj["page"]["form"]
    rows = [arc["pairings"] for arc in sorted(obj["ref_arcs"], key=lambda a: a["boundary"])]
    for curve in obj["alphabet"]:
        cls = curve["h1_class"]
        curve["pairings"] = [dot(row, cls) for row in form]
        curve["arc_pairings"] = [dot(row, cls) for row in rows]
    return json.dumps(obj, indent=2, sort_keys=True)
