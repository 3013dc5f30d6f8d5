"""Compare two golden ledgers, as `python tests/test_golden.py --ledger`
writes them (tests/golden_ledger.tsv):

    python tests/ledger_diff.py OLD NEW

prints how many books' bytes moved (the SHA-256 of the schema-3 text),
how many books' invariants moved (H1, verdict, witness kind, real
part), how many refused sites' messages moved, how many books one
ledger has and the other lacks, and how many seeded walks diverged (took
another site, or was refused another, at some step), each with the
first label it names.  Exits 0 when the ledgers are equal, else 1.
Standard library only.
"""

from __future__ import annotations

import sys

BOOK_FIELDS = ("label", "sha256", "h1", "verdict", "witness", "real_part")
REFUSAL_FIELDS = ("step", "refused", "site: message")


def parse(lines) -> list[tuple[str, ...]]:
    """The ledger's lines as tuples of fields."""
    return [tuple(line.split("\t")) for line in lines if line]


def _is_refusal(fields) -> bool:
    return fields[1] == "refused"


def first_difference(old, new) -> str | None:
    """The first line at which two parsed ledgers differ: its label and
    the fields that moved, or the labels where one ledger has another
    line; None when they are equal."""
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else None
        b = new[i] if i < len(new) else None
        if a == b:
            continue
        if a is None or b is None or a[0] != b[0] or _is_refusal(a) != _is_refusal(b):
            return (f"line {i + 1}: {a[0] if a else 'end of ledger'!r} became "
                    f"{b[0] if b else 'end of ledger'!r}")
        names = REFUSAL_FIELDS if _is_refusal(a) else BOOK_FIELDS
        moved = [name for name, x, y in zip(names, a, b) if x != y]
        return f"{a[0]!r} moved in {', '.join(moved)}"
    return None


def _walk(label: str) -> str | None:
    """'walk 2024/3' for the books and refusals of that walk."""
    if not label.startswith("walk "):
        return None
    return label.split()[1].rsplit("/", 1)[0]


def _course(ledger) -> dict[str, list[tuple[str, str]]]:
    """Each walk's course: its books' labels and its refused sites."""
    out: dict[str, list[tuple[str, str]]] = {}
    for fields in ledger:
        walk = _walk(fields[0])
        if walk is not None:
            site = fields[2].split(": ", 1)[0] if _is_refusal(fields) else ""
            out.setdefault(walk, []).append((fields[0], site))
    return out


def _keyed(ledger, refusals: bool) -> dict[tuple[str, int], tuple[str, ...]]:
    """The ledger's books, or its refused sites, by label (a refusal's
    step and site) and the count of earlier lines with that label: the
    catalog and the ladders share some labels."""
    out: dict[tuple[str, int], tuple[str, ...]] = {}
    seen: dict[str, int] = {}
    for fields in ledger:
        if _is_refusal(fields) == refusals:
            label = fields[0] + (" " + fields[2].split(": ", 1)[0] if refusals else "")
            seen[label] = seen.get(label, -1) + 1
            out[label, seen[label]] = fields
    return out


def summary(old, new) -> list[str]:
    """One line per count, naming the first label each counts."""
    books, refusals = ([_keyed(ledger, kind) for ledger in (old, new)] for kind in (False, True))
    pairs = [(a, books[1][key]) for key, a in books[0].items() if key in books[1]]
    walks = [_course(ledger) for ledger in (old, new)]
    counts = {
        "books whose bytes moved": [a[0] for a, b in pairs if a[1] != b[1]],
        "books whose invariants moved": [a[0] for a, b in pairs if a[2:] != b[2:]],
        "refusals whose message moved": [key[0] for key, a in refusals[0].items()
                                         if key in refusals[1] and a != refusals[1][key]],
        "books only in OLD": [key[0] for key in books[0] if key not in books[1]],
        "books only in NEW": [key[0] for key in books[1] if key not in books[0]],
        "walks that diverged": [walk for walk in dict.fromkeys([*walks[0], *walks[1]])
                                if walks[0].get(walk) != walks[1].get(walk)],
    }
    return [f"{name}: {len(labels)}" + (f" (first: {labels[0]})" if labels else "")
            for name, labels in counts.items()]


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/ledger_diff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (parse(open(path, encoding="utf-8").read().splitlines()) for path in argv)
    for line in summary(old, new):
        print(line)
    return 0 if old == new else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
