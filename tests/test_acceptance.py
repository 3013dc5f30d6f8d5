"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Everything asserted here is exact except the contact suite,
whose tolerances are pinned in-line.
"""

import json
import math
import random

from realbook.catalog import (
    ENTRIES,
    catalog_fig4,
    catalog_fig5,
    catalog_fig6,
    catalog_lens_annulus,
    catalog_s3_disk,
)
from realbook.contact import (
    GRID_POINTS,
    R0,
    FormSampler,
    build_profiles,
    contact_defect,
    k_threshold,
    linspace,
    solid_torus_extension_check,
)
from realbook.heegaard import heegaard_data, is_maximal, real_part
from realbook.intalg import AbelianGroup, IntMatrix, cokernel, smith_normal_form
from realbook.jsonio import dumps, loads
from realbook.mcg import word_matrix
from realbook.openbook import (
    Reality,
    StabilizationError,
    check_reality,
    enumerate_sites,
    h1_of_manifold,
    stabilize,
)
from oracles import (
    as_matrix,
    as_rows,
    det,
    diagonal,
    identity,
    is_trivial,
    logged_transforms,
    neg,
    trace,
    transpose,
    wronskian,
)


def _verdict(num, title, ok):
    print(f"\nACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_walk(rng, ob, steps):
    books = [ob]
    for _ in range(steps):
        sites = enumerate_sites(books[-1])
        rng.shuffle(sites)
        for tag, site in sites:
            try:
                books.append(stabilize(books[-1], tag, site))
                break
            except StabilizationError:
                continue
        else:
            break
    return books


def test_criterion_1_algebraic_invariants():
    rng = random.Random(20_26)
    ok = True
    books = [e.build() for e in ENTRIES]
    for trial in range(200):
        base = books[rng.randrange(len(books))]
        walk = _random_walk(rng, base, rng.randint(1, 5))
        books_to_check = [walk[-1]]
        for ob in books_to_check:
            page = ob.page
            c = as_matrix(ob.real_structure.matrix)
            j = as_matrix(page.form)
            f = as_matrix(word_matrix(page, ob.monodromy))
            ident = identity(page.h1_rank)
            ok &= c @ c == ident
            ok &= transpose(c) @ j @ c == neg(j)
            ok &= transpose(f) @ j @ f == j
            ok &= len(ob.real_structure.fixed_set.arcs) == 1 - trace(c)
            if not ok:
                break
        if not ok:
            break
    for ob in books:
        c, j = as_matrix(ob.real_structure.matrix), as_matrix(ob.page.form)
        f = as_matrix(word_matrix(ob.page, ob.monodromy))
        ok &= c @ c == identity(ob.page.h1_rank)
        ok &= transpose(c) @ j @ c == neg(j)
        ok &= transpose(f) @ j @ f == j
        ok &= len(ob.real_structure.fixed_set.arcs) == 1 - trace(c)
    _verdict(1, "algebraic invariants, exact", ok)


def test_criterion_2_reality_preservation():
    from test_openbook import not_real_example

    rng = random.Random(20_27)
    ok = all(check_reality(e.build()).kind is Reality.CERTIFIED_REAL for e in ENTRIES)
    for trial in range(60):
        base = ENTRIES[rng.randrange(len(ENTRIES))].build()
        for ob in _random_walk(rng, base, rng.randint(1, 5))[1:]:
            ok &= check_reality(ob).kind in (Reality.CERTIFIED_REAL,
                                             Reality.HOMOLOGICALLY_REAL)
    bad = not_real_example()
    status = check_reality(bad)
    ok &= status.kind is Reality.NOT_REAL
    ok &= status.witness is not None and "vector" in status.witness
    try:
        stabilize(bad, "III", {"boundary": 1})
        ok = False
    except StabilizationError:
        pass
    _verdict(2, "reality preservation and rejection", ok)


def test_criterion_3_h1_oracle():
    ok = is_trivial(h1_of_manifold(catalog_s3_disk()))
    for n in range(1, 11):
        lens_h1 = AbelianGroup(0, (n,)) if n > 1 else AbelianGroup(0)  # H1 L(n, n-1)
        ok &= h1_of_manifold(catalog_lens_annulus(n)) == lens_h1
    for k in range(1, 5):
        ok &= is_trivial(h1_of_manifold(catalog_fig4(k)))
        ok &= is_trivial(h1_of_manifold(catalog_fig5(k)))
        ok &= is_trivial(h1_of_manifold(catalog_fig6(k)))
    seen = set()
    for e in ENTRIES:
        ob = e.build()
        h0 = h1_of_manifold(ob)
        for tag, site in enumerate_sites(ob):
            try:
                out = stabilize(ob, tag, site)
            except StabilizationError:
                continue
            seen.add(tag)
            ok &= h1_of_manifold(out) == h0
    ok &= seen == {"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX"}
    _verdict(3, "first homology oracle and invariance", ok)


def test_criterion_4_heegaard_bookkeeping():
    ok = True
    for k in range(1, 5):
        ok &= heegaard_data(catalog_fig4(k)).genus == 2 * k - 1
        ok &= heegaard_data(catalog_fig5(k)).genus == 2 * k
        ok &= heegaard_data(catalog_fig6(k)).genus == 2 * k
    for e in ENTRIES:
        ob = e.build()
        g0 = heegaard_data(ob).genus
        for tag, site in enumerate_sites(ob):
            try:
                out = stabilize(ob, tag, site)
            except StabilizationError:
                continue
            want = 1 if tag in ("I", "II", "V", "VII") else 2
            ok &= heegaard_data(out).genus - g0 == want
    _verdict(4, "Heegaard genus bookkeeping", ok)


def test_criterion_5_real_part():
    rng = random.Random(20_28)
    ok = True
    # Harnack on every constructed book
    for trial in range(40):
        base = ENTRIES[rng.randrange(len(ENTRIES))].build()
        ob = _random_walk(rng, base, rng.randint(0, 4))[-1]
        rp = real_part(ob)
        ok &= rp.count <= heegaard_data(ob).genus + 1
    disk = catalog_s3_disk()
    ok &= is_maximal(heegaard_data(disk), real_part(disk))          # 1 = 0 + 1
    ann = catalog_lens_annulus(1)
    ok &= not is_maximal(heegaard_data(ann), real_part(ann))        # 1 < 2
    for k in range(1, 5):
        ok &= real_part(catalog_fig4(k)).separating_flags() == (False,)
        ok &= real_part(catalog_fig5(k)).separating_flags() == (True,)
        ok &= real_part(catalog_fig6(k)).separating_flags() == (False,)
    _verdict(5, "real part: Harnack, maximality, separating flags", ok)


def test_criterion_6_contact():
    ok = True
    grid = 50
    for n in range(0, 6):
        kstar = k_threshold(n, resolution=grid)
        ok &= math.isfinite(kstar) and kstar < 1e6
        for mult in (1.0, 2.0, 10.0):
            k = kstar * mult if kstar > 1e-8 else mult
            ok &= contact_defect(FormSampler(family=n, k=k, resolution=grid))[0] > 0
    for k in (1.0, 10.0, 100.0):
        pf = build_profiles(k, 0.1)
        # the certification grid of build_profiles
        ok &= min(pf.wronskians(linspace(R0 / 10.0, 1.0, GRID_POINTS))) > 0
        ok &= abs(wronskian(pf, 1e-4) / 1e-4 - 2.0) <= 1e-6
        for n in range(0, 6):
            fs = FormSampler(family=n, k=k, resolution=grid)
            ok &= solid_torus_extension_check(fs, pf).max_mismatch <= 1e-9
    # past eps = 0.15 the twist ramp reaches into the gluing region
    pf = build_profiles(10.0, 0.2)
    ok &= solid_torus_extension_check(FormSampler(family=2, k=10.0), pf).max_mismatch > 1e-9
    _verdict(6, "contact certification", ok)


def test_criterion_7_smith_normal_form():
    rng = random.Random(20_29)
    ok = True

    def rand_uni(n):
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            kind = rng.randrange(3)
            if kind == 0 and i != j:
                q = rng.randint(-2, 2)
                m[i] = [a + q * b for a, b in zip(m[i], m[j])]
            elif kind == 1 and i != j:
                m[i], m[j] = m[j], m[i]
            else:
                m[i] = [-a for a in m[i]]
        return IntMatrix(m, ncols=n)

    for trial in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)],
                      ncols=cols)
        s = smith_normal_form(a)
        u, v = logged_transforms(s)
        ok &= u @ a @ v == diagonal(s.diag, *s.shape)
        ok &= abs(det(u)) == 1 and abs(det(v)) == 1
        diag = s.diag
        ok &= all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            ok &= (y == 0) if x == 0 else (y % x == 0)
        if trial % 5 == 0:
            ok &= cokernel(as_rows(rand_uni(rows) @ a @ rand_uni(cols))) == cokernel(as_rows(a))
        if not ok:
            break
    _verdict(7, "Smith normal form, exact", ok)


def test_criterion_8_cli_golden(monkeypatch):
    from test_cli import run_cli

    ok = True
    code, book_json = run_cli(["catalog", "fig4", "3"])
    ok &= code == 0
    code, report = run_cli(["invariants"], book_json, monkeypatch)
    data = json.loads(report)
    ok &= code == 0 and data["heegaard_genus"] == 5 and data["h1"]["pretty"] == "0"

    code, book_json = run_cli(["catalog", "lens-annulus", "7"])
    code2, report = run_cli(["invariants"], book_json, monkeypatch)
    data = json.loads(report)
    ok &= code == 0 and code2 == 0 and data["h1"]["pretty"] == "Z/7"

    code, report = run_cli(["contact", "--family", "annulus:2",
                            "--find-threshold", "--grid", "25"])
    data = json.loads(report)
    ok &= code == 0 and 0 < data["K_threshold"] < 1e6

    for e in ENTRIES:
        ob = e.build()
        ok &= loads(dumps(ob)) == ob
    _verdict(8, "CLI pipelines and JSON round-trip", ok)
