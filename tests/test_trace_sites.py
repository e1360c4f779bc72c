"""The benchmark tracer in ``perfbench/`` wraps package functions at the
module attributes their callers look up.  A refactor that drops or renames
one of those attributes silently zeroes the per-layer metrics behind it, so
the set of sites the tracer cannot find must not grow."""

from pathlib import Path

import robustvario
import robustvario.cli  # noqa: F401  (the tracer wraps cli attributes)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# call sites that moved into robustvario.estimators.estimate_grid
KNOWN_ABSENT = {
    *(f"robustvario.cli.{name}" for name in ("matheron", "genton", "mcd_org", "mcd_diff", "mcd_mod")),
    *(
        f"robustvario.study.{name}"
        for name in (
            "matheron", "genton", "mcd_mod", "extract_org_vectors", "extract_diff_vectors",
            "fast_mcd", "reweight_mcd",
        )
    ),
    # deleted with the dense Cholesky simulator: circulant embedding has no
    # factor to precompute, so simfield.field_cholesky_s reads 0
    "robustvario.study.field_cholesky",
}


def test_tracer_finds_every_other_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    originals = {
        (module, attr): getattr(getattr(robustvario, module), attr, None)
        for module, attr, _ in tracer.SITES + tracer.COUNT_SITES
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert t._patched, "the tracer wrapped nothing"
    finally:
        t.uninstall()
    assert set(t.missing) <= KNOWN_ABSENT, sorted(set(t.missing) - KNOWN_ABSENT)
    for (module, attr), fn in originals.items():
        assert getattr(getattr(robustvario, module), attr, None) is fn, (module, attr)
