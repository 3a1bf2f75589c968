"""Tests for ``repro claims`` on synthetic experiments (no sweeps run)."""

import io
import re

from repro.analysis.reporting import render_series
from repro.claims import BEGIN, CLAIMS, END, EXPERIMENTS, Claim, Experiment, check_claims, render
from repro.cli import main

#: One synthetic panel: base seed s yields configuration "a" → [s, 10 s].
PANEL = {"panel": Experiment(
    "P — synthetic panel", (1, 2), lambda seed: {"a": [seed, 10 * seed]},
    lambda runs: render_series("P", [("a", *run["a"]) for run in runs]))}

PASSING = (
    Claim("P.positive", "every value is positive", ("panel",), lambda r: min(r["a"]) > 0, 2),
    Claim("P.small", "the first value is 1", ("panel",), lambda r: r["a"][0] == 1, 0),
    Claim("P.pooled", "four values once pooled", ("panel",), lambda r: len(r["a"]) == 4, 1,
          pooled=True),
)


def check(tmp_path, claims=PASSING, write=False, block="\n"):
    path = tmp_path / "RESULTS.md"
    if not path.exists():
        path.write_text(f"# Results\n\n{BEGIN}{block}{END}\n\nafter\n")
    out = io.StringIO()
    status = check_claims(path, write=write, experiments=PANEL, claims=claims, stream=out)
    return status, out.getvalue(), path


def test_failing_claim_exits_nonzero_and_names_it(tmp_path):
    failing = PASSING + (Claim("P.below-ten", "every value is below 10", ("panel",),
                               lambda r: max(r["a"]) < 10, 2),)
    status, out, path = check(tmp_path, claims=failing, write=True)
    assert status == 1
    assert "FAIL P.below-ten: holds on 0/2, must hold on 2" in out
    assert "P.positive" not in out
    assert "| P.below-ten | every value is below 10 | 0/2 | 2 — **FAILS** |" in path.read_text()


def test_edited_digit_in_block_is_stale_with_diff(tmp_path):
    _, _, path = check(tmp_path, write=True)
    text = path.read_text()
    digit = re.compile(r"\d").search(text, text.index(BEGIN) + len(BEGIN))
    path.write_text(text[:digit.start()] + str((int(digit.group()) + 1) % 10)
                    + text[digit.end():])
    status, out, _ = check(tmp_path)
    assert status == 1
    assert "--- " in out and "+++ " in out and "claims block is stale" in out


def test_write_then_check_passes_and_write_is_idempotent(tmp_path):
    status, out, path = check(tmp_path, write=True)
    assert status == 0 and "rewritten" in out
    written = path.read_text()
    assert written.startswith("# Results\n\n" + BEGIN)
    assert written.endswith(END + "\n\nafter\n")
    assert "| P.small | the first value is 1 | 1/2 | 0 (deviation) |" in written
    assert "| P.pooled | four values once pooled | 1/1 (pooled) | 1 |" in written
    status, out, _ = check(tmp_path)
    assert status == 0 and "up to date" in out
    assert check(tmp_path, write=True)[0] == 0
    assert path.read_text() == written


def test_renderings_are_byte_identical():
    results = {"panel": [PANEL["panel"].run(seed) for seed in (1, 2)]}
    assert render(PANEL, PASSING, results) == render(PANEL, PASSING, results)


def test_file_without_block_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "plain.md"
    path.write_text("no markers\n")
    assert main(["claims", str(path)]) == 2
    assert "no <!-- claims:begin -->" in capsys.readouterr().out


def test_claim_table_is_well_formed():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        (seeds,) = {EXPERIMENTS[name].seeds for name in claim.experiments}
        assert 0 <= claim.required <= (1 if claim.pooled else len(seeds)), claim.id
