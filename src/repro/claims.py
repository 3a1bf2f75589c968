"""The paper's claims, checked over seeds (``repro claims FILE``).

Every "Paper claim | Measured" row of the reproduction is one
:class:`Claim`: a paper quote, the experiments it reads, a predicate over
one seed's results and the number of seeds on which it must hold.  A
claim the model does not deliver on every seed stays as a recorded
deviation (it requires 0 seeds), so the reader sees ``k/8`` instead of a
seed picked to pass.  :func:`check_claims` renders the results tables and
verdict rows as markdown and compares them with the block between
:data:`BEGIN` and :data:`END` of a file.
"""

from __future__ import annotations

import difflib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple

from repro.analysis.reporting import render_distribution_table, render_roc_table, render_series
from repro.analysis.stats import box_stats, spearman_rho
from repro.campaign import run_experiment
from repro.experiments.ablations import run_ids_ablation
from repro.experiments.baselines import run_baseline_comparison
from repro.experiments.common import CONNECTIONS_PER_CONFIG, attempts_of, success_rate
from repro.experiments.defense import summarize_defense
from repro.experiments.distance import DISTANCE_POSITIONS
from repro.experiments.hop_interval import HOP_INTERVALS
from repro.experiments.payload_size import PAYLOAD_SIZES
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.wall import WALL_DISTANCES

#: Markers around the generated block in the checked markdown file.
BEGIN = "<!-- claims:begin -->"
END = "<!-- claims:end -->"

#: Base seeds of every Figure 9 panel: eight seeds tell a shape the model
#: delivers from one seed's luck, and the four panels at 25 connections
#: per configuration still run in about 25 s on two CPUs.
FIG9_SEEDS: Tuple[int, ...] = tuple(range(1, 9))


@dataclass(frozen=True)
class Experiment:
    """One experiment: ``run(seed)`` for each of its base seeds, and
    ``table(runs)`` rendering those runs' results."""

    title: str
    seeds: Tuple[int, ...]
    run: Callable[[int], Any]
    table: Callable[[Sequence[Any]], str]


@dataclass(frozen=True)
class Claim:
    """One paper claim.

    ``holds`` receives one seed's results of each of ``experiments`` (in
    order; they share their seeds), or with ``pooled`` the results of all
    seeds pooled per configuration, judged once.  ``required`` is the
    number of seeds on which it must hold; 0 records a deviation.
    """

    id: str
    quote: str
    experiments: Tuple[str, ...]
    holds: Callable[..., bool]
    required: int
    pooled: bool = False


def pool(runs: Sequence[Mapping[Any, list]]) -> Dict[Any, list]:
    """Concatenate per-configuration trial lists across runs."""
    pooled: Dict[Any, list] = {}
    for grouped in runs:
        for key, trials in grouped.items():
            pooled.setdefault(key, []).extend(trials)
    return pooled


def judge(claim: Claim, results: Mapping[str, List[Any]]) -> Tuple[int, int]:
    """(samples on which ``claim`` holds, samples judged)."""
    runs = [results[name] for name in claim.experiments]
    samples = [tuple(pool(r) for r in runs)] if claim.pooled else list(zip(*runs))
    return sum(bool(claim.holds(*s)) for s in samples), len(samples)


def render(experiments: Mapping[str, Experiment], claims: Sequence[Claim],
           results: Mapping[str, List[Any]]) -> str:
    """The generated block: per experiment, its verdict rows and table."""
    out = ["<!-- generated by `repro claims`; refresh with --write -->"]
    for name, exp in experiments.items():
        seeds = (f"seeds {exp.seeds[0]}–{exp.seeds[-1]}" if len(exp.seeds) > 1
                 else f"seed {exp.seeds[0]}")
        out += ["", f"### {exp.title} — {seeds}", "",
                "| id | Paper claim | Seeds holding | Required |", "|---|---|---|---|"]
        for claim in (c for c in claims if c.experiments[0] == name):
            held, total = judge(claim, results)
            required = str(claim.required) if claim.required else "0 (deviation)"
            if held < claim.required:
                required += " — **FAILS**"
            pooled = " (pooled)" if claim.pooled else ""
            out.append(f"| {claim.id} | {claim.quote} | {held}/{total}{pooled} | {required} |")
        out += ["", "```", exp.table(results[name]), "```"]
    return "\n" + "\n".join(out) + "\n"


def check_claims(path: Path, write: bool = False,
                 experiments: Optional[Mapping[str, Experiment]] = None,
                 claims: Optional[Sequence[Claim]] = None,
                 stream: Optional[TextIO] = None) -> int:
    """Run the experiments, judge the claims and check ``path``'s block.

    Returns 0 when every claim holds on the seeds it must and the block is
    current (or, with ``write``, was rewritten); 1 when a claim fails (it
    is named) or the block is stale (a diff is printed); 2 without block.
    """
    experiments = EXPERIMENTS if experiments is None else experiments
    claims = CLAIMS if claims is None else claims
    stream = sys.stdout if stream is None else stream
    text = path.read_text()
    begin, end = text.find(BEGIN), text.find(END)
    if begin < 0 or end < begin:
        print(f"{path}: no {BEGIN} … {END} block", file=stream)
        return 2
    begin += len(BEGIN)
    results = {name: [exp.run(seed) for seed in exp.seeds]
               for name, exp in experiments.items()}
    status = 0
    for claim in claims:
        held, total = judge(claim, results)
        if held < claim.required:
            print(f"FAIL {claim.id}: holds on {held}/{total}, "
                  f"must hold on {claim.required}", file=stream)
            status = 1
    block, current = render(experiments, claims, results), text[begin:end]
    if current == block:
        print(f"{path}: claims block is up to date", file=stream)
    elif write:
        path.write_text(text[:begin] + block + text[end:])
        print(f"{path}: claims block rewritten", file=stream)
    else:
        stream.writelines(difflib.unified_diff(
            current.splitlines(keepends=True), block.splitlines(keepends=True),
            f"{path} (committed)", f"{path} (generated)"))
        print(f"{path}: claims block is stale; refresh it with "
              f"`repro claims {path} --write`", file=stream)
        status = 1
    gated = sum(1 for c in claims if c.required)
    print(f"{len(claims)} claims: {gated} gated, {len(claims) - gated} "
          f"recorded deviations", file=stream)
    return status


# The experiments and their tables.


def _run(name: str, **params: Any) -> Callable[[int], Any]:
    """``seed -> run_experiment(name, base_seed=seed, **params)``."""
    return lambda seed: run_experiment(name, base_seed=seed, **params)


def _fig9(title: str, name: str, caption: str, column: str,
          label: Callable[[Any], str] = str) -> Experiment:
    def table(runs: Sequence[Any]) -> str:
        samples = {label(key): attempts_of(trials) for key, trials in pool(runs).items()}
        return render_distribution_table(
            f"{caption}, {CONNECTIONS_PER_CONFIG} connections per seed, seeds pooled",
            column, samples)
    return Experiment(title, FIG9_SEEDS, _run(name, n_connections=CONNECTIONS_PER_CONFIG),
                      table)


def _series(caption: str, rows: Callable[[Any], list]) -> Callable[[Sequence[Any]], str]:
    """A one-run experiment's table: ``rows`` of its results as a series."""
    return lambda runs: render_series(caption, rows(runs[0]))


def _baseline_rows(comparison: Mapping[str, Any]) -> list:
    rows: list = []
    for name, key in (("InjectaBLE master hijack", "injectable"),
                      ("BTLEJack jamming hijack", "btlejack")):
        ok, frames, duration_us = comparison[key]
        rows.append((name, "OK" if ok else "FAILED", f"{frames} frames on air",
                     f"{duration_us / 1e6:.1f} s to takeover"))
    for name in ("GATTacker", "BTLEJuice"):
        pre, established = comparison[name]
        rows.append((name, f"pre-connection capture: {pre}",
                     f"established-connection capture: {established}"))
    return rows


#: Every experiment the claims read, in the order the block shows them.
EXPERIMENTS: Dict[str, Experiment] = {
    "hop": _fig9('E1 — Figure 9, "Hop Interval" (§VII-A)', "hop",
                 "E1 — injection attempts vs hop interval", "hop interval"),
    "payload": _fig9('E2 — Figure 9, "Payload size" (§VII-B)', "payload",
                     "E2 — injection attempts vs payload size", "PDU size (bytes)"),
    "distance": _fig9('E3 — Figure 9, "Distance" (§VII-C)', "distance",
                      "E3 — injection attempts vs attacker distance", "position"),
    "wall": _fig9('E4 — Figure 9, "Wall" (§VII-C)', "wall",
                  "E4 — injection attempts behind an 8 dB wall", "position",
                  lambda d: f"{d:.0f} m (wall)"),
    "scenarios": Experiment(
        "S-A … S-D — the four attack scenarios (§VI)", (1000,), _run("scenario"),
        _series("Scenarios A-D (§VI) against the three devices", lambda r: [
            (label, "OK" if t.success else "FAILED", f"{t.attempts} attempt(s)")
            for label, trials in r.items() for t in trials])),
    "widening": Experiment(
        "ABL-1 — widening reduction (§VIII, mitigation 1)", (5,),
        _run("widening", n_connections=12),
        _series("ABL-1 — injection success rate vs widening reduction", lambda r: [
            (f"widening x{scale:.2f}", f"success rate {success_rate(trials):.2f}")
            for scale, trials in r.items()])),
    "encryption": Experiment(
        "ABL-2 — encryption (§IV / §VIII, mitigation 2)", (6,),
        _run("encryption", n_connections=12),
        _series("ABL-2 — encrypted connections", lambda r: [
            ("connections attacked", len(r["encrypted"])),
            ("forged traffic accepted", sum(t.effect_observed for t in r["encrypted"])),
            ("denial of service (MIC teardown)",
             sum(not t.connection_survived for t in r["encrypted"]))])),
    "ids": Experiment(
        "ABL-3 — IDS detection (§VIII, mitigation 3)", (7,),
        lambda seed: pool([{r.attack: [r]} for r in run_ids_ablation(base_seed=seed, n_runs=5)]),
        _series("ABL-3 — IDS detection and the stealth contrast with jamming", lambda r: [
            (attack, f"succeeded {sum(x.attack_succeeded for x in runs)}/{len(runs)}",
             f"detected {sum(x.detected for x in runs)}/{len(runs)}", "attacker frames "
             f"{min(x.attacker_frames for x in runs)}-{max(x.attacker_frames for x in runs)}")
            for attack, runs in r.items()])),
    "baselines": Experiment(
        "BASE-1 — InjectaBLE vs related work (§II / §VI-C)", (2001,), run_baseline_comparison,
        _series("BASE-1 — InjectaBLE vs related work (§II)", _baseline_rows)),
    "defense": Experiment(
        "DEF-1 — response-time detection of the relay (BLEKeeper)", (17,),
        lambda seed: summarize_defense(
            run_experiment("defense", base_seed=seed, n_connections=2)),
        lambda runs: render_roc_table(
            "Defense bench — every detector vs attack, benign and ambient traffic "
            "(2 connections per traffic)", runs[0])),
}


# The claims.


def _all_injected(results: Mapping[Any, list]) -> bool:
    return all(success_rate(trials) == 1.0 for trials in results.values())


def _stats(results: Mapping[Any, list], key: Any):
    return box_stats(attempts_of(results[key]))


def _attempts_rise(metres: Callable[[Any], float]) -> Callable[[Mapping[Any, list]], bool]:
    """Spearman ρ(attacker distance, attempts) > 0 over every trial."""
    def holds(results: Mapping[Any, list]) -> bool:
        pairs = [(metres(key), a) for key, trials in results.items()
                 for a in attempts_of(trials)]
        return spearman_rho([x for x, _ in pairs], [y for _, y in pairs]) > 0
    return holds


#: E3's free-space position at each distance E4 puts behind the wall.
_FREE_SPACE_AT = {d: label for label, d in DISTANCE_POSITIONS.items() if d in WALL_DISTANCES}

_C_TO_F = ("C (4 m)", "D (6 m)", "E (8 m)", "F (10 m)")

_N = len(FIG9_SEEDS)

#: Every checked claim, shown under the experiment it reads first.
CLAIMS: Tuple[Claim, ...] = (
    Claim("E1.success", '"The attack was successful for every tested connection"',
          ("hop",), _all_injected, _N),
    Claim("E1.median", '"The median value remains at a low value less than 4"', ("hop",),
          lambda r: all(_stats(r, hop).median < 4 for hop in HOP_INTERVALS), _N),
    Claim("E1.variance", "Variance decreases from hop interval 25 to 100: var(100) < var(25)",
          ("hop",), lambda r: _stats(r, 100).variance < _stats(r, 25).variance, 0),
    Claim("E1.stable", "Reliable at every interval: var(150) <= var(25) + 6", ("hop",),
          lambda r: _stats(r, HOP_INTERVALS[-1]).variance
          <= _stats(r, HOP_INTERVALS[0]).variance + 6, _N),
    Claim("E2.success", "Every connection injectable at every size", ("payload",),
          _all_injected, _N),
    Claim("E2.median", '"Less than 3 for the median"', ("payload",),
          lambda r: all(_stats(r, size).median < 3 for size in PAYLOAD_SIZES), _N),
    Claim("E2.reliability",
          "Higher reliability as the payload shrinks: mean(4 B) < mean(16 B)", ("payload",),
          lambda r: _stats(r, 4).mean < _stats(r, 16).mean, 0),
    Claim("E2.no-penalty", "Small payloads cost no more: mean(4 B) <= mean(16 B) + 0.5",
          ("payload",), lambda r: _stats(r, 4).mean <= _stats(r, 16).mean + 0.5, _N),
    Claim("E3.success", '"Each tested connection leads to a successful injection ... '
          'including position F which is 10 meters away"', ("distance",), _all_injected, _N),
    Claim("E3.variance",
          '"The variance increases when the distance is higher": var(F) > var(A)',
          ("distance",),
          lambda r: _stats(r, "F (10 m)").variance > _stats(r, "A (1 m)").variance, _N),
    Claim("E3.monotone", "Variance monotone from C to F", ("distance",),
          lambda r: all(_stats(r, a).variance <= _stats(r, b).variance
                        for a, b in zip(_C_TO_F, _C_TO_F[1:])), 0),
    Claim("E3.attempts", "Attempts grow with attacker distance: Spearman ρ > 0",
          ("distance",), _attempts_rise(DISTANCE_POSITIONS.__getitem__), _N),
    Claim("E4.success", '"We managed to successfully inject a frame for every connection '
          '... even in the worst case"', ("wall",), _all_injected, _N),
    Claim("E4.wall", '"The presence of a wall increases the number of injection attempts": '
          "mean behind the wall > E3 free space at 2/4/6/8 m", ("wall", "distance"),
          lambda wall, free: all(_stats(wall, d).mean > _stats(free, label).mean
                                 for d, label in _FREE_SPACE_AT.items()),
          1, pooled=True),
    Claim("E4.variance", '"The variance increases with the distance": var(8 m) > var(2 m)',
          ("wall",), lambda r: _stats(r, 8.0).variance > _stats(r, 2.0).variance, _N),
    Claim("E4.attempts", "Attempts grow with distance behind the wall: Spearman ρ > 0",
          ("wall",), _attempts_rise(float), _N),
    *(Claim(f"S-{name[0]}", f"Scenario {name} works against every device", ("scenarios",),
            lambda r, name=name: _all_injected({k: v for k, v in r.items()
                                                if k.startswith(name)}), 1)
      for name in SCENARIOS),
    Claim("ABL-1", '"By reducing the duration of the widening windows the possibility ... '
          'to inject a frame at the right time will be mechanically reduced": success '
          ">= 0.9 at x1, <= 0.2 at x0.1", ("widening",),
          lambda r: success_rate(r[1.0]) >= 0.9 and success_rate(r[0.1]) <= 0.2, 1),
    Claim("ABL-2.integrity", "Encryption: no forged frame is ever accepted", ("encryption",),
          lambda r: not any(t.effect_observed for t in r["encrypted"]), 1),
    Claim("ABL-2.availability", '"He can still inject an invalid packet, leading to a '
          'denial of service": at least half the connections torn down', ("encryption",),
          lambda r: sum(not t.connection_survived for t in r["encrypted"])
          >= len(r["encrypted"]) // 2, 1),
    Claim("ABL-3.detection", 'An IDS "could be able to detect ... the presence of double '
          'frames": all but at most one run of each attack detected', ("ids",),
          lambda r: all(sum(x.detected for x in runs) >= len(runs) - 1
                        for runs in r.values()), 1),
    Claim("ABL-3.stealth",
          "Jamming puts at least twice the frames on air of the longest injection", ("ids",),
          lambda r: 2 * max(x.attacker_frames for x in r["injectable"])
          <= min(x.attacker_frames for x in r["btlejack"]), 1),
    Claim("BASE-1.frames", 'BTLEJack "is highly invasive and visible", InjectaBLE "only '
          'requires the injection of a single malicious frame": both hijack, with at least '
          "twice the frames for jamming", ("baselines",),
          lambda r: r["injectable"][0] and r["btlejack"][0]
          and 2 * r["injectable"][1] <= r["btlejack"][1], 1),
    Claim("BASE-1.established", 'GATTacker/BTLEJuice "can only perform a Man-in-the-Middle '
          'attack if the connection is not already established"', ("baselines",),
          lambda r: r["GATTacker"] == r["BTLEJuice"] == (True, False), 1),
    Claim("DEF-1", "The response-time detector ranks the MitM relay (scenario D) above "
          "benign traffic: AUC > 0.9", ("defense",),
          lambda rows: any(row["detector"] == "response-time" and row["traffic"].startswith("D")
                           and (row["auc"] or 0) > 0.9 for row in rows), 1),
    Claim("DEF-1.alert", "The response-time detector alerts on the relay at its threshold: "
          "at least one D run detected", ("defense",),
          lambda rows: any(row["detector"] == "response-time" and row["traffic"].startswith("D")
                           and row["detected"] > 0 for row in rows), 0),
)
