"""Malicious-behavior simulation harness.

Each trial deals fresh shares from a named randomness stream, corrupts a
configured number of them, lets the configured coalition reconstruct, and
scores the post-hoc verification verdicts against the known corruption.
Both come from one read of the coalition (vss._read_chains): each header
is opened and each chain walked once per trial.
Trials draw from independent streams and aggregate by plain counting, so
they could run on a worker pool without changing the report; aggregates
are exact integer counts plus rational rates, and a fixed seed
reproduces the report byte for byte.

Corruption modes:

* ``encoding``: replace the party's chain encoding with a fresh Gaussian
  matrix of the same shape and width.
* ``bitflip``: add +-1 to a handful of encoding entries.
* ``token``: swap one element of the party's token for a foreign one,
  which silently de-authorizes every coalition using it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .rng import named_stream
from .tokens import check_party_count, token_ids
from .vss import (
    HeaderUnavailableError,
    Secret,
    ShareBundle,
    ShareCorruptionError,
    UnauthorizedError,
    VssParams,
    _read_chains,
    _secret_of,
    _verdicts_of,
    deal,
)

MODES = ("encoding", "bitflip", "token")


@dataclass(frozen=True)
class SimulationConfig:
    secret_k: int = 3
    parties: int = 5
    gamma0: tuple[tuple[int, ...], ...] = ((1, 2, 3),)
    coalition: tuple[int, ...] = ()          # empty: all parties
    malicious: int = 1
    mode: str = "encoding"
    trials: int = 200
    seed: int = 1
    params: VssParams = field(default_factory=VssParams.desk)

    def resolved_coalition(self) -> tuple[int, ...]:
        return self.coalition or tuple(range(1, self.parties + 1))

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        check_party_count(self.parties)     # before the coalition check builds a set
        coalition = self.resolved_coalition()
        if not coalition or not set(coalition) <= set(range(1, self.parties + 1)):
            raise ValueError("coalition must be a nonempty subset of 1..parties")
        if self.malicious < 0 or self.malicious >= len(coalition):
            raise ValueError("malicious count must be below the coalition size")


@dataclass
class SimulationReport:
    config: dict
    trials: list[dict]
    totals: dict

    def to_doc(self) -> dict:
        return {"config": self.config, "trials": self.trials, "totals": self.totals}


def _corrupt_bundle(bundle: ShareBundle, mode: str, rng: np.random.Generator) -> ShareBundle:
    instances = []
    for inst in bundle.instances:
        if mode == "encoding":
            fake = np.rint(rng.normal(0, bundle.params.lwe.sigma,
                                      size=inst.d_matrix.shape)).astype(np.int64)
            instances.append(replace(inst, d_matrix=fake))
        elif mode == "bitflip":
            d = inst.d_matrix.copy()
            idx = rng.integers(0, d.size, size=8)
            d.reshape(-1)[idx] += rng.choice(np.array([-1, 1]), size=8)
            instances.append(replace(inst, d_matrix=d))
        else:   # token
            elements = token_ids(inst.token)
            dropped = int(rng.integers(0, len(elements)))
            foreign = elements[-1] + 1 + int(rng.integers(0, 1000))
            tampered = (inst.token & ~(1 << elements[dropped])) | (1 << foreign)
            instances.append(replace(inst, token=tampered))
    return replace(bundle, instances=instances)


def _rate(num: int, den: int) -> list[int]:
    return [num, den if den else 1]


def _ci95(num: int, den: int) -> list[str]:
    if den == 0:
        return ["0.000000", "0.000000"]
    p_hat = num / den
    half = 1.96 * (p_hat * (1 - p_hat) / den) ** 0.5
    return [f"{max(0.0, p_hat - half):.6f}", f"{min(1.0, p_hat + half):.6f}"]


def run_simulation(config: SimulationConfig) -> SimulationReport:
    config.validate()
    coalition = config.resolved_coalition()
    secret = Secret(config.secret_k, config.params.lwe.p)
    chain_members = sorted(set().union(*map(set, config.gamma0)) & set(coalition))

    trials = []
    totals = {"ok": 0, "wrong-secret": 0, "unauthorized": 0, "corrupt": 0,
              "corrupted_trials": 0, "detected": 0,
              "corrupted_checks": 0, "accepted_checks": 0}
    for t in range(config.trials):
        deal_rng = named_stream(config.seed, "sim", "deal", t)
        pick_rng = named_stream(config.seed, "sim", "pick", t)
        bundles = deal(secret, list(config.gamma0), config.parties, config.params,
                       seed=int(deal_rng.integers(0, 2**63)))
        bundles = [b for b in bundles if b.party in coalition]

        # corrupt chain members first: only their encodings face any check
        others = [p for p in coalition if p not in chain_members]
        shuffled = [chain_members[i] for i in pick_rng.permutation(len(chain_members))]
        shuffled += [others[i] for i in pick_rng.permutation(len(others))]
        malicious = sorted(shuffled[: config.malicious])
        bundles = [
            _corrupt_bundle(b, config.mode, named_stream(config.seed, "sim", "evil", t, b.party))
            if b.party in malicious else b
            for b in bundles
        ]

        chains = list(_read_chains(bundles))
        try:
            got = _secret_of(chains)
            outcome = "ok" if got == secret else "wrong-secret"
        except UnauthorizedError:
            outcome = "unauthorized"
        except ShareCorruptionError:
            outcome = "corrupt"
        totals[outcome] += 1

        detected = False
        corrupted_checks = accepted_checks = 0
        try:
            verdicts = _verdicts_of(chains, bundles, secret)
        except HeaderUnavailableError:
            verdicts = None
        if malicious:
            totals["corrupted_trials"] += 1
            if verdicts is not None:
                checked = [p for p in malicious if p in chain_members]
                corrupted_checks = len(checked)
                accepted_checks = sum(verdicts[p] for p in checked)
                detected = bool(checked) and accepted_checks == 0
            totals["detected"] += int(detected)
            totals["corrupted_checks"] += corrupted_checks
            totals["accepted_checks"] += accepted_checks

        trials.append({
            "trial": t,
            "coalition": list(coalition),
            "malicious": malicious,
            "outcome": outcome,
            "verdicts": ({str(k): v for k, v in sorted(verdicts.items())}
                         if verdicts is not None else None),
            "detected": detected,
        })

    totals["detection_rate"] = _rate(totals["detected"], totals["corrupted_trials"])
    totals["acceptance_rate"] = _rate(totals["accepted_checks"], totals["corrupted_checks"])
    totals["detection_ci95"] = _ci95(totals["detected"], totals["corrupted_trials"])
    config_doc = {
        "secret_k": config.secret_k, "parties": config.parties,
        "gamma0": [list(o) for o in config.gamma0],
        "coalition": list(coalition), "malicious": config.malicious,
        "mode": config.mode, "trials": config.trials, "seed": config.seed,
        "params": config.params.to_doc(),
    }
    return SimulationReport(config_doc, trials, totals)
