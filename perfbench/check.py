"""Reference checker: judges every op record a workload returns.

An op fails when it raises on valid input, raises anything but
ValidationError on invalid input, accepts invalid input, or returns a number
outside reference.RTOL of the mpmath reference. Failed ops are counted; they
never abort the run.
"""

from dataclasses import dataclass, field

import mpmath as mp

import reference as ref

# The presets behind the figure tables (gqi.sweeps.MICROWAVE / LOW_NOISE).
LOW_NOISE = dict(kappa=0.01, nb=30.0, M=1e7)
FIG5_N0 = 0.1


@dataclass
class Verdict:
    ok: bool = True
    reasons: list[str] = field(default_factory=list)
    digits: list[float] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)

    def compare(self, what: str, value, reference) -> float:
        err = ref.relative_error(value, reference)
        self.digits.append(ref.digits(err))
        if not err <= ref.RTOL:
            self.fail(f"{what} off by {err:.2g} relative")
        return err


def _point_ref_snr(v: Verdict, p: dict, res: dict):
    """Check one evaluated point; returns the reference SNR (mpf)."""
    kind = p["kind"]
    if kind == "coherent":
        snr_ref = ref.coherent_snr(p["ns"], p["kappa"], p["nb"], p["M"])
        v.compare("SNR", res["snr"], snr_ref)
        return snr_ref
    v_a, v_b = ref.hypotheses(p["n0"], p.get("n1", 0.0), p.get("n2", 0.0),
                              p["kappa"], p["nb"])
    s_star = float(res["s_star"])
    snr_ref, exponent = ref.two_mode_snr_at(v_a, v_b, s_star, p["M"])
    v.compare("SNR", res["snr"], snr_ref)
    for s in (s_star - ref.S_PROBE, s_star + ref.S_PROBE):
        if 0.0 < s < 1.0:
            neighbour = -mp.log(ref.q_s(v_a, v_b, s))
            if neighbour > exponent * (1 + ref.RTOL):
                v.fail(f"Q at s={s:.4g} is below Q at s*={s_star:.4g}")
    if res.get("discord") is not None:
        v.compare("remained discord", res["discord"], ref.discord(v_a))
    return snr_ref


def _raised_or_accepted(v: Verdict, record: dict) -> bool:
    """Judge invalid input and raised errors; True when the verdict is final."""
    out = record["outcome"]
    if not record["valid"]:
        if out["ok"]:
            v.fail("accepted invalid input")
        elif not out["validation"]:
            v.fail(f"raised {out['error']} on invalid input: {out['message']}")
        return True
    if not out["ok"]:
        v.fail(f"raised {out['error']} on valid input: {out['message']}")
        return True
    return False


def check_point(record: dict) -> Verdict:
    v = Verdict()
    if not _raised_or_accepted(v, record):
        _point_ref_snr(v, record["spec"], record["outcome"]["result"])
    return v


def check_discord(record: dict) -> Verdict:
    v = Verdict()
    if _raised_or_accepted(v, record):
        return v
    p = {"n1": 0.0, "n2": 0.0, **record["spec"]}
    res = record["outcome"]["result"]
    v.compare("probe discord", res["probe_discord"],
              ref.discord(ref.probe_cov(p["n0"], p["n1"], p["n2"])))
    v_a, _ = ref.hypotheses(p["n0"], p["n1"], p["n2"], p["kappa"], p["nb"])
    v.compare("remained discord", res["discord"], ref.discord(v_a))
    return v


def _row_point(row: dict) -> tuple[dict, dict]:
    """Split a sweep row (CSV strings or floats) into (spec, result)."""
    f = {k: float(row[k]) for k in ("n0", "n1", "n2", "ns", "kappa", "nb",
                                    "ensembles", "s_star", "snr")}
    spec = dict(kind=row["kind"], n0=f["n0"], n1=f["n1"], n2=f["n2"],
                ns=f["ns"], kappa=f["kappa"], nb=f["nb"], M=f["ensembles"])
    disc = row.get("discord")
    result = dict(s_star=f["s_star"], snr=f["snr"],
                  discord=None if disc in (None, "") else float(disc))
    return spec, result


def _check_fig5(v: Verdict, rows: list[dict]) -> None:
    """fig5 rows hold (ns, ASTM/CI advantage, discord) without s*."""
    n0 = mp.mpf(FIG5_N0)
    for row in rows:
        ns = float(row["ns"])
        n1 = (mp.mpf(ns) - n0) / (2 * n0 + 1)
        v_a, v_b = ref.hypotheses(FIG5_N0, n1, 0.0, LOW_NOISE["kappa"],
                                  LOW_NOISE["nb"])
        exponent = ref.best_exponent(v_a, v_b)
        snr_astm = ref.snr_from_log_p(-LOW_NOISE["M"] * exponent - mp.log(2))
        snr_ci = ref.coherent_snr(ns, LOW_NOISE["kappa"], LOW_NOISE["nb"],
                                  LOW_NOISE["M"])
        v.compare("fig5 advantage", row["advantage"], snr_astm / snr_ci)
        v.compare("fig5 discord", row["discord"], ref.discord(v_a))


def _least_squares_slope(xs, ys):
    n = len(xs)
    mx, my = mp.fsum(xs) / n, mp.fsum(ys) / n
    return (mp.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / mp.fsum((x - mx) ** 2 for x in xs))


def check_figure(record: dict) -> Verdict:
    v = Verdict()
    out = record["outcome"]
    if not out["ok"]:
        v.fail(f"raised {out['error']}: {out['message']}")
        return v
    res = out["result"]
    for name, rows in res["tables"].items():
        if name.startswith("fig5"):
            _check_fig5(v, rows)
            continue
        xs, ys = [], []
        for row in rows:
            spec, result = _row_point(row)
            ys.append(_point_ref_snr(v, spec, result))
            xs.append(mp.mpf(spec["ns"]))
        if name.startswith("fig2a"):
            # Idler squeezing at fixed signal energy must not move the SNR.
            for row in rows[1:]:
                v.compare("SNR across idler squeezing", float(row["snr"]),
                          mp.mpf(float(rows[0]["snr"])))
        if "slopes" in res:
            k = 0 if name == "astm" else 1
            v.compare(f"{name} slope", res["slopes"][k],
                      _least_squares_slope(xs, ys))
    return v


def check_records(workload: str, records: list[dict]) -> list[Verdict]:
    """One verdict per record; n2-twin pairs must also agree in SNR."""
    mp.mp.dps = ref.DPS
    checker = {"point_mix": check_point, "discord_map": check_discord,
               "figure_sweeps": check_figure}[workload]
    verdicts = [checker(r) for r in records]
    first_of = {}
    for record, verdict in zip(records, verdicts):
        group = record.get("group")
        if group is None or not record["outcome"]["ok"]:
            continue
        if group not in first_of:
            first_of[group] = record
            continue
        verdict.compare("SNR of the n2-twin", record["outcome"]["result"]["snr"],
                        mp.mpf(first_of[group]["outcome"]["result"]["snr"]))
    return verdicts
