"""Seeded exit-code fuzzer: extreme config values through ``cli.main``.

For each experiment, configs are drawn from a fixed seed: a small valid
start (the preset, or the defaults for ``survival``) with one to three
fields replaced by values at extreme magnitudes (1e-300 up to the top of
the float range, about 1.6e308), zeros,
negatives, NaN, infinities or wrong JSON types. Every config goes through a
config file, so every JSON type reaches validation.

Each run must end in a documented exit code (0 success, 2 validation,
3 numerical failure, 4 I/O) without raising, and every exit 2 must name the
config field it rejects, as config validation does. Work stays small: at
most 4 runs, at most 8 events, a fixed ``n_max`` of 12 and fig2 grids of at
most 10^4 points; values beyond those limits are drawn only where
validation refuses them.
"""

import json
import math
import random
import re
from dataclasses import fields, replace

import pytest

from antizeno.cli import main
from antizeno.config import ALWAYS_READ, EXPERIMENTS, READ_SETS, ExperimentConfig, preset
from antizeno.model import ModelParams, assert_cutoff_converged
from antizeno.runner import build_tables

SEED = 20261019
CASES = 100  # per experiment
N_MAX = 12
MAX_GRID = 10**4

FIELD_NAMES = [f.name for f in fields(ExperimentConfig)]
# an exit-2 message starts with the field it rejects, as validate words it
NAMES_A_FIELD = re.compile(
    r"antizeno: validation error \[[\w.]+\]: (%s)( must be |: )" % "|".join(FIELD_NAMES)
)
WRONG_TYPES = ("text", True, None, [], {}, [0.5, "x"], [[0.5]])
REAL_FIELDS = ("omega", "omega0", "ratio", "jitter_width", "time_max", "time_step")
LIST_FIELDS = ("g_values", "omega_t1_values", "epsilon_values")


def extreme_real(rng: random.Random):
    """A JSON number: a special value, or a magnitude in [1e-300, 10**308.2]
    (up to about 1.6e308) of either sign, as a float or (for whole
    magnitudes) an integer."""
    pick = rng.random()
    if pick < 0.3:
        return rng.choice([0.0, -0.0, 1e-300, 1e300, -1e300, 1e307, 1.7e308, -1.0,
                           math.nan, math.inf, -math.inf])
    value = rng.choice([1, -1]) * 10 ** rng.uniform(-300, 308.2)
    if pick < 0.4 and abs(value) >= 1:
        return int(value)
    return value


def work_count(rng: random.Random, cap: int):
    """An event or run count: within the work cap, or one that validation
    refuses (zero, negative, huge negative, non-integer, wrong type)."""
    if rng.random() < 0.6:
        return rng.randint(1, cap)
    return rng.choice([0, -1, -10**300, 2.5, 1e300, math.nan, "3", True, None, [2]])


def draw(rng: random.Random, field: str, tmp_path):
    """One fuzzed value for ``field``."""
    if rng.random() < 0.15:
        return rng.choice(WRONG_TYPES)
    if field in REAL_FIELDS:
        return extreme_real(rng)
    if field in LIST_FIELDS:
        if rng.random() < 0.1:
            return []
        return [extreme_real(rng) for _ in range(rng.randint(1, 3))]
    if field == "runs":
        return work_count(rng, 4)
    if field == "n_measurements":
        return work_count(rng, 8)
    if field == "n_max":
        return rng.choice([0, -3, -10**300, 2.5, math.nan, "12"])
    if field == "seed":
        return rng.choice([0, 2**64 - 1, 2**64, 10**300, -1, -10**300, 1e300, 0.5, math.nan])
    if field == "out":
        return rng.choice(["", str(tmp_path / "missing" / "x.csv"), str(tmp_path)])
    if field == "format":
        return rng.choice(["csv", "json", "xml", "CSV"])
    return rng.choice(EXPERIMENTS)  # experiment


def grid_points(config: dict):
    """fig2 grid size, or 0 when validation refuses the time fields."""
    t_max, step = config["time_max"], config["time_step"]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (t_max, step))
    if numbers and math.isfinite(t_max) and math.isfinite(step) and step > 0 and t_max >= step:
        return t_max / step
    return 0


def small_start(experiment: str, tmp_path) -> dict:
    """The preset (the defaults for ``survival``) within the work limits."""
    start = preset(experiment) if experiment != "survival" else ExperimentConfig()
    base = {**start.to_dict(), "n_max": N_MAX, "out": str(tmp_path / "x.csv")}
    for field, cap in (("runs", 4), ("n_measurements", 8)):
        if field in READ_SETS[experiment]:
            base[field] = min(base[field], cap)
    return base


def cases(experiment: str, tmp_path):
    """CASES fuzzed config dicts for ``experiment``, from a fixed seed."""
    rng = random.Random(f"{SEED}-{experiment}")
    read = (*ALWAYS_READ, *READ_SETS[experiment], "seed")
    base = small_start(experiment, tmp_path)
    drawn = []
    while len(drawn) < CASES:
        config = dict(base)
        # mostly fields the experiment reads; sometimes any field
        pool = read if rng.random() < 0.9 else FIELD_NAMES
        for field in rng.sample(pool, rng.randint(1, 3)):
            config[field] = draw(rng, field, tmp_path)
        if grid_points(config) <= MAX_GRID:
            drawn.append(config)
    return drawn


def run_config(config: dict, tmp_path) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return main(["--config", str(path)])


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_extreme_configs_keep_the_exit_code_contract(tmp_path, capsys, experiment):
    failures = []
    for config in cases(experiment, tmp_path):
        try:
            code = run_config(config, tmp_path)
        except BaseException as exc:  # a traceback would reach the user
            failures.append((config, f"raised {type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or "Traceback" in err:
            failures.append((config, f"exit {code}: {err}"))
        elif code == 2 and not NAMES_A_FIELD.match(err):
            failures.append((config, f"exit 2 names no field: {err}"))
    assert not failures, "\n".join(f"{json.dumps(c)}\n  -> {why}" for c, why in failures)


# What broke the exit-code contract, one case per finding (all found by
# the fuzzer, at this seed or with more cases, but the schedule overflow,
# the zero-coupling cutoff cap and the three cutoff cases at the end):
# the fields set over the small start, the exit code and what stderr says.
# Runs are in units of omega, so an extreme omega acts only through
# omega0/omega.
FOUND = [
    # the survival protocol needs a unique ground state; below a gap of
    # DEGENERACY_GAP it exited 2 without naming a field. At omega 1e-19
    # (omega0/omega = 1e19) no phase of a schedule is resolved, which the
    # phase rule refuses before any solve
    ("fig4", {"omega": 1e-19}, 2, "[antizeno.config]: ratio: fig4 needs schedules whose phases"),
    ("fig5", {"omega0": 1e-300}, 2,
     "g_values: fig5 needs a unique ground state at every coupling it runs; g/omega = 1.0 has"),
    # schedules that collapse (a tiny ratio) or overflow (a huge omega_t1
    # over a tiny omega) exited 2 from the protocol, or (fig4) named the
    # internal jitter width. In omega*t the 1e300 period does not
    # overflow, and the phase rule refuses it before the solve, which
    # reports a false parity leak at omega0/omega = 1e215
    ("fig3", {"ratio": 1e-272}, 2, "omega_t1_values: fig3 needs periods whose schedules stay"),
    ("fig4", {"ratio": 1e-300}, 2, "ratio: fig4 needs a ratio at which no panel's jitter window"),
    ("fig4", {"ratio": 0.5}, 2, "ratio: fig4 needs a ratio at which no panel's jitter window"),
    ("survival", {"omega": 1e-215, "omega_t1_values": [1e300]}, 2,
     "omega_t1_values: survival needs schedules whose phases the run resolves"),
    # an overflowing schedule warned from numpy while validation refused it;
    # in omega*t its phases are past resolution
    ("survival", {"omega": 1e-10, "ratio": 1e300}, 2,
     "omega_t1_values: survival needs schedules whose phases the run resolves"),
    # a coupling that overflowed in GHz exited 2 naming the model's "g"; in
    # units of omega, g/omega = 1e10 over omega0/omega = 1e-300 tied the two
    # parity sectors (exit 2 from the runner), and fig2's grid phase rule
    # now refuses its phases (about 1e13 rad at omega*t = 40) before any solve
    ("fig2", {"omega": 1e300, "g_values": [1e10]}, 2,
     "[antizeno.config]: time_max: fig2 needs a grid whose phases the run resolves"),
    # Hamiltonian entries past the float range printed numpy's overflow
    # warning (a traceback under -W error) and exited 2 from numkit naming
    # no field: omega*n at the cutoff check's n_max + 10, and a bond g*sqrt(n).
    # In units of omega, fig1 at omega0/omega = 1e-307 runs (its tied
    # manifolds report the averaged p_e), and fig6 there has no unique
    # ground state
    ("fig1", {"omega": 1e307, "n_max": 12}, 0, ""),
    ("fig6", {"omega": 1.7e308}, 2, "[antizeno.runner]: g_values: fig6 needs a unique ground state"),
    ("fig5", {"g_values": [1e308]}, 2,
     "a finite Gershgorin bound on its spectrum, 2*(omega*n + omega0/2 + 2*g*sqrt(n)), at g"),
    # finite entries whose spectrum passes the float range warned from
    # numpy in the ground-state solve, then exited 3 (a traceback under -W
    # error); in units of omega its g/omega = 4.5 is truly unconverged at
    # n_max 12
    ("fig1", {"omega": 7.7e306, "g_values": [0.5, 1, 4.5], "n_max": 12}, 3,
     "[antizeno.model]: Fock cutoff n_max=12 not converged to 1e-08: dE=2.681e+00"),
    # with no coupling above 0 a cutoff past the full space's 511 passed
    # config and exited 2 from the model
    ("survival", {"g_values": [0.0], "n_max": 600}, 2, "[antizeno.config]: n_max must be"),
    # JSON integers beyond int64 crashed numpy (a traceback); beyond the
    # float range they are not finite. In units of omega the first runs,
    # and the second's omega0/omega leaves no phase of its schedule resolved
    ("fig1", {"omega": 10**130}, 0, ""),
    ("survival", {"omega0": 10**31}, 2,
     "omega_t1_values: survival needs schedules whose phases the run resolves: (last event time "
     "+ half-window, in omega*t) times the largest model's Gershgorin spread, which grows with "
     "omega0/omega and g/omega, below CUTOFF_TOL/eps_mach (about 4.5e7), got (6.283185307179586,)"),
    ("fig1", {"omega": 10**400}, 2, "[antizeno.config]: omega must be finite, got 1000"),
    # couplings whose squares underflow to one value gave numpy's singular
    # least-squares error as exit 2
    ("fig3", {"g_values": [1e-300, 3e-277]}, 3,
     "[antizeno.analysis]: fewer than 2 distinct points remain above the extinction floor"),
    # chi_n at a coupling whose square underflows is undefined (NaN), not a
    # division warning
    ("survival", {"g_values": [4e-177]}, 0, ""),
    # fig2 started from one arbitrary member of a tied ground manifold, a
    # state off its norm (exit 3) or one LAPACK happened to return (exit 0).
    # At omega0/omega = 1e18 the tie (exit 2 from the runner) is now
    # preceded by the grid phase rule, which refuses it before any solve
    ("fig2", {"omega": 1e-18}, 2, "[antizeno.config]: time_max: fig2 needs a grid whose phases"),
    ("fig2", {"omega0": 0}, 2, "g_values: fig2 needs a unique ground state"),
    # a fig2 grid too large to allocate ended in MemoryError (a traceback)
    ("fig2", {"time_max": 1e12}, 2, "time_max: fig2 needs a grid of at most 10^6 steps"),
    # couplings whose fourth powers underflow exited 2 from the fit, naming
    # no field
    ("fig1", {"g_values": [1e-300, 2e-300, 3e-300]}, 3,
     "numerical failure [antizeno.analysis]: every x**4 underflows to 0"),
    # a least-squares solve that overflows printed numpy's warnings first;
    # its schedule's phases are past resolution
    ("fig5", {"n_measurements": 2, "ratio": 1.5e226}, 2,
     "omega_t1_values: fig5 needs schedules whose phases the run resolves"),
    # schedules too large to allocate ended in numpy's memory error (a
    # traceback) while validation built them, or in the jitter draw; a count
    # beyond any array exited 2 from the protocol naming no field, or blamed
    # jitter_width
    ("survival", {"n_measurements": 10**11}, 2,
     "[antizeno.config]: n_measurements must be at most 10^6, got 100000000000"),
    ("fig3", {"n_measurements": 10**11}, 2, "n_measurements must be at most 10^6"),
    ("fig3", {"n_measurements": 10**6}, 2,
     "omega_t1_values: fig3 needs a sweep of at most 10^6 event times"),
    ("fig5", {"runs": 10**11}, 2, "runs: fig5 needs a jitter stack of at most 10^6 event times"),
    ("fig6", {"runs": 10**30}, 2, "runs: fig6 needs a jitter stack of at most 10^6 event times"),
    ("survival", {"n_measurements": 10**30, "jitter_width": 0}, 2,
     "n_measurements must be at most 10^6"),
    # fig4 runs panel c up to g/omega = 1, but the cutoff check read only
    # max(g_values) and let an unconverged cutoff through (exit 0)
    ("fig4", {"g_values": [0.1, 0.2, 0.3], "n_max": 10}, 3,
     "[antizeno.model]: Fock cutoff n_max=10 not converged to 1e-08"),
    # CUTOFF_TOL is absolute, so in GHz the rounding of a 1e10 GHz model
    # failed the cutoff check (dE=9.537e-07, exit 3)
    ("survival", {"omega": 1e10, "omega0": 1e10, "g_values": [0.3], "n_max": 40,
                  "n_measurements": 3, "runs": 2}, 0, ""),
    # fig2's grid had no phase rule: omega*t up to 1e9 exited 0, with phases
    # of about 1e11 rad whose rounding moved p1e (3e-8 between n_max 40 and
    # 50) past the header's cutoff_stable_to
    ("fig2", {"g_values": [0.5], "time_max": 1e9, "time_step": 1e3, "n_max": 40}, 2,
     "[antizeno.config]: time_max: fig2 needs a grid whose phases the run resolves"),
    # a half-window past resolution was blamed on the periods
    # (omega_t1_values); the periods alone are resolved, so the window is
    # at fault
    ("survival", {"jitter_width": 1e300}, 2,
     "[antizeno.config]: jitter_width: survival needs a half-window whose phases the run resolves"),
]


@pytest.mark.parametrize("experiment,fields,code,message", FOUND,
                         ids=[f"{e}-{'-'.join(f)}" for e, f, _, _ in FOUND])
def test_what_the_fuzzer_found(tmp_path, capsys, experiment, fields, code, message):
    config = {**small_start(experiment, tmp_path), **fields}
    assert run_config(config, tmp_path) == code
    assert message in capsys.readouterr().err


def test_auto_cutoff_converges_every_coupling_fig4_solves():
    # the auto cutoff searched g_values alone and picked n_max 10, at which
    # panel c's g/omega = 1 is not converged
    config = replace(preset("fig4"), g_values=(0.1, 0.2, 0.3), n_max=None)
    n_max = build_tables(config)[0]["cutoff_used"]
    assert_cutoff_converged(ModelParams(1.0, 1.0, n_max))


def test_a_flat_period_leaves_no_rate_ratio(tmp_path, capsys):
    # at g/omega = 1e-200 no period's survival decays, so a fitted rate is
    # -0.0 and fig5 refuses the max/min ratio of its periods' rates
    out = tmp_path / "x.csv"
    assert main(["--preset", "fig5", "--g", "1e-200", "--n-max", "12", "--n-measurements", "4",
                 "--runs", "2", "--out", str(out)]) == 3
    assert ("antizeno: numerical failure [antizeno.runner]: no rate ratio: "
            "a period's fitted decay rate is -0.0\n") == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_zero_splitting_has_no_ground_state_to_start_from(tmp_path, capsys, experiment):
    # omega0 = 0 ties the two parity sectors at every coupling; fig1 reports
    # the manifold-averaged p_e, every other experiment starts from the
    # ground state and refuses the tie
    config = {**small_start(experiment, tmp_path), "omega0": 0}
    code = run_config(config, tmp_path)
    err = capsys.readouterr().err
    if experiment != "fig1":
        assert code == 2
        assert f"[antizeno.runner]: g_values: {experiment} needs a unique ground state" in err
        return
    assert code == 0, err
    rows = [line.split(",") for line in (tmp_path / "x.csv").read_text().splitlines()
            if not line.startswith("#")]
    columns = dict(zip(rows[0], zip(*rows[1:])))
    above_0 = [float(pe) for g, pe in zip(columns["g_over_omega"], columns["p_e"]) if float(g) > 0]
    assert len(above_0) == 100
    assert above_0 == pytest.approx([0.5] * 100, abs=1e-12)
