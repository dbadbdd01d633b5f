import dataclasses
import gc
import json
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import oracles
from oracles import score_session
from conftest import qubit_cfg, qudit_cfg, rand_family
from pingpong import attacks, cli, protocol, rand, session
from pingpong import control as control_mode
from pingpong.cli import (
    MAX_CYCLES,
    MAX_DIM,
    MAX_TRIALS,
    REPORT_FIELDS,
    RunSpec,
    _build_parser,
    emit,
    execute_run,
    load_spec,
    main,
    run_experiments,
    sig12,
)


def spec_dict(**overrides):
    base = {"attack": "cnot", "control": "two-basis", "dim": 2, "seed": 7}
    base.update(overrides)
    return base


class TestRunSpec:
    def test_defaults(self):
        spec = RunSpec.from_dict(spec_dict())
        assert spec.cycles == 1000
        assert spec.control_prob == 0.25
        assert spec.trials == 10000
        assert spec.resolved_kind == "qubit_psi_minus"

    def test_kind_auto_for_qudits(self):
        spec = RunSpec.from_dict(spec_dict(attack="qudit-shift", control="computational", dim=3))
        assert spec.resolved_kind == "qudit_beta00"

    def test_required_fields(self):
        with pytest.raises(ValueError, match="seed"):
            RunSpec.from_dict({"attack": "cnot", "control": "two-basis", "dim": 2})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            RunSpec.from_dict(spec_dict(bogus=1))

    @pytest.mark.parametrize("field, value", [
        ("dim", 2.7), ("dim", "2"), ("dim", True),
        ("cycles", True), ("cycles", "10"), ("cycles", 10.5),
        ("trials", False), ("trials", 1.5), ("trials", float("nan")),
        ("seed", "7"), ("seed", 7.5), ("seed", None),
        ("control_prob", True), ("control_prob", "0.5"),
        ("control_prob", 2), ("control_prob", -0.1), ("control_prob", float("nan")),
        ("message", [[0, True]]), ("message", [[0.5, 1]]), ("message", [["0", "1"]]),
        ("message", [1, 2]), ("message", [[0, 1, 1]]),
    ])
    def test_non_integral_or_non_numeric_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunSpec.from_dict(spec_dict(**{field: value}))

    @pytest.mark.parametrize("field, message", [
        ("attack", "unknown attack name 'bogus'; choose from " + " | ".join(attacks.ATTACK_NAMES)),
        ("control", "unknown control mode 'bogus'; choose from " + " | ".join(control_mode.CONTROL_MODES)),
    ], ids=["attack", "control"])
    def test_names_checked_against_their_registry(self, field, message):
        with pytest.raises(ValueError) as raised:
            RunSpec.from_dict(spec_dict(**{field: "bogus"}))
        assert str(raised.value) == message

    def test_generic_family_file_is_read_by_its_run(self, tmp_path):
        spec = RunSpec.from_dict(spec_dict(attack=f"generic:{tmp_path / 'absent.json'}",
                                           control="computational", dim=3, cycles=0, trials=10))
        row = execute_run(spec)
        assert row["status"] == "error" and row["error"].startswith("FileNotFoundError")

    def test_message_symbols_checked_against_dim(self):
        with pytest.raises(ValueError, match=r"^message symbols \(5, 5\) out of range for dim 2$"):
            RunSpec.from_dict(spec_dict(message=[[0, 1], [5, 5]]))
        spec = RunSpec.from_dict(spec_dict(attack="qudit-shift", control="computational", dim=6,
                                           message=[[5, 5]]))
        with pytest.raises(ValueError, match="out of range for dim 5"):
            dataclasses.replace(spec, dim=5)

    def test_integral_floats_accepted(self):
        spec = RunSpec.from_dict(spec_dict(dim=2.0, cycles=1e3, trials=1e5, seed=7.0,
                                           message=[[1.0, 0]]))
        assert (spec.dim, spec.cycles, spec.trials, spec.seed) == (2, 1000, 100000, 7)
        assert spec.message == ((1, 0),)
        assert all(type(v) is int for v in (spec.dim, spec.cycles, spec.trials, spec.seed))

    @pytest.mark.parametrize("field, bound", [
        ("dim", MAX_DIM), ("cycles", MAX_CYCLES), ("trials", MAX_TRIALS),
    ])
    def test_size_bounds(self, field, bound):
        at_bound = spec_dict(attack="qudit-shift", control="computational", **{field: bound})
        assert getattr(RunSpec.from_dict(at_bound), field) == bound
        with pytest.raises(ValueError, match=f"^{field} must be <= {bound}, got {bound + 1}$"):
            RunSpec.from_dict({**at_bound, field: bound + 1})

    def test_replace_rebuilds_the_config(self):
        spec = RunSpec.from_dict(spec_dict(attack="qudit-shift", control="computational", dim=3))
        short = dataclasses.replace(spec, cycles=20, trials=50)
        assert short.trials == 50
        assert short.config == dataclasses.replace(spec.config, n_cycles=20)
        assert dataclasses.replace(spec, dim=2).config.initial_state_kind == "qubit_psi_minus"
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            dataclasses.replace(spec, trials=0)

    def test_load_spec_accepts_both_shapes(self, tmp_path):
        runs = [spec_dict(trials=50)]
        for payload in (runs, {"runs": runs}):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(payload))
            loaded = load_spec(path)
            assert len(loaded) == 1 and loaded[0].trials == 50


class TestNameRegistries:
    def _help(self, dest):
        return next(a.help for a in _build_parser()._actions if a.dest == dest)

    def test_every_attack_name_resolves_and_is_listed(self):
        for name in attacks.ATTACKS:
            assert attacks.from_name(name, 2).name == name
        listed = self._help("attack").split(" | ")
        assert listed == [*attacks.ATTACKS, "generic:<file>"]
        with pytest.raises(ValueError, match="choose from " + " [|] ".join(listed)):
            attacks.from_name("bogus", 2)

    def test_every_control_name_resolves_and_is_listed(self):
        cfg = qubit_cfg()
        for name in control_mode.CONTROL_MODES:
            assert control_mode.from_name(name, cfg).name == name
        listed = self._help("control").split(" | ")
        assert listed == list(control_mode.CONTROL_MODES)
        with pytest.raises(ValueError, match="choose from " + " [|] ".join(listed)):
            control_mode.from_name("bogus", cfg)


class TestExecuteRun:
    def test_cnot_two_basis_row(self):
        spec = RunSpec.from_dict(spec_dict(cycles=200, trials=20000))
        row = execute_run(spec)
        assert row["status"] == "ok"
        assert row["p_det_analytic"] == pytest.approx(0.25, abs=1e-12)
        assert abs(row["p_det_empirical"] - 0.25) < 0.02
        assert row["eve_mu_accuracy"] == 1.0
        assert row["message_integrity"] == 1.0
        assert row["n_message_cycles"] + row["n_control_cycles"] == 200

    def test_qudit_shift_row(self):
        spec = RunSpec.from_dict(
            spec_dict(attack="qudit-shift", control="computational", dim=3,
                      cycles=100, control_prob=0.0, trials=5000)
        )
        row = execute_run(spec)
        assert row["status"] == "ok"
        assert row["p_det_analytic"] == 0.0
        assert row["p_det_empirical"] == 0.0
        assert row["eve_mu_accuracy"] == 1.0
        assert abs(row["eve_nu_accuracy"] - 1 / 3) < 0.2

    def test_error_rows_do_not_stop_the_batch(self):
        specs = [
            RunSpec.from_dict(spec_dict(attack="cnot", dim=3, control="computational",
                                        cycles=0, trials=10)),
            RunSpec.from_dict(spec_dict(control="computational", cycles=0, trials=10)),
        ]
        rows = run_experiments(specs)
        assert rows[0]["status"] == "error"
        assert "cnot" in rows[0]["error"]
        assert rows[1]["status"] == "ok"

    def test_intercept_resend_message_cycles_reported_as_error(self):
        spec = RunSpec.from_dict(
            spec_dict(attack="intercept-resend", control="computational",
                      cycles=10, control_prob=0.0, trials=100)
        )
        row = execute_run(spec)
        assert row["status"] == "error"
        assert "CoherenceBreakError" in row["error"]

    def test_intercept_resend_control_only_succeeds(self):
        spec = RunSpec.from_dict(
            spec_dict(attack="intercept-resend", control="computational",
                      cycles=0, trials=20000)
        )
        row = execute_run(spec)
        assert row["status"] == "ok"
        assert abs(row["p_det_empirical"] - 0.5) < 0.02
        assert row["eve_mu_accuracy"] is None

    def test_replay_reproduces_numeric_fields(self):
        spec = RunSpec.from_dict(spec_dict(cycles=50, trials=2000))
        first = execute_run(spec)
        second = execute_run(spec)
        for key in REPORT_FIELDS:
            if key == "wall_clock_s":
                continue
            assert first[key] == second[key], key


def _family_file(path, seed, orthonormal=True):
    """A generic family file on a 4-dimensional ancilla for D=3, whose probe
    family repeats a state unless `orthonormal`."""
    rng = np.random.default_rng(seed)
    families = {
        key: [[[z.real, z.imag] for z in s.amps] for s in rand_family(rng, 4, 3).states]
        for key in ("detection", "probes")
    }
    if not orthonormal:
        families["probes"][1] = families["probes"][0]
    path.write_text(json.dumps(families))
    return f"generic:{path}"


def _stable(rows):
    return [{k: v for k, v in row.items() if k != "wall_clock_s"} for row in rows]


def _grouped_specs(generic):
    """Runs in six configurations, three of them interleaved groups of
    several runs."""
    raw = [
        # message cycles break Bob's decoder part-way through the shared tree
        dict(attack="intercept-resend", control="computational", cycles=30, control_prob=0.25, seed=1),
        dict(attack=generic, control="computational", dim=3, cycles=40, seed=2),
        dict(attack="intercept-resend", control="computational", cycles=40, control_prob=1.0, seed=3),
        dict(attack="cnot", cycles=20, message=[[0, 1]] * 3, seed=4),  # message exhausted
        dict(attack=generic, control="computational", dim=3, cycles=25, control_prob=0.5, seed=5),
        dict(attack="intercept-resend", control="computational", cycles=0, seed=6),
        dict(attack="cnot", cycles=50, seed=7),
        dict(attack="intercept-resend", control="computational", cycles=35, control_prob=1.0, seed=8),
        dict(attack="cnot", cycles=30, control_prob=0.5, seed=9),
        dict(attack=generic, control="computational", dim=3, cycles=0, seed=10),
        # configurations that differ from another in the kind or the control only
        dict(attack="qudit-shift", control="computational", kind="qudit_beta00", cycles=30, seed=11),
        dict(attack="qudit-shift", control="computational", cycles=30, seed=12),
        dict(attack="cnot", control="computational", cycles=20, seed=13),
    ]
    return [RunSpec.from_dict(spec_dict(trials=500, **run)) for run in raw]


class TestConfigurationGroups:
    def test_rows_do_not_depend_on_grouping_or_order(self, tmp_path):
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3))
        rows = _stable(run_experiments(specs))
        errors = [row["error"] for row in rows if row["status"] == "error"]
        assert len(errors) == 2
        assert errors[0].startswith("CoherenceBreakError")
        assert errors[1] == "ValueError: message exhausted before the session finished"
        assert rows == _stable(execute_run(spec) for spec in specs)
        assert rows == _stable(run_experiments(specs[::-1]))[::-1]
        order = np.random.default_rng(0).permutation(len(specs))
        shuffled = _stable(run_experiments([specs[i] for i in order]))
        assert [shuffled[list(order).index(i)] for i in range(len(specs))] == rows

    def test_a_configuration_whose_control_mode_fails_leaves_the_batch(self, monkeypatch):
        """A run joins the call's walk only once both its handles build:
        the two-basis control mode at D=3 fails, so the qudit-shift
        run reports the error, and the cnot and no-attack configurations on
        either side of it walk together and give their one-run rows."""
        specs = [RunSpec.from_dict(spec_dict(control="computational", cycles=20, trials=100)),
                 RunSpec.from_dict(spec_dict(attack="qudit-shift", dim=3, cycles=20, trials=100, seed=8)),
                 RunSpec.from_dict(spec_dict(attack="none", control="computational", cycles=20, trials=100, seed=9))]
        alone = _stable(execute_run(spec) for spec in specs)
        walked, walk = [], cli.run_sessions
        monkeypatch.setattr(cli, "run_sessions", lambda cfgs, *args: walked.append(len(cfgs)) or walk(cfgs, *args))
        rows = _stable(run_experiments(specs))
        assert walked == [2]
        assert rows == alone and rows[0]["status"] == rows[2]["status"] == "ok"
        assert rows[1]["error"] == "ValueError: two-basis control is defined for the qubit singlet kind only"

    def test_no_batch_outlives_the_call(self, tmp_path, monkeypatch, fresh_trees):
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3))
        batches = set()  # the id of each batch a run takes, while the call holds it
        values = []  # a weak reference to each value the call's batch holds
        trees = []  # (tree key, weak reference to the tree's root) per tree built
        walks = []  # the sessions' tree keys, per walk

        class Value(list):
            """A batch's value, a run's session fields and time, which a weak reference can follow."""

        class TrackedTree(session.SessionTree):
            def __init__(self, cfg, eve):
                super().__init__(cfg, eve)
                trees.append(((id(eve), cfg.dim, cfg.initial_state_kind), weakref.ref(self.root)))

        original, walk, walked = cli.execute_run, cli.run_sessions, cli._walk

        def checking(spec, batch):
            batches.add(id(batch))
            # the batch holds the call's distinct runs with cycles, their session fields, and no transcript or tree
            assert list(batch) == list(dict.fromkeys(spec for spec in specs if spec.cycles))
            assert all(value is None or isinstance(value[0], dict) for value in batch.values())
            # no tree outlives its walk
            assert all(ref() is None for _, ref in trees)
            return original(spec, batch)

        def tracked(batch):
            kept = {run: Value(value) for run, value in walked(batch).items()}
            values.extend(weakref.ref(value) for value in kept.values())
            return kept

        def tracking(cfgs, messages, eves, controls):
            tree_keys = [(id(eve), cfg.dim, cfg.initial_state_kind) for cfg, eve in zip(cfgs, eves)]
            walks.append(tree_keys)
            ends = {key: s for s, key in enumerate(tree_keys)}
            for s, result in enumerate(walk(cfgs, messages, eves, controls)):
                # a tree is dropped before its last session is yielded
                assert all(ref() is None for key, ref in trees if ends[key] <= s)
                yield result

        monkeypatch.setattr(cli, "execute_run", checking)
        monkeypatch.setattr(cli, "_walk", tracked)
        monkeypatch.setattr(cli, "run_sessions", tracking)
        monkeypatch.setattr(session, "SessionTree", TrackedTree)
        run_experiments(specs)
        gc.collect()
        # every run takes the call's one batch, which is freed with its values
        assert len(batches) == 1 and len(values) == 11 and all(ref() is None for ref in values)
        # one walk for all six configurations, whose two cnot
        # configurations share a tree; every tree is freed
        [walked] = walks
        assert len(set(walked)) == len(trees) == 5 and all(ref() is None for _, ref in trees)

    def test_every_handle_is_looked_up_inside_a_run(self, tmp_path, monkeypatch):
        """Each `attacks.from_name` and `control.from_name` call of a
        `run_experiments` call happens inside one of its `execute_run` calls,
        so none comes before the first row."""
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3))
        depth, lookups, run = [0], [], cli.execute_run

        def running(*args):
            depth[0] += 1
            try:
                return run(*args)
            finally:
                depth[0] -= 1

        def watched(registry, lookup):
            def looking_up(*args):
                lookups.append((registry, depth[0]))
                return lookup(*args)
            return looking_up

        monkeypatch.setattr(cli, "execute_run", running)
        monkeypatch.setattr(attacks, "from_name", watched("attack", attacks.from_name))
        monkeypatch.setattr(control_mode, "from_name", watched("control", control_mode.from_name))
        run_experiments(specs)
        assert {registry for registry, _ in lookups} == {"attack", "control"}
        assert all(depth == 1 for _, depth in lookups)

    def test_a_slow_configurations_walk_is_charged_to_its_own_row(self, monkeypatch):
        """One configuration's walk sleeps 0.05 s a chunk, in a call with three
        cheap runs of as many cycles: its row is charged at least the sleep,
        and each cheap row less than half of it (a split of the walk by
        cycles would charge the slow row a quarter)."""
        specs = [RunSpec.from_dict(spec_dict(attack=attack, control="computational", dim=dim, cycles=40, seed=seed,
                                             trials=100))
                 for seed, (attack, dim) in enumerate([("cnot", 2), ("qudit-shift", 3), ("none", 2), ("cnot", 2)])]
        run_experiments(specs)  # the handles, plans and trees are built before the timed call
        slept, walk = [], session.SessionTree.walk

        def slow(self, *args):
            if self.cfg.dim == 3:
                slept.append(0.05)
                time.sleep(0.05)
            return walk(self, *args)

        monkeypatch.setattr(session.SessionTree, "walk", slow)
        rows = run_experiments(specs)
        assert slept and {row["status"] for row in rows} == {"ok"}
        assert rows[1]["wall_clock_s"] >= sum(slept)
        assert all(row["wall_clock_s"] < sum(slept) / 2 for row in rows[:1] + rows[2:])

    def test_a_later_call_builds_no_handle_or_plan(self, tmp_path, monkeypatch, builds):
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3))
        calls = {"attach": 0, "plans": 0, "trees": 0, "walks": 0}
        attach, tables, walk = attacks.EavesdropperHandle.attach, control_mode._born_tables, cli.run_sessions

        class CountedTree(session.SessionTree):
            def __init__(self, *args):
                calls["trees"] += 1
                super().__init__(*args)

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)
            return counted

        monkeypatch.setattr(attacks.EavesdropperHandle, "attach", counting("attach", attach))
        monkeypatch.setattr(control_mode, "_born_tables", counting("plans", tables))
        monkeypatch.setattr(cli, "run_sessions", counting("walks", walk))
        monkeypatch.setattr(session, "SessionTree", CountedTree)
        per_call, rows = [], []
        for _ in range(2):
            calls.update(attach=0, plans=0, trees=0, walks=0)
            builds.clear()
            rows.append(_stable(run_experiments(specs)))
            per_call.append(dict(calls, built=sorted(builds)))
        # one walk per call takes every session through five trees, one per
        # attack, dim and kind. Only the first call builds handles: four
        # attacks (all but the generic family at D=2) and four control modes,
        # computational at (2, singlet), (3, beta00) and (2, beta00). Only the
        # first builds the five trees and the six groups' detection plans
        # from Born tables, each attaching once; the handles keep them all.
        built = [("attack", "cnot"), ("attack", "generic"), ("attack", "intercept-resend"),
                 ("attack", "qudit-shift"), *[("control", "computational")] * 3, ("control", "two-basis")]
        assert per_call == [dict(attach=11, plans=6, trees=5, walks=1, built=built),
                            dict(attach=0, plans=0, trees=0, walks=1, built=[])]
        assert rows[1] == rows[0]

    def test_a_rewritten_family_file_gives_the_new_familys_rows(self, tmp_path, builds):
        """Every orthonormal family gives the same rows, so the file is
        rewritten with a family that fails to build, and then back."""
        path = tmp_path / "fam.json"
        specs = [spec for spec in _grouped_specs(_family_file(path, 3)) if spec.attack.startswith("generic:")]
        old = _stable(run_experiments(specs))
        assert {row["status"] for row in old} == {"ok"}
        _family_file(path, 3, orthonormal=False)
        new = _stable(run_experiments(specs))
        assert {row["error"] for row in new} == {"BasisError: family is not orthonormal (Gram deviation 1.000e+00)"}
        elsewhere = _family_file(tmp_path / "copy.json", 3, orthonormal=False)
        copied = _stable(run_experiments([dataclasses.replace(spec, attack=elsewhere) for spec in specs]))
        assert new == [dict(row, attack=spec.attack) for row, spec in zip(copied, specs)]
        builds.clear()
        _family_file(path, 3)
        assert _stable(run_experiments(specs)) == old
        assert builds == []  # the first contents' handle is still kept

    @pytest.mark.parametrize(
        "config",
        [
            dict(attack="cnot", control="two-basis", dim=2),
            dict(attack="intercept-resend", control="computational", dim=3),
            dict(attack="qudit-shift", control="computational", dim=4),  # a plan that reads no uniform
        ],
        ids=["cnot-two-basis", "intercept-resend-3", "qudit-shift-4"],
    )
    def test_a_groups_runs_share_one_plan(self, config, monkeypatch, builds):
        """One configuration at several seeds and trial counts builds its
        sampler plan's Born tables once per process, in its first one-run
        call; each row's detection fields are a one-run call's."""
        runs = [(1, 500), (2, 20000), (3, 1), (2, 500), (4, 70000)]
        specs = [RunSpec.from_dict(dict(config, cycles=0, seed=seed, trials=trials)) for seed, trials in runs]
        fields = ("p_det_analytic", "p_det_empirical", "ci_low", "ci_high")
        built = []
        tables = control_mode._born_tables
        monkeypatch.setattr(control_mode, "_born_tables", lambda *args: built.append(args) or tables(*args))
        alone = [{k: execute_run(spec)[k] for k in fields} for spec in specs]
        rows = run_experiments(specs)
        assert len(built) == 1
        assert [{k: row[k] for k in fields} for row in rows] == alone

    def test_a_batch_gives_the_rows_of_one_call_per_configuration(self, tmp_path, monkeypatch, fresh_trees):
        """Sessions of six configurations share and straddle short chunks;
        rows equal one call per configuration, which builds one tree each,
        while the batch builds one per attack, dim and kind."""
        monkeypatch.setattr(rand, "CHUNK", 37)
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3))
        keys = [(spec.attack, spec.dim, spec.control, spec.resolved_kind) for spec in specs]
        built, chunks, draws = [], [], rand.CycleDraws

        class CountedTree(session.SessionTree):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def recording(seeds, tag, ks, blocks):
            chunks.append(seeds.tolist())
            return draws(seeds, tag, ks, blocks)

        monkeypatch.setattr(session, "SessionTree", CountedTree)
        monkeypatch.setattr(rand, "CycleDraws", recording)
        rows = _stable(run_experiments(specs))
        assert len(built) == 5
        config = {spec.seed: key for spec, key in zip(specs, keys)}
        assert max(len({config[seed] for seed in chunk}) for chunk in chunks) > 1
        straddle = [seed for seed in config if sum(seed in chunk for chunk in chunks) > 1]
        assert len(straddle) > 3
        errors = sorted(row["error"] for row in rows if row["status"] == "error")
        assert errors[0].startswith("CoherenceBreakError")
        assert errors[1] == "ValueError: message exhausted before the session finished"
        built.clear()
        apart = {}
        for key in dict.fromkeys(keys):
            mine = [spec for spec, k in zip(specs, keys) if k == key]
            apart.update(zip(mine, _stable(run_experiments(mine))))
        assert rows == [apart[spec] for spec in specs]
        assert len(built) == 6

    @pytest.mark.parametrize("broken", ["branches", "draw"])
    def test_an_error_in_one_configurations_walk_ends_its_sessions_alone(self, tmp_path, monkeypatch, broken):
        """The generic handle's return leg cannot be walked, or cannot be drawn
        (in its draw step, once the chunk's words are computed and before any
        walk of the chunk): its runs report that error, and every
        other row of the batch, whose walk the first intercept-resend run
        starts, is its own."""
        monkeypatch.setattr(rand, "CHUNK", 37)
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3))

        class Unwalkable:
            key, draw = None, ()

            def branches(self, states):
                raise RuntimeError("no table for this edge")

        columns = session.leg_columns

        def undrawable(leg, *args):  # fails the broken configuration's own draw step only
            if any(isinstance(edge, Unwalkable) for edge in leg):
                raise RuntimeError("no table for this edge")
            return columns(leg, *args)

        if broken == "draw":
            monkeypatch.setattr(session, "leg_columns", undrawable)

        build, broken_eves, walk, trees = attacks.from_name, {}, cli.run_sessions, []

        def breaking(name, dim):
            if not name.startswith(attacks.GENERIC_PREFIX):
                return build(name, dim)
            if (name, dim) not in broken_eves:  # one broken handle, as the registry keeps one
                # the registry's is shared: break a new handle of its fields, with stores of its own
                eve = broken_eves[name, dim] = dataclasses.replace(build(name, dim))
                object.__setattr__(eve, "backward_leg", (Unwalkable(),))  # in place of the cached leg
            return broken_eves[name, dim]

        def tracking(cfgs, messages, eves, controls):
            trees.extend((id(eve), cfg.dim, cfg.initial_state_kind) for cfg, eve in zip(cfgs, eves)
                         if any(eve is broken for broken in broken_eves.values()))
            return walk(cfgs, messages, eves, controls)

        monkeypatch.setattr(attacks, "from_name", breaking)
        monkeypatch.setattr(cli, "run_sessions", tracking)
        rows = _stable(run_experiments(specs))
        # the two generic sessions with cycles walk as one configuration
        assert len(trees) == 2 and len(set(trees)) == 1
        failed = [spec.attack.startswith(attacks.GENERIC_PREFIX) and spec.cycles > 0 for spec in specs]
        assert sum(failed) == 2 and not failed[0]
        for row, bad in zip(rows, failed):
            assert (row["error"] == "RuntimeError: no table for this edge") == bad
        others = [spec for spec, bad in zip(specs, failed) if not bad]
        assert [row for row, bad in zip(rows, failed) if not bad] == _stable(run_experiments(others))

    def test_wide_configurations_walk_one_at_a_time(self, tmp_path, monkeypatch, fresh_trees):
        """Four D=16 qudit-shift configurations (one family, four files), each
        attaching a state of 16^3 = SLICE_AMPS amplitudes, walk in chunks of
        their own: the call's peak stays within a few percent of the largest
        one-configuration call's (2-6% above it at 100-600 cycles, against
        2.4-2.8 times with the four walked in one chunk)."""
        states = np.eye(16).tolist()
        family = {key: [[[x, 0.0] for x in state] for state in states] for key in ("detection", "probes")}
        runs = []
        for indent in range(4):
            path = tmp_path / f"shift{indent}.json"
            path.write_text(json.dumps(family, indent=indent))
            runs.append(RunSpec.from_dict(dict(attack=f"generic:{path}", control="computational", dim=16,
                                               cycles=200, trials=100, seed=indent)))
        assert len({(spec.attack, spec.dim, spec.control, spec.resolved_kind) for spec in runs}) == 4
        run_experiments(runs)  # build the cached operators first

        def peak(specs):
            tracemalloc.start()
            try:
                run_experiments(specs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = max(peak([spec]) for spec in runs)
        assert peak(runs) < 1.1 * one
        # after a narrow configuration, whose width leaves room for a D=16
        # pair but not for its ancilla, the five walk in one call, and no
        # chunk holds cycles of two of the four D=16 trees
        walked, walk, chunks, draws = [], cli.run_sessions, [], rand.CycleDraws
        monkeypatch.setattr(cli, "run_sessions", lambda cfgs, *args: walked.append(len(cfgs)) or walk(cfgs, *args))
        monkeypatch.setattr(rand, "CycleDraws", lambda seeds, *args: chunks.append(seeds.tolist()) or draws(seeds, *args))
        run_experiments([RunSpec.from_dict(spec_dict(cycles=20, trials=100, seed=99)), *runs])
        assert walked == [5]
        assert sorted(seed for chunk in chunks for seed in set(chunk)) == [0, 1, 2, 3, 99]
        assert all(len(set(chunk) - {99}) <= 1 for chunk in chunks)

    def test_wide_trees_are_alive_one_at_a_time(self, tmp_path, monkeypatch, fresh_trees):
        """With SLICE_AMPS at 8 amplitudes no two trees share a chunk, so in a
        shuffled call whose generic runs name one family file at two paths
        (two configurations, one tree) each tree is dropped before the next
        is built, and the rows are the unpatched call's."""
        generic = _family_file(tmp_path / "fam.json", 3)
        (tmp_path / "same.json").write_text((tmp_path / "fam.json").read_text())
        specs = [dataclasses.replace(spec, attack=f"generic:{tmp_path / 'same.json'}") if spec.seed == 5 else spec
                 for spec in _grouped_specs(generic)]
        specs = [specs[i] for i in np.random.default_rng(1).permutation(len(specs))]
        want = _stable(run_experiments(specs))
        trees, walked, walk = [], [], cli.run_sessions

        class TrackedTree(session.SessionTree):
            def __init__(self, cfg, eve):
                assert all(ref() is None for ref in trees)  # the last tree is gone
                super().__init__(cfg, eve)
                trees.append(weakref.ref(self.root))

        monkeypatch.setattr(session, "SLICE_AMPS", 8)
        monkeypatch.setattr(session, "SessionTree", TrackedTree)
        monkeypatch.setattr(cli, "run_sessions", lambda cfgs, *args: walked.append(len(cfgs)) or walk(cfgs, *args))
        assert _stable(run_experiments(specs)) == want
        assert walked == [11] and len(trees) == 5

    def test_a_failing_build_fails_every_run_of_its_group_alone(self, tmp_path, builds):
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3, orthonormal=False))
        rows = _stable(run_experiments(specs))
        tried = builds.count(("attack", "generic"))
        # a failed build is not kept: the next call tries it again and fails alike
        assert _stable(run_experiments(specs)) == rows
        assert builds.count(("attack", "generic")) == 2 * tried and tried >= 3
        broken = [row for row, spec in zip(rows, specs) if spec.attack.startswith("generic:")]
        assert len(broken) == 3
        assert all(row["status"] == "error" for row in broken)
        [error] = {row["error"] for row in broken}
        assert error.startswith("BasisError: family is not orthonormal")
        others = [spec for spec in specs if not spec.attack.startswith("generic:")]
        assert [row for row in rows if row not in broken] == _stable(run_experiments(others))


class TestScoreSession:
    def test_uniform_guess_for_abstaining_eve(self):
        from pingpong.attacks import no_attack
        from pingpong.control import computational_control
        from pingpong.protocol import ProtocolConfig
        from pingpong.session import run_session

        cfg = ProtocolConfig(dim=2, control_prob=0.0, n_cycles=4000, seed=3)
        message = [(int(a), int(b)) for a, b in np.random.default_rng(0).integers(0, 2, (4000, 2))]
        transcript = run_session(cfg, message, no_attack(2), computational_control(cfg))
        stats = score_session(transcript, 2, seed=3)
        assert abs(stats["eve_mu_accuracy"] - 0.5) < 0.05
        assert abs(stats["eve_nu_accuracy"] - 0.5) < 0.05
        assert stats["message_integrity"] == 1.0

    def test_no_message_cycles(self):
        from pingpong.attacks import no_attack
        from pingpong.control import computational_control
        from pingpong.protocol import ProtocolConfig
        from pingpong.session import run_session

        cfg = ProtocolConfig(dim=2, control_prob=0.25, n_cycles=0, seed=1)
        stats = score_session(run_session(cfg, [], no_attack(2), computational_control(cfg)), 2, seed=1)
        assert stats["eve_mu_accuracy"] is None
        assert stats["n_message_cycles"] == 0


def _scored_groups(monkeypatch):
    """The cycle counts of the transcripts each `cli.score_sessions` call scores."""
    groups, score = [], cli.score_sessions

    def recording(transcripts, dims, seeds):
        groups.append([len(t) for t in transcripts])
        return score(transcripts, dims, seeds)

    monkeypatch.setattr(cli, "score_sessions", recording)
    return groups


def _hand_made(rng, n_cycles, dim, control_share):
    """A transcript of random columns, with abstaining and guessing message cycles."""
    control = rng.random(n_cycles) < control_share
    n_msg, n_ctrl = int((~control).sum()), int(control.sum())
    return protocol.Transcript(
        control=control,
        symbols=rng.integers(0, dim, size=(n_msg, 2)),
        decoded=rng.integers(0, dim, size=(n_msg, 2)),
        guess=rng.integers(-1, dim, size=n_msg),
        basis_ids=("computational",),
        basis=np.zeros(n_ctrl, dtype=np.int64),
        outcomes=rng.integers(0, dim, size=(n_ctrl, 2)),
        passed=rng.random(n_ctrl) < 0.9,
    )


class TestGroupScoring:
    def test_a_group_scores_each_transcript_like_the_record_scorer(self):
        """Several dims and seeds (one wider than 64 bits), a transcript with
        no message cycle and an empty one, in one call."""
        rng = np.random.default_rng(3)
        transcripts = [_hand_made(rng, 300, 3, 0.3), _hand_made(rng, 40, 2, 1.0), _hand_made(rng, 0, 5, 0.5),
                       _hand_made(rng, 200, 5, 0.0), _hand_made(rng, 150, 2, 0.25)]
        dims, seeds = [3, 2, 5, 5, 2], [6, 1, 2**64 + 1, 9, 2**33]
        want = [oracles.score_records(oracles.records(t), d, s) for t, d, s in zip(transcripts, dims, seeds)]
        assert cli.score_sessions(transcripts, dims, seeds) == want
        assert [score_session(t, d, s) for t, d, s in zip(transcripts, dims, seeds)] == want

    def test_a_walks_transcripts_are_scored_together_around_an_error(self, monkeypatch):
        """One walk of abstaining readouts, an all-control session, a session
        whose fixed message runs out and a coupling attack's session: the
        three transcripts are scored in one group, each as the record scorer
        scores it alone, and the error row keeps its error."""
        specs = [
            RunSpec.from_dict(spec_dict(attack="none", control="computational", cycles=60, seed=1, trials=100)),
            RunSpec.from_dict(spec_dict(cycles=40, control_prob=1.0, seed=2, trials=100)),
            RunSpec.from_dict(spec_dict(cycles=50, message=[[0, 1], [1, 1]], seed=3, trials=100)),
            RunSpec.from_dict(spec_dict(attack="pavicic", cycles=30, seed=4, trials=100)),
        ]
        groups = _scored_groups(monkeypatch)
        rows = run_experiments(specs)
        assert groups == [[60, 40, 30]]
        assert rows[2]["status"] == "error"
        assert rows[2]["error"] == "ValueError: message exhausted before the session finished"
        for spec, row in zip(specs, rows):
            if spec.message is None:
                eve, mode = attacks.from_name(spec.attack, 2), control_mode.from_name(spec.control, spec.config)
                transcript = session.run_session(spec.config, oracles.draw_message(2, spec.cycles, spec.seed), eve, mode)
                want = oracles.score_records(oracles.records(transcript), 2, spec.seed)
                assert {key: row[key] for key in want} == want and row["status"] == "ok"
        assert rows[0]["n_message_cycles"] and rows[0]["eve_mu_accuracy"] is not None
        assert rows[1]["n_message_cycles"] == 0 and rows[1]["eve_mu_accuracy"] is None

    def test_a_long_session_among_short_ones_is_scored_alone(self, monkeypatch):
        """Runs of 20 cycles around one of 5000 (more than `rand.CHUNK`), in one
        walk: the long transcript is scored in a group of its own, and every
        row equals its run's row alone."""
        short = [spec_dict(attack=attack, control=control, cycles=20, seed=seed, trials=100)
                 for seed, (attack, control) in enumerate([("cnot", "two-basis"), ("none", "computational"),
                                                           ("pavicic", "two-basis")] * 2)]
        raw = short[:3] + [spec_dict(cycles=5000, seed=50, trials=100)] + short[3:]
        specs = [RunSpec.from_dict(row) for row in raw]
        alone = [_stable(run_experiments([spec]))[0] for spec in specs]
        groups = _scored_groups(monkeypatch)
        assert _stable(run_experiments(specs)) == alone
        # the walk takes its runs by session tree: the long run follows the first cnot run
        assert groups == [[20], [5000], [20] * 5]


    def test_short_sessions_are_scored_in_groups_of_at_most_a_chunk(self, monkeypatch):
        specs = [RunSpec.from_dict(spec_dict(cycles=20, seed=seed, trials=10)) for seed in range(210)]
        groups = _scored_groups(monkeypatch)
        rows = run_experiments(specs)
        assert groups == [[20] * (rand.CHUNK // 20), [20] * (210 - rand.CHUNK // 20)]
        assert rows[-1] == execute_run(specs[-1]) | {"wall_clock_s": rows[-1]["wall_clock_s"]}


class TestEmit:
    def test_empty_json(self):
        assert json.loads(emit([], "json", None)) == []

    def test_empty_csv_has_header_only(self):
        text = emit([], "csv", None)
        lines = text.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].split(",") == list(REPORT_FIELDS)

    def test_round_trip(self, tmp_path):
        spec = RunSpec.from_dict(spec_dict(control="computational", cycles=20, trials=500))
        rows = run_experiments([spec])
        path = tmp_path / "report.json"
        text = emit(rows, "json", path)
        assert json.loads(path.read_text()) == rows
        assert json.loads(text) == rows

    def test_csv_rows_and_precision(self, tmp_path):
        spec = RunSpec.from_dict(spec_dict(attack="qudit-shift", control="computational",
                                           dim=3, cycles=30, control_prob=0.0, trials=900))
        rows = run_experiments([spec, spec])
        text = emit(rows, "csv", tmp_path / "report.csv")
        lines = text.strip().split("\n")
        assert len(lines) == 3
        header = lines[0].split(",")
        cells = lines[1].split(",")
        third = cells[header.index("eve_nu_accuracy")]
        if third:  # 12 significant digits at most
            mantissa = third.replace("-", "").replace(".", "").lstrip("0")
            assert len(mantissa) <= 12

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], "xml", None)

    def test_sig12_stability(self):
        assert sig12(1 / 3) == sig12(sig12(1 / 3))
        assert sig12(0.25) == 0.25


class TestMain:
    def test_single_run_to_file(self, tmp_path, capsys):
        out = tmp_path / "row.json"
        code = main([
            "--attack", "cnot", "--control", "two-basis", "--dim", "2",
            "--seed", "5", "--cycles", "20", "--trials", "400",
            "--output", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["attack"] == "cnot"
        assert rows[0]["status"] == "ok"

    def test_stdout_when_no_output(self, capsys):
        code = main([
            "--attack", "none", "--control", "computational", "--dim", "2",
            "--seed", "5", "--cycles", "0", "--trials", "100",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["p_det_empirical"] == 0.0

    def test_spec_file_mode(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"runs": [
            spec_dict(control="computational", cycles=0, trials=200),
            spec_dict(attack="qudit-shift", control="computational", dim=4,
                      cycles=0, trials=200, seed=9),
        ]}))
        out = tmp_path / "report.csv"
        code = main(["--spec", str(spec_path), "--format", "csv", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 3

    def test_spec_excludes_single_flags(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("[]")
        assert main(["--spec", str(spec_path), "--attack", "cnot"]) == 2
        assert main(["--spec", str(spec_path), "--cycles", "5"]) == 2

    def test_missing_required_flags(self):
        assert main(["--attack", "cnot"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--dim", "40"], "dim must be <= 32, got 40"),
        (["--dim", "2", "--control-prob", "2"], "control_prob must be in [0, 1], got 2.0"),
        (["--dim", "2", "--control-prob", "nan"], "control_prob must be in [0, 1], got nan"),
        (["--dim", "2", "--message", "0x"], "message chunk '0x' is not a digit pair"),
        (["--dim", "2", "--message", "55,00"], "message symbols (5, 5) out of range for dim 2"),
        (["--dim", "2", "--attack", "bogus"],
         "unknown attack name 'bogus'; choose from " + " | ".join(attacks.ATTACK_NAMES)),
        (["--dim", "2", "--control", "bogus"],
         "unknown control mode 'bogus'; choose from " + " | ".join(control_mode.CONTROL_MODES)),
        (["--dim", "3", "--kind", "qubit_psi_minus"], "qubit_psi_minus requires dim = 2"),
        (["--dim", "2", "--output", "no-such-dir/report.json"], "no directory 'no-such-dir' for --output"),
    ])
    def test_bad_single_run_input_is_a_usage_error(self, flags, message, capsys):
        code = main(["--attack", "cnot", "--control", "two-basis", "--seed", "1", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("payload, message", [
        ({"run": []}, "'runs'"),
        ({"runs": [spec_dict(message=[1, 2])]}, "message must be"),
        ([spec_dict(trials=0)], "trials must be >= 1"),
        ([spec_dict(dim=3, kind="qubit_psi_minus")], "qubit_psi_minus requires dim = 2"),
        ([spec_dict(attack="bogus")], "unknown attack name 'bogus'"),
        ([spec_dict(message=[[2, 0]])], "message symbols (2, 0) out of range for dim 2"),
    ])
    def test_bad_spec_file_is_a_usage_error(self, tmp_path, capsys, payload, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        code = main(["--spec", str(spec_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_missing_spec_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["--spec", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_failing_run_sets_exit_code(self, tmp_path, capsys):
        out = tmp_path / "row.json"
        code = main([
            "--attack", "cnot", "--control", "computational", "--dim", "3",
            "--seed", "5", "--cycles", "0", "--trials", "100",
            "--output", str(out),
        ])
        assert code == 1
        assert json.loads(out.read_text())[0]["status"] == "error"

    def test_fixed_message(self, tmp_path):
        out = tmp_path / "row.json"
        code = main([
            "--attack", "cnot", "--control", "computational", "--dim", "2",
            "--seed", "5", "--cycles", "4", "--control-prob", "0",
            "--trials", "100", "--message", "01,10,11,00",
            "--output", str(out),
        ])
        assert code == 0
        row = json.loads(out.read_text())[0]
        assert row["n_message_cycles"] == 4
        assert row["message_integrity"] == 1.0

    def test_generic_attack_from_file(self, tmp_path):
        rng = np.random.default_rng(8)
        detection = rand_family(rng, 3, 3)
        probes = rand_family(rng, 3, 3)
        fam_path = tmp_path / "families.json"
        fam_path.write_text(json.dumps({
            "detection": [[[z.real, z.imag] for z in s.amps] for s in detection.states],
            "probes": [[[z.real, z.imag] for z in s.amps] for s in probes.states],
        }))
        out = tmp_path / "row.json"
        code = main([
            "--attack", f"generic:{fam_path}", "--control", "computational",
            "--dim", "3", "--seed", "5", "--cycles", "20", "--control-prob", "0",
            "--trials", "1000", "--output", str(out),
        ])
        assert code == 0
        row = json.loads(out.read_text())[0]
        assert row["p_det_empirical"] == 0.0
        assert row["eve_mu_accuracy"] == 1.0


class TestPlanStore:
    """`control.detection_plan` keeps each plan on Eve's handle, by the
    control mode's identity, dim and kind."""

    def test_a_later_call_builds_no_born_table(self, monkeypatch, builds):
        specs = [RunSpec.from_dict(spec_dict(attack=attack, control="computational", dim=dim, cycles=0,
                                             trials=2000, seed=dim))
                 for dim in (2, 3, 5) for attack in ("intercept-resend", "qudit-shift")]
        specs.append(RunSpec.from_dict(spec_dict(cycles=40, seed=1)))
        built = []
        tables = control_mode._born_tables
        monkeypatch.setattr(control_mode, "_born_tables", lambda *args: built.append(args) or tables(*args))
        rows = []
        for _ in range(2):
            built.clear()
            rows.append(_stable(run_experiments(specs)))
            assert {row["status"] for row in rows[-1]} == {"ok"}
            assert len(built) == (len(specs) if len(rows) == 1 else 0)
        assert rows[1] == rows[0]

    def test_a_hand_built_mode_gets_its_own_plan(self):
        cfg = qudit_cfg(3)
        eve, registry = attacks.from_name("intercept-resend", 3), control_mode.from_name("computational", cfg)
        [entry] = registry.bases
        other = control_mode.ControlModeHandle(
            registry.name, registry.dim, (dataclasses.replace(entry, fail=~entry.fail),)
        )
        plan, own = control_mode.detection_plan(eve, registry, cfg), control_mode.detection_plan(eve, other, cfg)
        assert own is not plan
        assert control_mode.detection_plan(eve, registry, cfg) is plan
        assert control_mode.detection_plan(eve, other, cfg) is own
        assert plan.p_analytic == pytest.approx(2 / 3, abs=1e-12)
        assert own.p_analytic == pytest.approx(1 / 3, abs=1e-12)
        assert control_mode.analytic_pdet(eve, other, cfg) == own.p_analytic
        assert control_mode.empirical_pdet(eve, other, cfg, 500).p_analytic == own.p_analytic

    def test_each_kind_gets_its_own_plan(self):
        eve, singlet, beta00 = attacks.no_attack(2), qubit_cfg(), qudit_cfg(2)
        modes = [control_mode.from_name("computational", cfg) for cfg in (singlet, beta00)]
        plans = [control_mode.detection_plan(eve, mode, cfg) for mode, cfg in zip(modes, (singlet, beta00))]
        assert plans[0] is not plans[1] and len(eve.detection_plans) == 2
        # one mode under both kinds: the singlet's mask fails every pair of the correlated state
        mode = modes[0]
        assert control_mode.detection_plan(eve, mode, beta00) is not plans[0]
        p_det = [control_mode.detection_plan(eve, mode, cfg).p_analytic for cfg in (singlet, beta00)]
        assert p_det == pytest.approx([0, 1]) and len(eve.detection_plans) == 3

    def test_a_pushed_out_generic_handle_frees_its_plans(self, tmp_path, builds):
        cfg = qudit_cfg(3)
        mode = control_mode.from_name("computational", cfg)
        attack = _family_file(tmp_path / "fam.json", 0)
        plan = weakref.ref(control_mode.detection_plan(attacks.from_name(attack, 3), mode, cfg))
        gc.collect()
        assert plan() is not None  # its handle is kept
        for seed in range(1, attacks.GENERIC_KEPT + 1):  # GENERIC_KEPT + 1 contents in all
            control_mode.detection_plan(attacks.from_name(_family_file(tmp_path / "fam.json", seed), 3), mode, cfg)
        gc.collect()
        assert plan() is None

    def test_a_dimension_mismatch_raises_on_every_call_and_keeps_nothing(self):
        eve = attacks.qudit_shift_attack(3)
        mode = control_mode.computational_control(qudit_cfg(3))
        for control, cfg in ((control_mode.computational_control(qubit_cfg()), qudit_cfg(3)), (mode, qudit_cfg(2))):
            for _ in range(2):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    control_mode.detection_plan(eve, control, cfg)
        assert eve.detection_plans == {}
        plan = control_mode.detection_plan(eve, mode, qudit_cfg(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            control_mode.detection_plan(eve, mode, qudit_cfg(2))
        [(kept, kept_plan)] = eve.detection_plans.values()
        assert kept is mode and kept_plan is plan


class TestTreeStore:
    """`session.run_sessions` keeps each session tree whose attached state
    fits in one stack (`session.SLICE_AMPS`) on Eve's handle, by dim and
    kind, and takes it from there in a later call."""

    @staticmethod
    def _counting(monkeypatch):
        """Counts of the trees built, the states attached and the nodes grown
        from here on."""
        calls = {"trees": 0, "attach": 0, "nodes": 0}
        attach = attacks.EavesdropperHandle.attach

        class CountedTree(session.SessionTree):
            def __init__(self, *args):
                calls["trees"] += 1
                super().__init__(*args)

        class CountedNode(session._Node):
            def __init__(self, *args):
                calls["nodes"] += 1
                super().__init__(*args)

        def attaching(eve, state):
            calls["attach"] += 1
            return attach(eve, state)

        monkeypatch.setattr(session, "SessionTree", CountedTree)
        monkeypatch.setattr(session, "_Node", CountedNode)
        monkeypatch.setattr(attacks.EavesdropperHandle, "attach", attaching)
        return calls

    def test_a_later_call_builds_no_tree_and_grows_no_node(self, tmp_path, monkeypatch, builds):
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3))
        calls, rows, per_call = self._counting(monkeypatch), [], []
        for _ in range(2):
            calls.update(trees=0, attach=0, nodes=0)
            rows.append(_stable(run_experiments(specs)))
            per_call.append(dict(calls))
        assert per_call[0]["trees"] == 5 and per_call[0]["nodes"] > 100
        assert per_call[1] == dict(trees=0, attach=0, nodes=0)
        assert rows[1] == rows[0]
        # other seeds walk the kept trees and give the rows of fresh trees
        others = [dataclasses.replace(spec, seed=spec.seed + 100) for spec in specs]
        kept = _stable(run_experiments(others))
        assert calls["trees"] == 0
        monkeypatch.setattr(attacks.EavesdropperHandle, "session_trees", property(lambda eve: {}))
        assert _stable(run_experiments(others)) == kept
        assert calls["trees"] == 5

    def test_two_control_modes_of_one_attack_share_one_kept_tree(self, monkeypatch, builds):
        specs = [RunSpec.from_dict(spec_dict(control=control, cycles=40, control_prob=0.5, seed=seed))
                 for seed, control in enumerate(("computational", "two-basis"))]
        calls = self._counting(monkeypatch)
        rows = _stable(run_experiments(specs))
        eve = attacks.from_name("cnot", 2)
        [(key, tree)] = eve.session_trees.items()
        assert key == (2, "qubit_psi_minus") and calls["trees"] == 1
        [post_forward] = tree.root.next.values()
        assert {"computational", "dual"} <= set(post_forward.next)
        assert _stable(run_experiments(specs[::-1])) == rows[::-1]
        assert calls["trees"] == 1 and eve.session_trees[key] is tree

    def test_a_wide_tree_is_not_kept(self, monkeypatch, builds):
        """qudit-shift at D=16 attaches 16^3 = SLICE_AMPS amplitudes and its
        tree is kept; at D=17, 17^3 = 4913, it is freed after the call."""
        trees = []

        class TrackedTree(session.SessionTree):
            def __init__(self, *args):
                super().__init__(*args)
                trees.append(weakref.ref(self))

        monkeypatch.setattr(session, "SessionTree", TrackedTree)
        for dim in (16, 17):
            spec = RunSpec.from_dict(spec_dict(attack="qudit-shift", control="computational", dim=dim,
                                               cycles=30, trials=100))
            assert run_experiments([spec])[0]["status"] == "ok"
        gc.collect()
        narrow, wide = (attacks.from_name("qudit-shift", dim) for dim in (16, 17))
        assert protocol.attached_width(16, narrow) == session.SLICE_AMPS < protocol.attached_width(17, wide)
        assert [ref() for ref in trees] == [narrow.session_trees[16, "qudit_beta00"], None]
        assert wide.session_trees == {}

    def test_a_pushed_out_generic_handle_frees_its_trees(self, tmp_path, builds):
        cfg = qudit_cfg(3, n_cycles=30)
        mode = control_mode.from_name("computational", cfg)
        attack = _family_file(tmp_path / "fam.json", 0)
        session.run_session(cfg, oracles.draw_message(3, 30, 7), attacks.from_name(attack, 3), mode)
        [tree] = map(weakref.ref, attacks.from_name(attack, 3).session_trees.values())
        gc.collect()
        assert tree() is not None  # its handle is kept
        for seed in range(1, attacks.GENERIC_KEPT + 1):  # GENERIC_KEPT + 1 contents in all
            attacks.from_name(_family_file(tmp_path / "fam.json", seed), 3)
        gc.collect()
        assert tree() is None

    @pytest.mark.parametrize("broken", ["SessionTree", "leg_columns", "follow", "pair_probs", "bob_decode"])
    def test_a_tree_that_raises_is_not_kept(self, monkeypatch, broken):
        """A build, draws or walk that raises, a control check's table or
        Bob's decode included, leaves nothing in the store, a tree kept by an
        earlier call included; the next call builds a tree and gives the
        first call's transcript. A kept tree has its tables and leaves built,
        so the store is emptied first for a fault raised in building those."""
        eve, cfg = attacks.qudit_shift_attack(3), qudit_cfg(3, n_cycles=40, control_prob=0.25)
        mode, message = control_mode.from_name("computational", cfg), oracles.draw_message(3, 40, 7)
        first = session.run_session(cfg, message, eve, mode)
        [kept] = eve.session_trees.values()

        def failing(*args):
            raise RuntimeError("no tree for this walk")

        with monkeypatch.context() as broken_call:
            broken_call.setattr(session, broken, failing)
            if broken in ("SessionTree", "pair_probs", "bob_decode"):
                eve.session_trees.clear()
            with pytest.raises(RuntimeError, match="no tree for this walk"):
                session.run_session(cfg, message, eve, mode)
            assert eve.session_trees == {}
        again = session.run_session(cfg, message, eve, mode)
        [rebuilt] = eve.session_trees.values()
        assert rebuilt is not kept
        assert oracles.records(again) == oracles.records(first)
