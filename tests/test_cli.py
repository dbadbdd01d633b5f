import json
import weakref

import numpy as np
import pytest

from conftest import qubit_cfg, rand_family
from pingpong import attacks, cli, protocol
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
    score_session,
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

    def test_a_group_is_freed_after_its_last_run(self, tmp_path, monkeypatch):
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3))
        keys = [cli._group_key(spec) for spec in specs]
        last = {key: i for i, key in enumerate(keys)}
        groups = {}  # key -> weak reference to its group's control handle
        trees = []  # weak references to each walk's tree root

        class TrackedTree(protocol.SessionTree):
            def __init__(self, *args):
                super().__init__(*args)
                trees.append(weakref.ref(self.root))

        original = cli.execute_run

        def checking(spec, group):
            i = specs.index(spec)
            # at its start, a run sees the groups with runs to come only
            alive = {key for key, ref in groups.items() if ref() is not None}
            assert alive == {key for key in groups if last[key] >= i}
            # a group holds its runs' session fields, and no transcript or tree
            assert spec in group["runs"] and "tree" not in group
            assert all(isinstance(fields, dict) for fields, _ in group.get("sessions", {}).values())
            assert set(group.get("sessions", ())) <= set(group["runs"])
            # a walk's tree is freed when the walk ends
            assert all(ref() is None for ref in trees)
            row = original(spec, group)
            if "mode" in group:
                groups.setdefault(keys[i], weakref.ref(group["mode"]))
            return row

        monkeypatch.setattr(cli, "execute_run", checking)
        monkeypatch.setattr(protocol, "SessionTree", TrackedTree)
        run_experiments(specs)
        assert len(groups) == 6 and all(ref() is None for ref in groups.values())
        # one walk per configuration with cycles
        assert len(trees) == 6 and all(ref() is None for ref in trees)

    def test_each_call_builds_its_groups_again(self, tmp_path, monkeypatch):
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3))
        calls = {"attach": 0, "tables": 0, "walks": 0}
        attach, tables, walk = attacks.EavesdropperHandle.attach, control_mode._born_tables, cli.run_sessions

        def counting_attach(self, state):
            calls["attach"] += 1
            return attach(self, state)

        def counting_tables(*args):
            calls["tables"] += 1
            return tables(*args)

        def counting_walk(*args):
            calls["walks"] += 1
            return walk(*args)

        monkeypatch.setattr(attacks.EavesdropperHandle, "attach", counting_attach)
        monkeypatch.setattr(control_mode, "_born_tables", counting_tables)
        monkeypatch.setattr(cli, "run_sessions", counting_walk)
        per_call = []
        for _ in range(2):
            calls.update(attach=0, tables=0, walks=0)
            run_experiments(specs)
            per_call.append(dict(calls))
        # six groups: one attach for detection and one for the session tree
        # each, which one walk takes all the group's sessions through
        assert per_call == [{"attach": 12, "tables": 6, "walks": 6}] * 2

    def test_a_failing_build_fails_every_run_of_its_group_alone(self, tmp_path):
        specs = _grouped_specs(_family_file(tmp_path / "fam.json", 3, orthonormal=False))
        rows = _stable(run_experiments(specs))
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
        from pingpong.protocol import ProtocolConfig, run_session

        cfg = ProtocolConfig(dim=2, control_prob=0.0, n_cycles=4000, seed=3)
        message = [(int(a), int(b)) for a, b in np.random.default_rng(0).integers(0, 2, (4000, 2))]
        records = run_session(cfg, message, no_attack(2), computational_control(cfg))
        stats = score_session(records, 2, seed=3)
        assert abs(stats["eve_mu_accuracy"] - 0.5) < 0.05
        assert abs(stats["eve_nu_accuracy"] - 0.5) < 0.05
        assert stats["message_integrity"] == 1.0

    def test_no_message_cycles(self):
        from pingpong.attacks import no_attack
        from pingpong.control import computational_control
        from pingpong.protocol import ProtocolConfig, run_session

        cfg = ProtocolConfig(dim=2, control_prob=0.25, n_cycles=0, seed=1)
        stats = score_session(run_session(cfg, [], no_attack(2), computational_control(cfg)), 2, seed=1)
        assert stats["eve_mu_accuracy"] is None
        assert stats["n_message_cycles"] == 0


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

    def test_missing_required_flags(self):
        assert main(["--attack", "cnot"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--dim", "40"], "dim must be <= 32, got 40"),
        (["--dim", "2", "--control-prob", "2"], "control_prob must be in [0, 1], got 2.0"),
        (["--dim", "2", "--control-prob", "nan"], "control_prob must be in [0, 1], got nan"),
        (["--dim", "2", "--message", "0x"], "message chunk '0x' is not a digit pair"),
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
