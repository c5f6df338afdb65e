import json
import random

import pytest
from click.testing import CliRunner

from stateforge import StateForge
from rainbowbench.cli import main
from rainbowbench.core import free_colour_zero, instance_from_json, make_instance, make_matching
from rainbowbench.gen import gen_random_instance
from rainbowbench.latin import format_latin_text, gen_cyclic
from rainbowbench.proofkit import PROPERTY_NAMES, Epsilon, run_switch_trace, trace_to_json
from rainbowbench.solver import greedy_rainbow

# the property report trace_to_json records for a state that passes P1-P7
ALL_OK = {name: {"ok": True, "witness": None} for name in PROPERTY_NAMES}


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


class TestGen:
    def test_drisko_writes_four_classes(self, tmp_path):
        out = tmp_path / "inst.json"
        result = run("gen", "drisko", "--n", "3", "-o", str(out))
        assert result.exit_code == 0
        inst = instance_from_json(out.read_text())
        assert inst.n_colours == 4

    def test_random_is_byte_deterministic(self):
        a = run("gen", "random", "--n", "3", "--m", "5", "--seed", "7")
        b = run("gen", "random", "--n", "3", "--m", "5", "--seed", "7")
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_random_seed_and_its_negation_draw_alike(self):
        # random.Random seeds an int by its absolute value, as the --seed help says
        a = run("gen", "random", "--n", "3", "--m", "5", "--seed", "5")
        b = run("gen", "random", "--n", "3", "--m", "5", "--seed", "-5")
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_out_creates_missing_parent_directories(self, tmp_path):
        out = tmp_path / "new" / "dir" / "inst.json"
        assert run("gen", "drisko", "--n", "3", "-o", str(out)).exit_code == 0
        assert out.read_text() == run("gen", "drisko", "--n", "3").output

    def test_drisko_guard_exits_two(self):
        result = run("gen", "drisko", "--n", "1")
        assert result.exit_code == 2

    def test_cyclic(self):
        result = run("gen", "cyclic", "--n", "4")
        assert result.exit_code == 0
        inst = instance_from_json(result.output)
        assert all(len(cls) == 4 for cls in inst.classes)


class TestSolve:
    def test_drisko3_target3_exits_one(self, tmp_path):
        path = tmp_path / "inst.json"
        run("gen", "drisko", "--n", "3", "-o", str(path))
        result = run(
            "solve", "--in", str(path), "--target", "3", "--oracle-fallback"
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["size"] == 2
        assert payload["certified_optimal"] is True

    @pytest.mark.parametrize(
        "option",
        [
            ("--budget-nodes", "0"),
            ("--budget-seconds", "-1"),
            ("--budget-seconds", "nan"),
            ("--target", "0"),
            ("--target", "-4"),
        ],
        ids=["budget-nodes", "budget-seconds", "budget-seconds-nan", "target-zero",
             "target-negative"],
    )
    def test_out_of_range_option_exits_two(self, tmp_path, option):
        path = tmp_path / "inst.json"
        run("gen", "drisko", "--n", "3", "-o", str(path))
        result = run("solve", "--in", str(path), "--target", "2", *option)
        assert result.exit_code == 2
        assert option[0] in result.output

    def test_target_above_n_colours_exits_two(self, tmp_path):
        path = tmp_path / "inst.json"
        run("gen", "random", "--n", "8", "--m", "3", "-o", str(path))
        result = run("solve", "--in", str(path), "--target", "9")
        assert result.exit_code == 2
        assert "Error: target 9 exceeds n_colours 8" in result.output

    def test_drisko3_target2_exits_zero(self, tmp_path):
        path = tmp_path / "inst.json"
        run("gen", "drisko", "--n", "3", "-o", str(path))
        result = run("solve", "--in", str(path), "--target", "2")
        assert result.exit_code == 0
        assert json.loads(result.output)["size"] == 2

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        result = run("solve", "--in", str(path), "--target", "1")
        assert result.exit_code == 2

    def test_negative_vertex_index_exits_two(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"n_colours": 1, "a_size": 2, "b_size": 2, "classes": [[[0, -1]]]}')
        result = run("solve", "--in", str(path), "--target", "1")
        assert result.exit_code == 2
        assert "non-negative" in result.output

    def test_negative_universe_size_exits_two(self, tmp_path):
        # used to pass validation and report certified_optimal: true
        path = tmp_path / "inst.json"
        path.write_text('{"n_colours": 1, "a_size": -3, "b_size": -3, "classes": [[]]}')
        result = run("solve", "--in", str(path), "--target", "1", "--oracle-fallback")
        assert result.exit_code == 2
        assert "universe size must be non-negative" in result.output

    def test_non_integer_size_exits_two(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"n_colours": 1, "a_size": 2.9, "b_size": true, "classes": [[[0, 0]]]}')
        result = run("solve", "--in", str(path), "--target", "1")
        assert result.exit_code == 2
        assert "expected an integer" in result.output

    def test_repeated_pair_exits_two(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"n_colours": 1, "a_size": 1, "b_size": 1, "classes": [[[0, 0], [0, 0]]]}')
        result = run("solve", "--in", str(path), "--target", "1")
        assert result.exit_code == 2
        assert "repeated pair [0, 0]" in result.output

    def test_output_is_json_dumps_indent_2(self, tmp_path):
        path = tmp_path / "inst.json"
        run("gen", "drisko", "--n", "3", "-o", str(path))
        result = run("solve", "--in", str(path), "--target", "3", "--oracle-fallback")
        assert result.output == json.dumps(json.loads(result.output), indent=2) + "\n"

    def test_workers_option_exits_two(self, tmp_path):
        # the oracle runs one search in this process; solve has no --workers option
        path = tmp_path / "inst.json"
        run("gen", "drisko", "--n", "4", "-o", str(path))
        result = run(
            "solve", "--in", str(path), "--target", "4", "--oracle-fallback", "--workers", "2"
        )
        assert result.exit_code == 2
        assert "No such option" in result.output and "--workers" in result.output


class TestExperiment:
    def test_f2_m3_no_counterexample(self):
        result = run("experiment", "f", "--n", "2", "--m", "3", "--mode", "exhaustive")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("n,m,ell,mode")
        assert lines[1].split(",")[6] == "false"

    def test_f2_m2_writes_witness(self, tmp_path):
        result = run(
            "experiment", "f", "--n", "2", "--m", "2", "--mode", "exhaustive",
            "--witness-dir", str(tmp_path),
        )
        assert result.exit_code == 0
        csv_lines = [l for l in result.output.strip().splitlines() if "," in l]
        row = csv_lines[1].split(",")
        assert row[6] == "true"
        witnesses = list(tmp_path.glob("counterexample_*.json"))
        assert len(witnesses) == 1
        inst = instance_from_json(witnesses[0].read_text())
        assert inst.n_colours == 2

    def test_randomized_counterexample_writes_seeded_witness(self, tmp_path):
        result = run(
            "experiment", "f", "--n", "2", "--m", "1", "--mode", "randomized",
            "--trials", "50", "--witness-dir", str(tmp_path),
        )
        assert result.exit_code == 0
        witness = tmp_path / "counterexample_n2_m1_ell0_randomized_seed0.json"
        assert [p.name for p in tmp_path.iterdir()] == [witness.name]
        assert instance_from_json(witness.read_text()).n_colours == 2

    @pytest.mark.parametrize(
        "args",
        [("f", "--trials", "-5"), ("mu", "--ell", "1", "--trials", "-5"), ("f",)],
        ids=["f-negative", "mu-negative", "f-default-zero"],
    )
    def test_randomized_sweep_without_trials_exits_two(self, args):
        result = run(
            "experiment", args[0], "--n", "3", "--m", "3", "--mode", "randomized", *args[1:]
        )
        assert result.exit_code == 2
        assert "trials" in result.output

    def test_mu_randomized_completes(self):
        result = run(
            "experiment", "mu", "--n", "4", "--ell", "1", "--m", "6",
            "--mode", "randomized", "--trials", "1000", "--seed", "1",
        )
        assert result.exit_code == 0
        assert result.output.strip().splitlines()[1].split(",")[6] == "false"

    def test_json_format(self):
        result = run(
            "experiment", "f", "--n", "2", "--m", "3", "--mode", "exhaustive",
            "--format", "json",
        )
        payload = json.loads(result.output)
        assert payload["counterexample_found"] is False
        assert payload["instances_checked"] == 2400
        assert result.output == json.dumps(payload, indent=2) + "\n"

    def test_bad_mode_arguments_exit_two(self):
        assert run("experiment", "f", "--n", "3", "--m", "3", "--mode", "exhaustive").exit_code == 2


class TestVerifyTrace:
    def _trace_text(self):
        rng = random.Random(5)
        forge = StateForge(rng, 6, 0, [])
        forge.add_pool_witness()
        forge.add_pool_witness()
        forge.plant_extension()
        st = forge.freeze()
        trace = run_switch_trace(st.inst, st.r, Epsilon.parse("1"), max_steps=4)
        assert trace.steps
        return trace_to_json(trace)

    def test_good_trace_exits_zero(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(self._trace_text())
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 0

    def test_tampered_trace_exits_one_naming_property(self, tmp_path):
        payload = json.loads(self._trace_text())
        for step in payload["steps"]:
            if step["kind"] == "extended":
                step["state"]["g_seq"][0][0] = step["state"]["pi"][1]
                break
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 1
        assert "P2" in result.output
        assert "step 0" in result.output

    def test_malformed_step_exits_two(self, tmp_path):
        for step in ({"kind": "extended"}, {"kind": "augmented"}, "extended"):
            payload = json.loads(self._trace_text())
            payload["steps"].append(step)
            path = tmp_path / "trace.json"
            path.write_text(json.dumps(payload))
            result = run("verify-trace", "--in", str(path))
            assert result.exit_code == 2, step
            assert "step 1" in result.output

    def test_step_repeating_the_base_exits_one(self, tmp_path):
        payload = json.loads(self._trace_text())
        payload["steps"] = [
            {"kind": "extended", "state": payload["base_state"], "properties": ALL_OK}
        ]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 1
        assert "step 0: chain broken" in result.output

    def test_invalid_instance_exits_two(self, tmp_path):
        payload = json.loads(self._trace_text())
        payload["instance"]["classes"][1].append([20, 20])
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "invalid instance" in result.output

    def test_repeated_instance_pair_exits_two(self, tmp_path):
        payload = json.loads(self._trace_text())
        pairs = next(pairs for pairs in payload["instance"]["classes"] if pairs)
        pairs.append(list(pairs[0]))
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "repeated pair" in result.output

    def test_repeated_pool_index_exits_two(self, tmp_path):
        # a repeated index in X_1 is malformed, not a smaller set
        inst = gen_random_instance(5, 6, a_size=6, b_size=6, seed=6)
        inst0, r0, _ = free_colour_zero(inst, greedy_rainbow(inst, 0))
        payload = json.loads(trace_to_json(run_switch_trace(inst0, r0, Epsilon.parse("1"))))
        assert [step["kind"] for step in payload["steps"]] == ["extended", "extended"]
        for step in payload["steps"]:
            pool = step["state"]["x_sets"][0]
            pool.append(pool[0])
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "x_sets[0]: repeated index" in result.output

    def test_negative_vertex_index_exits_two(self, tmp_path):
        payload = json.loads(self._trace_text())
        payload["instance"]["classes"][1].append([-1, 20])
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "non-negative" in result.output

    def test_negative_universe_size_exits_two(self, tmp_path):
        payload = json.loads(self._trace_text())
        payload["instance"]["b_size"] = -3
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "universe size must be non-negative" in result.output

    def test_string_for_an_array_exits_two(self, tmp_path):
        # the base's x_sets is empty, so a string read as a sequence would pass
        payload = json.loads(self._trace_text())
        payload["base_state"]["x_sets"] = ""
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "expected an array" in result.output

    def test_non_integer_state_field_exits_two(self, tmp_path):
        payload = json.loads(self._trace_text())
        payload["base_state"]["t"] = float(payload["base_state"]["t"])
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "expected an integer" in result.output

    def test_non_canonical_eps_exits_two(self, tmp_path):
        payload = json.loads(self._trace_text())
        for state in [payload["base_state"]] + [step["state"] for step in payload["steps"]]:
            state["eps"] = 1.0
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "eps must be a canonical fraction string" in result.output

    def test_base_state_initial_state_cannot_build_exits_one(self, tmp_path):
        payload = json.loads(self._trace_text())
        payload["steps"] = []
        payload["base_state"]["t"] = 7
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 1
        assert "base state: t = 7, expected 1" in result.output

    def test_repeated_r_row_exits_two(self, tmp_path):
        payload = json.loads(self._trace_text())
        rows = payload["base_state"]["r"]
        rows.append(list(rows[0]))
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "repeated row" in result.output

    def test_forged_property_report_exits_one(self, tmp_path):
        payload = json.loads(self._trace_text())
        payload["steps"][0]["properties"]["P3"] = {"ok": False, "witness": "forged"}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 1
        assert "step 0: recorded property report differs from the checked one" in result.output

    def test_missing_property_report_exits_two(self, tmp_path):
        payload = json.loads(self._trace_text())
        del payload["steps"][0]["properties"]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        result = run("verify-trace", "--in", str(path))
        assert result.exit_code == 2
        assert "malformed trace JSON: step 0" in result.output

    def test_empty_trace_exits_zero(self, tmp_path):
        payload = json.loads(self._trace_text())
        payload["steps"] = []
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        assert run("verify-trace", "--in", str(path)).exit_code == 0


class TestConvert:
    def test_latin_to_instance(self, tmp_path):
        sq = tmp_path / "sq.txt"
        sq.write_text(format_latin_text(gen_cyclic(4)))
        result = run("convert", "latin-to-instance", "--in", str(sq))
        inst = instance_from_json(result.output)
        assert inst.n_colours == 4
        assert all(len(cls) == 4 for cls in inst.classes)

    def test_square_round_trip_is_byte_identical(self, tmp_path):
        sq = tmp_path / "sq.txt"
        sq.write_text(format_latin_text(gen_cyclic(4)))
        inst_file = tmp_path / "inst.json"
        assert run("convert", "latin-to-instance", "--in", str(sq), "-o", str(inst_file)).exit_code == 0
        back = run("convert", "instance-to-latin", "--in", str(inst_file))
        assert back.output == sq.read_text()

    def test_non_latin_input_exits_two_listing_violations(self, tmp_path):
        sq = tmp_path / "sq.txt"
        sq.write_text("2\n0 1\n0 1\n")
        result = run("convert", "latin-to-instance", "--in", str(sq))
        assert result.exit_code == 2
        assert "repeats" in result.output

    def test_transversal_round_trip(self, tmp_path):
        sq = tmp_path / "sq.txt"
        sq.write_text(format_latin_text(gen_cyclic(5)))
        # full transversal of the odd cyclic square: symbols i + 2i = 3i are distinct mod 5
        entries = [[i, (2 * i) % 5] for i in range(5)]
        tfile = tmp_path / "t.json"
        tfile.write_text(json.dumps(entries))
        got = run("convert", "transversal-to-rainbow", "--square", str(sq), "--in", str(tfile))
        assert got.exit_code == 0
        mfile = tmp_path / "m2.json"
        mfile.write_text(got.output)
        back = run("convert", "rainbow-to-transversal", "--square", str(sq), "--in", str(mfile))
        assert back.exit_code == 0
        assert sorted(json.loads(back.output)) == sorted(entries)

    def test_repeated_transversal_entry_exits_two(self, tmp_path):
        # used to be folded into one entry, exit 0
        sq = tmp_path / "sq.txt"
        sq.write_text(format_latin_text(gen_cyclic(5)))
        tfile = tmp_path / "t.json"
        tfile.write_text("[[0, 0], [0, 0]]")
        result = run("convert", "transversal-to-rainbow", "--square", str(sq), "--in", str(tfile))
        assert result.exit_code == 2
        assert "repeated entry [0, 0]" in result.output

    @pytest.mark.parametrize("text", ['{"01": 5}', '["01"]', "[[0, 1.0]]", "[[true, 0]]"])
    def test_transversal_rows_must_be_integer_arrays(self, tmp_path, text):
        sq = tmp_path / "sq.txt"
        sq.write_text(format_latin_text(gen_cyclic(5)))
        tfile = tmp_path / "t.json"
        tfile.write_text(text)
        result = run("convert", "transversal-to-rainbow", "--square", str(sq), "--in", str(tfile))
        assert result.exit_code == 2
        assert "expected an array" in result.output

    def test_repeated_matching_row_exits_two(self, tmp_path):
        sq = tmp_path / "sq.txt"
        sq.write_text(format_latin_text(gen_cyclic(5)))
        mfile = tmp_path / "m.json"
        mfile.write_text("[[0, 0, 0], [0, 0, 0]]")
        result = run("convert", "rainbow-to-transversal", "--square", str(sq), "--in", str(mfile))
        assert result.exit_code == 2
        assert "repeated row" in result.output


class TestMalformedInputFiles:
    """A file that cannot be read or decoded exits 2 with an Error: line, never a traceback."""

    COMMANDS = {
        "solve": ("solve", "--target", "1"),
        "verify-trace": ("verify-trace",),
        "instance-to-latin": ("convert", "instance-to-latin"),
        "rainbow-to-transversal": ("convert", "rainbow-to-transversal", "--square", "SQUARE"),
        "transversal-to-rainbow": ("convert", "transversal-to-rainbow", "--square", "SQUARE"),
    }

    def invoke(self, tmp_path, command, content):
        square = tmp_path / "sq.txt"
        square.write_text(format_latin_text(gen_cyclic(5)))
        path = tmp_path / "in.json"
        path.write_bytes(content)
        args = [str(square) if a == "SQUARE" else a for a in self.COMMANDS[command]]
        return run(*args, "--in", str(path))

    @staticmethod
    def assert_data_error(result, *parts):
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: ")
        assert all(part in result.output for part in parts)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_json_nested_too_deeply_exits_two(self, tmp_path, command):
        result = self.invoke(tmp_path, command, b"[" * 200_000)
        self.assert_data_error(result, "in.json: ", "JSON nested too deeply")

    @pytest.mark.parametrize("command", ["solve", "verify-trace", "instance-to-latin"])
    def test_file_that_is_not_utf8_exits_two(self, tmp_path, command):
        result = self.invoke(tmp_path, command, b'{"mode": "\xff\xfe"}')
        self.assert_data_error(result, "cannot read", "in.json", "codec can't decode")

    def test_stdin_that_is_not_utf8_exits_two(self):
        result = run("solve", "--in", "-", "--target", "1", input=b"\xff\xfe")
        self.assert_data_error(result, "cannot read -", "codec can't decode")

    def test_unwritable_witness_dir_exits_two(self, tmp_path):
        regular = tmp_path / "file"
        regular.write_text("")
        result = run(
            "experiment", "f", "--n", "2", "--m", "2", "--mode", "exhaustive",
            "--witness-dir", str(regular / "sub"),
        )
        self.assert_data_error(result, "cannot write", "Not a directory")


class TestInvalidInstanceLines:
    """solve --in and verify-trace word an invalid instance's violations exactly."""

    # a trace from the base r = {a1b1@1, a2b2@2, a3b3@3} on this instance ends in one augmentation
    CLASSES = [[[4, 1], [9, 9]], [[1, 1]], [[2, 2]], [[3, 3]]]
    FAULTS = {
        "non-matching": ([(1, [1, 5])], "colour 1 is not a matching: a1b1 and a1b5 share a1"),
        "out-of-range": (
            [(2, [20, 5])], "colour 2 edge a20b5: a20 outside universe of size 12"
        ),
        "both": (
            [(0, [4, 20]), (3, [0, 3])],
            "colour 0 is not a matching: a4b1 and a4b20 share a4; "
            "colour 0 edge a4b20: b20 outside universe of size 12; "
            "colour 3 is not a matching: a0b3 and a3b3 share b3",
        ),
    }

    def files(self, tmp_path, fault):
        added, _ = self.FAULTS[fault]
        inst = make_instance([list(map(tuple, pairs)) for pairs in self.CLASSES], 12, 12)
        trace = run_switch_trace(
            inst, make_matching([(c, c, c) for c in range(1, 4)]), Epsilon.parse("1")
        )
        payload = json.loads(trace_to_json(trace))
        for colour, pair in added:
            payload["instance"]["classes"][colour].append(pair)
        inst_path, trace_path = tmp_path / "inst.json", tmp_path / "trace.json"
        inst_path.write_text(json.dumps(payload["instance"]))
        trace_path.write_text(json.dumps(payload))
        return inst_path, trace_path

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_solve_names_every_violation(self, tmp_path, fault):
        inst_path, _ = self.files(tmp_path, fault)
        result = run("solve", "--in", str(inst_path), "--target", "1")
        assert result.exit_code == 2
        assert result.output == f"Error: invalid instance in {inst_path}: {self.FAULTS[fault][1]}\n"

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_verify_trace_names_every_violation(self, tmp_path, fault):
        _, trace_path = self.files(tmp_path, fault)
        result = run("verify-trace", "--in", str(trace_path))
        assert result.exit_code == 2
        assert result.output == (
            f"Error: {trace_path}: malformed trace JSON: invalid instance: "
            f"{self.FAULTS[fault][1]}\n"
        )
