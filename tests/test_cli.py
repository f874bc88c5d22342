import json

import pytest

from forcelab.cli import main
from forcelab.graphs import format_edge_list, path_graph, star_graph
from forcelab.solvers import atlas_stream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_ladder(capsys, inputs_dir):
    code, out, _ = run(
        capsys,
        "simulate", "--rule", "z",
        "--graph", str(inputs_dir / "ladder_p4xp2.edges"),
        "--blue", "0,4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pt"] == 3 and payload["ok"]


def test_simulate_stall_exits_one(capsys, tmp_path):
    target = tmp_path / "star.edges"
    target.write_text(format_edge_list(star_graph(3)))
    code, out, _ = run(capsys, "simulate", "--rule", "z", "--graph", str(target),
                       "--blue", "0")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_simulate_prints_a_repeated_blue_vertex_once(capsys, tmp_path):
    # propagate() starts from the set {0}, as a schedule file's base is read.
    target = tmp_path / "p3.edges"
    target.write_text(format_edge_list(path_graph(3)))
    code, out, _ = run(capsys, "simulate", "--rule", "z", "--graph", str(target),
                       "--blue", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["base"] == [0] and payload["pt"] == 2


def test_simulate_validates_supplied_schedule(capsys, inputs_dir):
    code, out, _ = run(
        capsys,
        "simulate", "--rule", "z",
        "--graph", str(inputs_dir / "grid_3x4.edges"),
        "--blue", "0,4,8",
        "--chronology", str(inputs_dir / "grid_3x4_chronology.json"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["ct"] == 8


def test_simulate_invalid_schedule_exits_one(capsys, tmp_path, inputs_dir):
    bad = {"rule": "standard", "base": [0], "steps": [[[0, 1]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(
        capsys,
        "simulate", "--rule", "z",
        "--graph", str(inputs_dir / "grid_3x4.edges"),
        "--chronology", str(path),
    )
    assert code == 1
    assert json.loads(err)["error"] == "ChronologyError"


def test_simulate_validates_rigid_linkage_schedule(capsys, tmp_path):
    graph_path = tmp_path / "p4.edges"
    graph_path.write_text(format_edge_list(path_graph(4)))
    chron = {"rule": "rigid_linkage", "base": [0],
             "steps": [[[0, 1]], [[1, 2]], [[2, 3]]]}
    chron_path = tmp_path / "rl.json"
    chron_path.write_text(json.dumps(chron))
    code, out, _ = run(capsys, "simulate", "--rule", "rl",
                       "--graph", str(graph_path),
                       "--chronology", str(chron_path))
    assert code == 0
    assert json.loads(out)["valid"]


def test_solve_grid_psd_time(capsys, inputs_dir):
    code, out, _ = run(
        capsys,
        "solve", "--param", "ptplus",
        "--graph", str(inputs_dir / "p5xp2.edges"),
        "-m", "2",
    )
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_solve_infeasible_exits_one(capsys, inputs_dir):
    code, _, err = run(
        capsys,
        "solve", "--param", "pt",
        "--graph", str(inputs_dir / "p5xp2.edges"),
        "-m", "1",
    )
    assert code == 1
    assert json.loads(err)["error"] == "InfeasibleError"


def test_witness_verify_tree(capsys, inputs_dir):
    code, out, _ = run(
        capsys,
        "witness", "verify",
        "--graph", str(inputs_dir / "tree_three_paths.edges"),
        "--witness", str(inputs_dir / "tree_three_paths_witness.json"),
    )
    assert code == 0
    assert json.loads(out)["valid"]


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["witness", "extract"], "witness extract needs --chronology"),
        (["witness", "apply"], "witness apply needs --witness"),
        (["witness", "verify"], "witness verify needs --witness"),
        (["solve", "--param", "z", "-m", "2"], "parameter 'z' takes no m"),
        (["solve", "--param", "thrplus", "-m", "2"], "parameter 'thrplus' takes no m"),
    ],
)
def test_missing_or_unused_flag_exits_one(capsys, inputs_dir, argv, detail):
    code, out, err = run(capsys, *argv, "--graph", str(inputs_dir / "grid_3x4.edges"))
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": detail}


def test_witness_extract_apply_round_trip(capsys, tmp_path, inputs_dir):
    code, out, _ = run(
        capsys,
        "witness", "extract",
        "--graph", str(inputs_dir / "grid_3x4_chords.edges"),
        "--chronology", str(inputs_dir / "grid_3x4_chronology.json"),
    )
    assert code == 0
    witness_path = tmp_path / "w.json"
    witness_path.write_text(out)
    with open(inputs_dir / "grid_3x4_witness.json") as fh:
        assert json.loads(out) == json.load(fh)
    code, out, _ = run(
        capsys,
        "witness", "apply",
        "--graph", str(inputs_dir / "grid_3x4_chords.edges"),
        "--witness", str(witness_path),
    )
    assert code == 0
    with open(inputs_dir / "grid_3x4_chronology.json") as fh:
        assert json.loads(out) == json.load(fh)


def test_family_generate_extremes(capsys, inputs_dir):
    code, out, _ = run(
        capsys,
        "family", "generate",
        "--partitions", str(inputs_dir / "fan_partitions.json"),
        "--mode", "extremes",
    )
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    header, members = lines[0], lines[1:]
    assert len(header["path_edges"]) == 6
    assert len(header["optional_edges"]) == 13
    assert len(members) == 2
    assert members[0]["certified_Z_upper"] == 3
    assert len(members[1]["edges"]) == 19


def test_bundle_roundtrip_commands(capsys, tmp_path):
    graph_path = tmp_path / "p5.edges"
    graph_path.write_text(format_edge_list(path_graph(5)))
    chron = {"rule": "psd", "base": [0],
             "steps": [[[0, 1]], [[1, 2]], [[2, 3]], [[3, 4]]]}
    chron_path = tmp_path / "chron.json"
    chron_path.write_text(json.dumps(chron))

    code, out, _ = run(capsys, "bundle", "induce", "--graph", str(graph_path),
                       "--chronology", str(chron_path), "--vertex", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["paths"] == [[0, 1, 2, 3, 4]]
    assert payload["terminus"] == [4]

    code, out, _ = run(capsys, "bundle", "reverse", "--graph", str(graph_path),
                       "--chronology", str(chron_path), "--vertex", "4")
    assert code == 0
    assert json.loads(out)["base"] == [4]

    code, out, _ = run(capsys, "bundle", "certify", "--graph", str(graph_path),
                       "--chronology", str(chron_path), "--vertex", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "valid"
    assert payload["alpha"] == [0] and payload["beta"] == [4]


def test_verify_bounds_csv_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "bounds", "--graphs", "all-n:4")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "bounds", "--graphs", "all-n:4")
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "graph_id,n,m,Z,pt,bound,pt_plus_achieved,ppt_achieved,status"
    assert all(ln.endswith(",pass") for ln in out1.splitlines()[1:])


def test_verify_bounds_jobs_agree(capsys):
    _, serial, _ = run(capsys, "verify", "bounds", "--graphs", "all-n:4")
    _, parallel, _ = run(capsys, "verify", "bounds", "--graphs", "all-n:4",
                         "--jobs", "2")
    assert serial == parallel


def test_export_dot_slice_colors(capsys, inputs_dir):
    code, out, _ = run(
        capsys,
        "export", "dot",
        "--graph", str(inputs_dir / "grid_3x4_chords.edges"),
        "--slice", "4",
        "--chronology", str(inputs_dir / "grid_3x4_chronology.json"),
    )
    assert code == 0
    assert 'fillcolor="dodgerblue"' in out
    assert 'fillcolor="gray75"' in out
    assert out.count("--") == 21


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--graph", "x.edges"])  # missing --rule
    assert err.value.code == 2


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "solve", "--param", "z", "--graph", "no_such.edges")
    assert code == 1
    assert "error" in json.loads(err)


def _graph_file(tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text(format_edge_list(path_graph(4)))
    return str(path)


@pytest.mark.parametrize(
    "argv, payload",
    [
        (
            ["simulate", "--rule", "z", "--chronology"],
            {"rule": "standard", "base": [0]},
        ),
        (["simulate", "--rule", "z", "--chronology"], [[0, 1]]),
        (["witness", "apply", "--witness"], {"K": 2, "paths": [[0]]}),
        (["witness", "apply", "--witness"], [2]),
        (["witness", "verify", "--witness"], {"K": 2, "paths": [[0]]}),
        (["witness", "verify", "--witness"], []),
        (["family", "generate", "--partitions"], {"K": 2}),
        (["family", "generate", "--partitions"], [{"K": 2}]),
    ],
)
def test_malformed_json_files_exit_one(capsys, tmp_path, argv, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    argv = argv + [str(path)]
    if argv[0] != "family":
        argv += ["--graph", _graph_file(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "GraphFormatError"
    if isinstance(payload, dict):
        assert "missing key" in error["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--graphs", "all-n:9"],
        ["--graphs", "all-n:3", "--checks", "nope"],
        ["--graphs", "all-n:3", "--checks", "bounds,nope", "--jobs", "2"],
        ["--graphs", "all-n:3", "--jobs", "0"],
        ["--graphs", "all-n:3", "--jobs", "-3"],
    ],
)
def test_verify_bounds_bad_arguments_write_nothing(capsys, argv):
    code, out, err = run(capsys, "verify", "bounds", *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "error" in json.loads(err)


_SIMULATE = ["simulate", "--rule", "z", "--chronology"]
_CHRONOLOGY = {"rule": "standard", "base": [0], "steps": [[[0, 1]], [[1, 2]], [[2, 3]]]}
_WITNESS = {"K": 3, "paths": [[0, 1, 2, 3]], "blocks": [[[0, 0], [1, 1], [2, 2], [3, 3]]]}


@pytest.mark.parametrize(
    "argv, payload, key",
    [
        (_SIMULATE, {**_CHRONOLOGY, "steps": 5}, "steps"),
        (_SIMULATE, {**_CHRONOLOGY, "base": 5}, "base"),
        (_SIMULATE, {**_CHRONOLOGY, "steps": [[[5]]]}, "steps"),
        (_SIMULATE, {**_CHRONOLOGY, "base": [None]}, "base"),
        (["witness", "verify", "--witness"], {**_WITNESS, "paths": 5}, "paths"),
        (["family", "generate", "--partitions"], {"K": 2, "partitions": 5}, "partitions"),
    ],
    ids=["steps-int", "base-int", "force-short", "base-null", "paths-int", "partitions-int"],
)
def test_wrong_typed_json_values_exit_one(capsys, tmp_path, argv, payload, key):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    argv = argv + [str(path)]
    if argv[0] != "family":
        argv += ["--graph", _graph_file(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "GraphFormatError"
    assert repr(key) in error["detail"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_bounds_bad_graph6_line_writes_nothing(capsys, tmp_path, jobs):
    lines = [g6 for g6, _ in atlas_stream(max_n=4)][:9] + ["not graph6 ~~~"]
    path = tmp_path / "graphs.g6"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", "bounds", "--graphs", str(path), "--jobs", jobs)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "error" in json.loads(err)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_bounds_graph_over_the_sweep_cap_writes_nothing(capsys, tmp_path, jobs):
    # a 4-vertex graph, then the 3x5 grid (15 vertices, above the cap of 14)
    path = tmp_path / "graphs.g6"
    path.write_text("Cr\nNhEAHCPAGG?P?P?G_AG\n")
    code, out, err = run(capsys, "verify", "bounds", "--graphs", str(path), "--jobs", jobs)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "CapExceeded"


def test_verify_bounds_atlas_over_an_env_cap_writes_nothing(capsys, monkeypatch):
    monkeypatch.setenv("FORCELAB_CAP", "5")
    code, out, err = run(capsys, "verify", "bounds", "--graphs", "all-n:7")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "CapExceeded"
