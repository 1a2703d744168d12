import io
import json

import pytest

from dt4vertex import cli, signsearch, vertexcalc
from dt4vertex.cache import VertexCache, _checksum
from dt4vertex.cli import main, parse_legs
from dt4vertex.exactalg import FactoredWeightProduct
from dt4vertex.partitions import EMPTY_PP, PlanePartition, enumerate_dt
from dt4vertex.toric import cm_assignments, preset_local_p2
from dt4vertex.vertexcalc import SQRT_CONVENTION, SqrtEuler


def run(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


def plant(monkeypatch, module, name, hit):
    """Scale by 2 each root that ``module.name`` returns at a fixed point
    where ``hit`` holds."""
    real = getattr(module, name)

    def planted(point, subst=None, cache=None):
        key, root = real(point, subst, cache)
        if hit(point):
            root = SqrtEuler(FactoredWeightProduct(1, 2) * root.value, root.parity)
        return key, root

    monkeypatch.setattr(module, name, planted)


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_json_does_not_carry_over(self):
        argv = ["check", "nekrasov", "--order", "1"]
        rc, doc = run(argv + ["--json"])
        assert rc == 0 and json.loads(doc)["ok"] is True
        rc, text = run(argv)
        assert rc == 0 and text.startswith("check nekrasov: PASS\n")

    def test_usage_error_and_help(self, capsys):
        # argparse reports on stderr and stdout; main prints nothing itself
        assert run(["check", "nekrasov", "--order", "1", "--bogus"]) == (2, "")
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run(["check", "nekrasov", "--bogus"]) == (2, "")
        assert "required: --order" in capsys.readouterr().err
        assert run(["check", "nekrasov", "--help"]) == (0, "")
        assert capsys.readouterr().out.startswith("usage: dt4vertex check nekrasov ")


class TestNoConsistentSigns:
    """A sign solve without a solution fails the identity: whichever
    command ran it prints one FAIL line and exits 1."""

    GLOBAL = ["check", "global", "--geometry", "localp2", "--beta", "1", "--order", "3"]

    def test_dtpt_chart(self, monkeypatch):
        plant(monkeypatch, signsearch, "pt_vertex_root", lambda c: c.weighted_length() == 1)
        assert run(self.GLOBAL) == (
            1, "FAIL: no DT/PT signs on chart 0 for legs [],[[1]],[],[]\n")
        rc, out = run(["check", "dtpt", "--legs", "[[1]],[],[],[]", "--order", "3"])
        assert rc == 1 and "counterexample order: 1 (no consistent signs)\n" in out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (GLOBAL, "FAIL: no Nekrasov signs on chart 0"),
            (["check", "localcurve", "--dmax", "1", "--order", "3"],
             "FAIL: no Nekrasov signs on chart 0"),
            (["vertex", "--flavor", "dt", "--legs", "[],[],[],[]", "--order", "3",
              "--sign-policy", "solve", "--no-cache"],
             "FAIL: sign solving failed for the requested vertex"),
        ],
        ids=["global", "localcurve", "vertex"],
    )
    def test_nekrasov(self, monkeypatch, argv, line):
        e = EMPTY_PP
        point = next(sp for sp in enumerate_dt(e, e, e, e, 2) if sp.n_added() == 2).key()
        plant(monkeypatch, signsearch, "dt_vertex_root", lambda sp: sp.key() == point)
        assert run(argv) == (1, line + "\n")


class TestGlobalMismatch:
    def test_counterexample_and_residual(self, monkeypatch):
        # PT roots scaled in the series alone: every chart solves its
        # signs, and I_beta / I_0 differs from P_beta from q^3 on
        plant(monkeypatch, vertexcalc, "pt_vertex_root", lambda c: c.weighted_length() == 1)
        argv = ["check", "global", "--geometry", "localp2", "--beta", "1", "--order", "4"]
        rc, out = run(argv)
        assert rc == 1
        lines = out.splitlines()
        assert lines[0] == "check global localp2 beta=[1] N=4: FAIL"
        assert lines[-2] == "counterexample order: 3"
        assert lines[-1].startswith("residual: (")
        rc, doc = run(argv + ["--json"])
        data = json.loads(doc)
        assert rc == 1 and data["ok"] is False
        assert data["mismatch"]["order"] == 3
        assert "residual: " + data["mismatch"]["residual"] == lines[-1]


class TestParseLegs:
    def test_basic(self):
        legs = parse_legs("[[1]],[],[],[]")
        assert legs[0] == PlanePartition([[1]])
        assert all(pp.is_empty() for pp in legs[1:])

    def test_nested(self):
        legs = parse_legs("[[2,1],[1]],[[1]],[],[]")
        assert legs[0] == PlanePartition([[2, 1], [1]])

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            parse_legs("[],[]")

    @pytest.mark.parametrize(
        "leg", ["[1]", "[[1.5]]", '[["1"]]', "[[true]]", "{}"],
        ids=["row-not-a-list", "float", "string", "boolean", "object"],
    )
    def test_malformed_leg_is_usage_error(self, leg):
        # a leg is a JSON list of rows of JSON integers; "[1]" used to end
        # in a TypeError traceback, the others were read as [[1]] or []
        rc, out = run(["vertex", "--flavor", "dt", "--legs", f"{leg},[],[],[]",
                       "--order", "2", "--no-cache"])
        assert rc == 2
        assert out == f"error: a leg must be a JSON list of rows of integers, not {leg!r}\n"


class TestVertexCommand:
    def test_dt_single_leg(self):
        rc, out = run(
            ["vertex", "--flavor", "dt", "--legs", "[[1]],[],[],[]",
             "--order", "3", "--no-cache"]
        )
        assert rc == 0
        assert "lowest order: q^0" in out

    def test_pt_empty_is_one(self):
        rc, out = run(
            ["vertex", "--flavor", "pt", "--legs", "[],[],[],[]",
             "--order", "3", "--no-cache"]
        )
        assert rc == 0
        assert "series: (1) + O(q^3)" in out

    def test_pt_three_legs_errors(self):
        rc, out = run(
            ["vertex", "--flavor", "pt", "--legs", "[[1]],[[1]],[[1]],[]",
             "--order", "2", "--no-cache"]
        )
        assert rc == 2
        assert "error" in out

    def test_json_schema(self):
        rc, out = run(
            ["vertex", "--flavor", "dt", "--legs", "[],[],[],[]",
             "--order", "2", "--no-cache", "--json"]
        )
        assert rc == 0
        data = json.loads(out)
        assert data["flavor"] == "dt"
        assert data["N"] == 2
        assert [c["order"] for c in data["coefficients"]] == [0, 1]
        assert "signs_witness" in data

    def test_solve_policy(self):
        rc, out = run(
            ["vertex", "--flavor", "dt", "--legs", "[],[],[],[]",
             "--order", "2", "--sign-policy", "solve", "--no-cache"]
        )
        assert rc == 0
        assert "signs witness" in out

    @pytest.mark.parametrize(
        "legs, order, dt_points",
        [("[],[],[],[]", 5, 42), ("[],[[1]],[],[]", 4, 38)],
        ids=["empty-q5", "one-leg-q4"],
    )
    def test_solve_policy_solves_the_orders_the_series_uses(self, legs, order, dt_points):
        # mod q^N the series has DT roots through q^(N-1) only; solving one
        # order more needed 59 and 67 unknowns here, beyond the solver bound
        rc, out = run(
            ["vertex", "--flavor", "dt", "--legs", legs, "--order", str(order),
             "--sign-policy", "solve", "--no-cache"]
        )
        assert rc == 0
        witness = out.split("signs witness:\n")[1].splitlines()
        assert sum(1 for line in witness if line[4:7] == "dt:") == dt_points

    def test_signs_file_policy(self, tmp_path):
        from dt4vertex.signsearch import check_nekrasov

        rep = check_nekrasov(1)
        path = tmp_path / "signs.json"
        path.write_text(json.dumps(rep.witness.to_json()))
        rc, out = run(
            ["vertex", "--flavor", "dt", "--legs", "[],[],[],[]", "--order", "2",
             "--sign-policy", "file", "--signs-file", str(path), "--no-cache"]
        )
        assert rc == 0
        assert "signs witness" in out

    @pytest.mark.parametrize("name", ["missing.json", ""], ids=["missing", "directory"])
    def test_unreadable_signs_file_is_usage_error(self, tmp_path, name):
        path = tmp_path / name
        rc, out = run(
            ["vertex", "--flavor", "dt", "--legs", "[],[],[],[]", "--order", "2",
             "--sign-policy", "file", "--signs-file", str(path), "--no-cache"]
        )
        assert rc == 2
        assert out.startswith(f"error: cannot read signs file {str(path)!r}: ")
        assert out.count("\n") == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[1, 2]", "a sign assignment must be a JSON object, got list"),
            ('{"signs": [1]}', "'signs' must be a JSON object, got list"),
        ],
        ids=["document-list", "signs-list"],
    )
    def test_malformed_signs_file_is_usage_error(self, tmp_path, doc, message):
        path = tmp_path / "signs.json"
        path.write_text(doc)
        rc, out = run(
            ["vertex", "--flavor", "dt", "--legs", "[],[],[],[]", "--order", "2",
             "--sign-policy", "file", "--signs-file", str(path), "--no-cache"]
        )
        assert rc == 2
        assert out == f"error: {message}\n"

    def test_signs_file_without_a_needed_sign_is_usage_error(self, tmp_path):
        path = tmp_path / "signs.json"
        path.write_text('{"signs": {}}')
        rc, out = run(
            ["vertex", "--flavor", "dt", "--legs", "[[1]],[],[],[]", "--order", "2",
             "--sign-policy", "file", "--signs-file", str(path), "--no-cache"]
        )
        assert rc == 2
        assert out == "error: signs file has no sign for 'dt:[[1]],[],[],[];add:'\n"

    @pytest.mark.parametrize("order", ["3", "6"])
    def test_empty_pt_vertex_solves_nothing(self, monkeypatch, order):
        # the empty PT vertex is 1 and reads no sign, so Nekrasov's formula
        # (beyond the solver bound at order 6) is not solved for it
        import dt4vertex.cli as cli

        def untouched(*args, **kwargs):
            raise AssertionError("solved signs the empty PT vertex never reads")

        monkeypatch.setattr(cli, "check_nekrasov", untouched)
        rc, out = run(
            ["vertex", "--flavor", "pt", "--legs", "[],[],[],[]", "--order", order,
             "--sign-policy", "solve", "--no-cache"]
        )
        assert rc == 0
        assert f"series: (1) + O(q^{order})" in out
        assert "signs witness" not in out

    @pytest.mark.parametrize("order", ["0", "-1"])
    @pytest.mark.parametrize("policy", ["canonical", "solve", "file"])
    @pytest.mark.parametrize("flavor", ["dt", "pt"])
    @pytest.mark.parametrize("legs", ["[],[],[],[]", "[[1]],[],[],[]"], ids=["empty", "one-box"])
    def test_order_below_one_is_usage_error(self, monkeypatch, legs, flavor, policy, order):
        import dt4vertex.cli as cli

        def untouched(*args, **kwargs):
            raise AssertionError("enumerated or solved before the order check")

        for name in ("check_nekrasov", "check_dtpt", "dt_vertex_series", "pt_vertex_series"):
            monkeypatch.setattr(cli, name, untouched)
        rc, out = run(
            ["vertex", "--flavor", flavor, "--legs", legs, "--order", order,
             "--sign-policy", policy, "--signs-file", "missing.json", "--no-cache"]
        )
        assert (rc, out) == (2, "error: order must be >= 1\n")

    def test_order_one_is_accepted(self):
        rc, out = run(
            ["vertex", "--flavor", "pt", "--legs", "[],[],[],[]", "--order", "1",
             "--sign-policy", "solve", "--no-cache"]
        )
        assert rc == 0
        assert "series: (1) + O(q^1)" in out


class TestCheckCommands:
    def test_nekrasov(self):
        rc, out = run(["check", "nekrasov", "--order", "2"])
        assert rc == 0
        assert "PASS" in out

    @pytest.mark.parametrize("name", ["missing/report.txt", ""], ids=["missing-dir", "directory"])
    def test_unwritable_output_is_usage_error(self, tmp_path, name):
        path = tmp_path / name
        rc, out = run(["check", "nekrasov", "--order", "1", "--output", str(path)])
        assert rc == 2
        assert out.startswith(f"error: cannot write output file {str(path)!r}: ")
        assert out.count("\n") == 1

    def test_output_file_holds_the_report(self, tmp_path):
        path = tmp_path / "report.txt"
        rc, out = run(["check", "nekrasov", "--order", "1", "--output", str(path)])
        assert rc == 0
        assert path.read_text(encoding="utf-8") == out
        assert "PASS" in out

    def test_nekrasov_json(self):
        rc, out = run(["check", "nekrasov", "--order", "2", "--json"])
        assert rc == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert [o["unknowns"] for o in data["orders"]] == [1, 1, 4]

    def test_dtpt(self):
        rc, out = run(["check", "dtpt", "--legs", "[[1]],[],[],[]", "--order", "3"])
        assert rc == 0

    def test_dtpt_empty_legs_text_is_usage_error(self):
        rc, out = run(["check", "dtpt", "--legs", "", "--order", "3"])
        assert rc == 2
        assert out == "error: expected four legs, got 1: ''\n"

    def test_dtpt_order_zero_is_usage_error(self):
        # --order is the truncation N of mod q^N
        rc, out = run(["check", "dtpt", "--legs", "[[1]],[],[],[]", "--order", "0"])
        assert rc == 2
        assert out == "error: order must be >= 1\n"

    def test_localcurve(self):
        rc, out = run(["check", "localcurve", "--dmax", "1", "--order", "3"])
        assert rc == 0
        assert "PASS" in out

    def test_global(self):
        rc, out = run(
            ["check", "global", "--geometry", "localcurve", "--beta", "1",
             "--order", "3"]
        )
        assert rc == 0

    def test_bad_geometry_is_usage_error(self):
        rc, out = run(
            ["check", "global", "--geometry", "nope", "--beta", "1", "--order", "2"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "geometry",
        ["c4:1", "localp2:3", "localcurve:0,-1,-1,5", "localcurve:0,-1", "localcurve:0,x,-2"],
    )
    def test_preset_with_wrong_arguments_is_usage_error(self, monkeypatch, geometry):
        # the first three used to end in a TypeError traceback, and
        # localcurve:0,-1 silently took l3 = -1
        self.forbid_checks(monkeypatch)
        rc, out = run(["check", "global", "--geometry", geometry, "--beta", "1", "--order", "2"])
        assert rc == 2 and out.startswith("error: ") and "\n" not in out[:-1]

    def test_geometry_file_prints_the_preset_report(self, tmp_path):
        path = tmp_path / "p2.geom"
        path.write_text(preset_local_p2().render())
        argv = ["check", "global", "--beta", "1", "--order", "3", "--json"]
        rc, preset = run(argv + ["--geometry", "localp2"])
        assert rc == 0
        assert run(argv + ["--geometry", str(path)]) == (0, preset)

    def test_missing_geometry_file_is_usage_error(self, tmp_path, monkeypatch):
        self.forbid_checks(monkeypatch)
        missing = str(tmp_path / "none.geom")
        rc, out = run(["check", "global", "--geometry", missing, "--beta", "1", "--order", "2"])
        assert (rc, out) == (
            2, f"error: geometry {missing!r} is neither a preset nor a readable file: "
            "No such file or directory\n"
        )

    @staticmethod
    def forbid_checks(monkeypatch):
        import dt4vertex.cli as cli

        def untouched(*args, **kwargs):
            raise AssertionError("checked before the arguments were validated")

        for name in ("check_affine_implies_toric", "local_curve_full_check"):
            monkeypatch.setattr(cli, name, untouched)

    @pytest.mark.parametrize("order", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "global", "--geometry", "localp2", "--beta", "1"],
            ["check", "localcurve", "--dmax", "1"],
        ],
        ids=["global", "localcurve"],
    )
    def test_order_below_one_is_usage_error(self, monkeypatch, argv, order):
        self.forbid_checks(monkeypatch)
        rc, out = run(argv + ["--order", order])
        assert (rc, out) == (2, "error: order must be >= 1\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["global", "--geometry", "localp2", "--beta", "-1"], "beta components must be >= 0"),
            (["global", "--geometry", "localp1p1", "--beta", "1,-1"], "beta components must be >= 0"),
            (["localcurve", "--dmax", "-1"], "dmax must be >= 0"),
            (["localcurve", "--dmax", "1", "--nnmax", "-2"], "nnmax must be >= 0"),
        ],
        ids=["beta", "beta-component", "dmax", "nnmax"],
    )
    def test_negative_sizes_are_usage_errors(self, monkeypatch, argv, message):
        # each of these used to pass vacuously with PASS and exit 0
        self.forbid_checks(monkeypatch)
        rc, out = run(["check"] + argv + ["--order", "2"])
        assert (rc, out) == (2, f"error: {message}\n")

    @pytest.mark.parametrize(
        "geometry, beta",
        [
            ("localp1p1", "1,,0"),
            ("localp2", "1,"),
            ("localp2", "a"),
            ("localp2", ""),
            ("localp2", "1.0"),
            ("localp2", "1_0"),
        ],
        ids=["empty-inner", "empty-last", "letter", "empty", "float", "underscore"],
    )
    def test_malformed_beta_is_usage_error(self, monkeypatch, geometry, beta):
        # an empty component used to be dropped, so "1,,0" ran as [1, 0]
        self.forbid_checks(monkeypatch)
        rc, out = run(
            ["check", "global", "--geometry", geometry, "--beta", beta, "--order", "2"]
        )
        assert (rc, out) == (2, f"error: --beta {beta!r}: expected comma-separated integers\n")

    @pytest.mark.parametrize(
        "argv",
        [["--dmax", "0"], ["--dmax", "0", "--nnmax", "0"]],
        ids=["dmax", "dmax-and-nnmax"],
    )
    def test_no_curve_degree_is_usage_error(self, monkeypatch, argv):
        # with neither a P(n,d) nor a P(n,n) row to check, the PASS would
        # be vacuous
        self.forbid_checks(monkeypatch)
        rc, out = run(["check", "localcurve"] + argv + ["--order", "3"])
        assert (rc, out) == (2, "error: dmax or nnmax must be >= 1\n")

    def test_nnmax_alone_is_accepted(self):
        rc, out = run(["check", "localcurve", "--dmax", "0", "--nnmax", "1", "--order", "2"])
        assert rc == 0
        assert "P_nn" in out


class TestCacheCommand:
    def test_lifecycle(self, tmp_path):
        cdir = str(tmp_path / "cache")
        rc, out = run(["cache", "stats", "--cache-dir", cdir])
        assert rc == 0 and "entries: 0" in out

        rc, _ = run(
            ["vertex", "--flavor", "dt", "--legs", "[[1]],[],[],[]",
             "--order", "2", "--use-cache", "--cache-dir", cdir]
        )
        assert rc == 0
        rc, out = run(["cache", "stats", "--cache-dir", cdir])
        assert "entries: 0" not in out

        rc, listing = run(["cache", "list", "--cache-dir", cdir])
        assert rc == 0 and "dt:" in listing

        rc, _ = run(["cache", "clear", "--cache-dir", cdir])
        rc, listing = run(["cache", "list", "--cache-dir", cdir])
        assert listing.strip() == ""

    def test_list_json(self, tmp_path):
        cdir = str(tmp_path / "cache")
        rc, out = run(["cache", "list", "--json", "--cache-dir", cdir])
        assert rc == 0 and json.loads(out) == []
        run(["vertex", "--flavor", "dt", "--legs", "[[1]],[],[],[]",
             "--order", "2", "--use-cache", "--cache-dir", cdir])
        rc, out = run(["cache", "list", "--json", "--cache-dir", cdir])
        _, plain = run(["cache", "list", "--cache-dir", cdir])
        keys = json.loads(out)
        assert rc == 0 and keys and keys == plain.splitlines()
        assert keys == VertexCache(cdir).keys()

    def test_cold_warm_identical(self, tmp_path):
        cdir = str(tmp_path / "cache")
        args = ["vertex", "--flavor", "pt", "--legs", "[[1]],[[1]],[],[]",
                "--order", "2", "--use-cache", "--cache-dir", cdir]
        _, cold = run(args)
        _, warm = run(args)
        assert cold == warm

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "dtpt", "--legs", "[],[[1]],[],[]", "--order", "3"],
            ["check", "global", "--geometry", "localp2", "--beta", "1", "--order", "3"],
        ],
        ids=["dtpt", "global"],
    )
    def test_cached_solves_print_the_uncached_report(self, tmp_path, argv):
        # a cold run fills the cache, a warm one reads it and adds nothing;
        # both print the bytes of the run without a cache
        rc, plain = run(argv)
        assert rc == 0
        cached = argv + ["--use-cache", "--cache-dir", str(tmp_path)]
        path = tmp_path / "vertices.jsonl"
        assert run(cached) == (0, plain)
        cold = path.read_bytes()
        assert cold.count(b"\n") > 1  # a header and records
        assert run(cached) == (0, plain)
        assert path.read_bytes() == cold

    def test_vertex_leaves_cache_alone_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DT4VERTEX_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        args = ["vertex", "--flavor", "dt", "--legs", "[[1]],[],[],[]", "--order", "2"]
        rc, plain = run(args)
        assert rc == 0
        assert not (tmp_path / "dt4vertex" / "vertices.jsonl").exists()
        rc, cached = run(args + ["--use-cache"])
        assert rc == 0 and cached == plain
        assert (tmp_path / "dt4vertex" / "vertices.jsonl").exists()

    def test_cache_roundtrip_values(self, tmp_path):
        cache = VertexCache(str(tmp_path / "c"))
        from dt4vertex.partitions import EMPTY_PP
        from dt4vertex.vertexcalc import dt_vertex_root
        from dt4vertex.partitions import SolidPartition

        sp = SolidPartition((EMPTY_PP,) * 4, {(0, 0, 0, 0)})
        key, root = dt_vertex_root(sp, None, cache)
        again = VertexCache(str(tmp_path / "c"))
        key2, root2 = dt_vertex_root(sp, None, again)
        assert key == key2
        assert root2.value == root.value and root2.parity == root.parity
        assert again.hits == 1

    def test_torn_tail_is_repaired(self, tmp_path):
        cdir = str(tmp_path / "cache")
        args = ["vertex", "--flavor", "dt", "--legs", "[[1]],[],[],[]",
                "--order", "3", "--use-cache", "--cache-dir", cdir]
        rc, cold = run(args)
        assert rc == 0
        path = tmp_path / "cache" / "vertices.jsonl"
        data = path.read_bytes()
        for cut in (data[:-40], data[:10]):  # appends interrupted mid-record
            path.write_bytes(cut)
            rc, again = run(args)
            assert rc == 0 and again == cold
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b""
        header, *records = [json.loads(line) for line in lines[:-1]]
        assert header["format"] == "dt4vertex-cache"
        assert len(records) == len(VertexCache(cdir))
        # a malformed line that was written out in full is still an error
        with open(path, "ab") as fh:
            fh.write(b'{"key": "broken\n')
        rc, out = run(args)
        assert rc == 2 and out.startswith("error:")

    def test_version_1_file_is_an_error(self, tmp_path):
        # version 1 stored V beside the root and no checksum; its records
        # are not read, and the error names the file
        from dt4vertex.partitions import EMPTY_PP, SolidPartition
        from dt4vertex.vertexcalc import dt_vertex_root

        cdir = tmp_path / "cache"
        first = VertexCache(str(cdir))
        sp = SolidPartition((EMPTY_PP,) * 4, {(0, 0, 0, 0)})
        key, root = dt_vertex_root(sp, None, first)
        path = cdir / "vertices.jsonl"
        header, live = path.read_bytes().splitlines()
        assert json.loads(header) == {
            "format": "dt4vertex-cache", "version": 2, "sqrt": SQRT_CONVENTION}
        assert sorted(json.loads(live)) == ["crc32", "key", "root"]
        # a later put appends one whole line after the records already there
        cache = VertexCache(str(cdir))
        key2, root2 = dt_vertex_root(sp, None, cache)
        assert key2 == key and root2.value == root.value and cache.hits == 1
        sp2 = SolidPartition((EMPTY_PP,) * 4, {(0, 0, 0, 0), (1, 0, 0, 0)})
        key3, _ = dt_vertex_root(sp2, None, cache)
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b"" and len(lines) == 4
        assert json.loads(lines[2])["key"] == key3
        assert VertexCache(str(cdir)).keys() == sorted([key, key3])

        path.write_bytes(b'{"format": "dt4vertex-cache", "version": 1}\n' + live + b"\n")
        with pytest.raises(ValueError, match="version 1"):
            VertexCache(str(cdir))
        rc, out = run(["cache", "stats", "--cache-dir", str(cdir)])
        assert rc == 2 and out.startswith("error: ") and str(path) in out

    def test_foreign_sqrt_convention_is_an_error(self, tmp_path):
        # a root cached under another square-root convention passes its
        # checksum, so only the header can refuse it
        from dt4vertex.partitions import EMPTY_PP, SolidPartition
        from dt4vertex.vertexcalc import dt_vertex_root

        cdir = tmp_path / "cache"
        sp = SolidPartition((EMPTY_PP,) * 4, {(0, 0, 0, 0)})
        key, _ = dt_vertex_root(sp, None, VertexCache(str(cdir)))
        path = cdir / "vertices.jsonl"
        _, live = path.read_bytes().splitlines()
        # a version-2 header that names no convention predates the name
        path.write_bytes(b'{"format": "dt4vertex-cache", "version": 2}\n' + live + b"\n")
        assert VertexCache(str(cdir)).keys() == [key]
        header = {"format": "dt4vertex-cache", "version": 2, "sqrt": "negative-lead"}
        path.write_bytes(json.dumps(header).encode() + b"\n" + live + b"\n")
        with pytest.raises(ValueError, match="square-root convention 'negative-lead'"):
            VertexCache(str(cdir))
        for action in ("list", "stats"):
            rc, out = run(["cache", action, "--cache-dir", str(cdir)])
            assert (rc, out) == (2, (
                f"error: cache file {path} has square-root convention 'negative-lead', "
                f"not {SQRT_CONVENTION!r}; `dt4vertex cache clear` removes it\n"))
        rc, out = run(["vertex", "--flavor", "dt", "--legs", "[],[],[],[]", "--order", "2",
                       "--use-cache", "--cache-dir", str(cdir)])
        assert rc == 2 and str(path) in out
        assert run(["cache", "clear", "--cache-dir", str(cdir)]) == (0, "cache cleared\n")
        assert not path.exists()

    def test_damaged_record_is_an_error(self, tmp_path):
        # a root scalar set to 7 used to print a q^1 coefficient 7 times too
        # large, with exit 0
        cdir = str(tmp_path / "cache")
        args = ["vertex", "--flavor", "dt", "--legs", "[],[],[],[]", "--use-cache",
                "--cache-dir", cdir]
        assert run(args + ["--order", "3"])[0] == 0
        path = tmp_path / "cache" / "vertices.jsonl"
        header, *lines = path.read_text().splitlines()
        key = "dt:[],[],[],[];add:(0,0,0,0)"
        records = [json.loads(line) for line in lines]
        [rec] = [r for r in records if r["key"] == key]
        rec["root"]["value"]["scalar"] = [7, 1]
        path.write_text("\n".join([header] + [json.dumps(r) for r in records]) + "\n")
        rc, out = run(args + ["--order", "2"])
        assert (rc, out) == (
            2, f"error: damaged record {key!r} in cache file {path}: CRC-32 mismatch\n"
        )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda root: {"value": 1},
            lambda root: {"value": root["value"]},
            lambda root: dict(root, value=dict(root["value"], scalar=[1])),
            lambda root: dict(root, value=dict(root["value"], scalar=[1, 0])),
            lambda root: dict(root, value=dict(root["value"], factors=[[[2, 0, 0], 1]])),
            lambda root: dict(root, value=dict(
                root["value"], factors=[[f, e + 0.5] for f, e in root["value"]["factors"]]
            )),
            lambda root: dict(root, parity=2),
        ],
        ids=["value-not-a-dict", "no-parity", "short-scalar", "zero-denominator",
             "non-primitive-factor", "fractional-exponent", "parity-2"],
    )
    def test_malformed_root_is_an_error(self, tmp_path, damage):
        # a root that passes its CRC-32 but does not decode used to escape
        # as a TypeError (exit 1, the failure status) on its first read
        cdir = str(tmp_path / "cache")
        args = ["vertex", "--flavor", "dt", "--legs", "[],[],[],[]", "--use-cache",
                "--cache-dir", cdir]
        assert run(args + ["--order", "3"])[0] == 0
        path = tmp_path / "cache" / "vertices.jsonl"
        header, *lines = path.read_text().splitlines()
        key = "dt:[],[],[],[];add:(0,0,0,0)"
        records = [json.loads(line) for line in lines]
        [rec] = [r for r in records if r["key"] == key]
        rec["root"] = damage(rec["root"])
        rec["crc32"] = _checksum(key, rec["root"])
        path.write_text("\n".join([header] + [json.dumps(r) for r in records]) + "\n")
        error = f"error: malformed root {key!r} in cache file {path}\n"
        assert run(args + ["--order", "2"]) == (2, error)
        assert run(["cache", "list", "--cache-dir", cdir]) == (2, error)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"format": "other"}\n', "unrecognized cache file"),
            (b'{"format": "dt4vertex-cache", "version": 2}\n{"key": "broken\n',
             "malformed record on line 2 of cache file"),
            (b'{"format": "dt4vertex-cache", "version": 2}\n[1, 2]\n',
             "malformed record on line 2 of cache file"),
        ],
        ids=["foreign", "unterminated", "not-a-record"],
    )
    def test_clear_removes_a_file_it_cannot_load(self, tmp_path, content, message):
        cdir = tmp_path / "cache"
        cdir.mkdir()
        path = cdir / "vertices.jsonl"
        path.write_bytes(content)
        rc, out = run(["cache", "list", "--cache-dir", str(cdir)])
        assert (rc, out) == (2, f"error: {message} {path}\n")
        assert run(["cache", "clear", "--cache-dir", str(cdir)]) == (0, "cache cleared\n")
        assert not path.exists()
        assert run(["cache", "stats", "--cache-dir", str(cdir)])[0] == 0


class TestStoreTraffic:
    """What a command solves, and where it reads its roots from."""

    @staticmethod
    def count(monkeypatch, name):
        """The argument tuples of every call of ``signsearch.<name>``."""
        calls = []
        real = getattr(signsearch, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(signsearch, name, counted)
        return calls

    def test_global_solves_each_orbit_once_and_moves_each_leg_tuple_once(
        self, tmp_path, monkeypatch
    ):
        direct = self.count(monkeypatch, "solve_dtpt_direct")
        moved = self.count(monkeypatch, "transport_dtpt")
        argv = ["check", "global", "--geometry", "localp2", "--beta", "1", "--order", "3",
                "--use-cache", "--cache-dir", str(tmp_path)]
        assert run(argv)[0] == 0
        g = preset_local_p2()
        needed = {L for pps in cm_assignments(g, (1,)) for L in g.chart_legs(pps)}
        needed.discard((EMPTY_PP,) * 4)
        orbits = {signsearch.orbit_representative(L)[0] for L in needed}
        assert len(orbits) < len(needed)  # some leg tuples are moved, not solved
        assert sorted(map(repr, (args[0] for args in direct))) == sorted(map(repr, orbits))
        assert all(isinstance(args[2], VertexCache) for args in direct)
        # a representative solved before it is asked for needs no move
        moved_legs = [args[2] for args in moved]
        assert len(moved_legs) == len(set(moved_legs))
        assert needed - orbits <= set(moved_legs) <= needed

    def test_each_cached_command_solves_and_the_second_reads_the_cache(
        self, tmp_path, monkeypatch
    ):
        direct = self.count(monkeypatch, "solve_dtpt_direct")
        made = []

        def recording(directory=None):
            made.append(VertexCache(directory))
            return made[-1]

        monkeypatch.setattr(cli, "VertexCache", recording)
        argv = ["check", "dtpt", "--legs", "[[1]],[],[],[]", "--order", "3",
                "--use-cache", "--cache-dir", str(tmp_path)]
        assert run(argv)[0] == 0
        assert run(argv)[0] == 0
        assert len(direct) == 2 and [args[2] for args in direct] == made
        cold, warm = made
        assert cold.misses > 0
        assert warm.hits > 0 and warm.misses == 0
