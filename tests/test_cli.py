import json

import pytest

from linkquery.cli import main
from linkquery.fixtures import demo_manifest, demo_policy, demo_query, demo_structures
from linkquery.guidance import parse_policy, parse_structure_registry
from linkquery.query import parse_query
from linkquery.traversal import traverse_guided
from linkquery.webfetch import FixtureSource

SEED = "https://uma.ex/#me"
FOAF = "http://xmlns.com/foaf/0.1/"


GUIDANCE = ["--structures", str(demo_structures()), "--policy", str(demo_policy())]


def base_flags():
    return [
        "--query", str(demo_query()),
        "--seed", SEED,
        "--fixtures", str(demo_manifest()),
    ]


def guided_flags():
    return base_flags() + GUIDANCE


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_guided_run(self, capsys):
        code, out, _ = run_cli(capsys, ["run"] + guided_flags())
        assert code == 0
        assert "documents fetched: 4" in out
        assert out.count("<https://ann.ex/#me>") == 1
        assert out.count("<https://bob.ex/#me>") == 1
        assert "Mickey" not in out

    def test_unguided_c_match_run(self, capsys):
        code, out, _ = run_cli(
            capsys, ["run"] + base_flags() + ["--semantics", "c-match"]
        )
        assert code == 0
        assert "documents fetched: 7" in out
        assert out.count("NULL") == 2  # one row with unbound email and picture

    def test_c_none_uses_seed_document_only(self, capsys):
        code, out, _ = run_cli(
            capsys, ["run"] + base_flags() + ["--semantics", "c-none"]
        )
        assert code == 0
        assert "documents fetched: 1" in out

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, ["run"] + guided_flags() + ["--format", "json"])
        assert code == 0
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
        report = json.loads(out)
        assert report["documents_fetched"] == 4
        assert len(report["solutions"]) == 2

    def test_byte_identical_across_invocations(self, capsys):
        _, first, _ = run_cli(capsys, ["run"] + guided_flags())
        _, second, _ = run_cli(capsys, ["run"] + guided_flags())
        assert first == second

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["run", "--seed", SEED])
        assert code == 1
        assert "usage" in err.lower()

    def test_fixtures_and_live_are_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, ["run"] + base_flags() + ["--live"]
        )
        assert code == 1

    def test_guided_requires_guidance_files(self, capsys):
        code, _, err = run_cli(capsys, ["run"] + base_flags() + GUIDANCE[:2])
        assert code == 1

    def test_traversal_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["run"] + base_flags() + ["--semantics", "c-all", "--max-docs", "2"],
        )
        assert code == 2

    def test_bad_query_file_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.rq"
        bad.write_text("SELECT ?s WHERE { ?s ?p ?o. FILTER }")
        code, _, err = run_cli(
            capsys,
            ["run", "--query", str(bad), "--seed", SEED, "--fixtures", str(demo_manifest())],
        )
        assert code == 3
        assert "FILTER" in err

    def test_malformed_seed_is_an_input_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["run", "--query", str(demo_query()), "--seed", "http://[x",
             "--fixtures", str(demo_manifest())],
        )
        assert code == 3
        assert err.startswith("input error: malformed IRI")

    def test_tsv_format(self, capsys):
        code, out, _ = run_cli(capsys, ["run"] + guided_flags() + ["--format", "tsv"])
        assert code == 0
        header = out.splitlines()[0]
        assert header == "?friend\t?name\t?email\t?picture"

    def test_timing_line(self, capsys):
        code, out, _ = run_cli(capsys, ["run"] + base_flags() + ["--timing"])
        assert code == 0
        assert out.splitlines()[-1].startswith("elapsed: ")
        code, out, _ = run_cli(capsys, ["run"] + base_flags() + ["--timing", "--format", "json"])
        assert code == 0
        assert "elapsed_seconds" in json.loads(out)

    @pytest.mark.parametrize("command,flags,message", [
        ("run", GUIDANCE + ["--semantics", "c-none"], "--semantics does not apply"),
        ("explain", GUIDANCE + ["--semantics", "c-match"], "--semantics does not apply"),
        ("run", GUIDANCE[:2], "guided mode requires --structures and --policy"),
        ("explain", GUIDANCE[2:], "guided mode requires --structures and --policy"),
        ("compare", GUIDANCE[2:], "guided mode requires --structures and --policy"),
        ("compare", [], "guided mode requires --structures and --policy"),
        ("run", ["--timeout", "0.001", "--accept", "x/y"], "only --live uses --timeout, --accept"),
        ("explain", ["--max-body-bytes", "1"], "only --live uses --max-body-bytes"),
        ("compare", GUIDANCE + ["--timeout", "1"], "only --live uses --timeout"),
    ])
    def test_flags_the_run_would_ignore_are_usage_errors(self, capsys, command, flags,
                                                         message):
        extra = ["--row", "1"] if command == "explain" else []
        code, out, err = run_cli(capsys, [command] + base_flags() + extra + flags)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: %s" % message)

    @pytest.mark.parametrize("flags,given", [
        ([], {}),
        (["--timeout", "2.5", "--accept", "text/n3"], {"timeout": 2.5, "accept": "text/n3"}),
        (["--max-body-bytes", "10"], {"max_body_bytes": 10}),
    ])
    def test_live_passes_only_given_flags(self, capsys, monkeypatch, flags, given):
        # LiveHttpSource's own defaults apply to the flags not given.
        calls = []

        def fake_live_source(**kwargs):
            calls.append(kwargs)
            return FixtureSource.from_manifest(demo_manifest())

        monkeypatch.setattr("linkquery.cli.LiveHttpSource", fake_live_source)
        code, out, _ = run_cli(capsys, [
            "run", "--query", str(demo_query()), "--seed", SEED, "--live"] + flags)
        assert code == 0
        assert "documents fetched: 7" in out
        assert calls == [given]


class TestCompare:
    def test_demo_comparison(self, capsys):
        code, out, _ = run_cli(capsys, ["compare"] + base_flags() + [
            "--structures", str(demo_structures()),
            "--policy", str(demo_policy()),
        ])
        assert code == 0
        assert "unguided (c-match): 5 rows / 7 docs; guided: 2 rows / 4 docs" in out
        assert "rows removed: 3" in out
        assert "fetched under https://ann.ex/: 4 -> 2\n" \
            "fetched under https://bob.ex/: 2 -> 1\n" in out
        # the demo registry prunes the encyclopedia document, so the Mickey
        # row disappears even before the policy filters triples
        assert "structure pruning alone vs c-all: results changed" in out

    def test_each_document_fetched_once(self, capsys, monkeypatch):
        # The four runs (unguided, guided, c-all, structure-only) request 10
        # distinct http(s) IRIs, and each is fetched once; the two mailto:
        # IRIs they admit are never requested.
        calls = []
        original = FixtureSource.fetch

        def counting(source, doc_iri):
            calls.append(doc_iri)
            return original(source, doc_iri)

        monkeypatch.setattr(FixtureSource, "fetch", counting)
        code, out, _ = run_cli(capsys, ["compare"] + guided_flags())
        assert code == 0
        assert len(calls) == len(set(calls)) == 10
        assert out == (
            "unguided (c-match): 5 rows / 7 docs; guided: 2 rows / 4 docs; rows removed: 3\n"
            '  removed: <http://dbpedia.org/resource/Mickey_Mouse>\t"Mickey Mouse"@en\tNULL\tNULL\n'
            '  removed: <https://ann.ex/#me>\t"Felix"\t<mailto:me@ann.ex>'
            "\t<https://ann.ex/about/ann.jpg>\n"
            '  removed: <https://bob.ex/#me>\t"Bob"\t<mailto:me@bob.ex>'
            "\t<https://bob.ex/funny-fish.jpg>\n"
            "fetched under https://ann.ex/: 4 -> 2\n"
            "fetched under https://bob.ex/: 2 -> 1\n"
            "structure pruning alone vs c-all: results changed\n"
        )

    def test_permissive_guidance_no_row_difference(self, capsys, tmp_path):
        structures = tmp_path / "structures.json"
        structures.write_text('{"default": "permissive", "rules": []}')
        policy = tmp_path / "policy.json"
        policy.write_text('{"default": "allow", "rules": []}')
        code, out, _ = run_cli(
            capsys,
            ["compare"] + base_flags() + [
                "--semantics", "c-all",
                "--structures", str(structures),
                "--policy", str(policy),
            ],
        )
        assert code == 0
        assert "rows removed: 0" in out
        assert "structure pruning alone vs c-all: results unchanged" in out


    def test_guided_run_adds_rows(self, capsys):
        # c-none reads only Uma's profile, which names no friend.
        code, out, _ = run_cli(capsys, ["compare"] + base_flags() + GUIDANCE + [
            "--semantics", "c-none"])
        assert code == 0
        assert "unguided (c-none): 0 rows / 1 docs; guided: 2 rows / 4 docs; " \
            "rows removed: 0\n" in out
        assert [line.split("\t")[:2] for line in out.splitlines() if "added:" in line] == [
            ["  added: <https://ann.ex/#me>", '"Ann"'],
            ["  added: <https://bob.ex/#me>", '"Bob"'],
        ]

    def test_subtree_lines_name_this_webs_documents(self, capsys, tmp_path):
        # A web without ann.ex: the report names the documents the seed
        # links to, and nothing of the demo.
        bodies = {
            "a.ttl": "<https://a.ex/#me> <%sknows> <https://b.ex/#me>." % FOAF,
            "b.ttl": '<https://b.ex/#me> <%sname> "B"; <%sknows> <https://c.ex/#me>.'
                     % (FOAF, FOAF),
            "c.ttl": '<https://c.ex/#me> <%sname> "C".' % FOAF,
        }
        for name, body in bodies.items():
            (tmp_path / name).write_text(body)
        manifest = tmp_path / "web.json"
        manifest.write_text(json.dumps({"documents": {
            "https://%s.ex/" % name[0]: name for name in bodies}}))
        query = tmp_path / "q.rq"
        query.write_text("PREFIX foaf: <%s> SELECT ?f ?n WHERE { ?x foaf:knows ?f . "
                         "?f foaf:name ?n }" % FOAF)
        code, out, _ = run_cli(capsys, [
            "compare", "--query", str(query), "--seed", "https://a.ex/#me",
            "--fixtures", str(manifest), "--semantics", "c-all",
            "--structures", str(demo_structures()), "--policy", str(demo_policy()),
        ])
        assert code == 0
        assert "ann.ex" not in out
        assert "fetched under https://b.ex/: 2 -> " in out

    @pytest.mark.parametrize("command,flag", [
        ("compare", ["--format", "json"]),
        ("compare", ["--timing"]),
        ("explain", ["--timing"]),
        ("explain", ["--format", "tsv"]),
        ("run", ["--mode", "guided"]),
        ("explain", ["--mode", "unguided"]),
    ])
    def test_run_only_flags_are_usage_errors(self, capsys, command, flag):
        extra = ["--row", "1"] if command == "explain" else []
        code, out, err = run_cli(capsys, [command] + base_flags() + [
            "--structures", str(demo_structures()), "--policy", str(demo_policy()),
        ] + extra + flag)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: unrecognized arguments: %s\n" % " ".join(flag))


class TestExplain:
    def test_seed_document(self, capsys):
        code, out, _ = run_cli(
            capsys, ["explain", "--doc", "https://uma.ex/"] + guided_flags()
        )
        assert code == 0
        assert "seed" in out

    def test_skipped_encyclopedia_document(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["explain", "--doc", "http://dbpedia.org/resource/Mickey_Mouse"]
            + guided_flags(),
        )
        assert code == 0
        assert "not fetched" in out
        assert "denied by policy rule #1" in out
        assert "https://bob.ex/" in out

    def test_admission_chain(self, capsys):
        code, out, _ = run_cli(
            capsys, ["explain", "--doc", "https://ann.ex/about/"] + guided_flags()
        )
        assert code == 0
        assert "linked from https://ann.ex/" in out
        assert "https://ann.ex/: linked from https://uma.ex/" in out

    def test_row_support(self, capsys):
        code, out, _ = run_cli(
            capsys, ["explain", "--row", "1"] + guided_flags()
        )
        assert code == 0
        # first guided row is Ann; contact details all come from her
        # dedicated details document
        assert "?name=\"Ann\"" in out
        assert out.count("from https://ann.ex/about/") == 3

    def test_row_support_cites_policy_file_entries(self, capsys):
        # Name and mbox are admitted by the third entry of the policy file, a
        # list-valued predicate that expands to two rules; Ann's picture by
        # the fourth entry.
        code, out, _ = run_cli(capsys, ["explain", "--row", "1"] + guided_flags())
        assert code == 0
        cited = [line.rsplit(" ", 1)[1] for line in out.splitlines()[1:]]
        assert cited == ["#1)", "#3)", "#3)", "#4)"]
        code, out, _ = run_cli(capsys, ["explain", "--row", "2"] + guided_flags())
        assert "<mailto:me@bob.ex>. from https://bob.ex/ (policy rule #3)" in out

    def test_pruned_link_cause_matches_the_trace(self, capsys, tmp_path):
        # Ann's rule follows isPrimaryTopicOf, a predicate the policy denies,
        # but covers only foaf:name, which this query does not ask for. The
        # guided traversal considers the link because the rule follows its
        # predicate, and λ prunes it: the cause is the structure, not the
        # policy.
        structures = tmp_path / "structures.json"
        structures.write_text(json.dumps({
            "default": "restrictive",
            "rules": [
                {"scope": "https://uma.ex/", "patternPredicates": "*",
                 "follow": [FOAF + "knows"]},
                {"scope": "https://ann.ex/", "patternPredicates": [FOAF + "name"],
                 "follow": [FOAF + "isPrimaryTopicOf"]},
            ],
        }))
        query = tmp_path / "mbox.rq"
        query.write_text(
            "PREFIX foaf: <%s>\n"
            "SELECT ?f ?m WHERE { <https://uma.ex/#me> foaf:knows ?f . ?f foaf:mbox ?m }\n"
            % FOAF
        )
        flags = [
            "--query", str(query), "--seed", SEED, "--fixtures", str(demo_manifest()),
            "--structures", str(structures),
            "--policy", str(demo_policy()),
        ]
        _, trace = traverse_guided(
            [SEED],
            parse_structure_registry(structures.read_text()),
            parse_policy(demo_policy().read_text()),
            parse_query(query.read_text()),
            FixtureSource.from_manifest(demo_manifest()),
        )
        [pruned] = [a for a in trace.admissions if a.doc_iri == "https://ann.ex/about/"]
        assert (pruned.reason, pruned.from_doc) == ("pruned", "https://ann.ex/")
        assert pruned.cause == "no structure rule permits following this link"
        code, out, _ = run_cli(capsys, ["explain", "--doc", "https://ann.ex/about/"] + flags)
        assert code == 0
        assert out == (
            "not fetched: link <https://ann.ex/#me> <%sisPrimaryTopicOf> "
            "<https://ann.ex/about/>. from https://ann.ex/ not sanctioned by any "
            "structure rule\n" % FOAF
        )

    def test_unguided_unfetched_doc(self, capsys):
        code, out, _ = run_cli(capsys, ["explain", "--doc", "https://ann.ex/"] + base_flags()
                               + ["--semantics", "c-none"])
        assert code == 0
        assert out == (
            "not fetched: linking triple <https://uma.ex/#me> <%sknows> "
            "<https://ann.ex/#me>. from https://uma.ex/ did not qualify under c-none "
            "semantics\n" % FOAF
        )

    def test_failed_fetch_is_not_presented_as_fetched(self, capsys, tmp_path):
        # The seed links to a document the web does not serve: it is admitted
        # and requested, but its fetch is not-found, so explain says so.
        (tmp_path / "a.ttl").write_text(
            "<https://a.ex/#me> <%sknows> <https://gone.ex/#me>." % FOAF)
        (tmp_path / "bad.ttl").write_text("<https://bad.ex/#me> <%sname> ." % FOAF)
        manifest = tmp_path / "web.json"
        manifest.write_text(json.dumps({"documents": {"https://a.ex/": "a.ttl"}}))
        query = tmp_path / "q.rq"
        query.write_text("PREFIX foaf: <%s> SELECT ?f WHERE { ?x foaf:knows ?f }" % FOAF)
        flags = ["--query", str(query), "--seed", "https://a.ex/#me",
                 "--fixtures", str(manifest)]
        code, out, _ = run_cli(capsys, ["explain", "--doc", "https://gone.ex/"] + flags)
        assert code == 0
        assert out == (
            "not fetched: the request for https://gone.ex/ failed (not-found)\n"
            "https://gone.ex/: linked from https://a.ex/ via <https://a.ex/#me> "
            "<%sknows> <https://gone.ex/#me>. (pattern ?x <%sknows> ?f.)\n"
            "https://a.ex/: seed\n" % (FOAF, FOAF)
        )
        code, out, _ = run_cli(capsys, ["run"] + flags + ["--format", "json"])
        assert json.loads(out)["documents"] == ["https://a.ex/"]
        # A seed whose body does not parse is explained the same way.
        manifest.write_text(json.dumps({"documents": {"https://bad.ex/": "bad.ttl"}}))
        code, out, _ = run_cli(capsys, ["explain", "--doc", "https://bad.ex/", "--query",
                                        str(query), "--seed", "https://bad.ex/#me",
                                        "--fixtures", str(manifest)])
        assert code == 0
        assert out == ("not fetched: the request for https://bad.ex/ failed (parse-error)\n"
                       "https://bad.ex/: seed\n")

    def test_row_support_cites_the_first_matching_rule_of_equal_priorities(self, capsys,
                                                                           tmp_path):
        # Three entries of one priority: a list over knows and name that
        # only trusts b.ex, a variable-predicate allow, and a knows allow.
        # a.ex's knows triple fails the first and is admitted by the second
        # (#2), ahead of the third; b.ex's name triple by the first (#1).
        (tmp_path / "a.ttl").write_text(
            "<https://a.ex/#me> <%sknows> <https://b.ex/#me>." % FOAF)
        (tmp_path / "b.ttl").write_text('<https://b.ex/#me> <%sname> "B".' % FOAF)
        manifest = tmp_path / "web.json"
        manifest.write_text(json.dumps(
            {"documents": {"https://a.ex/": "a.ttl", "https://b.ex/": "b.ttl"}}))
        query = tmp_path / "q.rq"
        query.write_text("PREFIX foaf: <%s> SELECT ?f ?n WHERE "
                         "{ <https://a.ex/#me> foaf:knows ?f . ?f foaf:name ?n }" % FOAF)
        structures = tmp_path / "structures.json"
        structures.write_text(json.dumps({"default": "permissive", "rules": []}))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"default": "deny", "rules": [
            {"action": "allow", "pattern": {"p": [FOAF + "knows", FOAF + "name"]},
             "source": "https://b.ex/", "priority": 1},
            {"action": "allow", "pattern": {"p": "?"}, "priority": 1},
            {"action": "allow", "pattern": {"p": FOAF + "knows"}, "priority": 1},
        ]}))
        code, out, _ = run_cli(capsys, [
            "explain", "--row", "1", "--query", str(query), "--seed", "https://a.ex/#me",
            "--fixtures", str(manifest), "--structures", str(structures),
            "--policy", str(policy)])
        assert code == 0
        assert out == (
            'row 1: ?f=<https://b.ex/#me>, ?n="B"\n'
            "  <https://a.ex/#me> <%sknows> <https://b.ex/#me>. from https://a.ex/ "
            "(policy rule #2)\n"
            '  <https://b.ex/#me> <%sname> "B". from https://b.ex/ (policy rule #1)\n'
            % (FOAF, FOAF)
        )

    def test_row_support_lists_a_repeated_pattern_once(self, capsys, tmp_path):
        query = tmp_path / "names.rq"
        query.write_text(
            "PREFIX foaf: <%s>\nSELECT ?f ?n WHERE { <https://uma.ex/#me> foaf:knows ?f . "
            "?f foaf:name ?n . ?f foaf:name ?n }\n" % FOAF
        )
        code, out, _ = run_cli(capsys, [
            "explain", "--row", "1", "--query", str(query), "--seed", SEED,
            "--fixtures", str(demo_manifest())])
        assert code == 0
        assert out.splitlines()[0] == \
            'row 1: ?f=<http://dbpedia.org/resource/Mickey_Mouse>, ?n="Mickey Mouse"@en'
        assert len(out.splitlines()) == 3
        assert out.count('"Mickey Mouse"@en. from') == 1

    def test_unknown_doc(self, capsys):
        code, _, err = run_cli(
            capsys, ["explain", "--doc", "https://stranger.ex/"] + guided_flags()
        )
        assert code == 1

    def test_unknown_row(self, capsys):
        code, _, err = run_cli(capsys, ["explain", "--row", "99"] + guided_flags())
        assert code == 1

    def test_row_and_doc_mutually_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, ["explain", "--row", "1", "--doc", "https://uma.ex/"] + guided_flags()
        )
        assert code == 1
