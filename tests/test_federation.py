"""Unit tests for the FedX-style federated query processor."""

import pytest

from repro.endpoint import EndpointConfig, EndpointError, SparqlEndpoint
from repro.federation import FederatedQueryProcessor
from repro.rdf import DBO, DBR, FOAF, Literal, RDF_TYPE, RDFS_LABEL, Triple, TriplePattern, Variable
from repro.sparql import evaluate, parse_query
from repro.store import TripleStore


def lit(text):
    return Literal(text, lang="en")


@pytest.fixture
def two_endpoints():
    """People live on one endpoint, cities on another; birthPlace edges
    cross the boundary — the classic federation scenario."""
    people = TripleStore()
    cities = TripleStore()
    ny = DBR.term("NY")
    paris = DBR.term("Paris")
    cities.add(Triple(ny, RDF_TYPE, DBO.City))
    cities.add(Triple(ny, RDFS_LABEL, lit("New York")))
    cities.add(Triple(paris, RDF_TYPE, DBO.City))
    cities.add(Triple(paris, RDFS_LABEL, lit("Paris")))
    for i, (name, city) in enumerate(
        [("Ann", ny), ("Bob", ny), ("Cme", paris)]
    ):
        person = DBR.term(f"P{i}")
        people.add(Triple(person, RDF_TYPE, DBO.Person))
        people.add(Triple(person, FOAF.name, lit(name)))
        people.add(Triple(person, DBO.birthPlace, city))
    return (
        SparqlEndpoint(people, EndpointConfig.warehouse(), name="people"),
        SparqlEndpoint(cities, EndpointConfig.warehouse(), name="cities"),
    )


@pytest.fixture
def federation(two_endpoints):
    return FederatedQueryProcessor(list(two_endpoints))


class TestSourceSelection:
    def test_pattern_routed_to_right_endpoint(self, federation, two_endpoints):
        people, cities = two_endpoints
        pattern = TriplePattern(Variable("s"), FOAF.name, Variable("o"))
        sources = federation.relevant_sources(pattern)
        assert sources == [people]

    def test_shared_predicate_hits_both(self, federation, two_endpoints):
        pattern = TriplePattern(Variable("s"), RDF_TYPE, Variable("o"))
        assert len(federation.relevant_sources(pattern)) == 2

    def test_source_cache_prevents_reprobes(self, federation, two_endpoints):
        people, cities = two_endpoints
        pattern = TriplePattern(Variable("s"), FOAF.name, Variable("o"))
        federation.relevant_sources(pattern)
        before = people.query_count + cities.query_count
        federation.relevant_sources(pattern)
        assert people.query_count + cities.query_count == before

    def test_cache_invalidation(self, federation, two_endpoints):
        people, cities = two_endpoints
        pattern = TriplePattern(Variable("s"), FOAF.name, Variable("o"))
        federation.relevant_sources(pattern)
        federation.invalidate_source_cache()
        before = people.query_count + cities.query_count
        federation.relevant_sources(pattern)
        assert people.query_count + cities.query_count > before


class TestCrossEndpointJoins:
    def test_join_across_endpoints(self, federation):
        result = federation.select(
            'SELECT ?name { ?p dbo:birthPlace ?c . ?c rdfs:label "New York"@en . '
            "?p foaf:name ?name }"
        )
        assert {str(v) for v in result.value_set("name")} == {"Ann", "Bob"}

    def test_matches_single_store_semantics(self, two_endpoints):
        """The federation must return exactly what one merged store would."""
        people, cities = two_endpoints
        merged = TripleStore()
        merged.add_all(people.store.triples())
        merged.add_all(cities.store.triples())
        federation = FederatedQueryProcessor([people, cities])
        query = (
            "SELECT ?name ?city { ?p dbo:birthPlace ?c . ?c rdfs:label ?city . "
            "?p foaf:name ?name }"
        )
        fed_rows = {(str(r["name"]), str(r["city"])) for r in federation.select(query).rows}
        local_rows = {(str(r["name"]), str(r["city"])) for r in evaluate(merged, query).rows}
        assert fed_rows == local_rows

    def test_ask_across_federation(self, federation):
        assert federation.ask('ASK { ?c rdfs:label "Paris"@en }')
        assert not federation.ask('ASK { ?c rdfs:label "Atlantis"@en }')

    def test_aggregation_at_mediator(self, federation):
        result = federation.select(
            "SELECT ?c (COUNT(?p) AS ?n) { ?p dbo:birthPlace ?c } GROUP BY ?c "
            "ORDER BY DESC(?n)"
        )
        counts = [int(row["n"].lexical) for row in result.rows]
        assert counts == [2, 1]

    def test_distinct_and_limit(self, federation):
        result = federation.select(
            "SELECT DISTINCT ?c { ?p dbo:birthPlace ?c } LIMIT 1"
        )
        assert len(result) == 1

    def test_filter_at_mediator(self, federation):
        result = federation.select(
            "SELECT ?name { ?p foaf:name ?name . FILTER (STRSTARTS(?name, 'A')) }"
        )
        assert {str(v) for v in result.value_set("name")} == {"Ann"}

    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            FederatedQueryProcessor([])

    def test_run_accepts_parsed_query(self, federation):
        from repro.sparql import parse_query

        query = parse_query("SELECT ?p { ?p a dbo:Person }")
        result = federation.run(query)
        assert len(result) == 3

    def test_optional_across_federation(self, federation):
        result = federation.select(
            "SELECT ?name ?c { ?p foaf:name ?name OPTIONAL { ?p dbo:missing ?c } }"
        )
        assert len(result) == 3


# ----------------------------------------------------------------------
# Sole-source forwarding
# ----------------------------------------------------------------------

#: Shapes where a mediator that splits the query, strips its modifiers
#: and runs OPTIONAL per base row could drift from the endpoint.
DIFFERENTIAL_QUERIES = [
    # Cross join under ORDER BY ... LIMIT: the modifiers must run where
    # all rows are, not over separately fetched (and capped) halves.
    "SELECT ?c ?b ?a WHERE { ?c foaf:surname ?b . ?a a dbo:Person } "
    "ORDER BY DESC(?b) DESC(?a) LIMIT 3",
    "SELECT ?p ?n ?c WHERE { ?p a dbo:Person . ?p foaf:name ?n . "
    "OPTIONAL { ?p dbo:birthPlace ?c } }",
    "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s a ?t } "
    "GROUP BY ?t ORDER BY DESC(?n) ?t",
    "SELECT DISTINCT ?c WHERE { ?p dbo:birthPlace ?c } LIMIT 4 OFFSET 2",
    "SELECT DISTINCT ?c WHERE { ?p dbo:birthPlace ?c } "
    "ORDER BY ?c LIMIT 4 OFFSET 2",
]


def outcome(call, query):
    """Rows in order plus the truncation flag, or the error class."""
    try:
        result = call(query)
    except EndpointError as exc:
        return type(exc)
    return [sorted(row.items()) for row in result.rows], result.truncated


class TestSoleSourceForwarding:
    @pytest.mark.parametrize("config", [
        EndpointConfig(),
        EndpointConfig(max_rows=5),
        EndpointConfig(timeout_s=0.0001),
        EndpointConfig(reject_threshold=1),
    ], ids=["default", "capped", "timeout", "rejecting"])
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_one_member_federation_matches_the_endpoint(
        self, tiny_dataset, config, query
    ):
        endpoint = SparqlEndpoint(tiny_dataset.store, config, name="solo")
        federation = FederatedQueryProcessor([endpoint])
        expected = outcome(endpoint.select, query)
        before = endpoint.query_count
        assert outcome(federation.run, query) == expected
        # Exactly the forwarded query reached the member: no ASK probes.
        assert endpoint.query_count == before + 1

    def test_capped_result_arrives_truncated(self, tiny_dataset):
        endpoint = SparqlEndpoint(
            tiny_dataset.store, EndpointConfig(max_rows=5), name="solo")
        federation = FederatedQueryProcessor([endpoint])
        result = federation.select("SELECT ?s ?n WHERE { ?s foaf:name ?n }")
        assert len(result.rows) == 5
        assert result.truncated
        assert [entry.truncated for entry in endpoint.log] == [True]

    def test_ask_is_forwarded(self, tiny_dataset):
        endpoint = SparqlEndpoint(
            tiny_dataset.store, EndpointConfig(), name="solo")
        federation = FederatedQueryProcessor([endpoint])
        assert federation.ask("ASK { ?p a dbo:Person }")
        assert endpoint.query_count == 1

    def test_member_holding_every_pattern_gets_the_whole_query(
        self, federation, two_endpoints
    ):
        people, cities = two_endpoints
        query = (
            "SELECT ?name WHERE { ?p foaf:name ?name "
            "OPTIONAL { ?p dbo:birthPlace ?c } } ORDER BY DESC(?name) LIMIT 2"
        )
        assert federation.sole_source(parse_query(query)) is people
        people.reset_log()
        cities.reset_log()
        result = federation.select(query)
        assert [str(row["name"]) for row in result.rows] == ["Cme", "Bob"]
        # Source selection asked both members about each pattern, then
        # only the people member ran a query.
        assert all(e.query.startswith("ASK") for e in cities.log)
        assert [e.query for e in people.log
                if not e.query.startswith("ASK")] == ["<preparsed>"]

    def test_spanning_query_stays_on_the_mediator(self, federation):
        query = parse_query(
            'SELECT ?name { ?p dbo:birthPlace ?c . ?c rdfs:label "Paris"@en . '
            "?p foaf:name ?name }"
        )
        assert federation.sole_source(query) is None

    def test_union_branch_elsewhere_prevents_forwarding(self, federation):
        query = parse_query(
            "SELECT ?x { { ?x foaf:name ?n } UNION { ?x rdfs:label ?n } }"
        )
        assert federation.sole_source(query) is None


class TestForwardedExplain:
    def test_explain_names_the_member_and_shows_its_plan(self, two_endpoints):
        people, _ = two_endpoints
        federation = FederatedQueryProcessor([people])
        query = "SELECT ?p ?n { ?p a dbo:Person . ?p foaf:name ?n }"
        text = federation.explain(query)
        first, rest = text.split("\n", 1)
        assert first == "forwarded to people"
        assert rest == people.explain(query)
        assert "sources:" not in text
        assert people.query_count == 0  # EXPLAIN stays free

    def test_mediator_plan_for_a_spanning_query(self, federation):
        text = federation.explain(
            "SELECT ?name { ?p dbo:birthPlace ?c . ?c rdfs:label ?l . "
            "?p foaf:name ?name }"
        )
        assert "forwarded to" not in text
        assert "sources:" in text and "plan:" in text


class TestCompletenessBit:
    def test_capped_member_flags_the_mediated_answer(self, two_endpoints):
        people, cities = two_endpoints
        capped = SparqlEndpoint(
            people.store, EndpointConfig(max_rows=1), name="capped")
        federation = FederatedQueryProcessor([capped, cities])
        result = federation.select(
            "SELECT ?name ?city { ?p dbo:birthPlace ?c . ?c rdfs:label ?city . "
            "?p foaf:name ?name }"
        )
        assert result.truncated
        assert len(result.rows) < 3

    def test_whole_answer_is_not_flagged(self, federation):
        result = federation.select(
            "SELECT ?name ?city { ?p dbo:birthPlace ?c . ?c rdfs:label ?city . "
            "?p foaf:name ?name }"
        )
        assert len(result.rows) == 3
        assert not result.truncated
