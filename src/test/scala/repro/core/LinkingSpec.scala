package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.nlp.PhraseIndex

class LinkingSpec extends SparkSpec {
  import spark.implicits._

  private lazy val nodeDocs = Seq(
    (100L, 1L), (100L, 2L), (100L, 3L), (100L, 4L),
    (200L, 5L), (200L, 6L)).toDF("node_id", "doc_id")
  private lazy val docs = Seq(
    (1L, "cars"), (2L, "cars"), (3L, "cars"), (4L, "travel"),
    (5L, "music"), (6L, "music")).toDF("doc_id", "category")

  test("categoryAffinity matches DuckDB (P(g|p) aggregation)") {
    val got = Linking.categoryAffinity(nodeDocs, docs)
      .select($"node_id", $"category", round($"p", 6) as "p")
    Oracle.assertEquivalent(got,
      """WITH j AS (SELECT n.node_id, d.category FROM nodeDocs n JOIN docs d ON n.doc_id = d.doc_id)
        |SELECT CAST(node_id AS BIGINT) AS node_id, category,
        |       ROUND(COUNT(*) * 1.0 / SUM(COUNT(*)) OVER (PARTITION BY node_id), 6) AS p
        |FROM j GROUP BY node_id, category""".stripMargin,
      "nodeDocs" -> nodeDocs, "docs" -> docs)
  }

  test("categoryEdges thresholds at delta_g = 0.3") {
    val edges = Linking.categoryEdges(nodeDocs, docs,
      Map("cars" -> 1L, "travel" -> 2L, "music" -> 3L))
    assert(edges.toSet == Set(
      Linking.Edge(100L, 1L, Linking.IsA, "attention-category"),
      Linking.Edge(200L, 3L, Linking.IsA, "attention-category")))
  }

  test("categoryAffinity runs in at most 4 Spark jobs and entityCooccurrence in 3") {
    // the join's two sides and one repartition by node_id
    assert(jobsOf(Linking.categoryAffinity(nodeDocs, docs).collect()) <= 4)
    val de = Seq((1L, 10L), (1L, 20L), (2L, 10L)).toDF("doc_id", "entity_id")
    assert(jobsOf(Linking.entityCooccurrence(de).collect()) == 3)
  }

  test("categoryEdges are sorted by node and category id") {
    val edges = Linking.categoryEdges(nodeDocs.union(Seq((50L, 1L), (50L, 5L)).toDF("node_id", "doc_id")),
      docs, Map("cars" -> 2L, "travel" -> 3L, "music" -> 1L))
    assert(edges.map(e => (e.src, e.dst)) == Seq((50L, 1L), (50L, 2L), (100L, 2L), (200L, 1L)))
  }

  test("suffixIsA links phrase to its proper suffixes only") {
    val concepts = Seq(
      (1L, Seq("famous", "crime", "series")),
      (2L, Seq("crime", "series")),
      (3L, Seq("series")),
      (4L, Seq("famous", "runner")))
    val edges = Linking.suffixIsA(concepts)
    assert(edges.contains(Linking.Edge(1L, 2L, Linking.IsA, "concept-suffix")))
    assert(edges.contains(Linking.Edge(1L, 3L, Linking.IsA, "concept-suffix")))
    assert(edges.contains(Linking.Edge(2L, 3L, Linking.IsA, "concept-suffix")))
    assert(!edges.exists(e => e.src == 4L))
    assert(!edges.exists(e => e.src == e.dst))
  }

  test("conceptTopicInvolve links contained concepts") {
    val edges = Linking.conceptTopicInvolve(
      Seq((1L, Seq("singer")), (2L, Seq("runner"))),
      Seq((10L, Seq("singer", "holds", "concert"))))
    assert(edges == Seq(Linking.Edge(10L, 1L, Linking.Involve, "topic-concept")))
  }

  test("headNear detects entity near head tokens within the window") {
    val zorvex = PhraseIndex(Seq(7L -> Seq("zorvex")))
    def near(body: Seq[String], head: String) =
      Linking.headNear(zorvex.find(body).getOrElse(0, Seq.empty),
        body.indices.filter(body(_) == head))
    val body = Seq("zorvex", "is", "famous", "runner", "guide")
    assert(near(body, "runner"))
    assert(!near(body, "sitcom"))
    // the window is 4 tokens: the head 4 tokens away is near, 5 away is not
    def gap(n: Int) = Seq("zorvex") ++ Seq.fill(n - 1)("guide") ++ Seq("runner")
    assert(near(gap(4), "runner"))
    assert(!near(gap(5), "runner"))
    assert(!near(gap(11), "runner"))
  }

  test("conceptEntityIsA trains and classifies") {
    // positives: high co-click + head-near + sessions; negatives: none of it
    val pos = (0 until 20).map(_ => (Linking.pairFeatures(4, 5, 3, 2), true))
    val neg = (0 until 20).map(_ => (Linking.pairFeatures(1, 5, 0, 0), false))
    val candidates = Seq(
      (100L, 1L, Linking.pairFeatures(4, 5, 3, 1)),
      (100L, 2L, Linking.pairFeatures(0, 5, 0, 0)))
    val edges = Linking.conceptEntityIsA(pos ++ neg, candidates)
    assert(edges == Seq(Linking.Edge(1L, 100L, Linking.IsA, "entity-concept")))
  }

  test("entityCooccurrence counts pairs once per doc with a<b (DuckDB-checked)") {
    val de = Seq((1L, 10L), (1L, 20L), (2L, 10L), (2L, 20L), (2L, 30L))
      .toDF("doc_id", "entity_id")
    val got = Linking.entityCooccurrence(de)
    Oracle.assertEquivalent(
      got.select($"a", $"b", $"n"),
      """SELECT CAST(l.entity_id AS BIGINT) AS a, CAST(r.entity_id AS BIGINT) AS b,
        |       COUNT(*) AS n
        |FROM de l JOIN de r ON l.doc_id = r.doc_id
        |WHERE CAST(l.entity_id AS BIGINT) < CAST(r.entity_id AS BIGINT)
        |GROUP BY a, b""".stripMargin,
      "de" -> de)
  }

  test("correlateEdges are symmetric and distance-filtered") {
    val ids = (1L to 10L).toSeq
    val co = Seq((1L, 2L, 5L), (3L, 4L, 5L))
    val edges = Linking.correlateEdges(ids, co)
    // both directions present for whatever survived
    val pairs = edges.map(e => (e.src, e.dst)).toSet
    for ((a, b) <- pairs) assert(pairs.contains((b, a)))
    assert(edges.forall(_.kind == Linking.Correlate))
  }

  test("correlateEdges do not depend on the order of the co-occurrence rows") {
    val ids = (1L to 20L).toSeq
    val rng = new scala.util.Random(5)
    val co = for (a <- 1L to 19L; b <- a + 1 to 20L if rng.nextDouble() < 0.15)
      yield (a, b, 1L + rng.nextInt(4))
    val edges = Linking.correlateEdges(ids, co)
    assert(edges.nonEmpty)
    for (s <- 1 to 3) assert(Linking.correlateEdges(ids, new scala.util.Random(s).shuffle(co)) == edges)
  }

  test("eventInvolve emits entity, trigger and location edges") {
    val elements = Map("zorvex" -> GCTSPNet.ClsEntity, "explodes" -> GCTSPNet.ClsTrigger,
      "moscow" -> GCTSPNet.ClsLocation, "2018" -> GCTSPNet.ClsOther)
    var next = 900L
    val edges = Linking.eventInvolve(50L, Seq("zorvex", "explodes", "moscow", "2018"),
      elements, name => if (name == Seq("zorvex")) Some(7L) else None,
      (k, l) => { next += 1; next })
    assert(edges.exists(e => e.dst == 7L && e.how == "event-entity"))
    assert(edges.exists(_.how == "event-trigger"))
    assert(edges.exists(_.how == "event-location"))
    assert(edges.forall(_.kind == Linking.Involve))
  }
}
