package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec}
import repro.data.{ClickLogGen, OntoGen}
import repro.data.ClickLogGen.{ClickRow, DocRow, QueryRow}
import scala.util.Random

class ClickGraphSpec extends SparkSpec {
  import spark.implicits._

  private val toyClicks = Seq(
    ClickRow(1, 10, 4), ClickRow(1, 11, 6), ClickRow(2, 10, 2), ClickRow(2, 12, 2), ClickRow(3, 12, 5))
  private lazy val clicks = toyClicks.toDF()

  private lazy val log = ClickLogGen.generate(spark,
    OntoGen.generate(OntoGen.Params(nDerivedConcepts = 25, nEvents = 15, seed = 4)),
    ClickLogGen.Params(seed = 5))

  /** The generated log's query row of each query id (each seed's gold). */
  private lazy val queryById = log.queryRows.map(q => q.query_id -> q).toMap

  private def logClusters: Seq[ClickGraph.ClusterRow] =
    ClickGraph.clusters(spark, log.queryRows, log.docRows, log.clickRows)

  /** The pipeline's walk from every seed query, as DataFrames:
    * (queryVisits(seed, query_id, p), docVisits(seed, doc_id, p)).
    */
  private def randomWalk(clicks: DataFrame, seeds: DataFrame): (DataFrame, DataFrame) = {
    val t = ClickGraph.transport(clicks)
    val walks = seeds.select($"query_id").as[Long].collect().toSeq
      .map(s => s -> ClickGraph.walk(t, s, rounds = 2, ClickGraph.Prune))
    (walks.flatMap { case (s, (qv, _)) => qv.map { case (q, p) => (s, q, p) } }.toDF("seed", "query_id", "p"),
      walks.flatMap { case (s, (_, dv)) => dv.map { case (d, p) => (s, d, p) } }.toDF("seed", "doc_id", "p"))
  }

  /** [[ClickGraph.transport]]'s adjacency as DataFrames:
    * (pDocGivenQuery(query_id, doc_id, p), pQueryGivenDoc(query_id, doc_id, p)).
    */
  private def transportFrames(clicks: DataFrame): (DataFrame, DataFrame) = {
    val t = ClickGraph.transport(clicks)
    (t.docsOf.toSeq.flatMap { case (q, ds) => ds.map { case (d, p) => (q, d, p) } }.toDF("query_id", "doc_id", "p"),
      t.queriesOf.toSeq.flatMap { case (d, qs) => qs.map { case (q, p) => (q, d, p) } }.toDF("query_id", "doc_id", "p"))
  }

  test("transport probabilities P(d|q) match DuckDB (Eq. 1)") {
    val (pDq, _) = transportFrames(clicks)
    Oracle.assertEquivalent(
      pDq.select($"query_id", $"doc_id", round($"p", 6) as "p"),
      """SELECT CAST(query_id AS BIGINT) AS query_id, CAST(doc_id AS BIGINT) AS doc_id,
        |       ROUND(SUM(CAST(cnt AS BIGINT)) * 1.0
        |             / SUM(SUM(CAST(cnt AS BIGINT))) OVER (PARTITION BY query_id), 6) AS p
        |FROM clicks GROUP BY query_id, doc_id""".stripMargin,
      "clicks" -> clicks)
  }

  test("transport probabilities P(q|d) match DuckDB (Eq. 2)") {
    val (_, pQd) = transportFrames(clicks)
    Oracle.assertEquivalent(
      pQd.select($"query_id", $"doc_id", round($"p", 6) as "p"),
      """SELECT CAST(query_id AS BIGINT) AS query_id, CAST(doc_id AS BIGINT) AS doc_id,
        |       ROUND(SUM(CAST(cnt AS BIGINT)) * 1.0
        |             / SUM(SUM(CAST(cnt AS BIGINT))) OVER (PARTITION BY doc_id), 6) AS p
        |FROM clicks GROUP BY query_id, doc_id""".stripMargin,
      "clicks" -> clicks)
  }

  test("P(d|q) sums to 1 per query") {
    val (pDq, _) = transportFrames(clicks)
    val sums = pDq.groupBy("query_id").agg(sum("p") as "s").collect()
    sums.foreach(r => assert(math.abs(r.getDouble(1) - 1.0) < 1e-9))
  }

  test("random walk from a seed stays in its connected component") {
    val seeds = Seq(Tuple1(1L)).toDF("query_id")
    val (qv, dv) = randomWalk(clicks, seeds)
    val qs = qv.select("query_id").as[Long].collect().toSet
    val ds = dv.select("doc_id").as[Long].collect().toSet
    // query 3 shares doc 12 with query 2, which shares doc 10 with query 1
    assert(qs.contains(1L) && qs.contains(2L))
    assert(ds.contains(10L) && ds.contains(11L))
  }

  test("random walk visit mass decreases with distance") {
    val seeds = Seq(Tuple1(1L)).toDF("query_id")
    val (qv, _) = randomWalk(clicks, seeds)
    val m = qv.collect().map(r => r.getLong(1) -> r.getDouble(2)).toMap
    assert(m(1L) > m(2L))
  }

  test("mostlyContent filter") {
    assert(ClickGraph.mostlyContent(Seq("famous", "runner")))
    assert(ClickGraph.mostlyContent(Seq("the", "famous", "runner")))
    assert(!ClickGraph.mostlyContent(Seq("what", "are", "the", "runner")))
    assert(!ClickGraph.mostlyContent(Seq.empty))
  }

  test("clusters group each attention's queries and docs together") {
    val rows = logClusters
    assert(rows.nonEmpty)
    val dAttn = log.docRows.map(d => d.doc_id -> d.gold_attn).toMap
    // purity: most docs in a cluster belong to the seed's attention
    val purities = rows.map { c =>
      if (c.docIds.isEmpty) 1.0
      else c.docIds.count(d => dAttn(d) == queryById(c.seed).gold_attn).toDouble / c.docIds.size
    }
    assert(purities.sum / purities.length > 0.8,
      f"mean cluster purity ${purities.sum / purities.length}%.3f too low")
    // every cluster has at least one query and doc, sorted by weight
    rows.foreach { c =>
      assert(c.queries.nonEmpty && c.titles.nonEmpty)
      assert(c.queries.map(_.w).sliding(2).forall { case Seq(a, b) => a >= b; case _ => true })
    }
  }

  test("cluster count equals number of content-bearing attention seed queries") {
    val rows = logClusters
    // every attention query seeds a cluster (Algorithm 1 walks from each q);
    // the content filter applies to cluster *members*, not seeds
    val seeds = log.queryRows.count(_.kind == "attention")
    assert(rows.length <= seeds)
    assert(rows.length > seeds / 2)
  }

  test("clusters digest is locked (seed ids, tokens, doc ids, weight bits)") {
    val rows = logClusters.sortBy(_.seed)
    def texts(ts: Seq[ClickGraph.WText]): String =
      ts.map(t => t.tokens.mkString(" ") + "@" + java.lang.Double.doubleToLongBits(t.w)).mkString(";")
    val text = rows.map { c =>
      val q = queryById(c.seed)
      s"${c.seed}|${q.gold_attn}|${q.category}|${texts(c.queries)}|${texts(c.titles)}|${c.docIds.mkString(",")}"
    }.mkString("\n")
    val digest = java.security.MessageDigest.getInstance("SHA-256")
      .digest(text.getBytes("UTF-8")).map(b => f"$b%02x").mkString
    assert(rows.length == 116)
    assert(digest == "d58b995af1f1470f3cdb5a71b8130b70bec1e4bdff6c4f6b8b13993b312b9ce7")
  }

  test("clusters take two Spark jobs (the transport aggregation) and come in ascending seed id") {
    // the walk runs on driver threads over the log's rows; the clicks are
    // the one frame, and its aggregation is the only Spark work
    var rows = Seq.empty[ClickGraph.ClusterRow]
    assert(jobsOf { rows = logClusters } == 2)
    assert(rows.nonEmpty && rows.map(_.seed) == rows.map(_.seed).sorted)
  }

  /** The 2-round walk of [[randomWalk]] (prune 0.01) as DuckDB SQL over
    * `clicks` and `seeds`; `visits` is "query_id" or "doc_id".
    */
  private def walkSql(visits: String): String = {
    val n = visits.take(1) // the walk's node column: "q" or "d"
    def halfStep(from: String, fromId: String, trans: String, toId: String) =
      s"""SELECT $from.seed, $trans.$toId, SUM($from.p * $trans.p) AS p
         |  FROM $from JOIN $trans ON $trans.$fromId = $from.$fromId
         |  GROUP BY $from.seed, $trans.$toId HAVING SUM($from.p * $trans.p) >= 0.01""".stripMargin
    s"""WITH agg AS (SELECT CAST(query_id AS BIGINT) AS q, CAST(doc_id AS BIGINT) AS d,
       |                    CAST(SUM(CAST(cnt AS BIGINT)) AS DOUBLE) AS c
       |             FROM clicks GROUP BY 1, 2),
       |     pdq AS (SELECT q, d, c / SUM(c) OVER (PARTITION BY q) AS p FROM agg),
       |     pqd AS (SELECT q, d, c / SUM(c) OVER (PARTITION BY d) AS p FROM agg),
       |     q0  AS (SELECT DISTINCT CAST(query_id AS BIGINT) AS seed, CAST(query_id AS BIGINT) AS q,
       |                    CAST(1.0 AS DOUBLE) AS p FROM seeds),
       |     d1  AS (${halfStep("q0", "q", "pdq", "d")}),
       |     q1  AS (${halfStep("d1", "d", "pqd", "q")}),
       |     d2  AS (${halfStep("q1", "q", "pdq", "d")}),
       |     q2  AS (${halfStep("d2", "d", "pqd", "q")}),
       |     qv  AS (SELECT * FROM q0 UNION ALL SELECT * FROM q1 UNION ALL SELECT * FROM q2),
       |     dv  AS (SELECT * FROM d1 UNION ALL SELECT * FROM d2)
       |SELECT seed, $n AS $visits, ROUND(MAX(p), 6) AS p FROM ${n}v GROUP BY seed, $n""".stripMargin
  }

  private def assertWalkMatchesDuckDB(clicks: DataFrame, seeds: DataFrame): Unit = {
    val (qv, dv) = randomWalk(clicks, seeds)
    for ((visits, name) <- Seq(qv -> "query_id", dv -> "doc_id"))
      Oracle.assertEquivalent(visits.select($"seed", col(name), round($"p", 6) as "p"),
        walkSql(name), "clicks" -> clicks, "seeds" -> seeds)
  }

  test("random walk visits match DuckDB on the toy graph") {
    assertWalkMatchesDuckDB(clicks, Seq(1L, 2L, 3L).toDF("query_id"))
  }

  test("random walk visits match DuckDB on a generated log") {
    assertWalkMatchesDuckDB(log.clickRows.toDF(),
      log.queryRows.filter(_.kind == "attention").map(_.query_id).toDF("query_id"))
  }

  private def check(p: Prop): Unit = {
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(15)
      .withInitialSeed(Seed(20200614L)), p)
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }

  /** Small random click graphs: queries 1..nq, docs 101..100+nd, repeated pairs allowed. */
  private val clickGraphs: Gen[Seq[ClickRow]] = for {
    nq <- Gen.choose(1, 6)
    nd <- Gen.choose(1, 6)
    n <- Gen.choose(1, 24)
    rows <- Gen.listOfN(n, for {
      q <- Gen.choose(1L, nq.toLong)
      d <- Gen.choose(101L, 100L + nd)
      c <- Gen.choose(1L, 30L)
    } yield ClickRow(q, d, c))
  } yield rows

  /** Visits lie in (0, 1] and every seed visits itself with exactly 1.0. */
  private def visitsInRange(rows: Seq[ClickRow]): Boolean = {
    val seeds = (rows.map(_.query_id).distinct :+ 999L).toDF("query_id")
    val (qv, dv) = randomWalk(rows.toDF(), seeds)
    val qs = qv.as[(Long, Long, Double)].collect()
    val ds = dv.as[(Long, Long, Double)].collect()
    (qs ++ ds).forall { case (_, _, p) => p > 0.0 && p <= 1.0 } &&
      qs.collect { case (s, q, p) if s == q => p }.toSeq == Seq.fill(qs.map(_._1).distinct.length)(1.0)
  }

  test("property: visits lie in (0, 1] and each seed's own visit is exactly 1.0") {
    // Sums of a node's transport probabilities can round one ulp above 1:
    // 29/56 + 25/56 + 2/56 == 1.0000000000000002 in doubles (seed 1's
    // self-return, and doc 10's second-round mass).
    assert(visitsInRange(Seq(ClickRow(1, 10, 29), ClickRow(1, 11, 25), ClickRow(1, 12, 2))))
    assert(visitsInRange(Seq(ClickRow(1, 10, 29), ClickRow(2, 10, 25), ClickRow(3, 10, 2))))
    check(Prop.forAllNoShrink(clickGraphs)(visitsInRange))
  }

  test("property: clusters do not depend on click row order") {
    val inputs = for {
      rows <- clickGraphs
      shuffleSeed <- Gen.choose(0L, Long.MaxValue)
    } yield (rows, shuffleSeed)
    check(Prop.forAllNoShrink(inputs) { case (rows, shuffleSeed) =>
      val queries = rows.map(_.query_id).distinct
        .map(q => QueryRow(q, Seq("famous", "runner"), "attention", q, "sports"))
      val docs = rows.map(_.doc_id).distinct
        .map(d => DocRow(d, Seq("runner", "review"), Seq.empty, "sports", d, 0))
      def run(cs: Seq[ClickRow]) = ClickGraph.clusters(spark, queries, docs, cs)
      run(rows) == run(new Random(shuffleSeed).shuffle(rows))
    })
  }

  /** Reference for [[ClickGraph.transport]]: Eq. (1)–(2) as Spark window sums
    * over the aggregated clicks, as weight bits per node, sorted by neighbour id.
    */
  private def windowTransport(clicks: DataFrame): Map[String, Map[Long, Seq[(Long, Long)]]] = {
    val agg = clicks.groupBy("query_id", "doc_id").agg(sum("cnt") as "cnt")
    def probs(from: String, to: String) =
      agg.select(col(from), col(to), col("cnt") / sum("cnt").over(Window.partitionBy(from)))
        .as[(Long, Long, Double)].collect().toSeq
        .groupBy(_._1).map { case (k, es) =>
          k -> es.map(e => (e._2, java.lang.Double.doubleToRawLongBits(e._3))).sortBy(_._1)
        }
    Map("docsOf" -> probs("query_id", "doc_id"), "queriesOf" -> probs("doc_id", "query_id"))
  }

  test("property: transport weights are bit-equal to the window-sum form, for any row order and partitioning") {
    val inputs = for {
      rows <- clickGraphs
      shuffleSeed <- Gen.choose(0L, Long.MaxValue)
      parts <- Gen.choose(1, 5)
    } yield (rows, shuffleSeed, parts)
    def bits(adj: ClickGraph.Adjacency): Map[Long, Seq[(Long, Long)]] =
      adj.map { case (k, es) => k -> es.toSeq.map { case (n, p) => (n, java.lang.Double.doubleToRawLongBits(p)) } }
    check(Prop.forAllNoShrink(inputs) { case (rows, shuffleSeed, parts) =>
      val df = new Random(shuffleSeed).shuffle(rows).toDF().repartition(parts)
      val t = ClickGraph.transport(df)
      Map("docsOf" -> bits(t.docsOf), "queriesOf" -> bits(t.queriesOf)) == windowTransport(rows.toDF())
    })
  }

  test("clusters of empty clicks are empty") {
    assert(ClickGraph.clusters(spark, log.queryRows, log.docRows, Seq.empty[ClickRow]).isEmpty)
  }

  test("clusters of a log with no attention queries are empty") {
    val queries = log.queryRows.filter(_.kind != "attention")
    assert(ClickGraph.clusters(spark, queries, log.docRows, log.clickRows).isEmpty)
  }

  test("clicks on query or doc ids missing from queries/docs never become members") {
    // `clicks` names query 3 and doc 12; neither is in the tables below
    val queries = Seq(QueryRow(1, Seq("famous", "runner"), "attention", 1, "sports"),
      QueryRow(2, Seq("classic", "runner"), "attention", 2, "sports"))
    val docs = Seq(DocRow(10, Seq("runner", "review"), Seq.empty, "sports", 1, 0),
      DocRow(11, Seq("runner", "ranking"), Seq.empty, "sports", 1, 0))
    val rows = ClickGraph.clusters(spark, queries, docs, toyClicks)
    assert(rows.map(_.seed).sorted.toSeq == Seq(1L, 2L))
    rows.foreach { c =>
      assert(c.docIds.toSet.subsetOf(Set(10L, 11L)))
      assert(c.titles.size == c.docIds.size && c.queries.nonEmpty)
    }
  }
}
