package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.Par
import repro.data.ClickLogGen.{ClickRow, DocRow, QueryRow}
import repro.nlp.Lang
import scala.collection.mutable

/** Bipartite search-click-graph machinery (Sec. 3.1, Eq. 1–2 + Algorithm 1
  * lines 1–8): transport probabilities, per-seed random walk and cluster
  * assembly.
  *
  * The transport probabilities come from one DataFrame aggregation of the
  * clicks, normalised on the driver; the clicks are the one frame it builds.
  * The attention seeds, the query tokens and the doc titles are read from the
  * log's driver rows, and the seeds are walked on the driver through
  * [[repro.Par.map]], each seed on its own with no shuffle per round.
  * Visit mass at a node is summed over its in-neighbours in ascending
  * neighbour id, starting from 0.0; that order is part of the contract,
  * because it fixes every weight to the bit.
  */
object ClickGraph {

  /** A weighted text (query or title) inside a cluster. */
  final case class WText(tokens: Seq[String], w: Double)

  /** One query-doc cluster, seeded by query `seed`: the unit the miner consumes. */
  final case class ClusterRow(seed: Long, queries: Seq[WText], titles: Seq[WText],
                              docIds: Seq[Long])

  /** Out-edges of every node, each list sorted by neighbour id. */
  private[graph] type Adjacency = Map[Long, Array[(Long, Double)]]

  /** Eq. (1)–(2) as adjacency maps: q → [(d, P(d|q))] and d → [(q, P(q|d))]. */
  private[graph] final case class Transport(docsOf: Adjacency, queriesOf: Adjacency)

  /** The transport probabilities of Eq. (1) and (2): one Spark aggregation of
    * the clicks per (query, doc) pair, collected once; the driver divides each
    * pair's count by its query's and its doc's exact `Long` totals. That is
    * the arithmetic Spark's `/` does on a window sum of the counts (both
    * operands cast to double), so each weight equals the window form's to the
    * bit.
    */
  private[graph] def transport(clicks: DataFrame): Transport = {
    import clicks.sparkSession.implicits._
    val pairs = clicks.groupBy("query_id", "doc_id").agg(sum("cnt") as "cnt")
      .as[(Long, Long, Long)].collect()
    def adjacency(from: ((Long, Long, Long)) => Long, to: ((Long, Long, Long)) => Long): Adjacency =
      pairs.groupBy(from).map { case (k, es) =>
        val total = es.map(_._3).sum.toDouble
        k -> es.map(e => (to(e), e._3.toDouble / total)).sortBy(_._1)
      }
    Transport(adjacency(_._1, _._2), adjacency(_._2, _._1))
  }

  /** The random walk from one seed query.
    *
    * Each round is q→d→q through the transport probabilities. The mass
    * arriving at a node is Σ p·w over its frontier in-neighbours, in ascending
    * neighbour id; entries below `prune` are dropped after each half-step (an
    * optimization — the paper thresholds only at the end with δ_v). A node's
    * visit is its highest mass over the rounds, capped at 1.0 (a sum of
    * probabilities can round one ulp above it); the seed's own visit is 1.0.
    *
    * @return (query visits, doc visits) by node id
    */
  private[graph] def walk(t: Transport, seed: Long, rounds: Int, prune: Double): (Map[Long, Double], Map[Long, Double]) = {
    def halfStep(frontier: collection.Map[Long, Double], adj: Adjacency): mutable.Map[Long, Double] = {
      val mass = mutable.HashMap.empty[Long, Double]
      for ((src, p) <- frontier.toSeq.sortBy(_._1); (dst, w) <- adj.getOrElse(src, Array.empty[(Long, Double)]))
        mass(dst) = mass.getOrElse(dst, 0.0) + p * w
      mass.filterInPlace((_, m) => m >= prune)
    }
    def keepMax(acc: mutable.Map[Long, Double], visits: collection.Map[Long, Double]): Unit =
      visits.foreach { case (n, p) => acc(n) = math.max(acc.getOrElse(n, 0.0), math.min(p, 1.0)) }
    val qMax = mutable.HashMap(seed -> 1.0)
    val dMax = mutable.HashMap.empty[Long, Double]
    var qv: collection.Map[Long, Double] = Map(seed -> 1.0)
    for (_ <- 0 until rounds) {
      val dv = halfStep(qv, t.docsOf)
      keepMax(dMax, dv)
      qv = halfStep(dv, t.queriesOf)
      keepMax(qMax, qv)
    }
    (qMax.toMap, dMax.toMap)
  }

  /** Per-half-step pruning threshold of the walk. */
  private[graph] val Prune = 0.01

  /** Walk rounds (q→d→q each) per seed. */
  private val Rounds = 2

  /** δ_v: the lowest visit weight of a cluster member. */
  private val DeltaV = 0.05

  /** Most queries and most titles kept per cluster. */
  private val MaxMembers = 12

  /** Fraction of non-stop tokens must exceed 1/2 (Algorithm 1 keep rule). */
  val mostlyContent: Seq[String] => Boolean = { toks =>
    toks.nonEmpty && Lang.contentTokens(toks).size * 2 > toks.size
  }

  /** Assemble query-doc clusters from the random walk (Algorithm 1 lines 2–8),
    * in ascending seed id. Queries/titles are ordered by descending visit
    * weight (ties by id); members below δ_v are dropped; queries that are
    * mostly stop words are dropped; at most `MaxMembers` of each are kept. A
    * seed yields a cluster only when it keeps at least one query and one doc.
    * Clicks on query or doc ids missing from `queries`/`docs` carry walk mass
    * but never become members. `spark` turns the clicks into the one frame
    * that [[transport]] aggregates.
    */
  def clusters(spark: SparkSession, queries: Seq[QueryRow], docs: Seq[DocRow],
               clicks: Seq[ClickRow]): Seq[ClusterRow] = {
    import spark.implicits._
    val queryTokens = queries.filter(q => mostlyContent(q.tokens)).map(q => q.query_id -> q.tokens).toMap
    val titles = docs.map(d => d.doc_id -> d.title).toMap
    val tr = transport(clicks.toDF())

    def members(visits: Map[Long, Double], texts: Map[Long, Seq[String]]): Seq[(Long, WText)] =
      visits.toSeq.filter(_._2 >= DeltaV)
        .flatMap { case (id, p) => texts.get(id).map(toks => (id, WText(toks, p))) }
        .sortBy { case (id, t) => (-t.w, id) }
        .take(MaxMembers)

    Par.map(queries.filter(_.kind == "attention").map(_.query_id).sorted) { seed =>
      val (qv, dv) = walk(tr, seed, Rounds, Prune)
      val qs = members(qv, queryTokens)
      val ds = members(dv, titles)
      if (qs.isEmpty || ds.isEmpty) None
      else Some(ClusterRow(seed, qs.map(_._2), ds.map(_._2), ds.map(_._1).sorted))
    }.flatten
  }
}
