package repro.eval

import org.apache.spark.sql.SparkSession
import repro.data.{ClickLogGen, OntoGen}
import repro.graph.ClickGraph
import repro.graph.ClickGraph.WText

/** Construction of the Concept Mining Dataset (CMD) and Event Mining Dataset
  * (EMD) analogues (Sec. 5.2). The paper's datasets pair each query-title
  * cluster with a human-labeled gold phrase (plus gold triggers / entities /
  * locations for events); ours pair the pipeline's random-walk clusters with
  * the generator's gold attention, split 80/10/10 by attention id.
  */
object Datasets {

  final case class MiningExample(seed: Long, attnId: Long, isEvent: Boolean,
                                 category: String,
                                 queries: Seq[WText], titles: Seq[WText],
                                 docIds: Seq[Long], gold: Seq[String],
                                 goldEntity: Seq[String], goldTrigger: Seq[String],
                                 goldLocation: Option[String], split: String)

  final case class Corpus(cmd: Vector[MiningExample], emd: Vector[MiningExample]) {
    def train(xs: Vector[MiningExample]): Vector[MiningExample] = xs.filter(_.split == "train")
    def test(xs: Vector[MiningExample]): Vector[MiningExample] = xs.filter(_.split == "test")
  }

  /** 80/10/10 split, deterministic in the attention id. */
  def splitOf(attnId: Long): String = {
    val h = (attnId * 2654435761L) % 10
    val b = math.abs(h)
    if (b < 8) "train" else if (b == 8) "dev" else "test"
  }

  /** Build both datasets from a generated ontology + click log: run the
    * random walk, keep the canonical cluster per attention (the one seeded by
    * the attention's first, un-noised query), attach gold.
    */
  def build(spark: SparkSession, onto: OntoGen.GoldOntology, log: ClickLogGen.ClickLog): Corpus = {
    val clusters = ClickGraph.clusters(spark, log.queries, log.docs, log.clicks)
    // canonical seed per attention = smallest query id (created first)
    val canonical = clusters.groupBy(_.gold_attn).map { case (_, cs) => cs.minBy(_.seed) }

    val cmd = Vector.newBuilder[MiningExample]
    val emd = Vector.newBuilder[MiningExample]
    for (c <- canonical.toVector.sortBy(_.seed)) {
      onto.conceptById.get(c.gold_attn).foreach { gc =>
        cmd += MiningExample(c.seed, gc.id, isEvent = false, gc.category,
          c.queries, c.titles, c.docIds, gc.tokens, Seq.empty, Seq.empty, None, splitOf(gc.id))
      }
      onto.eventById.get(c.gold_attn).foreach { ge =>
        emd += MiningExample(c.seed, ge.id, isEvent = true, ge.category,
          c.queries, c.titles, c.docIds, ge.tokens, ge.entityTokens, ge.trigger,
          ge.location, splitOf(ge.id))
      }
    }
    Corpus(cmd.result(), emd.result())
  }
}
