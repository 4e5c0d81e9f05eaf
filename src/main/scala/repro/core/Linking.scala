package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.ml.{Embeddings, LogReg}

/** Attention linking (Sec. 3.2): construct the isA / involve / correlate
  * edges of the Attention Ontology. Each strategy mirrors the paper's
  * action-driven construction; relational steps are DataFrame aggregations.
  */
object Linking {

  /** Edge kinds. */
  val IsA = "isA"; val Involve = "involve"; val Correlate = "correlate"

  final case class Edge(src: Long, dst: Long, kind: String, how: String)

  // ------------------------------------------------------------------
  // Attention ↔ category (isA via click co-occurrence, P(g|p) > δ_g)
  // ------------------------------------------------------------------

  /** P(g|p) per (attention node, category) from the clicked docs' categories.
    *
    * The join's rows are repartitioned by `node_id`, so the per-(node,
    * category) count and the per-node window total n_total need no further
    * exchange: three exchanges in all (both join sides and the repartition).
    * n_total is the exact `Long` sum of the counts, so p is the same
    * `Long / Long` division as with a separate per-node count.
    *
    * @param nodeDocs DataFrame (node_id: Long, doc_id: Long)
    * @param docs     DataFrame with (doc_id, category)
    * @return DataFrame (node_id, category, p)
    */
  def categoryAffinity(nodeDocs: DataFrame, docs: DataFrame): DataFrame =
    nodeDocs.join(docs.select("doc_id", "category"), "doc_id")
      .repartition(col("node_id"))
      .groupBy("node_id", "category").agg(count(lit(1)) as "n_cat")
      .select(col("node_id"), col("category"),
        (col("n_cat") / sum("n_cat").over(Window.partitionBy("node_id"))) as "p")

  /** δ_g: lowest P(g|p) of an attention–category isA edge (paper: 0.3). */
  private val DeltaG = 0.3

  /** Attention–category isA edges with P(g|p) > δ_g, sorted by (node id,
    * category id) so that their order does not depend on the query plan.
    */
  def categoryEdges(nodeDocs: DataFrame, docs: DataFrame,
                    categoryId: String => Long): Seq[Edge] = {
    import org.apache.spark.sql.Row
    categoryAffinity(nodeDocs, docs).where(col("p") > DeltaG)
      .collect().toSeq.map { case Row(nodeId: Long, cat: String, _) =>
        Edge(nodeId, categoryId(cat), IsA, "attention-category")
      }.sortBy(e => (e.src, e.dst))
  }

  // ------------------------------------------------------------------
  // Attention ↔ attention
  // ------------------------------------------------------------------

  /** Concept isA concept when one phrase is a proper suffix of the other. */
  def suffixIsA(concepts: Seq[(Long, Seq[String])]): Seq[Edge] = {
    val byPhrase = concepts.groupBy(_._2)
    concepts.flatMap { case (id, phrase) =>
      Derivation.properSuffixes(phrase).flatMap(byPhrase.getOrElse(_, Nil))
        .map { case (pid, _) => Edge(id, pid, IsA, "concept-suffix") }
    }.distinct
  }

  /** Event isA topic: same pattern with the entity slot abstracted —
    * exactly the grouping CPD produced.
    */
  def eventTopicIsA(topics: Seq[(Long, Derivation.DerivedTopic)]): Seq[Edge] =
    topics.flatMap { case (tid, t) =>
      t.eventNodeIds.map(eid => Edge(eid, tid, IsA, "event-topic"))
    }

  /** Concept involve topic: the concept phrase is contained in the topic
    * phrase (ordered containment).
    */
  def conceptTopicInvolve(concepts: Seq[(Long, Seq[String])],
                          topics: Seq[(Long, Seq[String])]): Seq[Edge] =
    for {
      (tid, tp) <- topics
      (cid, cp) <- concepts
      if cp.nonEmpty && tp.containsSlice(cp) && cp != tp
    } yield Edge(tid, cid, Involve, "topic-concept")

  // ------------------------------------------------------------------
  // Concept ↔ entity (isA via auto-labeled classifier, Fig. 4)
  // ------------------------------------------------------------------

  /** Feature vector for a (concept, entity) candidate pair.
    *
    * @param coClickDocs   #concept-clicked docs mentioning the entity
    * @param totalDocs     #concept-clicked docs
    * @param headNearCount #docs where the entity occurs within `HeadWindow`
    *                      tokens of a concept head token
    * @param sessionCount  #user sessions issuing concept then entity query
    */
  def pairFeatures(coClickDocs: Int, totalDocs: Int, headNearCount: Int,
                   sessionCount: Int): Array[Double] = Array(
    coClickDocs.toDouble / math.max(1, totalDocs),
    math.log1p(coClickDocs.toDouble),
    headNearCount.toDouble / math.max(1, totalDocs),
    math.log1p(sessionCount.toDouble))

  /** Largest token distance of an entity mention "near" a concept head. */
  private val HeadWindow = 4

  /** Does an entity mention start within `HeadWindow` tokens of a concept head
    * token? Both sides are token positions in one doc body: `entityAt` are
    * the entity's starts from the body's [[repro.nlp.PhraseIndex]] match and
    * `headAt` the positions of the concept's head tokens, so no body is
    * rescanned per (concept, entity) pair.
    */
  def headNear(entityAt: Seq[Int], headAt: Seq[Int]): Boolean =
    entityAt.exists(e => headAt.exists(h => math.abs(h - e) <= HeadWindow))

  /** Train the concept–entity classifier from auto-constructed examples
    * (Fig. 4) and score candidate pairs.
    *
    * @param trainPairs (features, label)
    * @param candidates (conceptNodeId, entityId, features)
    */
  def conceptEntityIsA(trainPairs: Seq[(Array[Double], Boolean)],
                       candidates: Seq[(Long, Long, Array[Double])]): Seq[Edge] = {
    val model = LogReg.train(trainPairs)
    candidates.collect {
      case (cid, eid, f) if model.predict(f) =>
        Edge(eid, cid, IsA, "entity-concept")
    }
  }

  // ------------------------------------------------------------------
  // Event/topic ↔ entities, triggers, locations (involve via GCTSP-Net)
  // ------------------------------------------------------------------

  /** Involve edges from 4-class element recognition output.
    *
    * @param eventNodeId the event node
    * @param elements    token → predicted class (GCTSPNet.classifyElements)
    * @param entityIdOf  entity token-seq → entity node id (KB dictionary)
    * @param nodeIdOf    fresh node id allocator for trigger/location nodes
    */
  def eventInvolve(eventNodeId: Long, phrase: Seq[String], elements: Map[String, Int],
                   entityIdOf: Seq[String] => Option[Long],
                   nodeIdOf: (String, String) => Long): Seq[Edge] = {
    val entTokens = phrase.filter(t => elements.get(t).contains(GCTSPNet.ClsEntity))
    val trigTokens = phrase.filter(t => elements.get(t).contains(GCTSPNet.ClsTrigger))
    val locTokens = phrase.filter(t => elements.get(t).contains(GCTSPNet.ClsLocation))
    val entEdge = entityIdOf(entTokens).map(eid => Edge(eventNodeId, eid, Involve, "event-entity"))
    val trigEdge = if (trigTokens.nonEmpty)
      Some(Edge(eventNodeId, nodeIdOf("trigger", trigTokens.mkString(" ")), Involve, "event-trigger"))
    else None
    val locEdges = locTokens.map(l => Edge(eventNodeId, nodeIdOf("location", l), Involve, "event-location"))
    entEdge.toSeq ++ trigEdge.toSeq ++ locEdges
  }

  // ------------------------------------------------------------------
  // Entity ↔ entity (correlate via hinge-loss embeddings)
  // ------------------------------------------------------------------

  /** Entity co-occurrence counts in doc bodies, as a DataFrame aggregation.
    *
    * @param docEntities DataFrame (doc_id, entity_id) of mentions
    * @return DataFrame (a, b, n) with a < b
    */
  def entityCooccurrence(docEntities: DataFrame): DataFrame = {
    val l = docEntities.toDF("doc_id", "a")
    val r = docEntities.toDF("doc_id", "b")
    l.join(r, "doc_id").where(col("a") < col("b"))
      .groupBy("a", "b").agg(count(lit(1)) as "n")
  }

  // Correlate edges: the fewest co-occurrences of a positive pair and the
  // largest learned distance of an edge.
  private val CorrelateMinCount = 2L
  private val CorrelateMaxDist = 1.5

  /** Train embeddings on frequent co-occurring pairs and emit correlate
    * edges for candidates whose learned distance is at most
    * `CorrelateMaxDist`. The pairs are sorted by (a, b) first: embedding SGD
    * consumes them in order, and [[entityCooccurrence]]'s row order depends
    * on the shuffle partition count.
    */
  def correlateEdges(entityIds: Seq[Long], coPairs: Seq[(Long, Long, Long)]): Seq[Edge] = {
    val positives = coPairs.collect { case (a, b, n) if n >= CorrelateMinCount => (a, b) }.sorted
    val model = Embeddings.train(entityIds, positives)
    positives.collect {
      case (a, b) if model.distance(a, b) <= CorrelateMaxDist =>
        Seq(Edge(a, b, Correlate, "entity-entity"), Edge(b, a, Correlate, "entity-entity"))
    }.flatten
  }
}
