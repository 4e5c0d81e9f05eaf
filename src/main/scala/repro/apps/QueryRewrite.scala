package repro.apps

import repro.nlp.PhraseIndex

/** Query understanding (Sec. 4): conceptualization and recommendation.
  *
  * If a query conveys a concept, rewrite it by appending each entity that
  * isA that concept ("q e_i"); if it conveys an entity, recommend the
  * entities correlated with it.
  *
  * Detection matches the query against a [[repro.nlp.PhraseIndex]] over the
  * non-empty concept phrases or entity names, built once per `Index`: a
  * query costs O(query length × longest phrase), not one containment test
  * per dictionary entry.
  */
object QueryRewrite {

  /** Ontology view the rewriter needs. */
  final case class Index(conceptPhrases: Seq[(Long, Seq[String])],
                         entityNames: Seq[(Long, Seq[String])],
                         entitiesOfConcept: Map[Long, Seq[Long]],
                         correlated: Map[Long, Seq[Long]]) {
    lazy val entityNameById: Map[Long, Seq[String]] = entityNames.toMap
    lazy val conceptIndex: PhraseIndex = PhraseIndex(conceptPhrases.filter(_._2.nonEmpty))
    lazy val entityIndex: PhraseIndex = PhraseIndex(entityNames.filter(_._2.nonEmpty))
  }

  /** The longest entry contained in the query; ties go to the smallest id,
    * then to the earliest entry.
    */
  private def longest(query: Seq[String], index: PhraseIndex): Option[(Long, Seq[String])] =
    index.find(query).keysIterator.map(index.entries).minByOption { case (id, p) => (-p.size, id) }

  /** The longest concept phrase contained in the query, if any. */
  def detectConcept(query: Seq[String], idx: Index): Option[(Long, Seq[String])] =
    longest(query, idx.conceptIndex)

  /** The entity whose name is contained in the query, longest name first. */
  def detectEntity(query: Seq[String], idx: Index): Option[(Long, Seq[String])] =
    longest(query, idx.entityIndex)

  /** Conceptualized rewrites: "q e_i" for each instance entity of the
    * detected concept.
    */
  def rewrite(query: Seq[String], idx: Index, maxRewrites: Int = 5): Seq[Seq[String]] =
    detectConcept(query, idx).toSeq.flatMap { case (cid, _) =>
      idx.entitiesOfConcept.getOrElse(cid, Seq.empty)
        .flatMap(idx.entityNameById.get)
        .take(maxRewrites)
        .map(name => query ++ name)
    }

  /** Entity recommendation: correlated entities of the detected entity. */
  def recommend(query: Seq[String], idx: Index, maxRecs: Int = 5): Seq[Seq[String]] =
    detectEntity(query, idx).toSeq.flatMap { case (eid, _) =>
      idx.correlated.getOrElse(eid, Seq.empty)
        .flatMap(idx.entityNameById.get)
        .take(maxRecs)
    }
}
