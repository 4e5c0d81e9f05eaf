package repro.core

import repro.nlp.Lang

/** Attention phrase normalization (Sec. 3.1): merge slightly different
  * phrases expressing the same attention into one ontology node.
  *
  * Two phrases merge iff (i) their non-stop token sets match and (ii) the
  * TF-IDF cosine of their context-enriched representations (phrase + top-5
  * clicked titles) exceeds δ_m.
  */
object Normalize {

  /** One mined phrase, with its provenance. `goldAttn` is carried for
    * evaluation only.
    */
  final case class MinedPhrase(seed: Long, tokens: Seq[String], isEvent: Boolean,
                               contextTitles: Seq[Seq[String]], docIds: Seq[Long],
                               goldAttn: Long)

  /** A normalized attention node (concept or event). */
  final case class AttentionNode(id: Long, kind: String, phrase: Seq[String],
                                 variants: Seq[Seq[String]], seeds: Seq[Long],
                                 docIds: Seq[Long], goldAttns: Seq[Long])

  /** Clicked titles in a phrase's context representation. */
  private val ContextTitles = 5

  /** δ_m: lowest context TF-IDF cosine of two merged phrases. */
  private val DeltaM = 0.3

  /** Context-enriched representation: the phrase + its top clicked titles. */
  def contextRep(p: MinedPhrase): Seq[String] =
    p.tokens ++ p.contextTitles.take(ContextTitles).flatten

  /** TF-IDF cosine between two bags given document frequencies. */
  def tfidfCosine(a: Seq[String], b: Seq[String], df: Map[String, Int], nDocs: Int): Double = {
    def vec(x: Seq[String]): Map[String, Double] = {
      val tf = x.groupBy(identity).view.mapValues(_.size.toDouble)
      // add-one smoothed IDF: stays positive even when a token occurs in
      // every context (df = nDocs), so identical bags always reach cosine 1
      val v = tf.map { case (t, f) =>
        t -> f * (1.0 + math.log((nDocs + 1.0) / (df.getOrElse(t, 0) + 1.0)))
      }.toMap
      val n = math.sqrt(v.values.map(x => x * x).sum)
      if (n == 0) v else v.view.mapValues(_ / n).toMap
    }
    val (va, vb) = (vec(a), vec(b))
    va.iterator.map { case (t, w) => w * vb.getOrElse(t, 0.0) }.sum
  }

  /** Merge mined phrases into attention nodes.
    *
    * Phrases are bucketed by sorted non-stop token key, then greedily merged
    * within a bucket when the context TF-IDF similarity reaches `DeltaM`.
    * The representative phrase of a node is its most frequent variant; node
    * ids are `idBase` + 1, 2, ….
    */
  def normalize(mined: Seq[MinedPhrase], idBase: Long): Seq[AttentionNode] = {
    val nonEmpty = mined.filter(_.tokens.nonEmpty)
    val reps = nonEmpty.map(p => p.seed -> contextRep(p)).toMap
    val nDocs = math.max(1, nonEmpty.size)
    val df = nonEmpty.flatMap(p => reps(p.seed).distinct).groupBy(identity).view.mapValues(_.size).toMap

    val buckets = nonEmpty.groupBy(p => (p.isEvent, Lang.contentTokens(p.tokens).sorted))
    val nodes = Vector.newBuilder[Seq[MinedPhrase]]
    for ((_, ps) <- buckets.toSeq.sortBy(_._2.head.seed)) {
      // greedy agglomeration inside the bucket
      val groups = collection.mutable.ArrayBuffer[collection.mutable.ArrayBuffer[MinedPhrase]]()
      for (p <- ps.sortBy(_.seed)) {
        groups.find { g =>
          tfidfCosine(reps(g.head.seed), reps(p.seed), df, nDocs) >= DeltaM
        } match {
          case Some(g) => g += p
          case None => groups += collection.mutable.ArrayBuffer(p)
        }
      }
      groups.foreach(g => nodes += g.toSeq)
    }

    nodes.result().sortBy(_.head.seed).zipWithIndex.map { case (g, i) =>
      val phrase = g.map(_.tokens).groupBy(identity).toSeq
        .sortBy { case (t, v) => (-v.size, t.mkString(" ")) }.head._1
      AttentionNode(idBase + i + 1,
        if (g.head.isEvent) "event" else "concept",
        phrase, g.map(_.tokens).distinct, g.map(_.seed),
        g.flatMap(_.docIds).distinct, g.map(_.goldAttn).distinct)
    }
  }
}
