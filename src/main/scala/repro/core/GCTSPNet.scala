package repro.core

import repro.graph.QTIG
import repro.ml.RGCN
import repro.nlp.Lang
import repro.tsp.ATSP

/** GCTSP-Net (Sec. 3.1): R-GCN node classification over the QTIG followed by
  * ATSP-decoding to order the predicted tokens into an attention phrase.
  *
  * Two heads share the architecture: a binary head (token ∈ phrase?) for
  * concept/event mining, and a 4-class head (other/entity/trigger/location)
  * for event key-elements recognition (Sec. 3.2, Table 7).
  */
object GCTSPNet {

  /** 4-class label ids for event key elements. */
  val ClsOther = 0; val ClsEntity = 1; val ClsTrigger = 2; val ClsLocation = 3
  val ElementClasses = 4

  /** Network shape: 5-layer R-GCN, hidden 32, B = 5 bases (paper Sec. 5.2). */
  def config(outClasses: Int): RGCN.Config =
    RGCN.Config(inDim = Features.Dim, hidden = 32, layers = 5,
      relations = QTIG.NumRelations, bases = 5, outClasses = outClasses)

  /** Encode a QTIG + per-token labels into an [[RGCN.EncodedGraph]].
    * Marker nodes carry label 0 and stay in the loss (trivially negative).
    */
  def encode(g: QTIG.Graph, labelOf: String => Int): RGCN.EncodedGraph = {
    val rels = Array.fill(QTIG.NumRelations)(Vector.newBuilder[Int])
    for ((src, dst, r) <- g.edges) { rels(r) += dst; rels(r) += src } // dst receives from src
    val labels = g.tokens.map {
      case QTIG.Sos | QTIG.Eos => 0
      case t => labelOf(t)
    }.toArray
    RGCN.EncodedGraph(Features.encodeGraph(g), rels.map(_.result().toArray), labels)
  }

  /** Binary-head training labels from a gold phrase. */
  def binaryLabels(gold: Seq[String]): String => Int = {
    val set = gold.toSet
    t => if (set.contains(t)) 1 else 0
  }

  /** 4-class training labels from gold event elements. */
  def elementLabels(entity: Seq[String], trigger: Seq[String], location: Option[String]): String => Int = {
    val e = entity.toSet; val tr = trigger.toSet; val l = location.toSet
    t => if (e.contains(t)) ClsEntity
         else if (tr.contains(t)) ClsTrigger
         else if (l.contains(t)) ClsLocation
         else ClsOther
  }

  /** Binary-head probability above which a node is in the phrase. */
  private val PositiveThreshold = 0.5

  /** Predicted positive node ids (binary head), markers/punct excluded. */
  def predictPositives(g: QTIG.Graph, enc: RGCN.EncodedGraph, params: RGCN.Params): Set[Int] = {
    val probs = RGCN.predictProbs(enc, params)
    (2 until g.size).filter { i =>
      probs(i)(1) > PositiveThreshold && !Lang.isPunct(g.tokens(i))
    }.toSet
  }

  /** Order positive nodes by ATSP-decoding and return the phrase tokens. */
  def atspDecode(g: QTIG.Graph, positives: Set[Int]): Seq[String] = {
    if (positives.isEmpty) return Seq.empty
    val pos = positives.toVector.sorted
    if (pos.size == 1) return Seq(g.tokens(pos.head))
    val adj = QTIG.atspGraph(g, positives)
    val sources = 0 +: pos
    val dists = QTIG.shortestPaths(g.size, adj, sources)
    val ids = (0 +: pos) :+ 1 // [sos, positives…, eos]
    val d = Array.tabulate(ids.size, ids.size) { (i, j) =>
      if (i == j) 0.0
      else {
        val v = dists.get(ids(i)).map(_(ids(j))).getOrElse(Double.PositiveInfinity)
        if (v.isInfinity) ATSP.Unreachable else v
      }
    }
    ATSP.solvePath(d).map(i => g.tokens(ids(i)))
  }

  /** Full mining pass: classify nodes, decode order, emit the phrase. */
  def minePhrase(g: QTIG.Graph, params: RGCN.Params): Seq[String] =
    atspDecode(g, predictPositives(g, encode(g, _ => 0), params))

  /** 4-class element classification: token → predicted class id. */
  def classifyElements(g: QTIG.Graph, params: RGCN.Params): Map[String, Int] = {
    val enc = encode(g, _ => 0)
    val probs = RGCN.predictProbs(enc, params)
    (2 until g.size).map { i =>
      g.tokens(i) -> probs(i).zipWithIndex.maxBy(_._1)._2
    }.toMap
  }
}
