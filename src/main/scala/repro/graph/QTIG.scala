package repro.graph

import repro.nlp.DepParser

/** Query-Title Interaction Graph (Sec. 3.1, Algorithm 2).
  *
  * Nodes are unique tokens over a cluster's queries and titles (plus `sos` /
  * `eos` markers); edges are bi-directional `seq` arcs between tokens adjacent
  * in any input, or bi-directional typed dependency arcs for non-adjacent
  * syntactically related pairs. Only the *first* edge constructed between a
  * token pair is kept (inputs are read in descending random-walk weight, so
  * higher-weighted evidence wins, as the paper prescribes).
  */
object QTIG {

  val Sos = "<sos>"
  val Eos = "<eos>"

  /** Relation vocabulary: forward/backward `seq`, then each dependency label
    * in both directions. Indices are the R-GCN relation ids.
    */
  val Relations: Vector[String] =
    Vector("seq_f", "seq_b") ++ DepParser.Labels.flatMap(l => Vector(s"${l}_f", s"${l}_b"))

  val NumRelations: Int = Relations.size
  private val relId: Map[String, Int] = Relations.zipWithIndex.toMap

  /** The constructed graph.
    *
    * @param tokens node id → token (0 = sos, 1 = eos; others in insertion order,
    *               which is the "sequential id" node feature)
    * @param edges  directed typed edges (src, dst, relationId)
    * @param texts  each input text as node-id sequences (queries first, then
    *               titles, both in descending weight) — kept for ATSP decoding
    */
  final case class Graph(tokens: Vector[String], edges: Vector[(Int, Int, Int)],
                         texts: Vector[Vector[Int]]) {
    def size: Int = tokens.size
  }

  /** Build the QTIG for one cluster (Algorithm 2). Texts must already be
    * sorted by descending weight within each group.
    */
  def build(queries: Seq[Seq[String]], titles: Seq[Seq[String]]): Graph = {
    val nodeIdx = collection.mutable.LinkedHashMap[String, Int](Sos -> 0, Eos -> 1)
    // at most one (bi-directional) edge per unordered token pair
    val linked = collection.mutable.Set[(Int, Int)]()
    val edges = Vector.newBuilder[(Int, Int, Int)]
    val texts = Vector.newBuilder[Vector[Int]]

    def nodeId(tok: String): Int = nodeIdx.getOrElseUpdate(tok, nodeIdx.size)
    def pairKey(a: Int, b: Int): (Int, Int) = if (a < b) (a, b) else (b, a)
    def addEdge(a: Int, b: Int, fwd: String, bwd: String): Unit = {
      val k = pairKey(a, b)
      if (a != b && !linked.contains(k)) {
        linked += k
        edges += ((a, b, relId(fwd)))
        edges += ((b, a, relId(bwd)))
      }
    }

    val all = queries ++ titles
    // pass 1: nodes + seq edges (sos/eos appended per Algorithm 2 line 3)
    for (x <- all) {
      val ids = (Sos +: x :+ Eos).map(nodeId).toVector
      texts += ids
      for (Seq(a, b) <- ids.sliding(2).toSeq) addEdge(a, b, "seq_f", "seq_b")
    }
    // pass 2: dependency edges (parse excludes the markers)
    for (x <- all) {
      val ids = x.map(nodeId).toVector
      for (DepParser.Dep(g, d, label) <- DepParser.parse(x))
        addEdge(ids(g), ids(d), s"${label}_f", s"${label}_b")
    }
    Graph(nodeIdx.keys.toVector, edges.result(), texts.result())
  }

  /** The ATSP-decoding variant of the graph (Sec. 3.1, "Node Ordering"):
    * dependency edges removed, `seq` edges made unidirectional (input order),
    * sos linked to the first positive token of each text and the last positive
    * token of each text linked to eos.
    *
    * Edges from higher-weighted (earlier) texts are infinitesimally cheaper,
    * mirroring the paper's preference for evidence from higher-weighted
    * inputs — it breaks order ties toward the dominant surface order.
    *
    * @return directed weighted adjacency over node ids
    */
  def atspGraph(g: Graph, positives: Set[Int]): Map[Int, Map[Int, Double]] = {
    val adj = collection.mutable.Map[Int, collection.mutable.Map[Int, Double]]()
    def add(a: Int, b: Int, w: Double): Unit = {
      val m = adj.getOrElseUpdate(a, collection.mutable.Map())
      if (!m.get(b).exists(_ <= w)) m(b) = w
    }
    for ((text, ti) <- g.texts.zipWithIndex) {
      val w = 1.0 + ti * 1e-3
      val inner = text.filter(i => i != 0 && i != 1)
      for (Seq(a, b) <- inner.sliding(2).toSeq if inner.size >= 2) add(a, b, w)
      val pos = inner.filter(positives)
      if (pos.nonEmpty) {
        add(0, pos.head, w)
        add(pos.last, 1, w)
      }
    }
    adj.view.mapValues(_.toMap).toMap
  }

  /** Shortest-path lengths (Dijkstra) from each of `sources` over `adj`. */
  def shortestPaths(n: Int, adj: Map[Int, Map[Int, Double]],
                   sources: Seq[Int]): Map[Int, Array[Double]] = {
    sources.map { s =>
      val dist = Array.fill(n)(Double.PositiveInfinity)
      dist(s) = 0.0
      val pq = collection.mutable.PriorityQueue((0.0, s))(Ordering.by(-_._1))
      while (pq.nonEmpty) {
        val (d, u) = pq.dequeue()
        if (d <= dist(u)) {
          for ((v, w) <- adj.getOrElse(u, Map.empty) if d + w < dist(v)) {
            dist(v) = d + w; pq.enqueue((dist(v), v))
          }
        }
      }
      s -> dist
    }.toMap
  }
}
