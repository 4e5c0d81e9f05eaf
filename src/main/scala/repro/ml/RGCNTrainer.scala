package repro.ml

import repro.Par

/** Full-batch Adam training for [[RGCN]] heads on local threads.
  *
  * A call trains one or more independent heads, each a `(graphs, config)`
  * pair, for the same number of epochs from the same seed. Each epoch computes
  * every head's exact mean loss gradient over its graphs and applies a
  * separate Adam step per head — the paper's single-process training loop,
  * with the gradient sums spread over threads.
  *
  * Each epoch splits every head's gradient sum into `Chunks` (4) chunks, and
  * each (head, chunk) pair is one unit of a [[repro.Par.map]]. A unit only
  * reads the shared graphs and parameters and writes only its own buffers.
  *
  * Summation order: chunk k sums head h's graphs `[k·n_h/4, (k+1)·n_h/4)` in
  * input order, starting from zero, and the caller adds each head's four
  * chunk sums in chunk order, again starting from zero. A head's result
  * depends only on its graphs, their order and the seed — never on the thread
  * count, on unit timing or on the other heads — so two runs give
  * bitwise-identical parameters on any machine and a head trained with others
  * equals the head trained alone.
  */
object RGCNTrainer {

  /** One head's input: its training graphs and its model shape. */
  type Head = (Seq[RGCN.EncodedGraph], RGCN.Config)

  // Adam hyper-parameters of every head.
  private val Lr = 0.01
  private val Beta1 = 0.9
  private val Beta2 = 0.999
  private val Eps = 1e-8
  private val WeightDecay = 1e-5

  // Chunks of every head's gradient sum: the summation order, and the units
  // of an epoch.
  private val Chunks = 4

  /** Adam state over a flat parameter vector. */
  private final class Adam(n: Int) {
    private val m = new Array[Double](n)
    private val v = new Array[Double](n)
    private var t = 0
    def step(params: Array[Double], grad: Array[Double]): Unit = {
      t += 1
      val bc1 = 1 - math.pow(Beta1, t)
      val bc2 = 1 - math.pow(Beta2, t)
      var i = 0
      while (i < n) {
        val g = grad(i) + WeightDecay * params(i)
        m(i) = Beta1 * m(i) + (1 - Beta1) * g
        v(i) = Beta2 * v(i) + (1 - Beta2) * g * g
        params(i) -= Lr * (m(i) / bc1) / (math.sqrt(v(i) / bc2) + Eps)
        i += 1
      }
    }
  }

  /** Train `heads`; returns their parameters in input order. Each epoch
    * maps every (head, chunk) unit through [[repro.Par.map]].
    */
  def train(heads: Seq[Head], epochs: Int, seed: Long): Seq[RGCN.Params] = {
    requireGraphs(heads)
    loop(heads, epochs, seed) { flats =>
      val units = for (((gs, cfg), flat) <- heads.zip(flats); k <- 0 until Chunks) yield (gs, cfg, flat, k)
      Par.map(units) { case (gs, cfg, flat, k) =>
        val from = (k.toLong * gs.length / Chunks).toInt
        val until = ((k + 1).toLong * gs.length / Chunks).toInt
        gradSum(gs.iterator.slice(from, until), new RGCN.Params(cfg, flat))
      }.grouped(Chunks).map { chunks =>
        val grad = new Array[Double](chunks.head.length)
        chunks.foreach(addTo(grad, _))
        grad
      }.toSeq
    }
  }

  /** Reject a call without heads or with a head without graphs, before any
    * gradient is computed.
    */
  private def requireGraphs(heads: Seq[Head]): Unit = {
    require(heads.nonEmpty, "no heads to train")
    for ((h, i) <- heads.zipWithIndex) require(h._1.nonEmpty, s"head $i has no training graphs")
  }

  /** Summed gradient of `graphs`, in iteration order. The weights are
    * copied row-major once, and each graph's gradient is computed into one
    * reused buffer, zeroed per graph.
    */
  private def gradSum(graphs: Iterator[RGCN.EncodedGraph], p: RGCN.Params): Array[Double] = {
    val rows = new RGCN.RowMajor(p)
    val grad = new Array[Double](p.cfg.nParams)
    val one = new Array[Double](p.cfg.nParams)
    for (g <- graphs) {
      java.util.Arrays.fill(one, 0.0)
      RGCN.lossAndGradInto(g, p, rows, one)
      addTo(grad, one)
    }
    grad
  }

  private def addTo(acc: Array[Double], x: Array[Double]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += x(i); i += 1 }
  }

  /** The Adam loop: `gradOf` maps every head's current parameters to its
    * summed gradient over all of the head's graphs.
    */
  private[ml] def loop(heads: Seq[Head], epochs: Int, seed: Long)
                      (gradOf: Seq[Array[Double]] => Seq[Array[Double]]): Seq[RGCN.Params] = {
    val params = heads.map(h => RGCN.init(h._2, seed))
    val adams = heads.map(h => new Adam(h._2.nParams))
    for (_ <- 1 to epochs) {
      val grads = gradOf(params.map(_.flat))
      for (h <- heads.indices) {
        val grad = grads(h)
        val nG = heads(h)._1.size
        var i = 0
        while (i < grad.length) { grad(i) /= nG; i += 1 }
        adams(h).step(params(h).flat, grad)
      }
    }
    params
  }
}
