package repro.ml

import scala.util.Random

/** Relational Graph Convolutional Network (Schlichtkrull et al.) implemented
  * from scratch on flat arrays — the offline stand-in for the paper's
  * PyTorch-based GCTSP-Net encoder (Sec. 3.1, Eq. 3–6).
  *
  * Layer rule (Eq. 5): h_v' = ReLU( W_0 h_v + Σ_r Σ_{w∈N_r(v)} 1/c_{v,r} W_r h_w )
  * with basis decomposition (Eq. 6): W_r = Σ_b a_{rb} V_b, c_{v,r} = |N_r(v)|.
  *
  * The kernel runs basis-first (the parameter-sharing form, Schlichtkrull et
  * al. §2.2): per layer it computes Z = H W_0 and P_b = H V_b once per basis
  * in one matmul against the stacked [W_0 | V_1 … V_B], then walks each
  * relation's edge list once, z_v += Σ_b (a_{rb} / c_{v,r}) P_b[w]. The
  * backward pass mirrors it, so a layer costs O(B·n·d² + E·B·d) rather than
  * the O(R·B·n·d²) of materializing every Â_r H W_r.
  *
  * Activations are row-major `Array[Double]` (row per node). Weight matrices
  * keep the column-major layout of the flat parameter vector. The node
  * classification head is a softmax over `outClasses` (binary phrase
  * membership uses 2 classes; event key elements use 4). Gradients are exact
  * (verified by numerical gradient checks in tests) and flat, so training can
  * sum them across graphs.
  *
  * Bit contract (pinned by `RGCNSpec` and `PipelineSpec`): every output is a
  * sum that starts at +0.0 and adds its terms in a fixed order. Every
  * product is one `matmul`, whose output (v, c) adds its terms over the
  * input index i in ascending order, skipping zero inputs. The backward
  * products are `matmul`s over hᵀ and over W's own block, so a
  * weight-gradient entry adds over the nodes v in ascending order and an
  * input-gradient entry over the output columns in ascending order.
  * Skipping a zero term, or adding one, is exact only while every value is
  * finite: a signed zero never changes a sum that starts at +0.0, but 0·∞ is
  * NaN. No product is fused into its sum (`Math.fma` is never called, and
  * the JVM never fuses on its own), so the vectorized loops round exactly as
  * scalar ones.
  */
object RGCN {

  /** A graph encoded for the network.
    *
    * @param feats  node features, n × inDim (row per node)
    * @param rels   per relation id, flat edge pairs [v0, w0, v1, w1, …] where
    *               node v receives a message from node w
    * @param labels per-node class id; every node is in the loss
    */
  final case class EncodedGraph(feats: Array[Array[Double]], rels: Array[Array[Int]],
                                labels: Array[Int]) {
    def n: Int = feats.length

    /** Per relation, 1/c_{v,r} for every node v; 0 where v has no in-edges. */
    private[ml] lazy val invDeg: Array[Array[Double]] = rels.map { edges =>
      val deg = new Array[Double](n)
      var i = 0
      while (i < edges.length) { deg(edges(i)) += 1; i += 2 }
      deg.map(c => if (c > 0) 1.0 / c else 0.0)
    }
  }

  final case class Config(inDim: Int, hidden: Int, layers: Int, relations: Int,
                          bases: Int, outClasses: Int) {
    /** Dims (in, out) of layer l. */
    def layerDims(l: Int): (Int, Int) = (if (l == 0) inDim else hidden, hidden)
    /** Total number of parameters in the flat vector. */
    def nParams: Int = new Layout(this).end
  }

  /** Model parameters as one flat vector. Per layer: W_0 (in × out), then
    * V_1 … V_B (in × out each), then a (relations × bases), all column-major;
    * then the output weights (hidden × outClasses, column-major) and bias.
    */
  final class Params(val cfg: Config, val flat: Array[Double]) {
    require(flat.length == cfg.nParams, s"expected ${cfg.nParams} params, got ${flat.length}")
  }

  /** Offsets into the flat vector: per layer the stacked [W_0 | V_b…] block
    * and the a block, then the output weights and bias, then its end.
    */
  private final class Layout(cfg: Config) {
    val weights = new Array[Int](cfg.layers)
    val coeffs = new Array[Int](cfg.layers)
    private var off = 0
    for (l <- 0 until cfg.layers) {
      val (di, dout) = cfg.layerDims(l)
      weights(l) = off; off += (1 + cfg.bases) * di * dout
      coeffs(l) = off; off += cfg.relations * cfg.bases
    }
    val outW: Int = off
    val outB: Int = off + cfg.hidden * cfg.outClasses
    val end: Int = outB + cfg.outClasses
  }

  /** Glorot-style initialization, deterministic in `seed`. */
  def init(cfg: Config, seed: Long): Params = {
    val rng = new Random(seed)
    val flat = new Array[Double](cfg.nParams)
    var off = 0
    def fill(rows: Int, cols: Int, scale: Double): Unit = {
      val s = if (scale > 0) scale else math.sqrt(6.0 / (rows + cols))
      for (i <- 0 until rows * cols) { flat(off) = (rng.nextDouble() * 2 - 1) * s; off += 1 }
    }
    for (l <- 0 until cfg.layers) {
      val (di, dout) = cfg.layerDims(l)
      fill(di, dout, -1)
      for (_ <- 0 until cfg.bases) fill(di, dout, -1)
      fill(cfg.relations, cfg.bases, 0.5)
    }
    fill(cfg.hidden, cfg.outClasses, -1)
    off += cfg.outClasses // out bias = 0
    new Params(cfg, flat)
  }

  /** y(yo + c) += Σ_k xs(k) · a(offs(k) + c) for every c < len, adding the m
    * terms in order k = 0, 1, …, four per pass over the row.
    */
  private def addRows(y: Array[Double], yo: Int, len: Int, a: Array[Double],
                      xs: Array[Double], offs: Array[Int], m: Int): Unit = {
    var k = 0
    while (k + 4 <= m) {
      val x0 = xs(k); val x1 = xs(k + 1); val x2 = xs(k + 2); val x3 = xs(k + 3)
      val a0 = offs(k); val a1 = offs(k + 1); val a2 = offs(k + 2); val a3 = offs(k + 3)
      var c = 0
      while (c < len) {
        y(yo + c) = y(yo + c) + x0 * a(a0 + c) + x1 * a(a1 + c) + x2 * a(a2 + c) + x3 * a(a3 + c)
        c += 1
      }
      k += 4
    }
    while (k < m) {
      val x = xs(k); val ak = offs(k)
      var c = 0
      while (c < len) { y(yo + c) += x * a(ak + c); c += 1 }
      k += 1
    }
  }

  /** The di × cols block at `w(off)`, column-major, copied row-major. */
  private def rowMajor(w: Array[Double], off: Int, di: Int, cols: Int): Array[Double] = {
    val wt = new Array[Double](di * cols)
    var c = 0
    while (c < cols) {
      val wc = off + c * di
      var i = 0
      while (i < di) { wt(i * cols + c) = w(wc + i); i += 1 }
      c += 1
    }
    wt
  }

  /** The weights that [[matmul]] reads, copied row-major from one
    * [[Params]]: per layer the stacked [W_0 | V_b…] block, then the output
    * weights. A copy does not follow later changes to `Params.flat`.
    */
  private[ml] final class RowMajor(p: Params) {
    private[RGCN] val lay = new Layout(p.cfg)
    private[RGCN] val layers: Array[Array[Double]] = Array.tabulate(p.cfg.layers) { l =>
      rowMajor(p.flat, lay.weights(l), p.cfg.layerDims(l)._1, (1 + p.cfg.bases) * p.cfg.hidden)
    }
    private[RGCN] val out: Array[Double] = rowMajor(p.flat, lay.outW, p.cfg.hidden, p.cfg.outClasses)
  }

  /** out (n × cols, row-major) = h (n × di, row-major) · W, where W (di ×
    * cols) is stored row-major in `wt` from `wOff` on.
    *
    * Each output row is updated from the rows of W, for the row's non-zero
    * inputs only (one-hot layer-0 features, ReLU zeros), in ascending i (see
    * the bit contract above).
    */
  private def matmul(h: Array[Double], n: Int, di: Int, wt: Array[Double], wOff: Int,
                     cols: Int): Array[Double] = {
    val out = new Array[Double](n * cols)
    val xs = new Array[Double](di)
    val offs = new Array[Int](di)
    var v = 0
    while (v < n) {
      var m = 0
      var i = 0
      while (i < di) {
        val x = h(v * di + i)
        if (x != 0.0) { xs(m) = x; offs(m) = wOff + i * cols; m += 1 }
        i += 1
      }
      addRows(out, v * cols, cols, wt, xs, offs, m)
      v += 1
    }
    out
  }

  /** grad's column-major di × cols block at `off` += hᵀ dOut, where h is
    * n × di and dOut n × cols, both row-major. The product is a [[matmul]]
    * over hᵀ, so each entry sums over the nodes with a non-zero input in
    * ascending v; the block holds +0.0 when it is added.
    */
  private def addWeightGrad(h: Array[Double], n: Int, di: Int, dOut: Array[Double], cols: Int,
                            grad: Array[Double], off: Int): Unit = {
    val gt = matmul(rowMajor(h, 0, di, n), di, n, dOut, 0, cols)
    var c = 0
    while (c < cols) {
      val wc = off + c * di
      var i = 0
      while (i < di) { grad(wc + i) += gt(i * cols + c); i += 1 }
      c += 1
    }
  }

  /** Activations of one forward pass. `ys(l)` is n × (1 + B)·d row-major:
    * the pre-activation z of layer l, then P_1 … P_B.
    */
  private final class Forward(val inputs: Array[Array[Double]], val ys: Array[Array[Double]],
                              val last: Array[Double], val logits: Array[Double])

  private def forward(g: EncodedGraph, p: Params, rows: RowMajor): Forward = {
    val cfg = p.cfg
    val lay = rows.lay
    val w = p.flat
    val n = g.n
    val d = cfg.hidden
    val nb = cfg.bases
    val inputs = new Array[Array[Double]](cfg.layers)
    val ys = new Array[Array[Double]](cfg.layers)
    var h = new Array[Double](n * cfg.inDim)
    for (v <- 0 until n) System.arraycopy(g.feats(v), 0, h, v * cfg.inDim, cfg.inDim)
    val a = new Array[Double](nb) // a_{rb} of the current relation
    for (l <- 0 until cfg.layers) {
      val di = cfg.layerDims(l)._1
      val stride = (1 + nb) * d
      val y = matmul(h, n, di, rows.layers(l), 0, stride)
      for (r <- 0 until cfg.relations) {
        val edges = g.rels(r)
        val inv = g.invDeg(r)
        for (b <- 0 until nb) a(b) = w(lay.coeffs(l) + r + b * cfg.relations)
        var e = 0
        while (e < edges.length) {
          val v = edges(e); val src = edges(e + 1)
          val c = inv(v)
          val zv = v * stride
          var b = 0
          while (b < nb) {
            val s = a(b) * c
            val pw = src * stride + (1 + b) * d
            var j = 0
            while (j < d) { y(zv + j) += s * y(pw + j); j += 1 }
            b += 1
          }
          e += 2
        }
      }
      inputs(l) = h
      ys(l) = y
      h = new Array[Double](n * d)
      for (v <- 0 until n; j <- 0 until d) {
        val z = y(v * stride + j)
        h(v * d + j) = if (z > 0) z else 0.0
      }
    }
    val k = cfg.outClasses
    val logits = matmul(h, n, d, rows.out, 0, k)
    for (v <- 0 until n; c <- 0 until k) logits(v * k + c) += w(lay.outB + c)
    new Forward(inputs, ys, h, logits)
  }

  /** Softmax of row v of the logits into `out`; returns log Σ exp(x - max) and max. */
  private def softmaxRow(logits: Array[Double], v: Int, k: Int, out: Array[Double]): (Double, Double) = {
    var m = Double.NegativeInfinity
    for (c <- 0 until k) m = math.max(m, logits(v * k + c))
    var s = 0.0
    for (c <- 0 until k) { out(c) = math.exp(logits(v * k + c) - m); s += out(c) }
    for (c <- 0 until k) out(c) /= s
    (math.log(s), m)
  }

  /** Per-node class probabilities. */
  def predictProbs(g: EncodedGraph, params: Params): Array[Array[Double]] = {
    val k = params.cfg.outClasses
    val logits = forward(g, params, new RowMajor(params)).logits
    Array.tabulate(g.n) { v =>
      val row = new Array[Double](k)
      softmaxRow(logits, v, k, row)
      row
    }
  }

  /** Mean cross-entropy loss over the nodes and flat gradient for one graph. */
  def lossAndGrad(g: EncodedGraph, params: Params): (Double, Array[Double]) = {
    val grad = new Array[Double](params.cfg.nParams)
    (lossAndGradInto(g, params, new RowMajor(params), grad), grad)
  }

  /** [[lossAndGrad]] with `rows` copied from `params`, and the gradient
    * written into `grad`, which must hold +0.0 everywhere: every gradient
    * entry is a sum that starts there.
    */
  private[ml] def lossAndGradInto(g: EncodedGraph, params: Params, rows: RowMajor,
                                  grad: Array[Double]): Double = {
    val cfg = params.cfg
    val w = params.flat
    val lay = rows.lay
    val fw = forward(g, params, rows)
    val n = g.n
    val d = cfg.hidden
    val nb = cfg.bases
    val k = cfg.outClasses
    val nNodes = math.max(1, n)

    // softmax CE + dLogits
    var loss = 0.0
    val dLogits = new Array[Double](n * k)
    val prob = new Array[Double](k)
    for (v <- 0 until n) {
      val y = g.labels(v)
      val (logSum, m) = softmaxRow(fw.logits, v, k, prob)
      loss += -(fw.logits(v * k + y) - m - logSum) / nNodes
      for (c <- 0 until k)
        dLogits(v * k + c) = (prob(c) - (if (c == y) 1.0 else 0.0)) / nNodes
    }

    // output layer; W's column-major block is Wᵀ row-major, so dH = dOut Wᵀ
    // is a matmul over W's own block
    addWeightGrad(fw.last, n, d, dLogits, k, grad, lay.outW)
    var dH = matmul(dLogits, n, k, w, lay.outW, d)
    for (v <- 0 until n; c <- 0 until k) grad(lay.outB + c) += dLogits(v * k + c)

    // backprop through layers
    val a = new Array[Double](nb) // a_{rb} of the current relation
    for (l <- (cfg.layers - 1) to 0 by -1) {
      val di = cfg.layerDims(l)._1
      val stride = (1 + nb) * d
      val y = fw.ys(l)
      // dY = [dZ | dP_1 … dP_B]
      val dY = new Array[Double](n * stride)
      for (v <- 0 until n; j <- 0 until d)
        if (y(v * stride + j) > 0) dY(v * stride + j) = dH(v * d + j)
      val aOff = lay.coeffs(l)
      for (r <- 0 until cfg.relations) {
        val edges = g.rels(r)
        val inv = g.invDeg(r)
        for (b <- 0 until nb) a(b) = w(aOff + r + b * cfg.relations)
        var e = 0
        while (e < edges.length) {
          val v = edges(e); val src = edges(e + 1)
          val c = inv(v)
          val zv = v * stride
          var b = 0
          while (b < nb) {
            val s = a(b) * c
            val pw = src * stride + (1 + b) * d
            var dot = 0.0
            var j = 0
            while (j < d) {
              val dz = dY(zv + j)
              dY(pw + j) += s * dz
              dot += dz * y(pw + j)
              j += 1
            }
            grad(aOff + r + b * cfg.relations) += c * dot
            b += 1
          }
          e += 2
        }
      }
      addWeightGrad(fw.inputs(l), n, di, dY, stride, grad, lay.weights(l))
      if (l > 0) dH = matmul(dY, n, stride, w, lay.weights(l), di)
    }
    loss
  }
}
