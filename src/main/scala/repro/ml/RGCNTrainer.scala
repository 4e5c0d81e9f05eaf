package repro.ml

import org.apache.spark.sql.SparkSession

/** Full-batch Adam training for [[RGCN]], on Spark or on the driver alone.
  *
  * Each epoch computes the exact mean loss and gradient over all graphs and
  * applies one Adam step on the driver — the Spark-native analogue of the
  * paper's GPU training loop. Both entry points run the same loop and differ
  * only in where the gradient sum comes from.
  *
  * Summation order: a partition sums its graphs' gradients in input order,
  * starting from zero, and the driver adds the partition sums in partition
  * order. The result depends only on the graphs, their order and the number
  * of partitions, never on task timing, so two runs give bitwise-identical
  * parameters. With one partition the sum is exactly the driver-local one;
  * other partition counts differ from it only by float rounding.
  */
object RGCNTrainer {

  final case class TrainConfig(epochs: Int = 120, lr: Double = 0.01,
                               beta1: Double = 0.9, beta2: Double = 0.999,
                               eps: Double = 1e-8, weightDecay: Double = 1e-5,
                               seed: Long = 13, logEvery: Int = 0)

  /** Adam state over a flat parameter vector. */
  final class Adam(n: Int, tc: TrainConfig) {
    private val m = new Array[Double](n)
    private val v = new Array[Double](n)
    private var t = 0
    def step(params: Array[Double], grad: Array[Double]): Unit = {
      t += 1
      val bc1 = 1 - math.pow(tc.beta1, t)
      val bc2 = 1 - math.pow(tc.beta2, t)
      var i = 0
      while (i < n) {
        val g = grad(i) + tc.weightDecay * params(i)
        m(i) = tc.beta1 * m(i) + (1 - tc.beta1) * g
        v(i) = tc.beta2 * v(i) + (1 - tc.beta2) * g * g
        params(i) -= tc.lr * (m(i) / bc1) / (math.sqrt(v(i) / bc2) + tc.eps)
        i += 1
      }
    }
  }

  /** Distributed training: one Spark stage per epoch over the graphs,
    * parallelized across `defaultParallelism` partitions.
    */
  def train(spark: SparkSession, graphs: Seq[RGCN.EncodedGraph],
            cfg: RGCN.Config, tc: TrainConfig = TrainConfig()): RGCN.Params =
    trainPartitioned(spark, graphs, cfg, tc, spark.sparkContext.defaultParallelism)

  /** Driver-local training over a small in-memory graph collection. */
  def trainLocal(graphs: Seq[RGCN.EncodedGraph], cfg: RGCN.Config,
                 tc: TrainConfig = TrainConfig()): RGCN.Params =
    loop(graphs.size, cfg, tc)(flat => sum(graphs.iterator, new RGCN.Params(cfg, flat)))

  /** [[train]] over an explicit number of partitions. Each epoch broadcasts
    * the parameters, sums loss and gradient per partition and collects the
    * partial sums.
    */
  private[ml] def trainPartitioned(spark: SparkSession, graphs: Seq[RGCN.EncodedGraph],
                                   cfg: RGCN.Config, tc: TrainConfig,
                                   partitions: Int): RGCN.Params = {
    val sc = spark.sparkContext
    val rdd = sc.parallelize(graphs, partitions)
    loop(graphs.size, cfg, tc) { flat =>
      val bc = sc.broadcast(flat.clone())
      val parts = rdd.mapPartitions { it =>
        Iterator.single(sum(it, new RGCN.Params(cfg, bc.value)))
      }.collect()
      bc.destroy()
      val grad = new Array[Double](cfg.nParams)
      var loss = 0.0
      for ((l, g) <- parts) { loss += l; addTo(grad, g) }
      (loss, grad)
    }
  }

  /** Summed loss and gradient of `graphs`, in iteration order. */
  private def sum(graphs: Iterator[RGCN.EncodedGraph], p: RGCN.Params): (Double, Array[Double]) = {
    val grad = new Array[Double](p.cfg.nParams)
    var loss = 0.0
    for (g <- graphs) {
      val (li, gi) = RGCN.lossAndGrad(g, p)
      loss += li
      addTo(grad, gi)
    }
    (loss, grad)
  }

  private def addTo(acc: Array[Double], x: Array[Double]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += x(i); i += 1 }
  }

  /** The Adam loop: `lossAndGrad` maps the current parameters to the summed
    * loss and gradient over all `nG` graphs.
    */
  private def loop(nG: Int, cfg: RGCN.Config, tc: TrainConfig)
                  (lossAndGrad: Array[Double] => (Double, Array[Double])): RGCN.Params = {
    require(nG > 0, "no training graphs")
    val params = RGCN.init(cfg, tc.seed)
    val adam = new Adam(cfg.nParams, tc)
    for (epoch <- 1 to tc.epochs) {
      val (loss, grad) = lossAndGrad(params.flat)
      var i = 0
      while (i < grad.length) { grad(i) /= nG; i += 1 }
      adam.step(params.flat, grad)
      if (tc.logEvery > 0 && epoch % tc.logEvery == 0)
        Console.err.println(f"[RGCNTrainer] epoch $epoch%4d loss ${loss / nG}%.5f")
    }
    params
  }
}
