package repro.ml

import org.apache.spark.sql.SparkSession

/** Full-batch Adam training for [[RGCN]], on Spark or on the driver alone.
  *
  * Each epoch computes the exact mean loss gradient over all graphs and
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

  // Adam hyper-parameters of every head.
  private val Lr = 0.01
  private val Beta1 = 0.9
  private val Beta2 = 0.999
  private val Eps = 1e-8
  private val WeightDecay = 1e-5

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

  /** Distributed training: one Spark stage per epoch over the graphs,
    * parallelized across `defaultParallelism` partitions.
    */
  def train(spark: SparkSession, graphs: Seq[RGCN.EncodedGraph],
            cfg: RGCN.Config, epochs: Int, seed: Long): RGCN.Params =
    trainPartitioned(spark, graphs, cfg, epochs, seed, spark.sparkContext.defaultParallelism)

  /** Driver-local training over a small in-memory graph collection. */
  def trainLocal(graphs: Seq[RGCN.EncodedGraph], cfg: RGCN.Config,
                 epochs: Int, seed: Long): RGCN.Params =
    loop(graphs.size, cfg, epochs, seed)(flat => gradSum(graphs.iterator, new RGCN.Params(cfg, flat)))

  /** [[train]] over an explicit number of partitions. Each epoch broadcasts
    * the parameters, sums the gradient per partition and collects the
    * partial sums.
    */
  private[ml] def trainPartitioned(spark: SparkSession, graphs: Seq[RGCN.EncodedGraph],
                                   cfg: RGCN.Config, epochs: Int, seed: Long,
                                   partitions: Int): RGCN.Params = {
    val sc = spark.sparkContext
    val rdd = sc.parallelize(graphs, partitions)
    loop(graphs.size, cfg, epochs, seed) { flat =>
      val bc = sc.broadcast(flat.clone())
      val parts = rdd.mapPartitions { it =>
        Iterator.single(gradSum(it, new RGCN.Params(cfg, bc.value)))
      }.collect()
      bc.destroy()
      val grad = new Array[Double](cfg.nParams)
      parts.foreach(addTo(grad, _))
      grad
    }
  }

  /** Summed gradient of `graphs`, in iteration order. */
  private def gradSum(graphs: Iterator[RGCN.EncodedGraph], p: RGCN.Params): Array[Double] = {
    val grad = new Array[Double](p.cfg.nParams)
    for (g <- graphs) addTo(grad, RGCN.lossAndGrad(g, p)._2)
    grad
  }

  private def addTo(acc: Array[Double], x: Array[Double]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += x(i); i += 1 }
  }

  /** The Adam loop: `gradOf` maps the current parameters to the summed
    * gradient over all `nG` graphs.
    */
  private def loop(nG: Int, cfg: RGCN.Config, epochs: Int, seed: Long)
                  (gradOf: Array[Double] => Array[Double]): RGCN.Params = {
    require(nG > 0, "no training graphs")
    val params = RGCN.init(cfg, seed)
    val adam = new Adam(cfg.nParams)
    for (_ <- 1 to epochs) {
      val grad = gradOf(params.flat)
      var i = 0
      while (i < grad.length) { grad(i) /= nG; i += 1 }
      adam.step(params.flat, grad)
    }
    params
  }
}
