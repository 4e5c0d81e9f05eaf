package perfbench

import org.apache.spark.sql.SparkSession

/** Per-layer metrics of a traced run.
  *
  * Span times and Spark counters are medians over the timed ops of each op's
  * total. One the op does not reach is taken from set-up (median over set-up
  * runs), else from the probe that the traced run makes once after timing.
  * GC time is the timed phase's total per op. Kernel replays and output
  * counts come from [[Replays]].
  */
object Layers {
  import Stats.median

  /** (metric, span name) pairs: seconds spent in calls into a module. */
  val SpanMetrics = Seq(
    "data.onto_gen_s" -> "data.onto_gen", "data.clicklog_gen_s" -> "data.clicklog_gen",
    "ml.train_heads_s" -> "ml.train_heads",
    "core.mine_s" -> "core.mine", "core.assemble_s" -> "core.assemble",
    "eval.datasets_build_s" -> "eval.datasets_build", "eval.judge_edges_s" -> "eval.judge_edges",
    "eval.doc_tagging_s" -> "eval.doc_tagging", "eval.prepare_s" -> "eval.prepare",
    "eval.table5_s" -> "eval.table5", "eval.table6_s" -> "eval.table6", "eval.table7_s" -> "eval.table7")

  /** Layers whose calls launch Spark jobs. */
  val SparkLayers = Seq("core", "eval", "ml")

  def metrics(spark: SparkSession, w: Workload, t: Trace, listener: JobListener,
              ops: Seq[Int], setups: Seq[Int], walls: Seq[Double], gcPerOpS: Double,
              heapPeakMb: Double): Seq[(String, (Double, String))] = {
    val replays = Replays.run(spark, w, t)
    val jobs = listener.jobs()
    // per-op value of f, from the first phase (timed ops, set-ups, probe) where it is non-zero
    def phased(f: Int => Double): Double =
      Seq(ops, setups, Seq(Main.ProbeOp)).iterator.map(ids => median(ids.map(f)))
        .find(_ > 0).getOrElse(0.0)
    def jobsOf(op: Int) = jobs.filter(_.op == op)

    val spans = SpanMetrics.map { case (m, s) => m -> (phased(t.seconds(_, s)), "s") }
    val epochs = jobs.filter(_.stageName.startsWith("treeAggregate"))
    val epochMs = Seq(ops, setups, Seq(Main.ProbeOp)).iterator
      .map(ids => median(epochs.filter(j => ids.contains(j.op)).map(_.ms.toDouble)))
      .find(_ > 0).getOrElse(0.0)
    val sparkTotals = Seq(
      "spark.jobs" -> (phased(jobsOf(_).size.toDouble), "count"),
      "spark.tasks" -> (phased(jobsOf(_).map(_.tasks).sum.toDouble), "count"),
      "spark.task_busy_s" -> (phased(jobsOf(_).map(_.busyMs).sum / 1e3), "s"),
      "spark.shuffle_write_bytes" -> (phased(jobsOf(_).map(_.shuffleWriteBytes).sum.toDouble), "bytes")) ++
      SparkLayers.map(l => s"spark.task_busy_s.$l" ->
        (phased(jobsOf(_).filter(_.layer == l).map(_.busyMs).sum / 1e3), "s"))
    val derived = Seq(
      "graph.clusters_s" -> (phased(jobsOf(_).filter(_.group == "eval.datasets_build").map(_.ms).sum / 1e3), "s"),
      "graph.clusters" -> (w.art.corpus.map(c => (c.cmd.size + c.emd.size).toDouble).getOrElse(0.0), "count"),
      "ml.epoch_ms" -> (epochMs, "ms"),
      "jvm.gc_s" -> (gcPerOpS, "s"),
      "jvm.heap_peak_mb" -> (heapPeakMb, "MB"),
      "trace.op_s" -> (median(walls), "s"),
      "trace.coverage" -> (median(ops.zip(walls).map { case (i, s) => t.coverage(i, s) }), "ratio"))
    val units = Map("_ms" -> "ms", "_s" -> "s")
    val replayed = replays.toSeq.sortBy(_._1).map { case (m, v) =>
      m -> (v, units.collectFirst { case (suf, u) if m.endsWith(suf) => u }.getOrElse("count"))
    }
    (spans ++ sparkTotals ++ derived ++ replayed).sortBy(_._1)
  }
}
