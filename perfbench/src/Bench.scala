package perfbench

import com.fasterxml.jackson.databind.{ObjectMapper, SerializationFeature}
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

object Stats {
  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return 0.0
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it, as
    * (percentile, value); the maximum (p100) when there are 10 samples or fewer.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted; val n = s.size
    if (n <= 10) (100.0, s.last) else (100.0 * (n - 10) / n, s(n - 11))
  }
}

/** Output check: each op's values against the values recorded from the
  * seed code for this workload and seed. Table 5–7 scores may differ by
  * [[TableTolerance]] (float summation order may change); all other values
  * must match exactly. Seeds without a recorded reference are checked for
  * run-to-run determinism against the run's first op and for value ranges.
  */
object Check {
  val TableTolerance = 0.05
  private def tolerant(k: String) = k.startsWith("table5.") || k.startsWith("table6.") || k.startsWith("table7.")
  private def ratio(k: String) = Seq("acc", "precision", "coverage", ".em", ".f1", ".cov", "_f1").exists(k.contains)

  def mismatches(got: Map[String, Double], want: Map[String, Double]): Seq[String] =
    (got.keySet ++ want.keySet).toSeq.sorted.flatMap { k =>
      (got.get(k), want.get(k)) match {
        case (Some(g), Some(w)) if g == w || (tolerant(k) && math.abs(g - w) <= TableTolerance) => None
        case (g, w) => Some(s"$k: got ${g.getOrElse("-")}, want ${w.getOrElse("-")}")
      }
    }

  def invariants(got: Map[String, Double]): Seq[String] =
    (if (got.isEmpty) Seq("no outputs") else Seq.empty) ++
      got.toSeq.sortBy(_._1).collect {
        case (k, v) if v.isNaN || v.isInfinite || v < 0 => s"$k: $v out of range"
        case (k, v) if ratio(k) && v > 1.0 => s"$k: $v above 1"
      }
}

/** Reference outputs per workload and seed, in `perfbench/reference.json`. */
object Reference {
  private val mapper = new ObjectMapper().enable(SerializationFeature.INDENT_OUTPUT)
    .enable(SerializationFeature.ORDER_MAP_ENTRIES_BY_KEYS)

  private def read(path: Path): java.util.Map[String, java.util.Map[String, java.util.Map[String, Double]]] =
    if (!Files.exists(path)) new java.util.TreeMap()
    else mapper.readValue(path.toFile, classOf[java.util.TreeMap[String, java.util.Map[String, java.util.Map[String, Double]]]])

  def lookup(path: Path, workload: String, seed: Long): Option[Map[String, Double]] =
    Option(read(path).get(workload)).flatMap(m => Option(m.get(seed.toString)))
      .map(_.asScala.map { case (k, v) => k -> v.doubleValue }.toMap)

  def record(path: Path, workload: String, seed: Long, values: Map[String, Double]): Unit = {
    val all = read(path)
    all.computeIfAbsent(workload, _ => new java.util.TreeMap()).put(seed.toString,
      new java.util.TreeMap[String, Double](values.asJava))
    mapper.writeValue(path.toFile, all)
  }
}

/** The benchmark entry point: one process, one workload, one seed.
  *
  * {{{
  * perfbench.Main --workload reproduce|tag --seed N --seconds S --trace 0|1
  *                [--reference perfbench/reference.json] [--record] [--out DIR]
  * }}}
  * The timed phase is cut into [[Slices]] slices, each after the workload's
  * `setupsPerSlice` set-ups (setup_s is the median of all set-ups). Before the
  * first slice, untimed ops warm the JIT for [[WarmupSeconds]] (at least one
  * op). In each slice a closed loop runs ops back to back for its share of S
  * seconds, so the timed ops are spread over the run. Every op's outputs are
  * checked. The last stdout line is the JSON result.
  */
object Main {
  val Slices = 3
  val WarmupSeconds = 3.0
  // op ids of the phases that are not timed ops
  val SetupOp = 1000; val WarmupOp = 2000; val ProbeOp = 3000

  final case class Opts(workload: String = "", seed: Long = 42, seconds: Double = 10, trace: Boolean = false,
                        reference: Path = Paths.get("perfbench", "reference.json"), record: Boolean = false,
                        out: Path = Paths.get(".bench_build", "out"))

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, o.copy(trace = v == "1"))
    case "--reference" :: v :: rest => parse(rest, o.copy(reference = Paths.get(v)))
    case "--record" :: rest => parse(rest, o.copy(record = true))
    case "--out" :: v :: rest => parse(rest, o.copy(out = Paths.get(v)))
    case Nil => o
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }

  def session(out: Path): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    SparkSession.builder.master(s"local[$cores]").appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", out.resolve("warehouse").toAbsolutePath.toString)
      .getOrCreate()
  }

  private def now(): Double = System.nanoTime() / 1e9

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList)
    require(Workload.Names.contains(o.workload), s"--workload must be one of ${Workload.Names.mkString(", ")}")
    Files.createDirectories(o.out)
    val spark = session(o.out)
    val code = try run(spark, o) finally spark.stop()
    sys.exit(code)
  }

  def run(spark: SparkSession, o: Opts): Int = {
    val sc = spark.sparkContext
    sc.setLogLevel("ERROR")
    val listener = new JobListener
    sc.addSparkListener(listener)
    val t = new Trace(sc, o.trace)
    val w = Workload(o.workload, spark, t, o.seed)
    val log = Console.err

    if (o.record) {
      t.beginOp(SetupOp); w.setup()
      t.beginOp(WarmupOp); w.op()
      val values = w.outputs()
      Check.invariants(values).foreach(m => log.println(s"[perfbench] invariant: $m"))
      Reference.record(o.reference, o.workload, o.seed, values)
      log.println(s"[perfbench] recorded ${values.size} values for ${o.workload} seed ${o.seed}")
      return 0
    }

    val reference = Reference.lookup(o.reference, o.workload, o.seed)
    var first: Option[Map[String, Double]] = None
    var failed = 0
    var attempted = 0
    def attempt(opId: Int): Option[(Double, Double, Double, Int)] = {
      attempted += 1
      t.beginOp(opId)
      val (w0, c0, p0) = (now(), Jvm.threadCpuSeconds, Jvm.cpuSeconds)
      try {
        val items = w.op()
        val (wall, cpu, proc) = (now() - w0, Jvm.threadCpuSeconds - c0, Jvm.cpuSeconds - p0)
        val got = w.outputs()
        val bad = Check.invariants(got) ++ Check.mismatches(got, reference.orElse(first).getOrElse(got))
        if (first.isEmpty) first = Some(got)
        if (bad.nonEmpty) {
          failed += 1
          log.println(s"[perfbench] op $opId failed the output check:\n  " + bad.take(20).mkString("\n  "))
          None
        } else Some((wall, cpu, proc, items))
      } catch {
        case NonFatal(e) =>
          failed += 1
          log.println(s"[perfbench] op $opId threw: $e")
          e.printStackTrace(log)
          None
      }
    }

    // The timed phase is cut into Slices slices, each after the workload's
    // set-ups, so that the timed ops sample the whole run rather than one
    // window of a shared host's load. Slice k runs ops until the timed wall
    // time reaches (k + 1) / Slices of --seconds; the last slice runs at
    // least one op, so the final state comes from an op. Untimed ops warm the
    // JIT before the first slice, and a full GC precedes every slice.
    val setupS = collection.mutable.ArrayBuffer[Double]()
    // (op id, wall s, CPU s of the calling thread, process CPU s, items) per timed op that passed
    val ops = collection.mutable.ArrayBuffer[(Int, Double, Double, Double, Int)]()
    var i = 0
    var timedS = 0.0
    var gcTotal = 0.0
    var heapPeak = 0.0
    for (k <- 0 until Slices) {
      for (_ <- 0 until w.setupsPerSlice) {
        t.beginOp(SetupOp + setupS.size)
        val t0 = now(); w.setup(); setupS += now() - t0
      }
      if (k == 0) {
        val warm0 = now()
        do attempt(WarmupOp) while (now() - warm0 < WarmupSeconds)
      }
      Jvm.fullGc()
      Jvm.resetPeak()
      val (start, gc0, sliceFirstOp) = (now(), Jvm.gcSeconds, i)
      val until = o.seconds * (k + 1) / Slices
      while (timedS + now() - start < until || (k == Slices - 1 && i == sliceFirstOp)) {
        attempt(i).foreach { case (wall, cpu, proc, items) => ops += ((i, wall, cpu, proc, items)) }
        i += 1
      }
      timedS += now() - start
      gcTotal += Jvm.gcSeconds - gc0
      heapPeak = math.max(heapPeak, Jvm.heapPeakMb)
    }
    val liveHeap = Jvm.liveHeapMb()

    val walls = ops.map(_._2).toSeq
    // op CPU: the calling thread's plus the op's Spark tasks', without JIT, GC
    // and Spark's own threads, whose share of a short op swings widely between
    // runs on a shared host
    val taskCpuS = listener.jobs().groupBy(_.op).map { case (op, js) => op -> js.map(_.cpuNs).sum / 1e9 }
    val cpus = ops.map { case (id, _, cpu, _, _) => cpu + taskCpuS.getOrElse(id, 0.0) }.toSeq
    val (tailPct, tailS) = if (walls.isEmpty) (100.0, 0.0) else Stats.tail(walls)
    val e2e = Seq(
      ("op_s", Stats.median(walls), "s"),
      ("op_tail_s", tailS, "s"),
      ("op_cpu_s", Stats.median(cpus), "s"),
      ("items_per_s", Stats.median(ops.map { case (_, wall, _, _, items) => items / wall }.toSeq), "1/s"),
      ("live_heap_mb", liveHeap, "MB"),
      ("setup_s", Stats.median(setupS.toSeq), "s"))

    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    println(s"workload ${o.workload}  seed ${o.seed}  scale ${w.scale}  trace ${if (o.trace) 1 else 0}")
    println(s"spark master ${sc.master}  cores $cores  shuffle partitions ${spark.conf.get("spark.sql.shuffle.partitions")}")
    println(s"reference ${if (reference.isDefined) "recorded for this seed" else "none for this seed: determinism and range checks only"}")
    println(f"ops $attempted attempted (${attempted - i} warm-up), $failed failed; failed_ops_ratio ${failed.toDouble / attempted}%.4f ratio")
    println(f"op_tail_s is p$tailPct%.1f over ${walls.size} timed ops; setup ran ${setupS.size} times; gc ${gcTotal}%.3f s in the timed phase")
    println("op wall s: " + walls.map(x => f"$x%.3f").mkString(" "))
    println("op cpu s:  " + cpus.map(x => f"$x%.3f").mkString(" "))
    println(f"process CPU per op, median ${Stats.median(ops.map(_._4).toSeq)}%.3f s (op_cpu_s plus JIT, GC and Spark's own threads)")
    e2e.foreach { case (n, v, u) => println(f"  $n%-16s $v%14.6f $u") }

    val metrics =
      if (!o.trace) e2e.map { case (n, v, u) => n -> (v, u) }
      else {
        t.beginOp(ProbeOp)
        val layer = Layers.metrics(spark, w, t, listener, 0 until i, setupS.indices.map(SetupOp + _),
          walls, gcTotal / i, heapPeak)
        t.dump(o.out.resolve(s"trace-${o.workload}-${o.seed}.tsv"), layer)
        layer.foreach { case (n, (v, u)) => println(f"  $n%-34s $v%16.6f $u") }
        layer
      }
    println(Json.result(failed == 0 && attempted > 0, attempted, failed, metrics))
    0
  }
}

object Json {
  private def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, (Double, String))]): String =
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""" +
      metrics.map { case (n, (v, u)) => s"""${str(n)}: {"value": ${num(v)}, "unit": ${str(u)}}""" }.mkString(", ") +
      "}}"
}
