package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** In-memory tracing from outside the program.
  *
  * `span(name) { … }` times one call into a module. A span has a name
  * (`<layer>.<what>`), start and end in ns, its parent span (-1 at top level)
  * and the id of the op it belongs to. Inside a span the Spark job group is the span
  * name, so a [[SparkListener]] can attribute jobs, tasks and shuffle bytes to
  * the layer that launched them. Spans stay in memory; [[Trace.dump]] writes
  * them out at the end with the run's per-layer metrics.
  */
final class Trace(sc: SparkContext, val enabled: Boolean) {
  import Trace._

  private val spans = mutable.ArrayBuffer[Span]()
  private var stack: List[Int] = Nil
  private var op = -1

  def beginOp(id: Int): Unit = { op = id; sc.setLocalProperty(OpProperty, id.toString) }

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = spans.size
      val parent = stack.headOption.getOrElse(-1)
      spans += Span(id, name, parent, op, System.nanoTime(), -1L)
      stack = id :: stack
      sc.setJobGroup(name, name)
      try body
      finally {
        spans(id) = spans(id).copy(endNs = System.nanoTime())
        stack = stack.tail
        stack.headOption match {
          case Some(p) => sc.setJobGroup(spans(p).name, spans(p).name)
          case None => sc.clearJobGroup()
        }
      }
    }

  def spansOf(opId: Int): Seq[Span] = spans.filter(s => s.op == opId && s.endNs >= 0).toSeq

  /** Seconds spent in spans named `name` during op `opId`. */
  def seconds(opId: Int, name: String): Double =
    spansOf(opId).filter(_.name == name).map(_.seconds).sum

  /** Share of `wallS` covered by the op's top-level spans. */
  def coverage(opId: Int, wallS: Double): Double =
    spansOf(opId).filter(_.parent < 0).map(_.seconds).sum / wallS

  /** Tab-separated spans and metrics, one per line. */
  def dump(path: java.nio.file.Path, metrics: Seq[(String, (Double, String))]): Unit = {
    val lines = spans.map(s => s"span\t${s.id}\t${s.name}\t${s.parent}\t${s.op}\t${s.startNs}\t${s.endNs}") ++
      metrics.map { case (n, (v, u)) => s"metric\t$n\t$v\t$u" }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.asJava)
  }
}

object Trace {
  val OpProperty = "perfbench.op"

  final case class Span(id: Int, name: String, parent: Int, op: Int, startNs: Long, endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  /** One finished Spark job as seen by the listener. */
  final case class Job(id: Int, group: String, op: Int, stageName: String,
                       startMs: Long, endMs: Long, tasks: Int, busyMs: Long, cpuNs: Long,
                       shuffleWriteBytes: Long) {
    def layer: String = group.takeWhile(_ != '.')
    def ms: Long = endMs - startMs
  }
}

/** Spark counters per job, keyed by the job group and op id set by [[Trace]]. */
final class JobListener extends SparkListener {
  import Trace.Job

  private final class Acc(val group: String, val op: Int, val stageName: String, val startMs: Long) {
    var tasks = 0; var busyMs = 0L; var cpuNs = 0L; var shuffleWrite = 0L
  }
  private val running = mutable.Map[Int, Acc]()
  private val stageJob = mutable.Map[Int, Int]()
  private val done = mutable.ArrayBuffer[Job]()
  private var started = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    def prop(k: String) = props.flatMap(p => Option(p.getProperty(k)))
    val first = e.stageInfos.sortBy(_.stageId).headOption.map(_.name).getOrElse("")
    running(e.jobId) = new Acc(prop("spark.jobGroup.id").getOrElse("none"),
      prop(Trace.OpProperty).map(_.toInt).getOrElse(-1), first, e.time)
    e.stageIds.foreach(stageJob(_) = e.jobId)
    started += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (j <- stageJob.get(e.stageId); acc <- running.get(j)) {
      acc.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        acc.busyMs += m.executorRunTime
        acc.cpuNs += m.executorCpuTime
        acc.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    running.remove(e.jobId).foreach { a =>
      done += Job(e.jobId, a.group, a.op, a.stageName, a.startMs, e.time, a.tasks, a.busyMs, a.cpuNs, a.shuffleWrite)
    }
  }

  /** Finished jobs, after the listener bus has delivered every job end. */
  def jobs(): Seq[Job] = {
    val deadline = System.currentTimeMillis() + 10000
    while (synchronized(done.size < started) && System.currentTimeMillis() < deadline) Thread.sleep(20)
    synchronized(done.toSeq)
  }
}

/** Process CPU, GC and heap read from the JVM's MXBeans. */
object Jvm {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).toSeq

  def cpuSeconds: Double = os.getProcessCpuTime / 1e9
  def threadCpuSeconds: Double = ManagementFactory.getThreadMXBean.getCurrentThreadCpuTime / 1e9
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum / 1e3

  def resetPeak(): Unit = heapPools.foreach(_.resetPeakUsage())
  /** Sum of per-pool heap peaks since the last reset, in MB. */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0

  def fullGc(): Unit = { val mem = ManagementFactory.getMemoryMXBean; mem.gc(); mem.gc() }

  /** Heap still live after full collections, in MB. */
  def liveHeapMb(): Double = {
    fullGc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}
